#include "net/profile.h"

namespace afc::net {

Connection::Config NetProfile::community() {
  // The default-constructed Config IS the community SimpleMessenger model;
  // keeping this rung equal to `Connection::Config{}` is what makes the
  // default-off byte-identity guarantee checkable (fig01/fig03/fig12 run
  // this rung whether or not they mention NetProfile).
  return Connection::Config{};
}

Connection::Config NetProfile::optimized() {
  // Same wire costs as community by design: the paper's optimized AFCeph
  // still runs SimpleMessenger. The rung exists so ladders/ablations can
  // name the baseline they must beat.
  return community();
}

Connection::Config NetProfile::sharded() {
  Connection::Config c = community();
  c.rx_shards = 4;  // AsyncMessenger-style small fixed reactor pool
  c.shard_wakeup_cpu = 2 * kMicrosecond;
  c.per_conn_recv_cpu = 0;  // the tax the redesign exists to remove
  return c;
}

Connection::Config NetProfile::sharded_batched() {
  Connection::Config c = sharded();
  c.batch = true;  // batch_max_bytes/delay, pack/unpack costs: Config defaults
  return c;
}

Connection::Config NetProfile::bypass() {
  Connection::Config c = community();
  c.transport = Connection::Transport::kBypass;
  c.prop_latency = 30 * kMicrosecond;  // no kernel stack on either end
  c.send_cpu = 1 * kMicrosecond;       // post a work request
  c.recv_cpu = 1500;                   // poll a completion
  c.per_conn_recv_cpu = 0;             // completion queues, not threads
  c.setup_cpu = 200 * kMicrosecond;    // QP setup + memory registration
  c.nagle = false;                     // nothing to stall: no socket
  return c;
}

Connection::Config NetProfile::cluster(const Connection::Config& base) {
  Connection::Config c = base;
  c.nagle = false;
  return c;
}

Connection::Config NetProfile::client(const Connection::Config& base, bool krbd_nagle) {
  Connection::Config c = base;
  c.nagle = krbd_nagle;
  return c;
}

}  // namespace afc::net
