#pragma once

#include "net/messenger.h"

namespace afc::net {

/// The named transport rungs of the post-SimpleMessenger ladder, each a
/// complete `Connection::Config` constructed in exactly one place so benches
/// and tests stop hand-copying `prop_latency`/`send_cpu`/`recv_cpu` triples.
/// Ablations toggle one mechanism per rung:
///
///   community        SimpleMessenger as the paper measured it: dedicated
///                    send/receive pipelines per connection, per-message CPU,
///                    the O(rx_connections) receive tax — the Fig. 12 ceiling.
///   optimized        Identical wire costs to community; this is the rung the
///                    paper's optimized AFCeph runs on — its gains (TCP_NODELAY
///                    on KRBD, throttles, jemalloc, logging) live in
///                    core::Profile, not in the transport.
///   sharded          N receive shards per endpoint replace the receive
///                    pipelines; the per-connection tax becomes an amortized
///                    per-wakeup cost (the AsyncMessenger redesign).
///   sharded_batched  sharded + egress batching: small same-direction
///                    messages coalesce into one wire frame.
///   bypass           RDMA-like kernel-bypass cost structure: near-zero
///                    per-message CPU, one-time per-connection setup cost,
///                    lower propagation, no Nagle possible.
struct NetProfile {
  static Connection::Config community();
  static Connection::Config optimized();
  static Connection::Config sharded();
  static Connection::Config sharded_batched();
  static Connection::Config bypass();

  /// The cluster-network (OSD↔OSD) wiring variant of `base`: Ceph sets
  /// TCP_NODELAY on the sockets it owns, so Nagle is always off here.
  static Connection::Config cluster(const Connection::Config& base);

  /// The client-network (VM→OSD) wiring variant of `base`: `krbd_nagle`
  /// keeps the kernel-RBD default Nagle stall (the paper's §system-tuning
  /// target, core::Profile::disable_nagle turns it off).
  static Connection::Config client(const Connection::Config& base, bool krbd_nagle);
};

}  // namespace afc::net
