// Tests for the network layer: ordered delivery, CPU charging, NIC
// serialization, Nagle behaviour, backpressure through coroutine receivers.

#include <gtest/gtest.h>

#include "common/stats.h"
#include "net/messenger.h"
#include "net/profile.h"

namespace afc::net {
namespace {

struct Collector : Receiver {
  explicit Collector(sim::Simulation& s) : sim(s) {}
  sim::Simulation& sim;
  std::vector<int> types;
  std::vector<Time> at;
  Time handler_delay = 0;

  sim::CoTask<void> on_message(Message m) override {
    types.push_back(m.type);
    at.push_back(sim.now());
    last_reply_to = m.reply_to;
    if (handler_delay > 0) co_await sim::delay(sim, handler_delay);
  }
  Connection* last_reply_to = nullptr;
};

struct NetFixture {
  sim::Simulation sim;
  Node a{sim, "a", Node::Config{4, 1250 * kMiB}};
  Node b{sim, "b", Node::Config{4, 1250 * kMiB}};
  Collector rx_a{sim};
  Collector rx_b{sim};
  Messenger ma{sim, a, rx_a, "ma"};
  Messenger mb{sim, b, rx_b, "mb"};
};

Message msg(int type, std::uint64_t size) {
  Message m;
  m.type = type;
  m.size = size;
  return m;
}

TEST(Messenger, DeliversInOrderPerConnection) {
  NetFixture f;
  Connection* c = f.ma.connect(f.mb, Connection::Config{});
  for (int i = 0; i < 20; i++) c->send(msg(i, 4096));
  f.sim.run();
  ASSERT_EQ(f.rx_b.types.size(), 20u);
  for (int i = 0; i < 20; i++) EXPECT_EQ(f.rx_b.types[std::size_t(i)], i);
}

TEST(Messenger, ReplyPathWorks) {
  NetFixture f;
  Connection* c = f.ma.connect(f.mb, Connection::Config{});
  c->send(msg(1, 100));
  f.sim.run();
  ASSERT_NE(f.rx_b.last_reply_to, nullptr);
  f.rx_b.last_reply_to->send(msg(2, 100));
  f.sim.run();
  ASSERT_EQ(f.rx_a.types.size(), 1u);
  EXPECT_EQ(f.rx_a.types[0], 2);
}

TEST(Messenger, TransferTimeScalesWithSize) {
  NetFixture f;
  Connection::Config cfg;
  Connection* c = f.ma.connect(f.mb, cfg);
  c->send(msg(1, 1000));
  f.sim.run();
  const Time small = f.rx_b.at[0];
  c->send(msg(2, 4 * kMiB));
  f.sim.run();
  const Time big = f.rx_b.at[1] - small;
  // 4 MiB over 10 GbE ~ 3.2ms of serialization; small message ~ tens of us.
  EXPECT_GT(big, 5 * small);
  EXPECT_GT(big, 3 * kMillisecond);
}

TEST(Messenger, NagleStallsIdleSmallWrites) {
  NetFixture idle_fix, busy_fix;
  Connection::Config cfg;
  cfg.nagle = true;
  cfg.nagle_stall = 3 * kMillisecond;

  // Idle connection: single small message suffers the stall.
  Connection* c1 = idle_fix.ma.connect(idle_fix.mb, cfg);
  c1->send(msg(1, 4246));  // 4K write + header: runt tail
  idle_fix.sim.run();
  EXPECT_GE(idle_fix.rx_b.at[0], 3 * kMillisecond);
  EXPECT_EQ(c1->nagle_stalls(), 1u);

  // Pipelined connection: later messages see traffic in flight, few stalls.
  Connection* c2 = busy_fix.ma.connect(busy_fix.mb, cfg);
  for (int i = 0; i < 16; i++) c2->send(msg(i, 4246));
  busy_fix.sim.run();
  EXPECT_LE(c2->nagle_stalls(), 2u);  // only the leading edge stalls
}

TEST(Messenger, NagleSparesLargeStreams) {
  NetFixture f;
  Connection::Config cfg;
  cfg.nagle = true;
  Connection* c = f.ma.connect(f.mb, cfg);
  c->send(msg(1, 4 * kMiB));  // above nagle_max_size: streams
  f.sim.run();
  EXPECT_EQ(c->nagle_stalls(), 0u);
}

TEST(Messenger, NoDelayDisablesStall) {
  NetFixture f;
  Connection::Config cfg;
  cfg.nagle = false;
  Connection* c = f.ma.connect(f.mb, cfg);
  c->send(msg(1, 4246));
  f.sim.run();
  EXPECT_LT(f.rx_b.at[0], 1 * kMillisecond);
  EXPECT_EQ(c->nagle_stalls(), 0u);
}

TEST(Messenger, ReverseDirectionNeverNagles) {
  NetFixture f;
  Connection::Config cfg;
  cfg.nagle = true;
  Connection* c = f.ma.connect(f.mb, cfg);
  // The reply direction models Ceph's TCP_NODELAY sockets.
  c->reverse()->send(msg(1, 200));
  f.sim.run();
  EXPECT_LT(f.rx_a.at.at(0), 1 * kMillisecond);
}

TEST(Messenger, SlowReceiverBackpressuresOnlyItsConnection) {
  NetFixture f;
  f.rx_b.handler_delay = 2 * kMillisecond;  // slow consumer at b
  Connection* slow = f.ma.connect(f.mb, Connection::Config{});
  Connection* fast = f.ma.connect(f.mb, Connection::Config{});
  // Fill the slow connection, then send one message on the fast one.
  for (int i = 0; i < 10; i++) slow->send(msg(100 + i, 1000));
  fast->send(msg(1, 1000));
  f.sim.run_until(5 * kMillisecond);
  // The fast connection's message arrived even though the slow one is
  // still draining (SimpleMessenger: receiver pipeline per connection).
  EXPECT_NE(std::find(f.rx_b.types.begin(), f.rx_b.types.end(), 1), f.rx_b.types.end());
  EXPECT_LT(f.rx_b.types.size(), 11u);
  f.sim.run();
}

TEST(Messenger, ChargesCpuOnBothEnds) {
  NetFixture f;
  Connection* c = f.ma.connect(f.mb, Connection::Config{});
  for (int i = 0; i < 100; i++) c->send(msg(i, 1000));
  f.sim.run();
  EXPECT_GT(f.a.cpu().busy_ns(), 0u);
  EXPECT_GT(f.b.cpu().busy_ns(), 0u);
  EXPECT_GE(f.a.tx_bytes(), 100u * 1000u);
}

TEST(Messenger, PerConnectionCpuTaxGrowsWithConnections) {
  // The Fig.12 SimpleMessenger effect: receive cost grows with the number
  // of registered connections.
  sim::Simulation sim;
  Node a{sim, "a", Node::Config{4, 1250 * kMiB}};
  Node b{sim, "b", Node::Config{4, 1250 * kMiB}};
  Collector rx_a{sim}, rx_b{sim};
  Messenger ma{sim, a, rx_a, "ma"}, mb{sim, b, rx_b, "mb"};
  Connection::Config cfg;
  cfg.per_conn_recv_cpu = 1000;  // exaggerate for the test
  Connection* first = ma.connect(mb, cfg);
  first->send(msg(1, 100));
  sim.run();
  const Time busy_one = b.cpu().busy_ns();
  for (int i = 0; i < 63; i++) ma.connect(mb, cfg);
  first->send(msg(2, 100));
  sim.run();
  const Time busy_many = b.cpu().busy_ns() - busy_one;
  EXPECT_GT(busy_many, busy_one + 50 * kMicrosecond);
}

TEST(Messenger, ZeroLengthPayloadDelivers) {
  // Control messages (pings, map updates) can be header-only. A zero wire
  // size must neither divide-by-zero in the Nagle runt check nor stall the
  // pipeline — with nagle off it delivers promptly like any runt.
  NetFixture f;
  Connection::Config cfg;
  cfg.nagle = false;
  Connection* c = f.ma.connect(f.mb, cfg);
  c->send(msg(7, 0));
  f.sim.run();
  ASSERT_EQ(f.rx_b.types.size(), 1u);
  EXPECT_EQ(f.rx_b.types[0], 7);
  EXPECT_LT(f.rx_b.at[0], 1 * kMillisecond);
}

TEST(Messenger, DuplicateSendsDeliverInOrder) {
  // The wire offers no dedup: two sends of the same logical message arrive
  // as two deliveries, in order. De-duplication is the receiver's job (the
  // OSD's rep-reply path counts osd.dup_rep_replies — see test_fault.cc).
  NetFixture f;
  Connection* c = f.ma.connect(f.mb, Connection::Config{});
  c->send(msg(9, 1000));
  c->send(msg(9, 1000));
  f.sim.run();
  ASSERT_EQ(f.rx_b.types.size(), 2u);
  EXPECT_EQ(f.rx_b.types[0], 9);
  EXPECT_EQ(f.rx_b.types[1], 9);
}

TEST(Messenger, DroppedMessageIsRetransmittedOnce) {
  // drop_p = 1.0 guarantees the first transmission is dropped; clearing the
  // fault before the retransmit timer fires guarantees the second attempt
  // succeeds. Exactly one delivery, one drop, one resend — deterministic.
  NetFixture f;
  Connection* c = f.ma.connect(f.mb, Connection::Config{});
  EXPECT_FALSE(c->fault().any());
  c->set_fault(Connection::Fault{.drop_p = 1.0}, /*seed=*/1);
  EXPECT_TRUE(c->fault().any());
  c->send(msg(5, 4096));
  f.sim.run_until(100 * kMicrosecond);  // first attempt drops; resend pending
  EXPECT_EQ(c->dropped(), 1u);
  EXPECT_TRUE(f.rx_b.types.empty());
  EXPECT_TRUE(c->idle());  // the resend waits on the wheel, not in a pipeline
  // Clearing the fault keeps the pending resend: it fires at the RTO.
  c->clear_fault();
  EXPECT_FALSE(c->fault().any());
  f.sim.run();
  ASSERT_EQ(f.rx_b.types.size(), 1u);
  EXPECT_EQ(f.rx_b.types[0], 5);
  EXPECT_GT(f.rx_b.at[0], Connection::Config{}.retransmit_delay);
  EXPECT_EQ(c->resends(), 1u);
}

TEST(Messenger, DelayedResendArrivesOutOfOrder) {
  // A drops, its retransmission re-enters the send queue at the back, and a
  // message sent meanwhile overtakes it: the receiver observes reordering,
  // which the OSD layers must tolerate (and the fault tests exercise).
  NetFixture f;
  Connection* c = f.ma.connect(f.mb, Connection::Config{});
  c->set_fault(Connection::Fault{.drop_p = 1.0}, /*seed=*/1);
  c->send(msg(1, 4096));  // dropped; retransmits after retransmit_delay
  f.sim.run_until(100 * kMicrosecond);
  c->clear_fault();
  c->send(msg(2, 4096));  // sent after A, arrives before A's retransmission
  f.sim.run();
  ASSERT_EQ(f.rx_b.types.size(), 2u);
  EXPECT_EQ(f.rx_b.types[0], 2);
  EXPECT_EQ(f.rx_b.types[1], 1);
}

TEST(Messenger, PartitionDropsWithoutRetransmission) {
  // Partitioned links model the application-visible outcome of TCP retrying
  // into the void: silence, no resend traffic, recovery left to the upper
  // layers' timeouts.
  NetFixture f;
  Connection* c = f.ma.connect(f.mb, Connection::Config{});
  c->set_fault(Connection::Fault{.partitioned = true}, /*seed=*/1);
  for (int i = 0; i < 5; i++) c->send(msg(i, 1000));
  f.sim.run();
  EXPECT_TRUE(f.rx_b.types.empty());
  EXPECT_EQ(c->dropped(), 5u);
  EXPECT_EQ(c->resends(), 0u);
}

TEST(Messenger, CloseCancelsNagleStallInFlight) {
  // A runt message on an idle connection parks the sender in a 3 ms Nagle
  // stall. close() must cancel that timer off the wheel and wake the sender
  // to exit — not sleep through the stall on a dead connection.
  NetFixture f;
  Connection::Config cfg;
  cfg.nagle = true;
  cfg.nagle_stall = 3 * kMillisecond;
  Connection* c = f.ma.connect(f.mb, cfg);
  c->send(msg(1, 4246));
  // Let the sender reach the stall, then close mid-stall.
  f.sim.run_until(100 * kMicrosecond);
  EXPECT_EQ(c->nagle_stalls(), 1u);
  f.ma.close_all();
  f.sim.run();
  EXPECT_TRUE(f.rx_b.types.empty());          // the message never went out
  EXPECT_LT(f.sim.now(), 3 * kMillisecond);   // and we never slept to the deadline
}

// ---------------------------------------------------------------------------
// On-demand pipelines: an idle direction holds no coroutine and schedules
// nothing.
// ---------------------------------------------------------------------------

TEST(Messenger, ConnectionIdleAfterConnectAndAfterBurstDrains) {
  NetFixture f;
  Connection* c = f.ma.connect(f.mb, Connection::Config{});
  EXPECT_TRUE(c->idle());
  EXPECT_TRUE(c->reverse()->idle());
  EXPECT_EQ(f.sim.pending_events(), 0u);  // connect() starts no pipeline
  for (int i = 0; i < 5; i++) c->send(msg(i, 4096));
  EXPECT_FALSE(c->idle());
  f.sim.run_until(80 * kMicrosecond);  // first frame delivered, the rest in flight
  EXPECT_FALSE(c->idle());
  f.sim.run();
  ASSERT_EQ(f.rx_b.types.size(), 5u);
  EXPECT_TRUE(c->idle());
  EXPECT_TRUE(c->reverse()->idle());
}

std::uint64_t site_count(const sim::Simulation& sim, const std::string& site) {
  Counters c;
  sim.profile_into(c);
  return c.get("sim.site." + site);
}

TEST(Messenger, ShardedDirectionNeverStartsReceivePipeline) {
  // Under sharded dispatch the remote's shard workers deliver, so the
  // direction's own receive pipeline must never start, not even once.
  NetFixture f;
  f.sim.enable_profiling();
  f.rx_b.handler_delay = 50 * kMicrosecond;
  Connection* c = f.ma.connect(f.mb, NetProfile::sharded());
  for (int i = 0; i < 4; i++) c->send(msg(i, 4096));
  f.sim.run_until(150 * kMicrosecond);
  ASSERT_FALSE(f.rx_b.types.empty());
  ASSERT_LT(f.rx_b.types.size(), 4u);  // a shard is still delivering
  EXPECT_FALSE(c->idle());             // the sender still runs
  f.sim.run();
  ASSERT_EQ(f.rx_b.types.size(), 4u);
  EXPECT_TRUE(c->idle());
  EXPECT_GT(site_count(f.sim, "net.tx_start"), 0u);
  EXPECT_EQ(site_count(f.sim, "net.rx_start"), 0u);

  // The per-connection model starts it for the same traffic.
  NetFixture g;
  g.sim.enable_profiling();
  Connection* d = g.ma.connect(g.mb, Connection::Config{});
  for (int i = 0; i < 4; i++) d->send(msg(i, 4096));
  g.sim.run();
  EXPECT_GT(site_count(g.sim, "net.rx_start"), 0u);
}

TEST(Messenger, DirectionsShareOneConfigPerDistinctConfig) {
  // A messenger keeps one copy of each distinct config; the reply
  // direction's no-Nagle copy is a config of its own.
  NetFixture f;
  Connection::Config nagle;
  nagle.nagle = true;
  Connection* c1 = f.ma.connect(f.mb, nagle);
  Connection* c2 = f.ma.connect(f.mb, nagle);
  Connection* c3 = f.ma.connect(f.mb, Connection::Config{});
  EXPECT_EQ(&c1->config(), &c2->config());
  EXPECT_TRUE(c1->config().nagle);
  EXPECT_FALSE(c1->reverse()->config().nagle);
  EXPECT_EQ(&c1->reverse()->config(), &c2->reverse()->config());
  EXPECT_EQ(&c3->config(), &c1->reverse()->config());  // both the default config
  EXPECT_EQ(&c3->reverse()->config(), &c3->config());
}

TEST(Messenger, ConnectionObjectStaysSmall) {
  // Thousands of directions sit idle in a 16-node cluster; keep each one
  // lean (it was 720 bytes with a Config copy and two Channels inside).
  EXPECT_LE(sizeof(Connection), 288u);
}

// ---------------------------------------------------------------------------
// close()
// ---------------------------------------------------------------------------

TEST(Messenger, CloseDeliversQueuedFrameAndDropsFrameOnWire) {
  // Three 4K frames at t=0: the first reaches the receiver at ~75us and
  // holds it for 100us, the second waits in the receive queue from ~150us,
  // and the third is still propagating at 170us, when the connection closes.
  NetFixture f;
  f.rx_b.handler_delay = 100 * kMicrosecond;
  Connection* c = f.ma.connect(f.mb, Connection::Config{});
  for (int i = 1; i <= 3; i++) c->send(msg(i, 4096));
  f.sim.run_until(170 * kMicrosecond);
  ASSERT_EQ(f.rx_b.types, std::vector<int>{1});
  f.ma.close_all();
  f.sim.run();
  EXPECT_EQ(f.rx_b.types, (std::vector<int>{1, 2}));  // the queued frame still arrives
  EXPECT_TRUE(c->idle());
  c->send(msg(4, 4096));  // refused after close
  f.sim.run();
  EXPECT_EQ(f.rx_b.types.size(), 2u);
}

TEST(Messenger, CloseOfIdleConnectionSchedulesNothing) {
  NetFixture f;
  Connection* c = f.ma.connect(f.mb, Connection::Config{});
  f.ma.close_all();
  EXPECT_EQ(f.sim.pending_events(), 0u);

  // Nor after a burst has drained.
  NetFixture g;
  c = g.ma.connect(g.mb, Connection::Config{});
  for (int i = 0; i < 3; i++) c->send(msg(i, 4096));
  g.sim.run();
  ASSERT_EQ(g.rx_b.types.size(), 3u);
  const std::uint64_t executed = g.sim.executed_events();
  g.ma.close_all();
  EXPECT_EQ(g.sim.pending_events(), 0u);
  g.sim.run();
  EXPECT_EQ(g.sim.executed_events(), executed);
}

}  // namespace
}  // namespace afc::net
