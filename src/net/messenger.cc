#include "net/messenger.h"

#include <algorithm>
#include <unordered_map>

#include "common/rng.h"
#include "common/stage_names.h"
#include "net/batcher.h"
#include "net/shard.h"

namespace afc::net {

/// Everything only an injected link fault needs, off the hot object: most
/// directions never see a fault.
struct Connection::FaultState {
  Fault fault;
  Rng rng{0};
  /// Retransmissions waiting out their RTO, cancellable by close().
  struct PendingResend {
    Frame frame;
    sim::TimerToken token;
  };
  std::unordered_map<std::uint64_t, PendingResend> pending_resends;
  std::uint64_t next_resend_id = 1;
};

Connection::Connection(Messenger& local, Messenger& remote, const Config& cfg)
    : local_(local), remote_(remote), cfg_(&cfg), nagle_timer_(local.simulation()) {
  if (cfg.batch) batcher_ = std::make_unique<Batcher>(*this);
}

Connection::~Connection() = default;

void Connection::send(Message m) {
  if (local_.blackholed_) {
    // The sending daemon is "crashed": nothing leaves the node.
    return;
  }
  sent_++;
  inflight_++;
  if (trace::Collector::active() != nullptr && m.trace.valid()) {
    m.trace_send_ns = local_.simulation().now();
  }
  if (batcher_ != nullptr) {
    batcher_->add(std::move(m));
    return;
  }
  // Unbatched: every message is its own wire frame, same costs and event
  // sequence as the historical per-message model.
  Frame f;
  f.wire_size = m.size;
  f.msgs.push_back(std::move(m));
  enqueue_frame(std::move(f));
}

void Connection::enqueue_frame(Frame f) {
  frames_++;
  const std::uint64_t n = f.msgs.size();
  if (n >= 2) {
    batches_++;
    batched_msgs_ += n;
    if (n > max_batch_) max_batch_ = n;
  }
  frames_in_flight_++;
  push_tx(std::move(f));  // refused only after close(), like the frame's messages
}

// A push onto a stopped pipeline starts it with one zero-delay event, the
// event a notify to the pipeline parked on its empty queue would schedule.
// Each queue has one consumer, so the started pipeline always finds the
// frame: event order is that of the parked-thread model (docs/MODEL.md).
bool Connection::push_tx(Frame f) {
  if (closed_) return false;
  tx_.push_back(std::move(f));
  if (!tx_running_) {
    tx_running_ = true;
    local_.simulation().schedule_after(0, [c = this] { sim::spawn(c->sender_loop()); },
                                       "net.tx_start");
  }
  return true;
}

bool Connection::push_rx(Frame f) {
  if (closed_) return false;
  rx_.push_back(std::move(f));
  if (!rx_running_) {
    rx_running_ = true;
    local_.simulation().schedule_after(0, [c = this] { sim::spawn(c->receiver_loop()); },
                                       "net.rx_start");
  }
  return true;
}

void Connection::frame_done() {
  frames_in_flight_--;
  if (frames_in_flight_ == 0 && batcher_ != nullptr) batcher_->flush();  // pipeline idle
}

void Connection::account_lost(const Frame& f) { inflight_ -= f.msgs.size(); }

void Connection::set_fault(const Fault& f, std::uint64_t seed) {
  if (faults_ == nullptr) faults_ = std::make_unique<FaultState>();
  faults_->fault = f;
  faults_->rng.reseed(seed);
}

void Connection::clear_fault() {
  if (faults_ != nullptr) faults_->fault = Fault{};
}

const Connection::Fault& Connection::fault() const {
  static const Fault kNone{};
  return faults_ != nullptr ? faults_->fault : kNone;
}

void Connection::schedule_resend(Frame f) {
  // TCP-style retransmission, coarse: after the RTO the frame re-enters the
  // send queue at the back, so traffic sent meanwhile overtakes it — the
  // receiver observes reordering (and, with a duplicated ack path,
  // duplicates). A batched frame retransmits as a whole: TCP resends the
  // lost segment, not the individual writes coalesced inside it. The wheel
  // event is cancellable so close() can drop a resend in flight, exactly
  // like the Nagle stall.
  resends_++;
  const std::uint64_t id = faults_->next_resend_id++;
  auto [it, inserted] =
      faults_->pending_resends.emplace(id, FaultState::PendingResend{std::move(f), {}});
  it->second.token = local_.simulation().schedule_after(
      cfg_->retransmit_delay, [c = this, id] { c->resend_fire(id); }, "net.retransmit");
}

void Connection::resend_fire(std::uint64_t id) {
  auto& pending = faults_->pending_resends;
  auto it = pending.find(id);
  if (it == pending.end()) return;  // close() raced the wheel: nothing to do
  Frame f = std::move(it->second.frame);
  pending.erase(it);
  const std::uint64_t lost = f.msgs.size();
  if (push_tx(std::move(f))) {
    frames_in_flight_++;
  } else {
    inflight_ -= lost;  // connection closed meanwhile
  }
}

sim::CoTask<void> Connection::sender_loop() {
  const Config& cfg = *cfg_;
  while (!tx_.empty()) {
    Frame f = tx_.pop_front();
    // Injected link faults: decide this transmission's fate before it costs
    // anything (the drop models loss in the fabric; the partitioned case
    // retries nothing — silence until the fault clears).
    const Fault& fault = this->fault();
    if (fault.partitioned) {
      dropped_++;
      account_lost(f);
      frame_done();
      continue;
    }
    if (fault.drop_p > 0.0 && faults_->rng.chance(fault.drop_p)) {
      dropped_++;
      if (auto* tr = trace::Collector::active(); tr != nullptr) {
        for (const auto& m : f.msgs) {
          if (m.trace.valid()) {
            tr->instant(m.trace, tr->stage_id(stage::kNetLinkDrop), local_.simulation().now());
          }
        }
      }
      if (f.resend_attempts < cfg.max_resends) {
        f.resend_attempts++;
        schedule_resend(std::move(f));
      } else {
        account_lost(f);  // give up: loss surfaces to the timeout/retry layers
      }
      frame_done();
      continue;
    }
    // Nagle: a frame whose final segment is a runt (size not a multiple of
    // the MSS — every small/medium KRBD request, including a 4K write's
    // header+payload) waits for the delayed ACK of the previous exchange
    // when the direction is otherwise idle. `inflight_` counts this frame's
    // messages too, hence <= 1 means idle. Large streaming transfers keep
    // the pipe full and are unaffected. Only kernel sockets stall: batching
    // supersedes it (the batcher is the application-level Nagle) and the
    // bypass transport has no socket to stall.
    const bool can_nagle = cfg.nagle && cfg.transport == Transport::kTcp && batcher_ == nullptr;
    const bool runt = (f.wire_size < cfg.mss) ||
                      (f.wire_size <= cfg.nagle_max_size && (f.wire_size % cfg.mss) != 0);
    if (can_nagle && runt && inflight_ <= 1) {
      nagle_stalls_++;
      // Cancellable stall: close() drops the 3 ms deadline event off the
      // timing wheel and wakes us to exit, instead of the old behaviour of
      // sleeping through the stall on a dead connection.
      if (!co_await nagle_timer_.sleep(cfg.nagle_stall)) break;
    }
    // One send_cpu per frame — batching's sender-side amortization — plus a
    // small per-extra-message packing cost.
    co_await local_.node().cpu().consume(cfg.send_cpu +
                                         cfg.batch_pack_cpu * Time(f.msgs.size() - 1));
    co_await local_.node().nic_transmit(f.wire_size);
    const Time prop = cfg.prop_latency + this->fault().added_delay;  // read after the awaits
    co_await sim::delay(local_.simulation(), prop, "net.propagation");
    if (rx_target_ != nullptr) {
      rx_target_->push(rx_shard_, this, std::move(f));
    } else {
      // A frame still on the wire when the connection closes vanishes here,
      // as on the sharded path.
      push_rx(std::move(f));
    }
    frame_done();
  }
  tx_running_ = false;
}

sim::CoTask<void> Connection::receiver_loop() {
  while (!rx_.empty()) {
    Frame f = rx_.pop_front();
    co_await deliver_frame(std::move(f), /*via_shard=*/false);
  }
  rx_running_ = false;
}

sim::CoTask<void> Connection::deliver_frame(Frame f, bool via_shard) {
  if (remote_.blackholed_) {
    // The receiving daemon is "crashed": the frame reached the host but no
    // process consumes it. No CPU charged — dead daemons do no work.
    inflight_ -= f.msgs.size();
    co_return;
  }
  // One recv_cpu per frame (the receive-side amortization), a small
  // per-extra-message unpack cost, and — only in the per-connection
  // pipeline model — the O(rx_connections) SimpleMessenger tax. Sharded
  // delivery already paid its amortized wakeup cost in the shard worker.
  Time cpu = cfg_->recv_cpu + cfg_->batch_unpack_cpu * Time(f.msgs.size() - 1);
  if (!via_shard) {
    cpu += Time(cfg_->per_conn_recv_cpu) * remote_.rx_connections();
  }
  co_await remote_.node().cpu().consume(cpu);
  for (auto& m : f.msgs) {
    inflight_--;
    m.reply_to = reverse_;
    remote_.delivered_++;
    // net.wire: send() enqueue → delivered to the receiver. Covers sender
    // queueing, batch assembly, the Nagle stall if any, NIC serialization,
    // propagation and receive-side CPU — the messenger share of an op's
    // latency.
    if (auto* tr = trace::Collector::active(); tr != nullptr && m.trace.valid()) {
      tr->complete(m.trace, tr->stage_id(stage::kNetWire), m.trace_send_ns,
                   local_.simulation().now());
    }
    co_await remote_.receiver().on_message(std::move(m));
  }
}

void Connection::close() {
  closed_ = true;
  nagle_timer_.cancel();
  if (batcher_ != nullptr) batcher_->close();
  if (faults_ == nullptr) return;
  // Cancel retransmissions waiting out their RTO: nothing fires after
  // close(). (Determinism note: cancelling only tombstones wheel slots;
  // event order keys on schedule sequence, not slot reuse.)
  for (auto& [id, pr] : faults_->pending_resends) {
    local_.simulation().cancel(pr.token);
    account_lost(pr.frame);
  }
  faults_->pending_resends.clear();
}

void NetStats::merge(const NetStats& o) {
  messages += o.messages;
  frames += o.frames;
  batches += o.batches;
  batched_msgs += o.batched_msgs;
  max_batch = std::max(max_batch, o.max_batch);
  dropped_frames += o.dropped_frames;
  frame_resends += o.frame_resends;
  nagle_stalls += o.nagle_stalls;
  shard_wakeups += o.shard_wakeups;
  shard_frames += o.shard_frames;
  shard_depth_hwm = std::max(shard_depth_hwm, o.shard_depth_hwm);
}

Messenger::Messenger(sim::Simulation& sim, Node& node, Receiver& rx, std::string name)
    : sim_(sim), node_(node), rx_(rx), name_(std::move(name)) {}

Messenger::~Messenger() = default;

RxShards* Messenger::ensure_rx_shards(unsigned shards, Time wakeup_cpu) {
  if (rx_shards_ == nullptr) {
    rx_shards_ = std::make_unique<RxShards>(*this, shards, wakeup_cpu);
  }
  return rx_shards_.get();
}

const Connection::Config* Messenger::intern(const Connection::Config& cfg) {
  for (const auto& c : configs_) {
    if (*c == cfg) return c.get();
  }
  configs_.push_back(std::make_unique<Connection::Config>(cfg));
  return configs_.back().get();
}

Connection* Messenger::connect(Messenger& remote, const Connection::Config& cfg) {
  auto fwd = std::make_unique<Connection>(*this, remote, *intern(cfg));
  // The reply direction never applies Nagle (Ceph sets TCP_NODELAY on the
  // sockets it owns; the paper's problem is the KRBD client side).
  Connection::Config back_cfg = cfg;
  back_cfg.nagle = false;
  auto back = std::make_unique<Connection>(remote, *this, *intern(back_cfg));
  fwd->reverse_ = back.get();
  back->reverse_ = fwd.get();
  remote.rx_connections_++;
  rx_connections_++;
  if (cfg.rx_shards > 0) {
    // Each receiving endpoint shards its ingress; the connection's stable
    // registration index picks the shard for every frame it will ever carry.
    fwd->rx_target_ = remote.ensure_rx_shards(cfg.rx_shards, cfg.shard_wakeup_cpu);
    fwd->rx_shard_ = fwd->rx_target_->shard_of(remote.next_rx_index_);
    back->rx_target_ = ensure_rx_shards(cfg.rx_shards, cfg.shard_wakeup_cpu);
    back->rx_shard_ = back->rx_target_->shard_of(next_rx_index_);
  }
  remote.next_rx_index_++;
  next_rx_index_++;
  if (cfg.setup_cpu > 0) {
    // Connection establishment (bypass: QP setup + memory registration) is
    // real CPU, charged to each direction's sending node up front.
    sim::spawn_fn([n = &node_, c = cfg.setup_cpu]() -> sim::CoTask<void> {
      co_await n->cpu().consume(c);
    });
    sim::spawn_fn([n = &remote.node_, c = cfg.setup_cpu]() -> sim::CoTask<void> {
      co_await n->cpu().consume(c);
    });
  }
  Connection* out = fwd.get();
  conns_.push_back(std::move(fwd));
  conns_.push_back(std::move(back));
  return out;
}

NetStats Messenger::net_stats() const {
  // Sums the connection *directions* this endpoint initiated (both halves of
  // each pair it created), so summing every messenger in a cluster counts
  // each direction exactly once.
  NetStats s;
  for (const auto& c : conns_) {
    s.messages += c->sent();
    s.frames += c->frames();
    s.batches += c->batches();
    s.batched_msgs += c->batched_msgs();
    s.max_batch = std::max(s.max_batch, c->max_batch());
    s.dropped_frames += c->dropped();
    s.frame_resends += c->resends();
    s.nagle_stalls += c->nagle_stalls();
  }
  if (rx_shards_ != nullptr) {
    s.shard_wakeups = rx_shards_->wakeups();
    s.shard_frames = rx_shards_->frames();
    s.shard_depth_hwm = rx_shards_->depth_hwm();
  }
  return s;
}

void Messenger::close_all() {
  for (auto& c : conns_) c->close();
  if (rx_shards_ != nullptr) rx_shards_->close();
}

}  // namespace afc::net
