#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/ring_queue.h"
#include "core/trace.h"
#include "net/link.h"
#include "sim/task.h"

namespace afc::net {

/// Base class for message payloads; the OSD/client layers subclass this.
struct MsgBody {
  virtual ~MsgBody() = default;
};

struct Message {
  int type = 0;
  std::uint64_t size = 0;  // wire size in bytes (header + payload)
  std::shared_ptr<MsgBody> body;
  class Connection* reply_to = nullptr;  // reverse direction, set on delivery
  /// Op attribution for the tracer (set by senders only while tracing).
  trace::Span trace;
  Time trace_send_ns = 0;  // send() enqueue time, for the net.wire span
};

/// The unit that actually traverses a connection. Without batching every
/// frame carries exactly one message and `wire_size` equals that message's
/// size, so the default transport is byte-for-byte the per-message model.
/// The egress batcher packs several small same-direction messages into one
/// frame (payloads moved, never copied — bytes are charged to the NIC once);
/// link faults drop, delay and retransmit whole frames.
struct Frame {
  std::vector<Message> msgs;
  std::uint64_t wire_size = 0;
  std::uint16_t resend_attempts = 0;
};

class Messenger;
class Batcher;
class RxShards;

/// Anything that can receive messages (an OSD, a client, a SolidFire node).
class Receiver {
 public:
  virtual ~Receiver() = default;
  /// Called in-order per connection after the receive-side CPU cost has been
  /// charged. The connection's delivery pipeline waits for the returned task,
  /// so suspending here (e.g. on the OSD's client-message throttle) back-
  /// pressures that connection exactly like the real messenger's dispatch
  /// throttler. Under sharded dispatch the *shard* waits instead, so a slow
  /// receiver stalls every connection hashed to the same shard (the honest
  /// cost of replacing thread-per-connection with N dispatch shards).
  /// Spawn long work instead of awaiting it.
  virtual sim::CoTask<void> on_message(Message m) = 0;
};

/// One direction of a messenger pair: local → remote. The default models
/// Ceph's SimpleMessenger structure: a dedicated sender pipeline and a
/// dedicated receiver pipeline per connection, in-order delivery, and
/// per-message CPU charged to both endpoints (plus a per-registered-
/// connection receive tax — the thread-per-connection context-switch cost
/// behind Fig. 12's 16-node ceiling; `per_conn_recv_cpu` still counts every
/// registered connection, busy or idle). Optionally applies a TCP-Nagle
/// stall to small messages when the direction is otherwise idle (the KRBD
/// behaviour the paper's system tuning disables).
///
/// The pipelines model threads, but the simulator runs them on demand: a
/// direction is two frame queues, and a pipeline is a coroutine that starts
/// when a frame lands on its stopped queue and ends when it finds the queue
/// empty, where a thread would block. The start is one zero-delay event
/// ("net.tx_start" / "net.rx_start") in the place a parked pipeline's wakeup
/// would be, so event order is the thread model's; an idle direction holds
/// no coroutine frame and schedules nothing (docs/MODEL.md, "Connection
/// pipelines start on demand").
///
/// Three post-SimpleMessenger mechanisms stack on top, each independently
/// toggleable (see net::NetProfile for the named rungs; all default off):
///
///   * sharded dispatch (`rx_shards > 0`): the receiving endpoint runs N
///     dispatch shards instead of one receive pipeline per connection;
///     connections map to shards by stable hash, per-connection FIFO order
///     is preserved, and the O(rx_connections) `per_conn_recv_cpu` tax is
///     replaced by a per-shard wakeup cost amortized over every frame the
///     wakeup drains. Such a direction never starts its receive pipeline.
///   * egress batching (`batch`): small same-direction messages coalesce
///     into one wire frame. A frame flushes when it reaches
///     `batch_max_bytes`, when `batch_max_delay` expires, or as soon as the
///     sender pipeline goes idle — so sparse traffic pays no added latency
///     while busy links amortize `send_cpu`/`recv_cpu` across the batch.
///   * bypass transport (`transport = kBypass`): RDMA-like cost structure —
///     near-zero per-message CPU, a one-time per-connection `setup_cpu`,
///     and no Nagle ever (there is no kernel socket to stall).
///
/// A direction's Config is interned by the messenger that created it (one
/// copy per distinct config), and the fault-injection state lives off the
/// object until the first set_fault().
class Connection {
 public:
  enum class Transport {
    kTcp,     // kernel sockets: Nagle possible, per-message CPU as configured
    kBypass,  // RDMA-like: no Nagle, setup cost at connect, near-zero per-msg CPU
  };

  struct Config {
    Time prop_latency = 60 * kMicrosecond;  // switch + propagation
    Time send_cpu = 10 * kMicrosecond;
    Time recv_cpu = 14 * kMicrosecond;
    Time per_conn_recv_cpu = 60;  // ns per registered rx connection: the
                                  // SimpleMessenger thread-per-connection
                                  // context-switch tax (Fig. 12)
    bool nagle = false;
    Time nagle_stall = 3 * kMillisecond;
    std::uint64_t mss = 1448;
    std::uint64_t nagle_max_size = 64 * 1024;  // larger transfers stream
    /// Lossy-link recovery (TCP retransmission, coarse): a frame dropped
    /// by an injected link fault is re-enqueued after this delay, up to
    /// `max_resends` attempts. Later traffic overtakes the retransmission,
    /// so receivers see duplicates and reordering — exactly what the fault
    /// tests exercise. A batched frame retransmits as a whole.
    Time retransmit_delay = 200 * kMicrosecond;
    unsigned max_resends = 8;

    // --- post-SimpleMessenger transport family (all default off) ---------
    Transport transport = Transport::kTcp;
    /// One-time connection-establishment CPU per direction, charged to the
    /// sending node at connect() (bypass: queue-pair setup + registration).
    Time setup_cpu = 0;
    /// Receive shards at the receiving endpoint; 0 = one receive pipeline
    /// per connection (the SimpleMessenger model). The first sharded
    /// connect() fixes an endpoint's shard count.
    unsigned rx_shards = 0;
    /// Charged once per shard wakeup, amortized over every frame that
    /// wakeup drains (replaces the per-connection tax).
    Time shard_wakeup_cpu = 2 * kMicrosecond;
    /// Egress batching/coalescing.
    bool batch = false;
    std::uint64_t batch_max_bytes = 16 * 1024;
    Time batch_max_delay = 20 * kMicrosecond;
    std::uint64_t frame_header_bytes = 48;  // per batched frame, on the wire
    Time batch_pack_cpu = 1 * kMicrosecond;  // sender, per message beyond the first
    Time batch_unpack_cpu = 1500;            // receiver, per message beyond the first

    bool operator==(const Config&) const = default;
  };

  /// Injected link fault state (set by fault::FaultInjector, default off).
  /// `drop_p` drops each transmission independently (retransmitted per the
  /// Config); `added_delay` stretches propagation; `partitioned` drops
  /// everything with no retransmission (TCP would retry into the void — we
  /// model the application-visible outcome: silence until the fault clears).
  struct Fault {
    double drop_p = 0.0;
    Time added_delay = 0;
    bool partitioned = false;

    bool any() const { return drop_p > 0.0 || added_delay != 0 || partitioned; }
  };

  /// `cfg` must outlive the connection (Messenger::connect interns it).
  Connection(Messenger& local, Messenger& remote, const Config& cfg);
  ~Connection();

  /// Enqueue a message for ordered delivery to the remote receiver.
  void send(Message m);

  Connection* reverse() const { return reverse_; }
  Messenger& local() { return local_; }
  Messenger& remote() { return remote_; }
  const Config& config() const { return *cfg_; }

  /// Install / clear an injected link fault on this direction. `seed` feeds
  /// the drop coin-flip stream (deterministic per connection). Clearing
  /// keeps retransmissions already waiting out their RTO: they still fire.
  void set_fault(const Fault& f, std::uint64_t seed);
  void clear_fault();
  const Fault& fault() const;

  /// Neither pipeline is running: this direction holds no coroutine frame.
  /// True from connect() until the first send, and again once every frame
  /// sent has been delivered, dropped or handed to a receive shard.
  bool idle() const { return !tx_running_ && !rx_running_; }

  std::uint64_t sent() const { return sent_; }
  std::uint64_t nagle_stalls() const { return nagle_stalls_; }
  std::uint64_t dropped() const { return dropped_; }
  std::uint64_t resends() const { return resends_; }
  // --- frame/batch counters (tentpole instrumentation) -------------------
  std::uint64_t frames() const { return frames_; }
  std::uint64_t batches() const { return batches_; }
  std::uint64_t batched_msgs() const { return batched_msgs_; }
  std::uint64_t max_batch() const { return max_batch_; }
  /// Frames enqueued to the sender but not yet handed to the receive side;
  /// the batcher flushes eagerly whenever this hits zero.
  std::uint64_t frames_in_flight() const { return frames_in_flight_; }

  /// Refuse further frames (for clean shutdown). A running pipeline still
  /// drains what is queued, but a frame finishing its propagation after
  /// close() is dropped at the receive queue. Cancels a pending Nagle
  /// stall, a pending batch-flush timer, and any scheduled retransmissions
  /// of dropped frames — nothing fires after close(), and an idle
  /// direction schedules nothing at all.
  void close();

  /// Deliver one frame to the remote receiver, charging receive-side CPU.
  /// `via_shard` selects the sharded cost model (no per-connection tax).
  /// Internal: called by the receiver pipeline or the remote's RxShards.
  sim::CoTask<void> deliver_frame(Frame f, bool via_shard);

 private:
  friend class Messenger;
  friend class Batcher;
  struct FaultState;
  /// The pipelines: each drains its queue and returns when it finds it
  /// empty. Started only by push_tx / push_rx.
  sim::CoTask<void> sender_loop();
  sim::CoTask<void> receiver_loop();
  /// Queue a frame for the sender / receiver pipeline, starting a stopped
  /// pipeline with one zero-delay event. False (frame refused) after close().
  bool push_tx(Frame f);
  bool push_rx(Frame f);
  /// Hand a completed frame to the sender pipeline (from send() or the
  /// batcher's flush).
  void enqueue_frame(Frame f);
  /// The sender finished (delivered or dropped) one frame; when the
  /// pipeline drains, pending batched messages flush immediately.
  void frame_done();
  void schedule_resend(Frame f);
  void resend_fire(std::uint64_t id);
  void account_lost(const Frame& f);

  Messenger& local_;
  Messenger& remote_;
  const Config* cfg_;
  Connection* reverse_ = nullptr;
  RingQueue<Frame> tx_;
  RingQueue<Frame> rx_;
  bool tx_running_ = false;
  bool rx_running_ = false;
  bool closed_ = false;
  unsigned rx_shard_ = 0;             // stable-hash shard at the remote endpoint
  RxShards* rx_target_ = nullptr;     // non-null iff the remote endpoint shards
  sim::Timer nagle_timer_;  // cancellable: close() drops a stall in flight
  std::unique_ptr<Batcher> batcher_;  // non-null iff config().batch
  std::unique_ptr<FaultState> faults_;  // created by the first set_fault()
  std::uint64_t inflight_ = 0;  // messages in this direction's pipelines
  std::uint64_t frames_in_flight_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t nagle_stalls_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t resends_ = 0;
  std::uint64_t frames_ = 0;
  std::uint64_t batches_ = 0;       // frames carrying >= 2 messages
  std::uint64_t batched_msgs_ = 0;  // messages inside such frames
  std::uint64_t max_batch_ = 0;
};

/// Aggregated transport counters for one endpoint (sums over the connection
/// directions the endpoint owns, plus its shard set if any).
struct NetStats {
  std::uint64_t messages = 0;  // messages sent
  std::uint64_t frames = 0;    // wire frames sent
  std::uint64_t batches = 0;
  std::uint64_t batched_msgs = 0;
  std::uint64_t max_batch = 0;
  std::uint64_t dropped_frames = 0;
  std::uint64_t frame_resends = 0;
  std::uint64_t nagle_stalls = 0;
  std::uint64_t shard_wakeups = 0;
  std::uint64_t shard_frames = 0;
  std::size_t shard_depth_hwm = 0;

  /// Mean messages per wire frame (1.0 when batching never engaged).
  double batch_occupancy() const {
    return frames == 0 ? 0.0 : double(messages) / double(frames);
  }
  void merge(const NetStats& o);
};

/// A message endpoint bound to a Node and a Receiver.
class Messenger {
 public:
  Messenger(sim::Simulation& sim, Node& node, Receiver& rx, std::string name);
  ~Messenger();
  Messenger(const Messenger&) = delete;
  Messenger& operator=(const Messenger&) = delete;

  /// Create a bidirectional connection pair; returns the local→remote
  /// direction (use conn->reverse() for replies, though delivery already
  /// stamps Message::reply_to).
  Connection* connect(Messenger& remote, const Connection::Config& cfg);

  sim::Simulation& simulation() { return sim_; }
  Node& node() { return node_; }
  Receiver& receiver() { return rx_; }
  const std::string& name() const { return name_; }

  unsigned rx_connections() const { return rx_connections_; }
  std::uint64_t delivered() const { return delivered_; }

  /// Crash simulation: a blackholed endpoint sends nothing (messages vanish
  /// at send()) and receives nothing (deliveries vanish before on_message,
  /// charging no CPU — a dead process does no work). In-flight coroutines
  /// keep running but their outputs never leave the node; un-blackholing
  /// models the daemon restarting on the same messenger.
  void set_blackhole(bool dead) { blackholed_ = dead; }
  bool blackholed() const { return blackholed_; }

  /// The connection *directions* this messenger initiated (both directions
  /// of every pair created by our connect()). The fault injector scans these
  /// to find every link touching a target endpoint.
  const std::vector<std::unique_ptr<Connection>>& connections() const { return conns_; }

  /// The endpoint's receive-shard set, or nullptr while no sharded
  /// connection has registered (the per-connection model).
  RxShards* rx_shards() { return rx_shards_.get(); }

  /// Transport counters summed over this endpoint's connections + shards.
  NetStats net_stats() const;

  void close_all();

 private:
  /// The messenger's copy of `cfg`: one per distinct config.
  const Connection::Config* intern(const Connection::Config& cfg);

  friend class Connection;
  /// Create the shard set on first sharded registration; later connects
  /// reuse it (the first shard count wins per endpoint).
  RxShards* ensure_rx_shards(unsigned shards, Time wakeup_cpu);

  sim::Simulation& sim_;
  Node& node_;
  Receiver& rx_;
  std::string name_;
  // Declared before conns_ so every connection dies before its config.
  std::vector<std::unique_ptr<Connection::Config>> configs_;
  std::vector<std::unique_ptr<Connection>> conns_;
  std::unique_ptr<RxShards> rx_shards_;
  unsigned rx_connections_ = 0;
  std::uint64_t next_rx_index_ = 0;  // stable per-endpoint connection index
  std::uint64_t delivered_ = 0;
  bool blackholed_ = false;
};

}  // namespace afc::net
