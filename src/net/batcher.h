#pragma once

#include <cstdint>
#include <vector>

#include "net/messenger.h"
#include "sim/simulation.h"

namespace afc::net {

/// Egress aggregator for one connection direction: packs small
/// same-direction messages into one wire frame so `send_cpu`/`recv_cpu`
/// (and the frame's NIC pass) are paid once per batch instead of once per
/// message — the Pulsar-style coalescing that recovers messages-per-second
/// at fixed CPU. Zero-copy: Message payloads are shared_ptr bodies, so
/// packing moves descriptors; payload bytes are charged to the NIC exactly
/// once, when the frame transmits.
///
/// Flush policy (first trigger wins):
///   * bytes  — the pending batch reached `batch_max_bytes`;
///   * idle   — the sender pipeline drained (`frames_in_flight() == 0`), so
///              nothing is ahead of us and waiting would add pure latency.
///              Closed-loop sparse traffic therefore pays zero added delay
///              and degenerates to one message per frame;
///   * delay  — `batch_max_delay` expired while the pipeline stayed busy
///              (the bounded-harm backstop, a cancellable wheel event like
///              the Nagle timer).
class Batcher {
 public:
  explicit Batcher(Connection& conn);
  ~Batcher();
  Batcher(const Batcher&) = delete;
  Batcher& operator=(const Batcher&) = delete;

  /// Queue a message; may flush inline (bytes/idle triggers).
  void add(Message m);

  /// Emit the pending batch as one frame now. No-op when empty or closed.
  /// The connection calls it when its sender pipeline drains, rather than
  /// let the batch sit on the delay timer.
  void flush();

  /// Cancel the pending flush timer and discard pending messages (the
  /// connection is closing; parity with messages sitting in a closed tx
  /// queue). Nothing fires after close().
  void close();

  std::size_t pending() const { return pending_.size(); }

 private:
  void arm_timer();
  void timer_fire();

  Connection& conn_;
  std::vector<Message> pending_;
  std::uint64_t pending_bytes_ = 0;
  sim::TimerToken timer_;
  bool timer_armed_ = false;
  bool closed_ = false;
};

}  // namespace afc::net
