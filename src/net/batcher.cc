#include "net/batcher.h"

#include "common/stage_names.h"

namespace afc::net {

Batcher::Batcher(Connection& conn) : conn_(conn) {}

Batcher::~Batcher() = default;

void Batcher::add(Message m) {
  pending_bytes_ += m.size;
  pending_.push_back(std::move(m));
  if (pending_bytes_ >= conn_.config().batch_max_bytes || conn_.frames_in_flight() == 0) {
    flush();
    return;
  }
  if (!timer_armed_) arm_timer();
}

void Batcher::flush() {
  if (closed_ || pending_.empty()) return;
  if (timer_armed_) {
    conn_.local().simulation().cancel(timer_);
    timer_armed_ = false;
  }
  Frame f;
  f.msgs = std::move(pending_);
  pending_.clear();
  // net.batch: send() enqueue → frame flushed, per message — the assembly
  // wait this message spent inside the aggregator (zero for idle flushes).
  if (auto* tr = trace::Collector::active(); tr != nullptr) {
    const Time now = conn_.local().simulation().now();
    for (auto& m : f.msgs) {
      if (m.trace.valid()) {
        tr->complete(m.trace, tr->stage_id(stage::kNetBatch), m.trace_send_ns, now);
      }
    }
  }
  f.wire_size = pending_bytes_ + conn_.config().frame_header_bytes;
  pending_bytes_ = 0;
  conn_.enqueue_frame(std::move(f));
}

void Batcher::close() {
  if (timer_armed_) {
    conn_.local().simulation().cancel(timer_);
    timer_armed_ = false;
  }
  closed_ = true;
  // Pending messages die with the connection, like messages sitting in a
  // closed tx queue; square the in-flight accounting for them.
  conn_.inflight_ -= pending_.size();
  pending_.clear();
  pending_bytes_ = 0;
}

void Batcher::arm_timer() {
  timer_armed_ = true;
  timer_ = conn_.local().simulation().schedule_after(
      conn_.config().batch_max_delay, [b = this] { b->timer_fire(); }, "net.batch_flush");
}

void Batcher::timer_fire() {
  timer_armed_ = false;
  flush();
}

}  // namespace afc::net
