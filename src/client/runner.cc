#include "client/runner.h"

#include "common/stage_names.h"

namespace afc::client {

Time jittered_backoff(Time base, Rng& rng) {
  return Time(double(base) * (0.5 + rng.uniform()));
}

void RunStats::record(bool is_write, Time issued, Time completed) {
  auto& series = is_write ? write_series : read_series;
  series.add(completed);
  if (completed < window_start || completed > window_end || issued < window_start) return;
  if (is_write) {
    write_lat.record(completed - issued);
    writes_completed++;
  } else {
    read_lat.record(completed - issued);
    reads_completed++;
  }
}

double RunStats::write_iops() const {
  const Time span = window_end - window_start;
  return span == 0 ? 0.0 : double(writes_completed) * double(kSecond) / double(span);
}

double RunStats::read_iops() const {
  const Time span = window_end - window_start;
  return span == 0 ? 0.0 : double(reads_completed) * double(kSecond) / double(span);
}

VmClient::VmClient(sim::Simulation& sim, net::Node& node, cluster::ClusterMap& cmap,
                   RbdImage image, std::uint64_t client_id, std::uint64_t seed)
    : sim_(sim),
      cmap_(cmap),
      image_(std::move(image)),
      client_id_(client_id),
      rng_(seed),
      msgr_(sim, node, *this, "vm." + std::to_string(client_id)) {}

VmClient::~VmClient() = default;

void VmClient::add_osd_conn(std::uint32_t osd_id, net::Connection* conn) {
  if (osd_id >= osd_conns_.size()) osd_conns_.resize(osd_id + 1, nullptr);
  osd_conns_[osd_id] = conn;
}

const fs::ObjectId& VmClient::object_id(std::uint64_t object_no) {
  if (object_no >= oids_.size()) oids_.resize(object_no + 1);
  fs::ObjectId& oid = oids_[object_no];
  if (oid == fs::ObjectId{}) {
    const std::string name = image_.object_name(object_no);
    oid = fs::ObjectId{cmap_.pg_of(name), name};
  }
  return oid;
}

std::uint64_t VmClient::stable_seed(std::uint64_t image_off) const {
  return (client_id_ << 40) ^ (image_off * 0x9e3779b97f4a7c15ull) ^ 0x5eed;
}

sim::CoTask<void> VmClient::on_message(net::Message m) {
  if (m.type == osd::kMapDelta) {
    const auto& delta = static_cast<const osd::MapDeltaMsg&>(*m.body);
    if (delta.epoch > known_epoch_) {
      learn_epoch(delta.epoch);
      map_updates_++;
    }
    co_return;
  }
  if (m.type != osd::kWriteReply && m.type != osd::kReadReply) co_return;
  auto reply = std::static_pointer_cast<osd::IoReplyMsg>(m.body);
  PendingOp* const* found = pending_.find(reply->op_id);
  if (found == nullptr) co_return;
  PendingOp* p = *found;
  pending_.erase(reply->op_id);
  if (reply->fenced) {
    // Stale-epoch rejection: the op was never admitted. Adopt the rejecting
    // OSD's epoch (the delta itself may still be in flight to us) and let
    // issue_one resubmit against a re-resolved primary.
    fenced_replies_++;
    learn_epoch(reply->map_epoch);
    p->ok = false;
    p->fenced = true;
    completed_++;
    p->done->set();
    co_return;
  }
  p->ok = reply->ok;
  p->data_len = reply->data_len;
  p->data = std::move(reply->data);
  completed_++;
  p->done->set();
}

void VmClient::learn_epoch(std::uint64_t epoch) {
  if (epoch <= known_epoch_) return;
  known_epoch_ = epoch;
  primary_cache_.clear();
}

std::uint32_t VmClient::resolve_primary(std::uint32_t pg) {
  if (!detected_) return cmap_.primary(pg);
  // Lazy routing: the cache pins whatever primary this client resolved
  // under its current epoch; only a learned epoch (delta or fence, through
  // learn_epoch) clears it. A partitioned client keeps routing on
  // yesterday's map — which is exactly what epoch fencing exists to catch.
  if (const std::uint32_t* cached = primary_cache_.find(pg)) return *cached;
  const std::uint32_t primary = cmap_.primary(pg);
  primary_cache_[pg] = primary;
  return primary;
}

sim::CoTask<VmClient::PendingOp> VmClient::issue(bool is_write, std::uint64_t image_off,
                                                 std::uint64_t len, bool want_data,
                                                 Payload payload, std::uint32_t tenant) {
  const std::uint64_t span = is_write ? payload.size() : len;
  if (span <= image_.object_size() - image_off % image_.object_size()) {
    co_return co_await issue_one(is_write, image_off, len, want_data, std::move(payload),
                                 tenant);
  }
  // Striping: split into per-object sub-ops and join (KRBD behaviour). The
  // sub-ops run concurrently; the parent op completes when all do.
  PendingOp agg{};
  agg.ok = true;
  if (want_data) agg.data.emplace();
  std::uint64_t off = image_off;
  std::uint64_t remaining = span;
  while (remaining > 0) {
    const std::uint64_t chunk =
        std::min(remaining, image_.object_size() - off % image_.object_size());
    Payload piece;
    if (is_write) piece = payload.slice(off - image_off, chunk);
    auto p = co_await issue_one(is_write, off, chunk, want_data, std::move(piece), tenant);
    agg.ok = agg.ok && p.ok;
    agg.data_len += p.data_len;
    if (want_data) {
      if (p.data.has_value()) {
        agg.data->insert(agg.data->end(), p.data->begin(), p.data->end());
      } else {
        agg.ok = false;
      }
    }
    off += chunk;
    remaining -= chunk;
  }
  co_return agg;
}

sim::CoTask<VmClient::PendingOp> VmClient::issue_one(bool is_write, std::uint64_t image_off,
                                                     std::uint64_t len, bool want_data,
                                                     Payload payload, std::uint32_t tenant) {
  const fs::ObjectId oid = object_id(image_off / image_.object_size());
  ops_begun_++;
  PendingOp p{};
  Time timeout = op_timeout_;
  // The op's own backoff stream: jitter is a pure function of (client, op),
  // independent of every other rng consumer — adding or removing retries
  // elsewhere cannot shift this op's delays.
  Rng backoff_rng((client_id_ << 32) ^ (ops_begun_ * 0x9e3779b97f4a7c15ull));
  unsigned attempt = 0;
  unsigned fence_resubmits = 0;
  for (;;) {
    auto msg = std::make_shared<osd::ClientIoMsg>();
    msg->op_id = (client_id_ << 24) | next_seq_++;
    msg->client_id = client_id_;
    msg->tenant = tenant;
    msg->oid = oid;
    msg->pg = oid.pg;
    msg->offset = image_off % image_.object_size();
    msg->is_write = is_write;
    msg->want_data = want_data;
    msg->issued_at = sim_.now();
    msg->epoch = detected_ ? known_epoch_ : 0;
    if (is_write) {
      msg->data = payload;  // copied: a later attempt resends the same body
    } else {
      msg->read_len = len;
    }

    // Primary recomputed per attempt: an OSD crash bumps the map epoch, and
    // the retry targets whichever OSD CRUSH now elects for this PG.
    const std::uint32_t primary = resolve_primary(msg->pg);
    net::Connection* conn = osd_conn(primary);
    if (conn == nullptr) {
      p.ok = false;
      break;
    }

    sim::OneShot done(sim_);
    p = PendingOp{};
    p.done = &done;
    const std::uint64_t op_id = msg->op_id;
    pending_[op_id] = &p;
    issued_++;
    if (op_cpu_ > 0) co_await msgr_.node().cpu().consume(op_cpu_);

    const trace::Span span = trace::Collector::active() != nullptr
                                 ? trace::Span{op_id, trace::client_track(client_id_)}
                                 : trace::Span{};
    const Time submit_t0 = sim_.now();
    net::Message wire;
    wire.type = is_write ? osd::kClientWrite : osd::kClientRead;
    wire.size = (is_write ? msg->data.size() : 0) + 150;
    wire.body = std::move(msg);
    wire.trace = span;
    conn->send(std::move(wire));

    if (op_timeout_ == 0) {
      co_await done.wait();
    } else if (co_await done.wait_for(timeout) == sim::TimedOut::kYes) {
      // Attempt abandoned: forget the op id so a late/duplicate reply is
      // ignored, then back off exponentially (with per-op jitter, so a
      // crashed primary's clients don't stampede back in lockstep) and
      // resubmit as a fresh op.
      pending_.erase(op_id);
      if (auto* tr = trace::Collector::active(); tr != nullptr && span.valid()) {
        tr->instant(span, tr->stage_id(stage::kClientRetry), sim_.now());
      }
      if (attempt >= op_max_retries_) {
        p.ok = false;
        ops_failed_++;
        break;
      }
      attempt++;
      op_retries_++;
      const Time backoff = jittered_backoff(timeout, backoff_rng);
      timeout = Time(double(timeout) * op_backoff_);
      co_await sim::delay(sim_, backoff, "client.backoff");
      continue;
    }
    if (p.fenced && fence_resubmits < 8) {
      // The op was fenced, never admitted: re-resolve under the learned
      // epoch and go again at once. Not a timeout retry — no backoff, no
      // charge against the attempt budget. The bound only backstops a
      // monitor publishing epochs faster than this client can learn them.
      fence_resubmits++;
      p = PendingOp{};
      continue;
    }
    // client.io: submit → completion as the VM sees it, the outermost span of
    // a traced op (everything the OSD-side stages decompose nests inside it).
    if (auto* tr = trace::Collector::active(); tr != nullptr && span.valid()) {
      tr->complete(span, tr->stage_id(stage::kClientIo), submit_t0, sim_.now());
    }
    break;
  }
  ops_resolved_++;
  co_return p;
}

sim::CoTask<void> VmClient::io_loop(WorkloadSpec spec, Time stop_at, RunStats* sink,
                                    unsigned job) {
  // Sequential jobs stream over disjoint regions, fio-style.
  const std::uint64_t blocks = image_.size() / spec.block_size;
  const std::uint64_t region_blocks = std::max<std::uint64_t>(1, blocks / spec.iodepth);
  std::uint64_t cursor = std::uint64_t(job) * region_blocks;

  while (sim_.now() < stop_at) {
    const bool is_write = spec.write_fraction >= 1.0 ||
                          (spec.write_fraction > 0.0 && rng_.uniform() < spec.write_fraction);
    std::uint64_t block_no;
    if (spec.pattern == WorkloadSpec::Pattern::kSequential) {
      block_no = cursor;
      cursor++;
      if (cursor >= std::min(blocks, (std::uint64_t(job) + 1) * region_blocks)) {
        cursor = std::uint64_t(job) * region_blocks;
      }
    } else if (spec.zipf_theta > 0.0) {
      // Zipf rank maps to the block directly: hot blocks cluster in the
      // image's first objects, concentrating load on few PGs — the hot-spot
      // pattern that stresses the PG lock.
      block_no = rng_.zipf(blocks, spec.zipf_theta);
    } else {
      block_no = rng_.uniform_int(0, blocks - 1);
    }
    std::uint64_t off = block_no * spec.block_size;

    const Time issued_at = sim_.now();
    if (is_write) {
      const std::uint64_t seed =
          spec.verify ? stable_seed(off) : (client_id_ << 40) ^ (issued_ * 0x9e37ull) ^ off;
      auto p = co_await issue(true, off, spec.block_size, false,
                              Payload::pattern(spec.block_size, seed));
      // Only acked writes join the verify ledger: a failed write's content
      // is undefined (some replicas may hold it), and the exactly-once
      // contract only covers acked data. Overwrites are safe either way —
      // the pattern is a pure function of (client, offset).
      if (spec.verify && p.ok) written_offsets_.insert(off);
    } else {
      const bool check = spec.verify && written_offsets_.count(off) != 0;
      auto p = co_await issue(false, off, spec.block_size, check, Payload{});
      if (check && sink != nullptr) {
        const auto expected = Payload::pattern(spec.block_size, stable_seed(off));
        if (!p.ok || !p.data.has_value() ||
            !Payload::bytes(std::move(*p.data)).content_equals(expected)) {
          sink->verify_failures++;
        }
      }
    }
    if (sink != nullptr) sink->record(is_write, issued_at, sim_.now());
  }
}

void VmClient::start(const WorkloadSpec& spec, Time stop_at, RunStats* sink) {
  for (unsigned job = 0; job < spec.iodepth; job++) {
    sim::spawn(io_loop(spec, stop_at, sink, job));
  }
}

sim::CoTask<bool> VmClient::write_once(std::uint64_t image_off, Payload data) {
  auto p = co_await issue(true, image_off, data.size(), false, std::move(data));
  co_return p.ok;
}

sim::CoTask<VmClient::ReadOnce> VmClient::read_once(std::uint64_t image_off,
                                                    std::uint64_t len) {
  auto p = co_await issue(false, image_off, len, true, Payload{});
  ReadOnce out;
  out.ok = p.ok;
  if (p.data.has_value()) out.data = std::move(*p.data);
  co_return out;
}

sim::CoTask<bool> VmClient::submit_io(bool is_write, std::uint64_t image_off,
                                      std::uint64_t len, std::uint32_t tenant) {
  Payload payload;
  if (is_write) {
    payload = Payload::pattern(len, (client_id_ << 40) ^ (issued_ * 0x9e37ull) ^ image_off);
  }
  auto p = co_await issue(is_write, image_off, len, false, std::move(payload), tenant);
  co_return p.ok;
}

}  // namespace afc::client
