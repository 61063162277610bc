#include "osd/pg_backend.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/id_map.h"
#include "common/stage_names.h"
#include "ec/codec.h"
#include "ec/layout.h"
#include "osd/osd.h"
#include "osd/recovery.h"

namespace afc::osd {

namespace {
constexpr std::uint32_t kNoOsd = cluster::ClusterMap::kNoOsd;
}  // namespace

sim::CoTask<void> PgBackend::on_message(net::Message) { co_return; }

std::set<std::string> PgBackend::census(const std::vector<Osd*>& holders, std::uint32_t pg,
                                        unsigned skip) const {
  std::set<std::string> names;
  for (unsigned p = 0; p < holders.size(); p++) {
    Osd* h = p == skip ? nullptr : holders[p];
    if (h == nullptr) continue;
    for (auto& oid : h->store().objects_in_pg(pg)) {
      if (auto name = census_name(oid.name(), p)) names.insert(std::move(*name));
    }
  }
  return names;
}

PgRemap PgBackend::plan_remap(std::uint32_t pg, const std::vector<std::uint32_t>& old) const {
  const cluster::ClusterMap& cmap = osd_.cmap_;
  PgRemap r;
  r.pg = pg;
  r.now = cmap.acting(pg);
  r.decode = decodes();
  for (std::uint32_t m : old) {
    if (m != kNoOsd && cmap.crush().is_up(m)) {
      r.source = m;
      break;
    }
  }
  for (unsigned p = 0; p < r.now.size(); p++) {
    const std::uint32_t m = r.now[p];
    if (m == kNoOsd) continue;
    const bool needs_data =
        r.decode ? p >= old.size() || old[p] != m
                 : r.source != kNoOsd && std::find(old.begin(), old.end(), m) == old.end();
    if (needs_data) r.targets.push_back(p);
  }
  return r;
}

// Replicated: every position holds the whole object.

class ReplicatedBackend final : public PgBackend {
 public:
  explicit ReplicatedBackend(Osd& osd) : PgBackend(osd) {}

  sim::CpuPool::Consume plan_write(OpCtx&) override { return osd_.node_.cpu().consume(0); }

  /// min_size, clamped to the members there are.
  unsigned min_commits(unsigned planned) const override {
    return std::min(osd_.cmap_.ack_floor(), planned);
  }

  sim::CoTask<void> client_read(WorkItem& item) override {
    OpRef op = item.op;
    ClientIoMsg& msg = *op->msg;
    // Read-after-write consistency (ondisk_read_lock): wait for this
    // object's journaled writes to reach the filestore.
    co_await osd_.store_->wait_object_readable(msg.oid);
    co_await osd_.dlog_.log(osd_.cfg_.log_entries_read);
    ObjectMeta meta = co_await osd_.ensure_object_meta(msg.oid);
    co_await osd_.charge_cpu(osd_.cfg_.read_cpu, true);
    store::ObjectStore::ReadResult rr;
    if (meta.exists) {
      rr = co_await osd_.store_->read(msg.oid, msg.offset, msg.read_len, msg.want_data);
    }
    osd_.client_reads_++;
    osd_.send_read_reply(op, rr.found, rr.length, std::move(rr.data));
  }

  fs::ObjectId position_oid(const fs::ObjectId& base, unsigned) const override { return base; }

  /// Backfill: copy every object of the PG from the source to this OSD.
  sim::CoTask<std::uint64_t> rebuild_position(const std::vector<Osd*>& osds, const PgRemap& r,
                                              unsigned) override {
    const std::uint32_t pgid = r.pg;
    Osd& src = *osds[r.source];
    store::ObjectStore& src_store = src.store();
    std::uint64_t pushed = 0;
    Pg* src_pg = src.find_pg(pgid);
    for (const auto& oid : src_store.objects_in_pg(pgid)) {
      // Delta backfill: journal replay (or an earlier push) may already
      // have restored this object here — skip identical content. After a
      // push, re-check and re-push: a client write that applied here
      // mid-copy is wiped by the snapshot install while the source keeps
      // it, so one pass can leave the replica stale under live traffic.
      unsigned attempts = 0;
      bool same = false;
      while (attempts < 4) {
        // The export must reflect every write the source has admitted for
        // the object: under backlog the filestore lags the journal by
        // hundreds of ms, and an export taken in that window would "repair"
        // an up-to-date replica backwards (the replica applied those writes
        // already; the snapshot install erases them, and the source's late
        // apply then diverges the copies for good).
        co_await src_store.wait_object_readable(oid);
        // An unclean source copy is left for scrub, which repairs it from a
        // clean one (ObjectStore::holds_clean).
        if (!src_store.holds_clean(oid)) break;
        same = osd_.store_->object_in_memory(oid) &&
               osd_.store_->object_fingerprint(oid) == src_store.object_fingerprint(oid);
        if (same) break;
        auto data = co_await src.push_export(oid);
        co_await osd_.recover_object(oid, std::move(data));
        attempts++;
      }
      if (attempts > 0) {
        pushed++;
      } else if (same) {
        src.counters_.add("osd.backfill_skipped");
      }
    }
    // Sync the version stream so this OSD can continue the PG log.
    if (src_pg != nullptr) {
      if (Pg* dst_pg = osd_.find_pg(pgid)) dst_pg->observe_version(src_pg->version());
    }
    co_return pushed;
  }

  unsigned rebuild_sources() const override { return 1; }

  std::optional<store::ObjectExport> rebuild_copy(
      unsigned, const std::vector<unsigned>&,
      const std::vector<store::ObjectExport>& sources) const override {
    return sources[0];
  }

  /// Every clean replica whose fingerprint differs from the first clean
  /// replica's is inconsistent, and gets that replica's copy.
  std::vector<CopyFix> cross_check(const std::vector<Osd*>&, const fs::ObjectId&,
                                   const std::vector<Osd*>& holders,
                                   const std::vector<unsigned>& clean,
                                   const std::vector<fs::ObjectId>& oids,
                                   std::uint64_t& inconsistent) const override {
    std::vector<CopyFix> fixes;
    if (clean.empty()) return fixes;
    const store::ObjectStore& first = holders[clean[0]]->store();
    const std::uint64_t want = first.object_fingerprint(oids[clean[0]]);
    for (unsigned p : clean) {
      if (holders[p]->store().object_fingerprint(oids[p]) == want) continue;
      inconsistent++;
      fixes.push_back({p, first.export_object(oids[clean[0]])});
    }
    return fixes;
  }

 protected:
  std::optional<std::string> census_name(std::string_view name, unsigned) const override {
    return std::string(name);
  }
  bool decodes() const override { return false; }
};

// Erasure coded: position p holds shard p of every stripe.

class EcBackend final : public PgBackend {
 public:
  EcBackend(Osd& osd, unsigned k, unsigned m) : PgBackend(osd), codec_(k, m) {}

  sim::CpuPool::Consume plan_write(OpCtx& op) override {
    op.stripe = encode_stripe(*op.msg);
    return osd_.charge_cpu(osd_.cfg_.ec_encode_cpu, false);  // k+m GF(256) MAC sweep
  }

  /// The unclamped k+1 floor: a stripe with fewer durable shards must fail,
  /// not ack degraded, since one further loss would destroy acked data.
  unsigned min_commits(unsigned) const override { return osd_.cmap_.ack_floor(); }

  sim::CoTask<void> client_read(WorkItem& item) override {
    OpRef op = item.op;
    ClientIoMsg& msg = *op->msg;
    co_await osd_.dlog_.log(osd_.cfg_.log_entries_read);
    // Charged for cost parity with the replicated path; existence is decided
    // by the gather itself (< k shards found = not found).
    ObjectMeta meta = co_await osd_.ensure_object_meta(msg.oid);
    (void)meta;
    co_await osd_.charge_cpu(osd_.cfg_.read_cpu, true);
    osd_.client_reads_++;
    // Detach the shard gather: a partitioned holder can stall it for
    // ec_read_timeout, which must not wedge this PG's op stream.
    sim::spawn(gather(op));
  }

  sim::CoTask<void> on_message(net::Message m) override {
    if (m.type == kShardRead) {
      co_await serve_shard_read(std::static_pointer_cast<ShardReadMsg>(m.body), m.reply_to);
    } else {
      route_shard_reply(std::static_pointer_cast<ShardReadReplyMsg>(m.body));
    }
  }

  /// Routing entries for in-flight gathers die with the daemon's RAM; the
  /// gather coroutines themselves are zombies that expire on their own
  /// ec_read_timeout.
  void on_crash() override { shard_gathers_.clear(); }

  fs::ObjectId position_oid(const fs::ObjectId& base, unsigned p) const override {
    return ec::shard_oid(base, p);
  }

  /// Decode-from-peers: every stripe with a shard on a surviving position
  /// gets its `pos` shard decoded from >= k clean source chunks (charged as
  /// source reads + wire transfer, like replicated backfill) and installed
  /// here. Already-identical shards are skipped; extents with fewer than k
  /// clean survivors (a torn stripe mid-write) are left for scrub.
  sim::CoTask<std::uint64_t> rebuild_position(const std::vector<Osd*>& osds, const PgRemap& r,
                                              unsigned pos) override {
    const std::uint32_t pgid = r.pg;
    const unsigned k = codec_.k();
    const unsigned m = codec_.m();
    const std::vector<std::uint32_t> acting = osd_.cmap_.acting(pgid);
    if (acting.size() < std::size_t(k) + m) co_return 0;
    const std::vector<Osd*> holders = position_holders(osds, acting);

    // Every stripe that has a shard on any surviving position needs its
    // `pos` shard present here.
    const std::set<std::string> bases = census(holders, pgid, pos);

    std::uint64_t rebuilt = 0;
    for (const auto& base : bases) {
      const fs::ObjectId base_oid{pgid, base};
      const fs::ObjectId toid = ec::shard_oid(base_oid, pos);

      // Export up to k clean source shards, charged like a backfill read.
      std::vector<unsigned> present;
      std::vector<store::ObjectExport> exports;
      for (unsigned p = 0; p < k + m && present.size() < k; p++) {
        Osd* src = p == pos ? nullptr : holders[p];
        if (src == nullptr) continue;
        const fs::ObjectId soid = ec::shard_oid(base_oid, p);
        co_await src->store().wait_object_readable(soid);
        if (!src->store().holds_clean(soid)) continue;
        auto exp = co_await src->push_export(soid);
        present.push_back(p);
        exports.push_back(std::move(exp));
      }
      if (present.size() < k) continue;  // unrecoverable right now; scrub retries later

      store::ObjectExport out = decode_shard(pos, present, exports);
      if (out.extents.empty()) continue;

      // Delta rebuild: journal replay (restart) may already have restored
      // the shard — compare *content*, not fingerprints, because a
      // live-written data shard is a virtual slice while the decode emits
      // real bytes.
      if (osd_.store_->object_in_memory(toid)) {
        auto cur = osd_.store_->export_object(toid);
        bool same = cur.extents.size() == out.extents.size();
        for (std::size_t i = 0; same && i < cur.extents.size(); i++)
          same = cur.extents[i].first == out.extents[i].first &&
                 cur.extents[i].second.content_equals(out.extents[i].second);
        if (same) {
          osd_.counters_.add("osd.ec_rebuild_skipped");
          continue;
        }
      }

      co_await osd_.recover_object(toid, std::move(out));
      osd_.counters_.add("osd.ec_shards_rebuilt");
      rebuilt++;
      if (auto* tr = trace::Collector::active()) {
        tr->instant(trace::Span{std::uint64_t(pgid) << 8 | pos, trace::kFaultTrack},
                    tr->stage_id(stage::kEcRebuild), osd_.sim_.now());
      }
    }

    // Continue the PG's version stream here.
    for (unsigned p = 0; p < k + m; p++) {
      Osd* src = p == pos ? nullptr : holders[p];
      if (src == nullptr) continue;
      if (Pg* src_pg = src->find_pg(pgid)) {
        if (Pg* dst_pg = osd_.find_pg(pgid)) dst_pg->observe_version(src_pg->version());
        break;
      }
    }
    co_return rebuilt;
  }

  unsigned rebuild_sources() const override { return codec_.k(); }

  /// A decode from the k clean shards; an all-torn copy (no extent k
  /// sources share) is the cross-copy check's problem.
  std::optional<store::ObjectExport> rebuild_copy(
      unsigned pos, const std::vector<unsigned>& clean,
      const std::vector<store::ObjectExport>& sources) const override {
    store::ObjectExport copy = decode_shard(pos, clean, sources);
    if (copy.extents.empty()) return std::nullopt;
    return copy;
  }

  /// Stripe parity consistency, checkable once every position is clean. A
  /// torn stripe write (crash mid-fanout) leaves shards that each pass
  /// their own CRC yet violate the parity equation; only a cross-shard
  /// recompute can see that.
  std::vector<CopyFix> cross_check(const std::vector<Osd*>& osds, const fs::ObjectId& base,
                                   const std::vector<Osd*>& holders,
                                   const std::vector<unsigned>& clean,
                                   const std::vector<fs::ObjectId>& oids,
                                   std::uint64_t& inconsistent) const override {
    const unsigned k = codec_.k();
    const unsigned m = codec_.m();
    std::vector<CopyFix> fixes;
    if (clean.size() != k + m) return fixes;
    std::vector<store::ObjectExport> all;
    for (unsigned p = 0; p < k + m; p++) all.push_back(holders[p]->store().export_object(oids[p]));
    std::map<std::uint64_t, std::uint64_t> offsets;
    for (unsigned p = 0; p < k + m; p++)
      for (const auto& [off, pay] : all[p].extents)
        offsets[off] = std::max(offsets[off], pay.size());
    // Authoritative convergence rule for an inconsistent (never-acked)
    // stripe: the data shards' stored bytes win, absent data extents count
    // as zeros, parity is recomputed. Reads after repair return a single
    // consistent pre-or-post-write mix, and a re-scrub finds nothing.
    std::vector<bool> needs(k + m, false);
    std::vector<store::ObjectExport> fixed(k + m);
    for (const auto& [off, len] : offsets) {
      std::vector<std::vector<std::uint8_t>> data;
      for (unsigned j = 0; j < k; j++) {
        const Payload* pay = all[j].extent_at(off);
        auto bytes = pay != nullptr ? pay->materialize() : std::vector<std::uint8_t>();
        bytes.resize(len, 0);
        data.push_back(std::move(bytes));
      }
      auto parity = codec_.encode(data);
      for (unsigned p = 0; p < k + m; p++) {
        const std::vector<std::uint8_t>& want = p < k ? data[p] : parity[p - k];
        const Payload* stored = all[p].extent_at(off);
        if (stored == nullptr || stored->size() != len || stored->materialize() != want) {
          needs[p] = true;
        }
        fixed[p].size = std::max(fixed[p].size, off + len);
        fixed[p].extents.emplace_back(off, Payload::bytes(want));
      }
    }
    for (unsigned p = 0; p < k + m; p++) {
      if (!needs[p]) continue;
      fixed[p].xattrs = all[p].xattrs.empty() ? all[0].xattrs : all[p].xattrs;
      fixes.push_back({p, std::move(fixed[p])});
    }
    if (fixes.empty()) return fixes;
    inconsistent++;
    osds[osd_.cmap_.primary(base.pg)]->counters_.add("osd.ec_parity_mismatch");
    if (auto* tr = trace::Collector::active()) {
      tr->instant(trace::Span{fs::ObjectIdHash{}(base) | 1, trace::kFaultTrack},
                  tr->stage_id(stage::kEcParityMismatch), osd_.sim_.now());
    }
    return fixes;
  }

 protected:
  std::optional<std::string> census_name(std::string_view name, unsigned p) const override {
    if (auto sn = ec::parse_shard(name); sn.has_value() && sn->shard == p) {
      return std::move(sn->base);
    }
    return std::nullopt;
  }
  bool decodes() const override { return true; }

 private:
  /// The shard plan of a client write. Data shards keep the O(1) virtual
  /// representation when the stripe divides evenly (the hot 4K path);
  /// parity is always computed on real bytes so scrub can recheck the
  /// stripe equation against stored content.
  std::vector<OpCtx::Shard> encode_stripe(const ClientIoMsg& msg) const {
    const unsigned k = codec_.k();
    const std::uint64_t clen = ec::chunk_len(msg.data.size(), k);
    const std::uint64_t soff = ec::shard_offset(msg.offset, k);
    const bool exact = msg.data.size() % k == 0;
    std::vector<OpCtx::Shard> stripe;
    stripe.reserve(k + codec_.m());
    std::vector<std::vector<std::uint8_t>> chunks(k);
    for (unsigned j = 0; j < k; j++) {
      Payload sl = msg.data.slice(
          std::uint64_t(j) * clen,
          std::min<std::uint64_t>(clen, msg.data.size() - std::uint64_t(j) * clen));
      chunks[j] = sl.materialize();
      chunks[j].resize(clen, 0);
      stripe.push_back({ec::shard_oid(msg.oid, j), soff,
                        exact && sl.is_virtual() ? sl : Payload::bytes(chunks[j])});
    }
    for (auto& par : codec_.encode(chunks)) {
      const unsigned p = unsigned(stripe.size());
      stripe.push_back({ec::shard_oid(msg.oid, p), soff, Payload::bytes(std::move(par))});
    }
    return stripe;
  }

  /// Decode shard position `pos` of one stripe from source shards
  /// (`exports[i]` holds position `present[i]`), extent by extent over the
  /// union of the sources' extents, each from the first k sources holding
  /// it. An extent fewer than k sources hold (a torn stripe tail) is left
  /// out; the xattrs are the first source's that has any.
  store::ObjectExport decode_shard(unsigned pos, const std::vector<unsigned>& present,
                                   const std::vector<store::ObjectExport>& exports) const {
    const unsigned k = codec_.k();
    std::map<std::uint64_t, std::uint64_t> extents;
    for (const auto& e : exports)
      for (const auto& [off, pay] : e.extents) extents[off] = std::max(extents[off], pay.size());

    store::ObjectExport out;
    for (const auto& [off, len] : extents) {
      std::vector<unsigned> have;
      std::vector<std::vector<std::uint8_t>> chunks;
      for (std::size_t s = 0; s < exports.size() && have.size() < k; s++) {
        const Payload* pay = exports[s].extent_at(off);
        if (pay == nullptr) continue;
        auto bytes = pay->materialize();
        bytes.resize(len, 0);
        have.push_back(present[s]);
        chunks.push_back(std::move(bytes));
      }
      if (have.size() < k) continue;
      auto chunk = codec_.reconstruct_shard(pos, have, chunks);
      if (!chunk.has_value()) continue;
      out.size = std::max(out.size, off + chunk->size());
      out.extents.emplace_back(off, Payload::bytes(std::move(*chunk)));
    }
    for (const auto& e : exports) {
      if (!e.xattrs.empty()) {
        out.xattrs = e.xattrs;
        break;
      }
    }
    return out;
  }

  /// Detached shard gather for one striped read: the PG critical section
  /// was released first, so a partitioned shard holder's ec_read_timeout
  /// never blocks the PG's other ops. Data shards first; on any miss, every
  /// parity shard, then a decode from any k survivors.
  sim::CoTask<void> gather(OpRef op) {
    ClientIoMsg& msg = *op->msg;
    const unsigned k = codec_.k();
    const unsigned m = codec_.m();
    const std::uint64_t clen = ec::chunk_len(msg.read_len, k);
    const std::uint64_t soff = ec::shard_offset(msg.offset, k);
    std::vector<std::uint32_t> acting;
    if (Pg* pg = osd_.find_pg(msg.pg)) acting = pg->acting();
    if (acting.size() < std::size_t(k) + m) {
      osd_.send_read_reply(op, false, 0, std::nullopt);
      co_return;
    }

    ShardGather g(osd_.sim_);
    const std::uint64_t rid = next_shard_rid_++;
    shard_gathers_[rid] = &g;
    std::vector<unsigned> local;

    auto request = [&](unsigned p) {
      if (g.good.count(p) != 0 || g.bad.count(p) != 0 || g.waiting.count(p) != 0) return;
      const std::uint32_t holder = acting[p];
      if (holder == kNoOsd) {
        g.bad.insert(p);
        return;
      }
      if (holder == osd_.id()) {
        g.waiting.insert(p);
        local.push_back(p);
        return;
      }
      // A CRUSH-down holder is skipped immediately; only a *silently*
      // unreachable one (partition: up but blackholed) costs ec_read_timeout.
      net::Connection* conn = osd_.peer(holder);
      if (conn == nullptr || !osd_.cmap_.crush().is_up(holder)) {
        g.bad.insert(p);
        return;
      }
      auto req = std::make_shared<ShardReadMsg>();
      req->rid = rid;
      req->pg = msg.pg;
      req->oid = ec::shard_oid(msg.oid, p);
      req->offset = soff;
      req->len = clen;
      req->want_data = msg.want_data;
      net::Message wire;
      wire.type = kShardRead;
      wire.size = 200;
      wire.body = std::move(req);
      wire.trace = op->span;
      conn->send(std::move(wire));
      g.waiting.insert(p);
    };

    // Serve one locally-held shard position (the primary usually holds one).
    auto fetch_local = [&](unsigned p) -> sim::CoTask<void> {
      auto rr = co_await read_clean_shard(ec::shard_oid(msg.oid, p), soff, clen, msg.want_data);
      if (rr.found) {
        g.good[p] = GatherChunk{rr.length, std::move(rr.data)};
      } else {
        g.bad.insert(p);
      }
      g.waiting.erase(p);
    };

    for (unsigned phase = 0; phase < 2; phase++) {
      if (phase == 0) {
        // Healthy path: data shards only — no decode, no parity traffic.
        for (unsigned p = 0; p < k; p++) request(p);
      } else {
        if (g.good.size() >= k && g.bad.empty()) break;  // all data chunks arrived
        // Something is missing or corrupt: pull every parity shard and
        // reconstruct from any k survivors.
        for (unsigned p = k; p < k + m; p++) request(p);
      }
      for (unsigned p : local) co_await fetch_local(p);
      local.clear();
      while (!g.waiting.empty()) {
        if (co_await g.cv.wait_for(osd_.cfg_.ec_read_timeout) == sim::TimedOut::kYes) {
          for (unsigned p : g.waiting) g.bad.insert(p);
          g.waiting.clear();
        }
      }
    }
    shard_gathers_.erase(rid);

    bool data_complete = true;
    for (unsigned p = 0; p < k; p++)
      if (g.good.count(p) == 0) data_complete = false;

    if (data_complete) {
      std::uint64_t total = 0;
      std::optional<std::vector<std::uint8_t>> out;
      if (msg.want_data) out.emplace();
      for (unsigned p = 0; p < k; p++) {
        auto& ch = g.good[p];
        total += ch.len;
        if (msg.want_data && ch.bytes) {
          auto b = std::move(*ch.bytes);
          b.resize(clen, 0);
          out->insert(out->end(), b.begin(), b.end());
        }
      }
      total = std::min<std::uint64_t>(total, msg.read_len);
      if (out && out->size() > msg.read_len) out->resize(msg.read_len);
      osd_.send_read_reply(op, true, total, std::move(out));
      co_return;
    }

    if (g.good.size() < k) {
      // Fewer than k survivors: information-theoretically unrecoverable.
      osd_.send_read_reply(op, false, 0, std::nullopt);
      co_return;
    }

    // Degraded read: decode the stripe from any k surviving shards.
    co_await osd_.charge_cpu(osd_.cfg_.ec_decode_cpu, false);
    osd_.counters_.add("osd.ec_reconstruct_reads");
    if (auto* tr = trace::Collector::active(); tr != nullptr && op->span.valid()) {
      tr->instant(op->span, tr->stage_id(stage::kEcReconstruct), osd_.sim_.now());
    }
    if (!msg.want_data) {
      osd_.send_read_reply(op, true, msg.read_len, std::nullopt);
      co_return;
    }
    std::vector<unsigned> present;
    std::vector<std::vector<std::uint8_t>> chunks;
    for (auto& [p, ch] : g.good) {
      if (present.size() == k) break;
      std::vector<std::uint8_t> b = ch.bytes ? std::move(*ch.bytes) : std::vector<std::uint8_t>{};
      b.resize(clen, 0);
      present.push_back(p);
      chunks.push_back(std::move(b));
    }
    auto data = codec_.decode(present, chunks);
    if (!data) {
      osd_.send_read_reply(op, false, 0, std::nullopt);
      co_return;
    }
    std::vector<std::uint8_t> out;
    out.reserve(std::size_t(clen) * k);
    for (unsigned p = 0; p < k; p++)
      out.insert(out.end(), (*data)[p].begin(), (*data)[p].end());
    if (out.size() > msg.read_len) out.resize(msg.read_len);
    const std::uint64_t total = out.size();
    osd_.send_read_reply(op, true, total, std::move(out));
  }

  /// A shard holder's side of a gather: a plain object read with no EC
  /// awareness.
  sim::CoTask<void> serve_shard_read(std::shared_ptr<ShardReadMsg> msg, net::Connection* conn) {
    const Time t0 = osd_.sim_.now();
    co_await osd_.charge_cpu(osd_.cfg_.read_cpu / 2, true);  // no client assembly work here
    auto reply = std::make_shared<ShardReadReplyMsg>();
    reply->rid = msg->rid;
    if (auto sn = ec::parse_shard(msg->oid.name())) reply->shard = sn->shard;
    auto rr = co_await read_clean_shard(msg->oid, msg->offset, msg->len, msg->want_data);
    reply->ok = rr.found;
    reply->data_len = rr.length;
    reply->data = std::move(rr.data);
    if (auto* tr = trace::Collector::active()) {
      trace::Span sp{msg->rid, trace::osd_track(osd_.id())};
      tr->complete(sp, tr->stage_id(stage::kEcShardRead), t0, osd_.sim_.now());
    }
    net::Message wire;
    wire.type = kShardReadReply;
    wire.size = reply->data_len + osd_.cfg_.reply_msg_bytes;
    wire.body = std::move(reply);
    if (conn != nullptr) conn->send(std::move(wire));
  }

  /// Read a local shard once its queued writes have applied; an unclean
  /// one reads as not found, which turns corruption into a decoding read.
  sim::CoTask<store::ObjectStore::ReadResult> read_clean_shard(const fs::ObjectId& oid,
                                                               std::uint64_t off,
                                                               std::uint64_t len,
                                                               bool want_data) {
    store::ObjectStore& store = *osd_.store_;
    co_await store.wait_object_readable(oid);
    if (!store.holds_clean(oid)) co_return store::ObjectStore::ReadResult{};
    co_return co_await store.read(oid, off, len, want_data);
  }

  void route_shard_reply(std::shared_ptr<ShardReadReplyMsg> msg) {
    ShardGather* const* found = shard_gathers_.find(msg->rid);
    if (found == nullptr) return;  // gather finished, timed out, or crashed
    ShardGather& g = **found;
    if (g.waiting.erase(msg->shard) == 0) return;  // duplicate or already given up on
    if (msg->ok) {
      g.good[msg->shard] = GatherChunk{msg->data_len, std::move(msg->data)};
    } else {
      g.bad.insert(msg->shard);
    }
    g.cv.notify_all();
  }

  ec::Codec codec_;
  /// In-flight shard gathers, keyed by rid. The ShardGather lives on the
  /// gather coroutine's frame; this map only routes replies to it.
  struct GatherChunk {
    std::uint64_t len = 0;
    std::optional<std::vector<std::uint8_t>> bytes;
  };
  struct ShardGather {
    explicit ShardGather(sim::Simulation& s) : cv(s) {}
    sim::CondVar cv;
    std::map<unsigned, GatherChunk> good;  // shard position -> chunk
    std::set<unsigned> bad;                // missing / corrupt / unreachable
    std::set<unsigned> waiting;            // requests not yet answered
  };
  IdMap<ShardGather*> shard_gathers_;
  std::uint64_t next_shard_rid_ = 1;
};

std::unique_ptr<PgBackend> PgBackend::make(Osd& osd) {
  const cluster::ClusterMap& cmap = osd.cmap_;
  if (cmap.erasure()) return std::make_unique<EcBackend>(osd, cmap.ec_k(), cmap.ec_m());
  return std::make_unique<ReplicatedBackend>(osd);
}

}  // namespace afc::osd
