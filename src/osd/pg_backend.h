#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cluster/map.h"
#include "osd/op.h"
#include "sim/cpu.h"
#include "store/object_store.h"

namespace afc::osd {

class Osd;

/// The recovery rule's plan for one PG whose acting set moved from `old` to
/// `now` (PgBackend::plan_remap) — the one rule the oracle fault injector,
/// ClusterSim's rebalance and a detected-mode map delta all apply:
///
///   * every member of `now` holds the PG with acting set `now`;
///   * the source is the first member of `old` the new map has up;
///   * the targets are, replicated: the members of `now` absent from `old`
///     (none without a source to copy from); EC: the positions whose holder
///     changed, kNoOsd skipped (ec_remap pins survivors to their slots);
///   * a replicated target is copied from the source, an EC target is
///     decoded from k survivors (PgBackend::rebuild_position).
struct PgRemap {
  std::uint32_t pg = 0;
  std::vector<std::uint32_t> now;
  std::uint32_t source = cluster::ClusterMap::kNoOsd;
  std::vector<unsigned> targets;  // positions in `now`, ascending
  bool decode = false;            // EC: targets decode rather than copy
};

/// One OSD's redundancy scheme: everything the OSD, recovery and scrub do
/// differently for a replicated and an erasure-coded pool (Ceph's
/// PGBackend, with ReplicatedBackend and ECBackend). Each OSD owns one,
/// built by make(), the only place in src/osd/ that asks the pool's
/// scheme; an EC backend owns the OSD's one codec. Position `p` of a PG's
/// acting set holds its copy of a logical object under position_oid(): the
/// object itself (replicated) or its shard object (EC).
class PgBackend {
 public:
  static std::unique_ptr<PgBackend> make(Osd& osd);
  virtual ~PgBackend() = default;

  // --- the client write -----------------------------------------------------
  /// Fill `op.stripe` with the write's shard plan (EC: k data + m parity
  /// chunks) and return its CPU charge to await. A replicated write has no
  /// plan — every position journals the client's bytes — and no charge.
  virtual sim::CpuPool::Consume plan_write(OpCtx& op) = 0;
  /// Durable commits a write of `planned` commits needs before it acks.
  virtual unsigned min_commits(unsigned planned) const = 0;

  // --- the client read ------------------------------------------------------
  /// Serve a client read, from inside the PG critical section.
  virtual sim::CoTask<void> client_read(WorkItem& item) = 0;
  /// A scheme message arrived (EC: a shard read or its reply).
  virtual sim::CoTask<void> on_message(net::Message m);
  /// The daemon crashed: scheme state in its RAM is gone.
  virtual void on_crash() {}

  // --- naming ---------------------------------------------------------------
  /// Position `p`'s copy of the logical object `base`.
  virtual fs::ObjectId position_oid(const fs::ObjectId& base, unsigned p) const = 0;
  /// The logical objects of `pg` some position other than `skip` holds a
  /// copy of (`holders[p]` holds position p, nullptr for a hole), by name.
  std::set<std::string> census(const std::vector<Osd*>& holders, std::uint32_t pg,
                               unsigned skip = ~0u) const;

  // --- recovery -------------------------------------------------------------
  /// The remap of `pg` from `old` to its acting set under the current map.
  PgRemap plan_remap(std::uint32_t pg, const std::vector<std::uint32_t>& old) const;
  /// Recover target position `pos` of `r` onto this backend's OSD (which
  /// holds the PG): the objects copied or shards rebuilt. `osds[i]` has id i.
  virtual sim::CoTask<std::uint64_t> rebuild_position(const std::vector<Osd*>& osds,
                                                      const PgRemap& r, unsigned pos) = 0;

  // --- scrub ----------------------------------------------------------------
  /// One copy's replacement: its position and the content it gets.
  using CopyFix = std::pair<unsigned, store::ObjectExport>;
  /// Clean copies a rebuild reads: one replica, or k shards.
  virtual unsigned rebuild_sources() const = 0;
  /// Position `pos`'s copy rebuilt from `sources` (`sources[i]` is position
  /// `clean[i]`'s export), or nullopt when they cannot rebuild it.
  virtual std::optional<store::ObjectExport> rebuild_copy(
      unsigned pos, const std::vector<unsigned>& clean,
      const std::vector<store::ObjectExport>& sources) const = 0;
  /// Scrub's cross-copy check of `base`: the clean copies (positions
  /// `clean`, objects `oids`) must agree. Returns the fixes that make them
  /// agree and adds to `inconsistent`.
  virtual std::vector<CopyFix> cross_check(const std::vector<Osd*>& osds,
                                           const fs::ObjectId& base,
                                           const std::vector<Osd*>& holders,
                                           const std::vector<unsigned>& clean,
                                           const std::vector<fs::ObjectId>& oids,
                                           std::uint64_t& inconsistent) const = 0;

 protected:
  explicit PgBackend(Osd& osd) : osd_(osd) {}

  /// The logical object whose position-`p` copy is named `name`, if it is one.
  virtual std::optional<std::string> census_name(std::string_view name, unsigned p) const = 0;
  /// Whether a remap's targets decode (EC) rather than copy (PgRemap::decode).
  virtual bool decodes() const = 0;

  Osd& osd_;
};

}  // namespace afc::osd
