#include "sim/simulation.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

namespace afc::sim {

namespace {

inline std::uint64_t rotr64(std::uint64_t x, unsigned r) {
  return r == 0 ? x : (x >> r) | (x << (64 - r));
}

}  // namespace

std::uint32_t Simulation::alloc_node() {
  if (!free_.empty()) {
    const std::uint32_t idx = free_.back();
    free_.pop_back();
    return idx;
  }
  pool_.emplace_back();
  return std::uint32_t(pool_.size() - 1);
}

void Simulation::free_node(std::uint32_t idx) {
  pool_[idx].seq = 0;  // invalidate outstanding TimerTokens
  free_.push_back(idx);
}

void Simulation::append(unsigned level, unsigned slot, std::uint32_t idx) {
  Slot& s = slots_[level][slot];
  pool_[idx].next = kNil;
  if (s.head == kNil) {
    s.head = s.tail = idx;
    occupied_[level] |= std::uint64_t(1) << slot;
  } else {
    // Cascades can deliver an older (smaller-seq) event behind a newer one;
    // remember that this slot needs a seq sort before execution.
    if (pool_[s.tail].seq > pool_[idx].seq) unsorted_[level] |= std::uint64_t(1) << slot;
    pool_[s.tail].next = idx;
    s.tail = idx;
  }
}

void Simulation::place(std::uint32_t idx) {
  const Time t = pool_[idx].t;
  assert(t >= cur_);
  for (unsigned k = 0; k < kLevels; k++) {
    const unsigned shift = kLevelBits * k;
    if ((t >> shift) - (cur_ >> shift) < kSlots) {
      append(k, unsigned((t >> shift) & kSlotMask), idx);
      return;
    }
  }
  overflow_.emplace(t, idx);
}

TimerToken Simulation::schedule_at(Time t, EventFn fn, const char* site) {
  if (t < now_) t = now_;
  const std::uint32_t idx = alloc_node();
  Event& e = pool_[idx];
  e.fn = fn;
  e.t = t;
  e.seq = seq_++;
  e.next = kNil;
  e.cancelled = false;
  e.daemon = false;
  live_++;
  place(idx);
  if (profiling_) {
    prof_scheduled_++;
    if (live_ > prof_depth_hwm_) prof_depth_hwm_ = live_;
    if (site != nullptr) prof_sites_[site]++;
  }
  return TimerToken(idx, e.seq);
}

TimerToken Simulation::schedule_daemon_after(Time delay, EventFn fn, const char* site) {
  const TimerToken token = schedule_at(now_ + delay, fn, site);
  pool_[token.idx_].daemon = true;
  daemon_live_++;
  return token;
}

bool Simulation::cancel(TimerToken token) {
  if (token.idx_ >= pool_.size() || token.seq_ == 0) return false;
  Event& e = pool_[token.idx_];
  if (e.seq != token.seq_ || e.cancelled) return false;
  e.cancelled = true;  // tombstone; the node is recycled when the wheel
  live_--;             // next walks its slot
  daemon_live_ -= e.daemon;
  if (profiling_) prof_cancelled_++;
  return true;
}

void Simulation::sort_slot(unsigned level, unsigned slot) {
  Slot& s = slots_[level][slot];
  scratch_.clear();
  for (std::uint32_t n = s.head; n != kNil; n = pool_[n].next) scratch_.push_back(n);
  std::sort(scratch_.begin(), scratch_.end(),
            [this](std::uint32_t a, std::uint32_t b) { return pool_[a].seq < pool_[b].seq; });
  s.head = scratch_.front();
  s.tail = scratch_.back();
  for (std::size_t i = 0; i + 1 < scratch_.size(); i++) pool_[scratch_[i]].next = scratch_[i + 1];
  pool_[s.tail].next = kNil;
  unsorted_[level] &= ~(std::uint64_t(1) << slot);
}

bool Simulation::find_next(Time* tick, Time horizon) {
  if (live_ == 0) return false;
  for (;;) {
    // Pull overflow events into the wheel once they come in range. If the
    // wheel itself is empty the cursor can jump straight to the overflow
    // minimum (nothing pending in between).
    if (!overflow_.empty()) {
      bool wheel_empty = true;
      for (unsigned k = 0; k < kLevels; k++) wheel_empty = wheel_empty && occupied_[k] == 0;
      if (wheel_empty && overflow_.begin()->first > cur_) {
        if (overflow_.begin()->first > horizon) return false;
        cur_ = overflow_.begin()->first;
      }
      // In-range means place() will accept at the top level; testing t-cur_
      // against kRange instead would pull events the top level still rejects
      // (cursor mid-slot) and bounce them back to overflow forever.
      const unsigned top_shift = kLevelBits * (kLevels - 1);
      while (!overflow_.empty() &&
             (overflow_.begin()->first >> top_shift) - (cur_ >> top_shift) < kSlots) {
        const std::uint32_t idx = overflow_.begin()->second;
        overflow_.erase(overflow_.begin());
        if (pool_[idx].cancelled) {
          free_node(idx);
        } else {
          place(idx);
        }
      }
    }

    // Locate the slot with the smallest base time across levels. Any event
    // in a level-k slot has t >= that slot's base, so the minimum base is a
    // safe cursor advance and (at level 0) the exact next timestamp.
    int best_level = -1;
    unsigned best_slot = 0;
    Time best_base = 0;
    for (unsigned k = 0; k < kLevels; k++) {
      if (occupied_[k] == 0) continue;
      const unsigned shift = kLevelBits * k;
      const unsigned idx = unsigned((cur_ >> shift) & kSlotMask);
      const unsigned j = unsigned(std::countr_zero(rotr64(occupied_[k], idx)));
      const Time base = ((cur_ >> shift) + j) << shift;
      // <= so a base tie goes to the HIGHER level: a level-k slot with the
      // same base as a level-0 slot can hold older-seq events for that very
      // tick, and must cascade into it before the slot executes (the merge
      // flags the slot unsorted; sort_slot restores seq order).
      if (best_level < 0 || base <= best_base) {
        best_level = int(k);
        best_slot = (idx + j) & kSlotMask;
        best_base = base;
      }
    }
    if (best_level < 0) continue;  // wheel drained into overflow; loop migrates
    // Nothing due by the horizon: stop before moving the cursor, so the
    // caller (run_until) leaves the wheel able to accept events at any
    // t >= horizon — including schedule_at(now() == horizon) right after.
    if (best_base > horizon) return false;

    if (best_level == 0) {
      Slot& s = slots_[0][best_slot];
      if (unsorted_[0] & (std::uint64_t(1) << best_slot)) sort_slot(0, best_slot);
      // Free tombstoned heads; the slot may turn out fully cancelled.
      while (s.head != kNil && pool_[s.head].cancelled) {
        const std::uint32_t dead = s.head;
        s.head = pool_[dead].next;
        free_node(dead);
      }
      if (s.head == kNil) {
        s.tail = kNil;
        occupied_[0] &= ~(std::uint64_t(1) << best_slot);
        continue;
      }
      cur_ = best_base;  // == head event's timestamp (level-0 slots span 1 ns)
      *tick = best_base;
      return true;
    }

    // Cascade: advance the cursor to the slot's base and re-bucket its
    // events one level (or more) down. Strictly descends: relative to the
    // new cursor every event in the slot is within the level below. The
    // base can be <= cur_ when the slot is the cursor's own window (its
    // events landed there before the cursor entered); never move backward,
    // or level-0 distance math would break.
    if (best_base > cur_) cur_ = best_base;
    Slot& s = slots_[best_level][best_slot];
    std::uint32_t n = s.head;
    s.head = s.tail = kNil;
    occupied_[best_level] &= ~(std::uint64_t(1) << best_slot);
    unsorted_[best_level] &= ~(std::uint64_t(1) << best_slot);
    while (n != kNil) {
      const std::uint32_t next = pool_[n].next;
      if (pool_[n].cancelled) {
        free_node(n);
      } else {
        place(n);
        if (profiling_) prof_cascaded_++;
      }
      n = next;
    }
  }
}

void Simulation::execute_one(Time tick) {
  Slot& s = slots_[0][tick & kSlotMask];
  const std::uint32_t idx = s.head;
  s.head = pool_[idx].next;
  if (s.head == kNil) {
    s.tail = kNil;
    occupied_[0] &= ~(std::uint64_t(1) << (tick & kSlotMask));
  }
  // Copy the callback out before freeing: the slab may grow (and the slot
  // be reused) while the event body schedules new work.
  EventFn fn = pool_[idx].fn;
  daemon_live_ -= pool_[idx].daemon;
  free_node(idx);
  now_ = cur_ = tick;
  live_--;
  executed_++;
  fn();
}

bool Simulation::step() {
  Time tick;
  if (!find_next(&tick, ~Time(0))) return false;
  execute_one(tick);
  return true;
}

void Simulation::run() {
  Time tick;
  while (live_ > daemon_live_ && find_next(&tick, ~Time(0))) execute_one(tick);
}

bool Simulation::run_until(Time t) {
  Time tick;
  while (find_next(&tick, t)) execute_one(tick);
  if (now_ < t) now_ = t;
  return live_ > 0;
}

void Simulation::enable_profiling() {
  profiling_ = true;
  prof_wall_start_ = std::chrono::steady_clock::now();
  prof_executed_at_enable_ = executed_;
}

void Simulation::profile_into(Counters& c) const {
  c.add("sim.events_executed", executed_);
  c.add("sim.events_scheduled", prof_scheduled_);
  c.add("sim.events_cancelled", prof_cancelled_);
  c.add("sim.events_cascaded", prof_cascaded_);
  c.add("sim.queue_depth", live_);
  c.add("sim.queue_depth_hwm", prof_depth_hwm_);
  if (now_ > 0) {
    c.add("sim.events_per_sim_sec", std::uint64_t(double(executed_) / to_s(now_)));
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - prof_wall_start_).count();
  if (wall_s > 0) {
    c.add("sim.events_per_wall_sec",
          std::uint64_t(double(executed_ - prof_executed_at_enable_) / wall_s));
  }
  for (const auto& [site, count] : prof_sites_) c.add("sim.site." + site, count);
}

}  // namespace afc::sim
