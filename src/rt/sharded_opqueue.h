#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

namespace afc::rt {

/// Real-threads implementation of the paper's §3.1 OP_WQ: ops are hashed to
/// shards by key (PG id); each shard has worker threads popping ops. A key
/// is *busy* from pop to complete(key), modelling the PG lock.
///
/// Two modes, matching paper Fig. 5:
///  * community (pending_queue=false): pop() hands out the queue head only
///    once its key is free — a busy head blocks every worker on the shard
///    (head-of-line blocking);
///  * AFCeph (pending_queue=true): ops whose key is busy are parked on the
///    key's pending queue and the worker immediately serves the next op;
///    complete(key) promotes the parked op to the front of the shard queue,
///    preserving per-key FIFO order.
///
/// Lifecycle contract (docs/MODEL.md "Real-threads lifecycle contract"):
/// close() stops intake — submit() returns false and drops nothing it
/// accepted earlier; pop() keeps serving everything already accepted,
/// including parked pending-queue items, and returns nullopt only once the
/// shard is fully drained. Every claimed key MUST be complete()d, even
/// after close(), or draining workers on that shard block forever.
template <class Op>
class ShardedOpQueue {
 public:
  ShardedOpQueue(unsigned shards, bool pending_queue)
      : pending_mode_(pending_queue), shards_(shards) {}

  /// False iff the queue is closed (the op was rejected). An accepted op is
  /// guaranteed to be handed to some pop() before the shard reports drained.
  bool submit(std::uint64_t key, Op op) {
    Shard& s = shard_of(key);
    {
      std::lock_guard lk(s.mu);
      if (s.closed) return false;
      KeyState& ks = s.keys[key];
      // Pending mode keeps AT MOST ONE op per key on the ready queue; the
      // key's pending deque is the single per-key ordering authority. A
      // second same-key op on ready would let complete()'s promote-to-front
      // jump the parked op over it, breaking per-key FIFO.
      if (pending_mode_ && (ks.busy || ks.has_ready || !ks.pending.empty())) {
        ks.pending.push_back(Item{key, std::move(op)});
        s.parked++;
        deferred_.fetch_add(1, std::memory_order_relaxed);
        return true;  // parked, not ready: nobody can claim it yet
      }
      if (pending_mode_) ks.has_ready = true;
      s.ready.push_back(Item{key, std::move(op)});
    }
    s.cv.notify_one();
    return true;
  }

  struct Claimed {
    std::uint64_t key;
    Op op;
  };

  /// Blocking pop for a worker bound to `shard`; nullopt only when closed
  /// AND fully drained (nothing ready, nothing parked). A busy head after
  /// close is waited out, not abandoned — the claimer's complete() will
  /// free or promote it. The claimed key is busy until complete(key).
  std::optional<Claimed> pop(unsigned shard) {
    Shard& s = shards_[shard];
    std::unique_lock lk(s.mu);
    for (;;) {
      if (pending_mode_) {
        // Parked items count as undrained: they surface on ready when the
        // key's current claimer calls complete(), so wait for them.
        s.cv.wait(lk, [&] { return !s.ready.empty() || (s.closed && s.parked == 0); });
        if (s.ready.empty()) return std::nullopt;
        Item it = std::move(s.ready.front());
        s.ready.pop_front();
        KeyState& ks = s.keys[it.key];
        ks.has_ready = false;
        if (ks.busy) {
          // Unreachable while the one-ready-op-per-key invariant holds (a
          // key with an op on ready is never busy); kept as a safety net so
          // a future regression parks instead of double-claiming.
          ks.pending.push_back(std::move(it));
          s.parked++;
          deferred_.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        ks.busy = true;
        return Claimed{it.key, std::move(it.op)};
      }
      // Community mode: wait until the head exists AND its key is free —
      // a busy head stalls this worker even if later ops are serviceable.
      if (!s.ready.empty() && s.keys[s.ready.front().key].busy) {
        hol_blocks_.fetch_add(1, std::memory_order_relaxed);
      }
      s.cv.wait(lk, [&] {
        if (!s.ready.empty()) return !s.keys[s.ready.front().key].busy;
        return s.closed;
      });
      if (s.ready.empty()) return std::nullopt;
      Item it = std::move(s.ready.front());
      s.ready.pop_front();
      s.keys[it.key].busy = true;
      // Pass the baton: submit()'s one notify for the new head may already
      // have been consumed (by this claim), so re-arm a sibling worker if
      // the next op is claimable right now.
      if (!s.ready.empty() && !s.keys[s.ready.front().key].busy) s.cv.notify_one();
      return Claimed{it.key, std::move(it.op)};
    }
  }

  /// Release the key claimed by pop(); promotes a parked op if any. Wakes
  /// exactly one worker when exactly one op became claimable (a promotion,
  /// or a community-mode head whose key just went free), everyone when the
  /// shard reached closed-and-drained, and nobody when the key simply went
  /// idle.
  void complete(std::uint64_t key) {
    Shard& s = shard_of(key);
    bool claimable = false;
    bool drained = false;
    {
      std::lock_guard lk(s.mu);
      KeyState& ks = s.keys[key];
      if (pending_mode_ && !ks.pending.empty()) {
        // Hand the key straight to its next op, at the front for fairness.
        // Safe to jump the queue: no other op for this key can be on ready
        // (one-ready-op-per-key invariant).
        s.ready.push_front(std::move(ks.pending.front()));
        ks.pending.pop_front();
        s.parked--;
        ks.has_ready = true;
        ks.busy = false;
        claimable = true;
      } else {
        ks.busy = false;
        // Community mode: this key may have been the blocked head.
        claimable = !pending_mode_ && !s.ready.empty() && s.ready.front().key == key;
      }
      drained = s.closed && s.ready.empty() && s.parked == 0;
    }
    if (drained) {
      s.cv.notify_all();  // release every drain-waiting worker to exit
    } else if (claimable) {
      s.cv.notify_one();
    }
  }

  /// Stop intake on every shard. Already-accepted ops (ready AND parked)
  /// remain claimable; workers drain them before pop() reports nullopt.
  void close() {
    for (auto& s : shards_) {
      {
        std::lock_guard lk(s.mu);
        s.closed = true;
      }
      s.cv.notify_all();
    }
  }

  unsigned shard_count() const { return unsigned(shards_.size()); }
  std::uint64_t deferred() const { return deferred_.load(std::memory_order_relaxed); }
  std::uint64_t hol_blocks() const { return hol_blocks_.load(std::memory_order_relaxed); }

 private:
  struct Item {
    std::uint64_t key;
    Op op;
  };
  struct KeyState {
    bool busy = false;
    bool has_ready = false;  // pending mode: this key's one op on ready
    std::deque<Item> pending;
  };
  struct Shard {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Item> ready;
    std::unordered_map<std::uint64_t, KeyState> keys;
    std::size_t parked = 0;  // total items across all keys' pending queues
    bool closed = false;
  };

  Shard& shard_of(std::uint64_t key) { return shards_[key % shards_.size()]; }

  bool pending_mode_;
  std::vector<Shard> shards_;
  std::atomic<std::uint64_t> deferred_{0};
  std::atomic<std::uint64_t> hol_blocks_{0};
};

}  // namespace afc::rt
