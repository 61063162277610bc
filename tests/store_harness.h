#pragma once

// The OSD side of an object store, for tests that drive a store directly:
// unbounded admission throttles and hooks that only count their calls.

#include <cstdint>

#include "sim/sync.h"
#include "store/object_store.h"

namespace afc::store {

struct StoreHarness : ObjectStore::Hooks {
  explicit StoreHarness(sim::Simulation& sim)
      : ops(sim, kUnbounded), bytes(sim, kUnbounded), journal_ops(sim, kUnbounded) {}

  sim::CoTask<void> on_commit(const OpRef&) override {
    commits++;
    co_return;
  }
  sim::CoTask<void> on_applied(const OpRef&) override {
    applied++;
    co_return;
  }
  QueueThrottles throttles() { return {ops, bytes, journal_ops}; }

  static constexpr std::uint64_t kUnbounded = std::uint64_t(1) << 60;
  sim::Semaphore ops;
  sim::Semaphore bytes;
  sim::Semaphore journal_ops;
  unsigned commits = 0;
  unsigned applied = 0;
};

/// admit() + queue_transaction(), the OSD's write path for one transaction.
inline sim::CoTask<bool> commit_txn(ObjectStore& store, const fs::Transaction& tx,
                                    bool lightweight = false) {
  const std::uint64_t bytes = tx.encoded_bytes();
  co_await store.admit(bytes);
  co_return co_await store.queue_transaction(tx, bytes, lightweight, nullptr);
}

}  // namespace afc::store
