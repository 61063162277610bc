#pragma once

// The OSD side of an object store, for tests that drive a store directly:
// unbounded admission throttles and hooks that only count their calls; and
// a rig that builds a store on its own devices through make_store().

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "device/nvram.h"
#include "device/ssd.h"
#include "sim/sync.h"
#include "store/store_config.h"

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

/// One store (FileStore, FlashStore, or either behind the base interface
/// when `Store` is ObjectStore) on its own NVRAM card, data SSD and KV.
template <class Store = ObjectStore>
struct StoreRig {
  sim::Simulation sim;
  sim::CpuPool cpu{sim, 8};
  dev::NvramModel nvram{sim, "nvram"};
  dev::SsdModel ssd{sim, "data", dev::SsdModel::Config{}};
  kv::Db kvdb{sim, ssd};
  StoreHarness owner{sim};
  std::unique_ptr<ObjectStore> owned;
  Store& store;

  explicit StoreRig(const StoreConfig& cfg)
      : owned(make_store(sim, cpu, nvram, ssd, kvdb, cfg, fs::Journal::Config{}, owner,
                         owner.throttles())),
        store(static_cast<Store&>(*owned)) {}

  /// Run `fn` (a coroutine) and the simulation to completion.
  template <class Fn>
  void run(Fn fn) {
    bool done = false;
    sim::spawn_fn([&]() -> sim::CoTask<void> {
      co_await fn();
      done = true;
    });
    sim.run();
    ASSERT_TRUE(done);
  }

  static fs::ObjectId oid(const std::string& name, std::uint32_t pg = 1) {
    return fs::ObjectId{pg, name};
  }
};

/// gtest prints a Backend parameter by name.
inline void PrintTo(Backend b, std::ostream* os) { *os << backend_name(b); }

}  // namespace afc::store
