#pragma once

#include <memory>
#include <string>

#include "fs/filestore.h"
#include "store/flashstore/flashstore.h"
#include "store/object_store.h"

namespace afc::store {

/// Which object-store backend an OSD runs. `kFile` is the paper's
/// FileStore-on-XFS pipeline (NVRAM journal + filesystem apply);
/// `kFlash` is the raw-device FlashStore (extent allocator + deferred-write
/// WAL + KV metadata). Default is kFile: with it, every figure is
/// byte-identical to the pre-FlashStore tree.
enum class Backend { kFile, kFlash };

struct StoreConfig {
  Backend backend = Backend::kFile;
  fs::FileStore::Config file;
  FlashStore::Config flash;
  /// Simulate an 80%-full cluster (see ObjectStore), whichever the backend.
  bool assume_populated = false;
};

const char* backend_name(Backend b);

/// Parse "file" / "flash" (anything else: nullopt).
std::optional<Backend> parse_backend(const std::string& name);

/// Build the configured backend. `journal_dev` is the NVRAM card that holds
/// the store's write-ahead ring: FileStore's external journal (sized by
/// `journal_cfg`) or FlashStore's deferred-write WAL (FlashStore::Config::wal).
/// `data_dev` is the data SSD and `kvdb` the OSD's LSM KV (omap for
/// FileStore; omap + onodes for FlashStore). `hooks` and `throttles` come
/// from the owning OSD.
std::unique_ptr<ObjectStore> make_store(sim::Simulation& sim, sim::CpuPool& cpu,
                                        dev::Device& journal_dev, dev::Device& data_dev,
                                        kv::Db& kvdb, const StoreConfig& cfg,
                                        const fs::Journal::Config& journal_cfg,
                                        ObjectStore::Hooks& hooks, QueueThrottles throttles,
                                        Counters* counters = nullptr);

}  // namespace afc::store
