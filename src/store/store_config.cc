#include "store/store_config.h"

namespace afc::store {

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kFile: return "file";
    case Backend::kFlash: return "flash";
  }
  return "?";
}

std::optional<Backend> parse_backend(const std::string& name) {
  if (name == "file") return Backend::kFile;
  if (name == "flash") return Backend::kFlash;
  return std::nullopt;
}

std::unique_ptr<ObjectStore> make_store(sim::Simulation& sim, sim::CpuPool& cpu,
                                        dev::Device& journal_dev, dev::Device& data_dev,
                                        kv::Db& kvdb, const StoreConfig& cfg,
                                        const fs::Journal::Config& journal_cfg,
                                        ObjectStore::Hooks& hooks, QueueThrottles throttles,
                                        Counters* counters) {
  switch (cfg.backend) {
    case Backend::kFlash:
      return std::make_unique<FlashStore>(sim, cpu, journal_dev, data_dev, kvdb, cfg.flash,
                                          hooks, throttles, counters, cfg.assume_populated);
    case Backend::kFile:
      break;
  }
  return std::make_unique<fs::FileStore>(sim, cpu, journal_dev, data_dev, kvdb, cfg.file,
                                         journal_cfg, hooks, throttles, counters,
                                         cfg.assume_populated);
}

}  // namespace afc::store
