#include "solidfire/solidfire.h"

#include <cstdio>

#include "core/trace.h"

namespace afc::sf {

SolidFireCluster::SolidFireCluster(Config cfg) : cfg_(std::move(cfg)), rng_(cfg_.seed) {
  cfg_.ssd.drives = 10;
  nodes_.resize(cfg_.nodes);
  for (unsigned n = 0; n < cfg_.nodes; n++) {
    auto& node = nodes_[n];
    node.data_cpu = std::make_unique<sim::CpuPool>(sim_, cfg_.data_service_cores);
    node.nvram = std::make_unique<dev::NvramModel>(sim_, "sf.nvram." + std::to_string(n),
                                                   cfg_.nvram);
    node.ssd =
        std::make_unique<dev::SsdModel>(sim_, "sf.ssd." + std::to_string(n), cfg_.ssd);
    node.nvram_room = std::make_unique<sim::Semaphore>(sim_, cfg_.nvram_buffer_bytes);
    node.destage_cv = std::make_unique<sim::CondVar>(sim_);
    sim::spawn(destage_loop(n));
  }
}

SolidFireCluster::~SolidFireCluster() = default;

sim::CoTask<void> SolidFireCluster::chunk_write(std::uint64_t fingerprint) {
  const unsigned home = unsigned(fingerprint % cfg_.nodes);
  const unsigned mirror = (home + 1) % cfg_.nodes;
  SfNode& h = nodes_[home];

  // Data-services pipeline on the home node: hash + compress + dedup check
  // + metadata update.
  co_await h.data_cpu->consume(cfg_.chunk_write_cpu);
  chunk_writes_++;
  if (!dedup_.insert(fingerprint).second) {
    dedup_hits_++;
    co_return;  // duplicate: metadata-only write
  }
  // Double-helix: chunk lands in NVRAM on home and mirror before the ack.
  co_await h.nvram_room->acquire(cfg_.chunk);
  h.pending_destage += cfg_.chunk;
  h.destage_cv->notify_one();
  co_await h.nvram->submit(dev::IoType::kWrite, 0, cfg_.chunk);
  co_await sim::delay(sim_, cfg_.net_hop, "sf.net_hop");
  co_await nodes_[mirror].nvram->submit(dev::IoType::kWrite, 0, cfg_.chunk);
}

sim::CoTask<void> SolidFireCluster::chunk_read(std::uint64_t fingerprint) {
  const unsigned home = unsigned(fingerprint % cfg_.nodes);
  SfNode& h = nodes_[home];
  co_await h.data_cpu->consume(cfg_.chunk_read_cpu);
  co_await h.ssd->submit(dev::IoType::kRead, fingerprint % (1ull << 30), cfg_.chunk);
}

sim::CoTask<void> SolidFireCluster::destage_loop(unsigned node) {
  SfNode& n = nodes_[node];
  for (;;) {
    while (n.pending_destage == 0) co_await n.destage_cv->wait();
    const std::uint64_t bytes = std::min<std::uint64_t>(n.pending_destage, 64 * 1024);
    n.pending_destage -= bytes;
    // Destage is content-addressed: random placement on the SSDs.
    co_await n.ssd->submit(dev::IoType::kWrite, rng_.next() % (1ull << 30), bytes);
    n.nvram_room->release(bytes);
  }
}

sim::CoTask<void> SolidFireCluster::vm_loop(unsigned vm, client::WorkloadSpec spec,
                                            Time stop_at, client::RunStats* sink) {
  Rng rng(cfg_.seed ^ (0x9e3779b97f4a7c15ull * (vm + 1)));
  const std::uint64_t blocks = cfg_.image_size / spec.block_size;
  std::uint64_t cursor = 0;
  const std::uint64_t chunks_per_op = std::max<std::uint64_t>(1, spec.block_size / cfg_.chunk);

  while (sim_.now() < stop_at) {
    const bool is_write = spec.write_fraction >= 1.0 ||
                          (spec.write_fraction > 0.0 && rng.uniform() < spec.write_fraction);
    std::uint64_t block_no;
    if (spec.pattern == client::WorkloadSpec::Pattern::kSequential) {
      block_no = cursor++ % blocks;
    } else {
      block_no = rng.uniform_int(0, blocks - 1);
    }

    const Time issued = sim_.now();
    sim::WaitGroup wg(sim_);
    for (std::uint64_t c = 0; c < chunks_per_op; c++) {
      // Fully random data: fingerprints are effectively unique per write.
      const std::uint64_t fp =
          is_write ? rng.next()
                   : (std::uint64_t(vm + 1) << 48) ^ (block_no * chunks_per_op + c);
      wg.add(1);
      sim::spawn_fn([this, fp, is_write, &wg]() -> sim::CoTask<void> {
        if (is_write) {
          co_await chunk_write(fp);
        } else {
          co_await chunk_read(fp);
        }
        wg.done();
      });
    }
    co_await wg.wait();
    if (sink != nullptr) sink->record(is_write, issued, sim_.now());
  }
}

SolidFireCluster::Result SolidFireCluster::run(const client::WorkloadSpec& spec) {
  Result out;
  if (ran_) return out;
  ran_ = true;
  if (trace::Collector::profile_requested()) sim_.enable_profiling();
  client::RunStats stats;
  stats.window_start = spec.warmup;
  stats.window_end = spec.warmup + spec.runtime;
  for (unsigned v = 0; v < cfg_.vms; v++) {
    for (unsigned d = 0; d < spec.iodepth; d++) {
      sim::spawn(vm_loop(v * 1000 + d, spec, stats.window_end, &stats));
    }
  }
  sim_.run_until(stats.window_end);
  out.write_iops = stats.write_iops();
  out.read_iops = stats.read_iops();
  out.write_lat_ms = stats.write_lat.mean_ms();
  out.read_lat_ms = stats.read_lat.mean_ms();
  out.dedup_hit_rate = chunk_writes_ == 0 ? 0.0 : double(dedup_hits_) / double(chunk_writes_);
  if (sim_.profiling_enabled()) {
    Counters prof;
    sim_.profile_into(prof);
    std::fprintf(stderr, "--- sim profile ---\n%s", prof.to_string().c_str());
  }
  return out;
}

}  // namespace afc::sf
