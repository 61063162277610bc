#include "kv/wal.h"

namespace afc::kv {

sim::CoTask<void> Wal::append(std::uint64_t payload_bytes) {
  const std::uint64_t record = payload_bytes + kRecordOverhead;
  pending_ += record;
  if (pending_ >= buffer_bytes_) co_await sync();
}

sim::CoTask<void> Wal::sync() {
  if (pending_ == 0) co_return;
  const std::uint64_t chunk = pending_;
  pending_ = 0;
  device_bytes_ += chunk;
  co_await dev_.submit(dev::IoType::kWrite, write_pos_, chunk);
  write_pos_ += chunk;
}

}  // namespace afc::kv
