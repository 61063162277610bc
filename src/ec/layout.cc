#include "ec/layout.h"

namespace afc::ec {

std::optional<ShardName> parse_shard(std::string_view name) {
  auto pos = name.rfind(".s");
  if (pos == std::string_view::npos || pos + 2 >= name.size()) return {};
  unsigned shard = 0;
  for (std::size_t i = pos + 2; i < name.size(); i++) {
    char c = name[i];
    if (c < '0' || c > '9') return {};
    shard = shard * 10 + unsigned(c - '0');
    if (shard > 255) return {};
  }
  return ShardName{std::string(name.substr(0, pos)), shard};
}

}  // namespace afc::ec
