#pragma once

#include <cstddef>
#include <cstring>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

namespace afc {

/// Append-only byte arena: copy() places a string in a large block, and
/// blocks never move, so every copy stays valid until the arena is
/// destroyed (moving the arena keeps them valid too). No allocation per
/// string and no free per string; a string longer than a quarter block gets
/// a block of its own, and the shared block keeps serving the strings that
/// follow.
class ByteArena {
 public:
  explicit ByteArena(std::size_t block_bytes) : block_bytes_(block_bytes) {}
  ByteArena(ByteArena&& o) noexcept
      : block_bytes_(o.block_bytes_),
        blocks_(std::exchange(o.blocks_, {})),
        cursor_(std::exchange(o.cursor_, nullptr)),
        left_(std::exchange(o.left_, 0)) {}
  ByteArena& operator=(ByteArena&& o) noexcept {
    block_bytes_ = o.block_bytes_;
    blocks_ = std::exchange(o.blocks_, {});
    cursor_ = std::exchange(o.cursor_, nullptr);
    left_ = std::exchange(o.left_, 0);
    return *this;
  }

  std::string_view copy(std::string_view s) {
    char* p;
    if (s.size() > block_bytes_ / 4) {
      p = new_block(s.size());
    } else {
      if (s.size() > left_) {
        cursor_ = new_block(block_bytes_);
        left_ = block_bytes_;
      }
      p = cursor_;
      cursor_ += s.size();
      left_ -= s.size();
    }
    if (!s.empty()) std::memcpy(p, s.data(), s.size());
    return {p, s.size()};
  }

 private:
  char* new_block(std::size_t n) {
    blocks_.push_back(std::make_unique_for_overwrite<char[]>(n));
    return blocks_.back().get();
  }

  std::size_t block_bytes_;
  std::vector<std::unique_ptr<char[]>> blocks_;
  char* cursor_ = nullptr;  // free space in the current shared block
  std::size_t left_ = 0;
};

}  // namespace afc
