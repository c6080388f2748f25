#include "util/flat_set.hpp"

#include <utility>

#include "util/error.hpp"

namespace crowdrank {

std::size_t FlatSet::home(std::uint64_t key) const {
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >>
                                  (64 - bits_));
}

std::size_t FlatSet::find(std::uint64_t key) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t at = home(key);
  while (slots_[at] != kEmpty && slots_[at] != key) {
    at = (at + 1) & mask;
  }
  return at;
}

void FlatSet::rehash(int bits) {
  const std::vector<std::uint64_t> old = std::exchange(
      slots_, std::vector<std::uint64_t>(std::size_t{1} << bits, kEmpty));
  bits_ = bits;
  for (const std::uint64_t key : old) {
    if (key != kEmpty) {
      slots_[find(key)] = key;
    }
  }
}

bool FlatSet::contains(std::uint64_t key) const {
  return !slots_.empty() && slots_[find(key)] == key;
}

bool FlatSet::insert(std::uint64_t key) {
  CR_DEBUG_EXPECTS(key != kEmpty, "the all-ones key marks a free slot");
  if (2 * (size_ + 1) > slots_.size()) {
    rehash(slots_.empty() ? 4 : bits_ + 1);
  }
  std::uint64_t& slot = slots_[find(key)];
  if (slot == key) {
    return false;
  }
  slot = key;
  ++size_;
  return true;
}

bool FlatSet::erase(std::uint64_t key) {
  if (slots_.empty()) {
    return false;
  }
  std::size_t hole = find(key);
  if (slots_[hole] != key) {
    return false;
  }
  // Backward shift: each later key of the probe run that may sit in the
  // hole (its home is not cyclically inside (hole, at]) moves into it.
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t at = (hole + 1) & mask; slots_[at] != kEmpty;
       at = (at + 1) & mask) {
    if (((at - home(slots_[at])) & mask) >= ((at - hole) & mask)) {
      slots_[hole] = slots_[at];
      hole = at;
    }
  }
  slots_[hole] = kEmpty;
  --size_;
  return true;
}

}  // namespace crowdrank
