// A set of 64-bit keys in one flat array: open addressing with linear
// probing at load <= 1/2, Fibonacci hashing, and backward-shift deletion,
// so removals leave no tombstones and every key stays one probe run from
// its home slot. No node is allocated per key. The all-ones key marks a
// free slot and cannot be stored.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace crowdrank {

class FlatSet {
 public:
  /// The one key that cannot be stored.
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  bool contains(std::uint64_t key) const;
  /// Adds `key`; false, changing nothing, when it is already there.
  bool insert(std::uint64_t key);
  /// Removes `key`; false when it is not there.
  bool erase(std::uint64_t key);

 private:
  std::size_t home(std::uint64_t key) const;
  /// The slot holding `key`, or the free slot that ends its probe run.
  std::size_t find(std::uint64_t key) const;
  /// Moves every key into a table of 2^bits slots.
  void rehash(int bits);

  std::vector<std::uint64_t> slots_;
  int bits_ = 0;
  std::size_t size_ = 0;
};

}  // namespace crowdrank
