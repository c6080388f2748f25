// Flat rows (CSR) by stable counting sort, and the grouping of items by
// unordered object pair built on them: the grouping steps of the host-side
// passes (DESIGN.md §7e).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "util/error.hpp"

namespace crowdrank {

/// Stable counting sort of items 0..count-1 into CSR rows: row r lists
/// entry_of(k), in item order, for every item k with row_of(k) == r, and
/// spans [offsets[r], offsets[r + 1]) of `entries`. O(rows + count).
template <class Entry, class RowOf, class EntryOf>
void fill_rows(std::size_t rows, std::size_t count, RowOf row_of,
               EntryOf entry_of, std::vector<std::size_t>& offsets,
               std::vector<Entry>& entries) {
  offsets.assign(rows + 1, 0);
  for (std::size_t k = 0; k < count; ++k) {
    ++offsets[row_of(k) + 1];
  }
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  // offsets[r] is row r's cursor while scattering and ends at the end of
  // row r; one shift then turns the ends back into starts.
  entries.resize(count);
  for (std::size_t k = 0; k < count; ++k) {
    entries[offsets[row_of(k)]++] = entry_of(k);
  }
  std::copy_backward(offsets.begin(), offsets.end() - 1, offsets.end());
  offsets[0] = 0;
}

/// Groups items 0..count-1 by their pair {first_of(k), second_of(k)}, with
/// first_of(k) <= second_of(k) < objects: group_of[k] numbers k's pair in
/// order of its first item, so group g opens at the first k with
/// group_of[k] == g. Returns the number of groups. The items are bucketed
/// by first object with `fill_rows`, each entry carrying its second
/// object; walking the buckets in order, a scratch row indexed by second
/// object holds the first entry of each pair in the current bucket (an
/// entry before the bucket's start is stale). O(objects + count), reading
/// each item once. Requires objects < 2^32 and count < 2^32 - 1.
template <class FirstOf, class SecondOf>
std::size_t group_pairs(std::size_t objects, std::size_t count,
                        FirstOf first_of, SecondOf second_of,
                        std::vector<std::uint32_t>& group_of) {
  using Index = std::uint32_t;
  constexpr Index kNone = std::numeric_limits<Index>::max();
  CR_EXPECTS(objects <= kNone && count < kNone,
             "too many objects or items to group by pair");
  struct Entry {
    Index second;
    Index item;
  };
  std::vector<std::size_t> bucket_offsets;
  std::vector<Entry> by_bucket;
  fill_rows(
      objects, count, first_of,
      [&](std::size_t k) {
        return Entry{static_cast<Index>(second_of(k)), static_cast<Index>(k)};
      },
      bucket_offsets, by_bucket);
  std::vector<Index> first_entry(objects, kNone);
  group_of.resize(count);
  for (std::size_t bucket = 0; bucket < objects; ++bucket) {
    const std::size_t start = bucket_offsets[bucket];
    for (std::size_t e = start; e < bucket_offsets[bucket + 1]; ++e) {
      Index& first = first_entry[by_bucket[e].second];
      if (first == kNone || first < start) {
        first = static_cast<Index>(e);
      }
      group_of[by_bucket[e].item] = by_bucket[first].item;
    }
  }
  std::size_t groups = 0;
  for (std::size_t k = 0; k < count; ++k) {
    group_of[k] = group_of[k] == k ? static_cast<Index>(groups++)
                                   : group_of[group_of[k]];
  }
  return groups;
}

}  // namespace crowdrank
