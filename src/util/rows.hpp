// Flat rows (CSR) by stable counting sort: the grouping step of the
// host-side passes (DESIGN.md §7e).
#pragma once

#include <cstddef>
#include <numeric>
#include <vector>

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
  std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
  entries.resize(count);
  for (std::size_t k = 0; k < count; ++k) {
    entries[cursor[row_of(k)]++] = entry_of(k);
  }
}

}  // namespace crowdrank
