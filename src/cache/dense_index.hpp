// Growth rule shared by the flat id-indexed tables of the dense-id mode.
//
// A materialized DenseTrace knows its id universe, and reserve_dense_ids
// sizes every table once. A stream densified online does not: ids arrive
// in first-appearance order, one past the current maximum at a time. So a
// dense table treats its reservation as a capacity hint, and an id at or
// past the end grows the table by doubling, amortized O(1) per new id.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace webcache::cache {

/// Ids at or above this bound are refused rather than indexed: slot and
/// link fields are 32-bit, and a larger id means the caller passed sparse
/// ids (URL hashes) to a table switched to dense mode.
inline constexpr std::uint64_t kMaxDenseIds = 0xfffffffeULL;

/// Makes `id` a valid index of `table`, filling new slots with `fill`.
/// Callers test `id < table.size()` inline and call this only on the miss;
/// it runs O(log ids) times per table, so it is kept out of the hot path.
template <typename T>
[[gnu::cold, gnu::noinline]] void grow_dense_index(std::vector<T>& table,
                                                   std::uint64_t id,
                                                   const T& fill,
                                                   const char* owner) {
  if (id >= kMaxDenseIds) {
    throw std::length_error(std::string(owner) + ": dense id " +
                            std::to_string(id) + " is too large");
  }
  const std::size_t need = static_cast<std::size_t>(id) + 1;
  table.resize(std::max<std::size_t>({need, 2 * table.size(), 64}), fill);
}

}  // namespace webcache::cache
