#include "sim/ready_set.hpp"

#include <cstring>

namespace apt::sim {

namespace {

/// Mixes the row's 64-bit words: bitwise-equal rows hash equal.
std::uint64_t row_hash(const TimeMs* exec, std::size_t procs) {
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
  for (std::size_t p = 0; p < procs; ++p) {
    std::uint64_t word;
    std::memcpy(&word, &exec[p], sizeof word);
    h = (h ^ word) * 0xff51afd7ed558ccdull;
    h ^= h >> 32;
  }
  return h;
}

}  // namespace

ReadySet::RowId ReadySet::intern_row(const TimeMs* exec) {
  const std::uint64_t h = row_hash(exec, procs_);
  if (2 * (rows_.size() + 1) > row_index_.size()) {
    // Grow (or create) the index, keeping it at most half full.
    row_index_.assign(row_index_.empty() ? 64 : 2 * row_index_.size(),
                      kNoRow);
    for (RowId r = 0; r < rows_.size(); ++r) {
      std::size_t i = row_hash_[r] & (row_index_.size() - 1);
      while (row_index_[i] != kNoRow) i = (i + 1) & (row_index_.size() - 1);
      row_index_[i] = r;
    }
  }
  std::size_t i = h & (row_index_.size() - 1);
  for (; row_index_[i] != kNoRow; i = (i + 1) & (row_index_.size() - 1)) {
    const RowId r = row_index_[i];
    if (row_hash_[r] == h &&
        std::memcmp(exec_row(r), exec, procs_ * sizeof(TimeMs)) == 0)
      return r;
  }
  // Same scan the policies' minimum used to come from: first strict
  // minimum, so ties go to the lowest processor id.
  Row row;
  row.min_exec = exec[0];
  for (ProcId p = 1; p < procs_; ++p) {
    if (exec[p] < row.min_exec) {
      row.min_exec = exec[p];
      row.min_proc = p;
    }
  }
  const auto id = static_cast<RowId>(rows_.size());
  row_index_[i] = id;
  row_exec_.insert(row_exec_.end(), exec, exec + procs_);
  rows_.push_back(row);
  row_hash_.push_back(h);
  return id;
}

}  // namespace apt::sim
