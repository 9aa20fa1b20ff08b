// Run-length set of int64 ids.
//
// The tolerant-mode duplicate checks (the engine's admitted ids, the
// daemon's accepted ids) must remember every CoFlow id a run has ever
// taken. Ids mostly arrive ascending and dense, so the set stores maximal
// runs [lo, hi] sorted by lo instead of one hash node per id: memory is
// O(gaps), lookup is a binary search, and inserting the next id of the
// last run (or past it) is O(1) amortized with no allocation once the run
// vector is warm. An id landing inside the sorted prefix shifts the runs
// after it — O(runs), paid only by out-of-order streams.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

namespace saath {

class IdIntervalSet {
 public:
  [[nodiscard]] bool contains(std::int64_t id) const {
    const auto it = after(id);
    return it != runs_.begin() && std::prev(it)->hi >= id;
  }

  /// Adds `id` (no-op when present), merging it into adjacent runs.
  void insert(std::int64_t id) {
    if (runs_.empty() || id > runs_.back().hi) {
      if (!runs_.empty() && adjacent(runs_.back().hi, id)) {
        runs_.back().hi = id;
      } else {
        runs_.push_back({id, id});
      }
      return;
    }
    const auto next = after(id);  // first run starting past id
    if (next != runs_.begin() && std::prev(next)->hi >= id) return;
    const bool joins_prev =
        next != runs_.begin() && adjacent(std::prev(next)->hi, id);
    const bool joins_next = next != runs_.end() && adjacent(id, next->lo);
    if (joins_prev && joins_next) {
      std::prev(next)->hi = next->hi;
      runs_.erase(next);
    } else if (joins_prev) {
      std::prev(next)->hi = id;
    } else if (joins_next) {
      next->lo = id;
    } else {
      runs_.insert(next, {id, id});
    }
  }

  void clear() { runs_.clear(); }
  [[nodiscard]] bool empty() const { return runs_.empty(); }
  /// Maximal runs held (the memory footprint, in 16-byte units).
  [[nodiscard]] std::size_t runs() const { return runs_.size(); }

 private:
  struct Run {
    std::int64_t lo;
    std::int64_t hi;  // inclusive
  };

  /// True when b == a + 1, without overflowing at the int64 edges.
  [[nodiscard]] static bool adjacent(std::int64_t a, std::int64_t b) {
    return a < b && static_cast<std::uint64_t>(b) -
                            static_cast<std::uint64_t>(a) ==
                        1;
  }
  [[nodiscard]] std::vector<Run>::iterator after(std::int64_t id) {
    return std::upper_bound(
        runs_.begin(), runs_.end(), id,
        [](std::int64_t v, const Run& r) { return v < r.lo; });
  }
  [[nodiscard]] std::vector<Run>::const_iterator after(std::int64_t id) const {
    return std::upper_bound(
        runs_.begin(), runs_.end(), id,
        [](std::int64_t v, const Run& r) { return v < r.lo; });
  }

  std::vector<Run> runs_;
};

}  // namespace saath
