// Incremental CoFlow contention — the spatial-occupancy index (§2.4, §3
// idea 3, §4 Table 2).
//
// k_c, the number of *other* CoFlows that share an occupied port with c
// (restricted, as Saath's LCoF does, to CoFlows in the same priority
// queue), used to be recomputed from scratch by compute_contention_grouped
// every time any event invalidated a whole-schedule dirty bit. SpatialIndex
// maintains k_c incrementally on top of OccupancyIndex:
//
//  * per pair of CoFlows it tracks the number of shared occupied port
//    slots ("overlap"); k_c is the count of same-group neighbors with
//    overlap > 0;
//  * a CoFlow arrival adds overlap with each bucket co-resident; a flow
//    completion touches only the (at most two) buckets it frees; a queue
//    reassignment re-scores only the CoFlow's own neighbor set.
//
// Every update is O(affected neighbors) instead of O(active x ports), which
// is what makes the coordinator's order phase (Table 2) independent of the
// epoch rate. The batch oracle in sched/contention.cc is kept as the
// reference implementation; the property suite asserts equality after every
// event.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/node_pool.h"
#include "spatial/occupancy.h"

namespace saath::spatial {

class SpatialIndex {
 public:
  /// Registers an arriving CoFlow with its current unfinished-flow
  /// occupancy and priority-queue group.
  void add_coflow(const CoflowState& c, int group);

  /// Unregisters a CoFlow (on completion, or when a consumer resets).
  void remove_coflow(CoflowId id);

  /// A flow of `c` completed; must be called after CoflowState updated its
  /// own load lists (the engine's hook order guarantees this).
  void on_flow_complete(const CoflowState& c, const FlowState& flow);

  /// True when `c` is indexed and no occupancy change happened behind the
  /// index's back (CoflowState::occupancy_version matches). Consumers that
  /// cannot guarantee event delivery re-add out-of-sync CoFlows.
  [[nodiscard]] bool in_sync(const CoflowState& c) const;

  /// Moves `id` to priority-queue group `group`, rescoring contention for
  /// it and its port neighbors.
  void set_group(CoflowId id, int group);

  /// k_c: distinct same-group CoFlows sharing an occupied port with `id`.
  [[nodiscard]] int contention(CoflowId id) const;
  [[nodiscard]] int group_of(CoflowId id) const;

  /// CoFlows whose k_c value changed since the last
  /// clear_contention_changes(), deduplicated. This is what lets an order
  /// index re-key only the CoFlows a completion or queue move actually
  /// perturbed: every ++/-- of an Entry's contention records its id here.
  /// May contain CoFlows that were since removed — consumers skip absent
  /// ids. Unbounded until cleared, so delta consumers must drain it every
  /// round (non-consumers can ignore it; add/remove churn caps it at the
  /// live population between clears... it is cleared by clear() too).
  [[nodiscard]] std::span<const CoflowId> contention_changes() const {
    return changes_;
  }
  void clear_contention_changes();

  /// Bumped on every membership mutation (add/remove/flow completion/
  /// group move). O(1) probe for "has anything changed since I looked".
  [[nodiscard]] std::uint64_t mutation_count() const { return mutations_; }

  [[nodiscard]] bool contains(CoflowId id) const {
    return entries_.find(id) != entries_.end();
  }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] const OccupancyIndex& occupancy() const { return occupancy_; }

  void clear();

 private:
  struct Entry {
    int group = 0;
    int contention = 0;
    /// CoflowState::occupancy_version at index time.
    std::uint64_t version = 0;
    /// change_epoch_ value when this entry last landed in changes_
    /// (dedup stamp; ~0 = never).
    std::uint64_t change_stamp = ~std::uint64_t{0};
    /// neighbor -> number of shared occupied port slots.
    std::unordered_map<CoflowId, int> overlap;
  };

  using OverlapMap = std::unordered_map<CoflowId, int>;
  using EntryMap = std::unordered_map<CoflowId, Entry>;

  /// e's overlap counter for neighbor `d`, created at 0 when absent.
  int& overlap_with(Entry& e, CoflowId d);
  void add_overlap(CoflowId a, Entry& ea, CoflowId b);
  void drop_overlap(CoflowId a, Entry& ea, CoflowId b);
  void note_contention_change(CoflowId id, Entry& e);

  OccupancyIndex occupancy_;
  EntryMap entries_;
  /// Recycled entry and overlap nodes: admission, contention churn and
  /// retirement allocate nothing once the index is warm. One overlap pool
  /// serves every entry's map.
  NodePool<EntryMap> entry_nodes_;
  NodePool<OverlapMap> overlap_nodes_;
  std::vector<CoflowId> changes_;
  std::uint64_t change_epoch_ = 0;
  std::uint64_t mutations_ = 0;
};

}  // namespace saath::spatial
