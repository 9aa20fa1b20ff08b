// Min-heap of predicted flow completion instants with lazy invalidation
// and batched maintenance.
//
// Every rate change pushes a fresh event stamped with the flow's rate
// version; stale events (version mismatch, or the flow already finished)
// are discarded when they surface at the top. Finding the next completion
// and harvesting a batch is O(log F) per event instead of a scan over every
// flow of every active CoFlow.
//
// Stale events that never surface (a flow re-rated every epoch while its
// finish stays far off — Aalo's steady state) would otherwise pile up
// without bound, so the heap also sheds them wholesale: once it has
// doubled since its last compaction, one erase_if(stale) + make_heap
// pass. Each pass is paid for by the pushes that doubled the heap, so
// the cost stays amortized O(1) per push and the heap stays O(live).
// Dropping a stale event early is as safe as prune() dropping it at the
// top: the only path that revives an old rate version (FlowState's
// zero-then-restore) runs at one instant inside one scheduling round,
// and the heap is never flushed inside a round.
//
// Pushes are *batched*: an epoch's touched events collect in a pending
// buffer and are folded into the heap at the next query — one O(n)
// make_heap rebuild when the batch is large relative to the heap, N sifts
// otherwise. This is observably identical to eager per-push sifting:
// among comparator-equal events (same instant, same flow) at most one can
// be valid (the stamp dedup admits one event per rate version and only one
// version is current), and popping a stale event has no side effects — so
// the sequence of *valid* pops is fully determined by the comparator, not
// by the heap's internal layout.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "coflow/coflow.h"
#include "common/expect.h"

namespace saath {

class CompletionHeap {
 public:
  /// Queues the flow's current predicted finish. No-op (returns false)
  /// when the flow is finished, cannot finish at its current rate, or this
  /// rate version is already queued (the heap stamp — without it, every
  /// quiescent reassignment would flood the heap with duplicate events).
  SAATH_HOT_NOALLOC bool push(FlowState* flow, CoflowState* coflow) {
    if (flow->finished()) return false;
    if (flow->heap_stamp() == flow->rate_version()) return false;
    flow->set_heap_stamp(flow->rate_version());
    const SimTime at = flow->predicted_finish();
    if (at == kNever) return false;
    pending_.push_back({at, flow->rate_version(), flow, coflow});
    return true;
  }

  /// Earliest still-valid completion instant; kNever when none is queued.
  [[nodiscard]] SAATH_HOT_NOALLOC SimTime next_time() {
    flush();
    prune();
    return heap_.empty() ? kNever : heap_.front().time;
  }

  /// Pops every valid event with time <= `at`, invoking fn(coflow, flow)
  /// for each; events invalidated by fn's side effects (the completion
  /// bumps the flow's rate version) are discarded on the way.
  template <typename Fn>
  SAATH_HOT_NOALLOC void pop_due(SimTime at, Fn&& fn) {
    for (;;) {
      flush();  // fn may have queued follow-on events
      prune();
      if (heap_.empty() || heap_.front().time > at) return;
      const Event ev = heap_.front();
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      heap_.pop_back();
      fn(*ev.coflow, *ev.flow);
    }
  }

  [[nodiscard]] std::size_t size() const {
    return heap_.size() + pending_.size();
  }
  [[nodiscard]] bool empty() const {
    return heap_.empty() && pending_.empty();
  }
  void clear() {
    heap_.clear();
    pending_.clear();
    compacted_size_ = 0;
  }

  /// Removes every event whose owning CoFlow satisfies `dying` (pointer
  /// identity only — nothing of a dying CoFlow is dereferenced), and every
  /// stale event of the survivors on the same pass. The engine's streaming
  /// reclamation calls this right before destroying finished CoflowStates,
  /// so no stale event can later dereference a freed flow in prune()/the
  /// comparator. O(n) filter + rebuild.
  template <typename Pred>
  void purge_coflows(Pred&& dying) {
    const auto drop = [&](const Event& ev) {
      return dying(ev.coflow) || stale(ev);
    };
    std::erase_if(heap_, drop);
    std::erase_if(pending_, drop);
    std::make_heap(heap_.begin(), heap_.end(), Later{});
    compacted_size_ = heap_.size();
  }

 private:
  struct Event {
    SimTime time = 0;
    std::uint64_t version = 0;
    FlowState* flow = nullptr;
    CoflowState* coflow = nullptr;
  };
  struct Later {
    // Min-heap on (time, flow id) — the id tie-break keeps pop order
    // deterministic for same-instant completions.
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return b.flow->id() < a.flow->id();
    }
  };

  [[nodiscard]] static bool stale(const Event& ev) {
    return ev.flow->finished() || ev.version != ev.flow->rate_version();
  }

  /// Folds the pending batch in: one make_heap rebuild when the batch is
  /// at least an eighth of the combined size (O(n) beats k·O(log n)
  /// there) or the heap is due for compaction (the rebuild then drops
  /// every stale event on the way), per-event sifts for small trickles.
  SAATH_HOT_NOALLOC void flush() {
    if (pending_.empty()) return;
    const std::size_t combined = heap_.size() + pending_.size();
    const bool compact =
        combined >= 2 * std::max(compacted_size_, kMinCompactSize);
    if (compact || pending_.size() * 8 >= combined) {
      heap_.insert(heap_.end(), pending_.begin(), pending_.end());
      if (compact) {
        std::erase_if(heap_, stale);
        compacted_size_ = heap_.size();
      }
      std::make_heap(heap_.begin(), heap_.end(), Later{});
    } else {
      for (const Event& ev : pending_) {
        heap_.push_back(ev);
        std::push_heap(heap_.begin(), heap_.end(), Later{});
      }
    }
    pending_.clear();
  }

  SAATH_HOT_NOALLOC void prune() {
    while (!heap_.empty() && stale(heap_.front())) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      heap_.pop_back();
    }
  }

  /// heap_ holds the sifted events (front = min), pending_ the unbatched
  /// tail; both vectors keep their capacity across epochs (no per-epoch
  /// allocation in steady state).
  std::vector<Event> heap_;
  std::vector<Event> pending_;
  /// heap_.size() right after the last compaction (or purge); flush()
  /// compacts again once the heap has doubled past it. The floor keeps
  /// small heaps from compacting on every flush.
  static constexpr std::size_t kMinCompactSize = 64;
  std::size_t compacted_size_ = 0;
};

}  // namespace saath
