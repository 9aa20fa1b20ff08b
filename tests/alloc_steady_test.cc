// Steady-state zero-allocation contract: once warm, a scheduling epoch
// over a fixed flow population must perform NO heap allocations in the
// epoch-cycled structures — RateAssignment's touched set, SchedulerDelta's
// dirty/requeue lists, CompletionHeap and QueueCrossingHeap. All of them
// recycle vector capacity across epochs. The ArrivalChurn cases extend the
// contract to the CoFlow lifecycle: with reclamation on, admitting and
// retiring a CoFlow recycles its state and every scheduler index entry.
//
// This binary (and only this binary) replaces the global operator
// new/delete with counting shims over malloc/free, so an allocation
// anywhere in the measured window is caught regardless of which layer
// performed it. Each test warms its structure until capacities stabilize,
// snapshots the counter, runs many more epochs, and asserts a zero delta.
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <new>

#include "common/alloc_probe.h"
#include "coflow/coflow.h"
#include "sim/completion_heap.h"
#include "sim/rate_assignment.h"
#include "sim/scheduler.h"
#include "sched/aalo.h"
#include "sched/order_index.h"
#include "sched/saath.h"
#include "sim/engine.h"
#include "test_util.h"
#include "workload/source.h"

// --------------------------------------------------------------------------
// Counting global allocator, aligned forms included: FlowPool's
// cache-aligned lanes go through the align_val_t overloads, and the
// arrival-churn cases must see a pool block that is not recycled.

void* operator new(std::size_t n) {
  saath::debug_note_alloc();
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t n) {
  saath::debug_note_alloc();
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}

void operator delete(void* p) noexcept {
  saath::debug_note_dealloc();
  std::free(p);
}

void operator delete(void* p, std::size_t) noexcept {
  saath::debug_note_dealloc();
  std::free(p);
}

void operator delete[](void* p) noexcept {
  saath::debug_note_dealloc();
  std::free(p);
}

void operator delete[](void* p, std::size_t) noexcept {
  saath::debug_note_dealloc();
  std::free(p);
}

void* operator new(std::size_t n, std::align_val_t al) {
  saath::debug_note_alloc();
  const auto a = static_cast<std::size_t>(al);
  // aligned_alloc wants a size that is a multiple of the alignment.
  if (void* p = std::aligned_alloc(a, ((n ? n : 1) + a - 1) / a * a)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}

void operator delete(void* p, std::align_val_t) noexcept {
  saath::debug_note_dealloc();
  std::free(p);
}

void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  saath::debug_note_dealloc();
  std::free(p);
}

void operator delete[](void* p, std::align_val_t) noexcept {
  saath::debug_note_dealloc();
  std::free(p);
}

void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  saath::debug_note_dealloc();
  std::free(p);
}

namespace saath {
namespace {

using testing::make_coflow;

constexpr int kWarmupEpochs = 64;
constexpr int kMeasuredEpochs = 256;

/// Runs `epoch(e)` for warmup epochs, snapshots the allocation counter,
/// runs the measured epochs, and returns the allocation delta.
template <typename Fn>
std::uint64_t measure_steady_allocs(Fn&& epoch) {
  for (int e = 0; e < kWarmupEpochs; ++e) epoch(e);
  const std::uint64_t before = debug_alloc_count();
  for (int e = kWarmupEpochs; e < kWarmupEpochs + kMeasuredEpochs; ++e) {
    epoch(e);
  }
  return debug_alloc_count() - before;
}

TEST(AllocSteady, ProbeCountsThisBinarysAllocations) {
  const std::uint64_t before = debug_alloc_count();
  auto* p = new int(7);
  EXPECT_GT(debug_alloc_count(), before);
  const std::uint64_t freed_before = debug_dealloc_count();
  delete p;
  EXPECT_GT(debug_dealloc_count(), freed_before);
}

TEST(AllocSteady, RateAssignmentTouchedSetRecyclesCapacity) {
  CoflowState c(make_coflow(0, 0,
                            {{0, 1, 1000000000000}, {1, 2, 1000000000000}, {2, 0, 1000000000000},
                             {0, 2, 1000000000000}, {1, 0, 1000000000000}, {2, 1, 1000000000000}}),
                FlowId{0});
  RateAssignment rates(/*num_ports=*/3);
  CoflowState* const cp = &c;

  const std::uint64_t delta = measure_steady_allocs([&](int e) {
    rates.begin_epoch(seconds(e));
    // Alternate rates so every set() is a genuine touch, not a no-op.
    const Rate r = (e % 2) == 0 ? 100.0 : 50.0;
    for (auto& f : cp->flows()) rates.set(*cp, f, r);
  });
  EXPECT_EQ(delta, 0u);
}

TEST(AllocSteady, SchedulerDeltaMarksRecycleCapacity) {
  CoflowState c(make_coflow(0, 0, {{0, 1, 1000000000000}, {1, 0, 1000000000000}}), FlowId{0});
  SchedulerDelta delta_set;
  delta_set.full = false;

  const std::uint64_t delta = measure_steady_allocs([&](int) {
    for (int i = 0; i < 8; ++i) delta_set.mark(&c);
    for (int i = 0; i < 4; ++i) delta_set.mark_requeue(&c);
    delta_set.clear_marks();
  });
  EXPECT_EQ(delta, 0u);
}

TEST(AllocSteady, CompletionHeapPushAndPruneRecycleCapacity) {
  CoflowState c(make_coflow(0, 0,
                            {{0, 1, 1000000000000}, {1, 2, 1000000000000}, {2, 0, 1000000000000},
                             {0, 2, 1000000000000}}),
                FlowId{0});
  CompletionHeap heap;
  CoflowState* const cp = &c;

  const std::uint64_t delta = measure_steady_allocs([&](int e) {
    // Every epoch re-rates every flow (new rate version), pushes the fresh
    // event, and queries next_time() — which flushes the pending batch and
    // prunes newly stale events off the top — then drains everything due,
    // exercising the full flush/prune/pop cycle on recycled capacity.
    const Rate r = (e % 2) == 0 ? 100.0 : 50.0;
    for (auto& f : cp->flows()) {
      f.set_rate(r, seconds(e));
      heap.push(&f, cp);
    }
    (void)heap.next_time();
    heap.pop_due(std::numeric_limits<SimTime>::max() / 2,
                 [](CoflowState&, FlowState&) {});
  });
  EXPECT_EQ(delta, 0u);
}

TEST(AllocSteady, CompletionHeapCompactionRecyclesCapacity) {
  // A bystander's event holds the top while one flow is re-rated again and
  // again: its stale events never surface, so only compaction (erase_if +
  // make_heap on the heap's own storage) sheds them. Warm-up runs several
  // compaction cycles; the measured ones must not allocate.
  CoflowState c(make_coflow(0, 0, {{0, 1, 1000000000000}, {1, 0, 1000}}),
                FlowId{0});
  CompletionHeap heap;
  CoflowState* const cp = &c;
  cp->flows()[1].set_rate(100.0, 0);
  heap.push(&cp->flows()[1], cp);
  FlowState& f = cp->flows()[0];

  const std::uint64_t delta = measure_steady_allocs([&](int e) {
    for (int k = 0; k < 4; ++k) {
      f.set_rate(1000.0 + 4 * e + k, usec(4 * e + k));
      heap.push(&f, cp);
      (void)heap.next_time();
    }
  });
  EXPECT_EQ(delta, 0u);
  EXPECT_LE(heap.size(), 128u);
}

TEST(AllocSteady, QueueCrossingHeapReprogramRecyclesCapacity) {
  CoflowState c0(make_coflow(0, 0, {{0, 1, 1000000000000}}), FlowId{0});
  CoflowState c1(make_coflow(1, 0, {{1, 2, 1000000000000}}), FlowId{1});
  QueueCrossingHeap heap;

  const std::uint64_t delta = measure_steady_allocs([&](int e) {
    // Steady-state re-rates re-derive each CoFlow's crossing instant and
    // re-program it: the live_ node is reused (same id), the superseded
    // heap items go stale and prune at the top of next().
    heap.program(&c0, seconds(e + 1), /*traj=*/static_cast<std::uint64_t>(e),
                 /*queue=*/0);
    heap.program(&c1, seconds(e + 2), /*traj=*/static_cast<std::uint64_t>(e),
                 /*queue=*/1);
    (void)heap.next();
  });
  EXPECT_EQ(delta, 0u);
}

// ------------------------------------------------------- arrival churn

/// Replays pre-built arrivals and snapshots the allocation counter when
/// the engine pulls the first measured event and the last one, so the
/// window covers the admission, scheduling, completion and reclamation of
/// every CoFlow in between (and nothing the source itself allocates).
class WindowedSource final : public workload::WorkloadSource {
 public:
  WindowedSource(std::vector<workload::WorkloadEvent> events,
                 std::size_t window_begin, std::size_t window_end)
      : events_(std::move(events)), begin_(window_begin), end_(window_end) {}

  [[nodiscard]] std::string name() const override { return "churn"; }
  [[nodiscard]] int num_ports() const override { return kPorts; }
  [[nodiscard]] SimTime peek_next_time() override {
    return cursor_ < events_.size() ? events_[cursor_].time : kNever;
  }
  [[nodiscard]] workload::WorkloadEvent next() override {
    if (cursor_ == begin_) allocs_at_begin_ = debug_alloc_count();
    if (cursor_ == end_) allocs_at_end_ = debug_alloc_count();
    return std::move(events_[cursor_++]);
  }

  [[nodiscard]] std::uint64_t window_allocs() const {
    return allocs_at_end_ - allocs_at_begin_;
  }

  static constexpr int kPorts = 8;

 private:
  std::vector<workload::WorkloadEvent> events_;
  std::size_t begin_;
  std::size_t end_;
  std::size_t cursor_ = 0;
  std::uint64_t allocs_at_begin_ = 0;
  std::uint64_t allocs_at_end_ = 0;
};

/// Batches of 8 CoFlows (1–4 flows of about 300 KB) every 24 ms over 8
/// ports, the port pattern shifting per batch: batches overlap, so the live
/// set holds one to three batches, CoFlows of several size classes retire
/// and arrive every round, and contended ports make many miss all-or-none
/// admission and take the backfill.
std::vector<workload::WorkloadEvent> churn_events(int n) {
  constexpr int kBatch = 8;
  std::vector<workload::WorkloadEvent> events;
  events.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const int batch = i / kBatch;
    const int j = i % kBatch;
    CoflowSpec spec;
    spec.id = CoflowId{i};
    spec.arrival = msec(24) * batch;
    const int width = 1 + (i * 3) % 4;
    for (int k = 0; k < width; ++k) {
      const PortIndex src = (j + 3 * k + batch) % WindowedSource::kPorts;
      const PortIndex dst = (5 * j + k + 2 * batch) % WindowedSource::kPorts;
      spec.flows.push_back({src, dst, 300000 + 1000 * ((i + k) % 13)});
    }
    events.push_back(workload::WorkloadEvent::arrival(std::move(spec)));
  }
  return events;
}

/// Allocations per admitted CoFlow over the measured window of a
/// reclaiming run.
double churn_allocs_per_coflow(Scheduler& scheduler, bool strict_input) {
  constexpr int kCoflows = 6000;
  constexpr std::size_t kBegin = 2000;
  constexpr std::size_t kEnd = 5000;
  auto source =
      std::make_shared<WindowedSource>(churn_events(kCoflows), kBegin, kEnd);
  SimConfig cfg;
  cfg.record_results = false;
  cfg.strict_input = strict_input;
  Engine engine(source, scheduler, cfg);
  (void)engine.run();
  EXPECT_EQ(engine.stats().arrivals_admitted, kCoflows);
  EXPECT_EQ(engine.stats().rejected_events, 0);
  EXPECT_GT(engine.stats().reclaimed_coflows, 0);
  return static_cast<double>(source->window_allocs()) /
         static_cast<double>(kEnd - kBegin);
}

TEST(AllocSteady, ArrivalChurnSaathRecyclesEveryCoflow) {
  for (const bool strict : {true, false}) {
    SaathScheduler saath;
    EXPECT_EQ(churn_allocs_per_coflow(saath, strict), 0.0)
        << "strict_input=" << strict;
  }
}

TEST(AllocSteady, ArrivalChurnAaloRecyclesEveryCoflow) {
  for (const bool strict : {true, false}) {
    AaloScheduler aalo;
    EXPECT_EQ(churn_allocs_per_coflow(aalo, strict), 0.0)
        << "strict_input=" << strict;
  }
}

}  // namespace
}  // namespace saath
