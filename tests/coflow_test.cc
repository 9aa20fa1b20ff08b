#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "coflow/coflow.h"
#include "coflow/job.h"
#include "test_util.h"

namespace saath {
namespace {

using testing::make_coflow;

CoflowSpec two_by_two() {
  return make_coflow(1, 0,
                     {{0, 2, 100}, {0, 3, 100}, {1, 2, 100}, {1, 3, 100}});
}

TEST(CoflowSpec, Aggregates) {
  const auto c = make_coflow(1, 5, {{0, 1, 100}, {0, 2, 300}});
  EXPECT_EQ(c.width(), 2);
  EXPECT_EQ(c.total_bytes(), 400);
  EXPECT_EQ(c.max_flow_bytes(), 300);
}

TEST(FlowState, LazyProgressAtRate) {
  FlowState f(FlowId{0}, FlowSpec{0, 1, 1000});
  f.set_rate(100.0, 0);  // bytes/sec
  EXPECT_DOUBLE_EQ(f.sent(seconds(3)), 300.0);
  EXPECT_DOUBLE_EQ(f.remaining(seconds(3)), 700.0);
  EXPECT_EQ(f.predicted_finish(), seconds(10));
}

TEST(FlowState, ProgressClampsAtSize) {
  FlowState f(FlowId{0}, FlowSpec{0, 1, 100});
  f.set_rate(100.0, 0);
  EXPECT_DOUBLE_EQ(f.sent(seconds(5)), 100.0);
  EXPECT_DOUBLE_EQ(f.remaining(seconds(5)), 0.0);
}

TEST(FlowState, ZeroRateNeverFinishes) {
  FlowState f(FlowId{0}, FlowSpec{0, 1, 100});
  EXPECT_DOUBLE_EQ(f.sent(seconds(1000)), 0.0);
  EXPECT_EQ(f.predicted_finish(), kNever);
}

TEST(FlowState, RateChangeFoldsProgressAndBumpsVersion) {
  FlowState f(FlowId{0}, FlowSpec{0, 1, 1000});
  f.set_rate(100.0, 0);
  const auto v1 = f.rate_version();
  f.set_rate(50.0, seconds(4));  // 400 sent; 600 left at 50 B/s -> 12 s more
  EXPECT_GT(f.rate_version(), v1);
  EXPECT_DOUBLE_EQ(f.sent(seconds(4)), 400.0);
  EXPECT_DOUBLE_EQ(f.sent(seconds(6)), 500.0);
  EXPECT_EQ(f.predicted_finish(), seconds(16));
}

TEST(FlowState, CompleteStampsTime) {
  FlowState f(FlowId{0}, FlowSpec{0, 1, 100});
  f.complete(msec(1500));
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(f.finish_time(), msec(1500));
  EXPECT_DOUBLE_EQ(f.sent(msec(1500)), 100.0);
  EXPECT_DOUBLE_EQ(f.rate(), 0.0);
}

TEST(FlowState, RestartDiscardsProgress) {
  FlowState f(FlowId{0}, FlowSpec{0, 1, 1000});
  f.set_rate(100.0, 0);
  EXPECT_DOUBLE_EQ(f.restart(seconds(4)), 400.0);
  EXPECT_DOUBLE_EQ(f.sent(seconds(4)), 0.0);
  EXPECT_DOUBLE_EQ(f.rate(), 0.0);
  EXPECT_EQ(f.predicted_finish(), kNever);
  EXPECT_FALSE(f.finished());
}

TEST(FlowState, ZeroByteFlowPredictedAtOrigin) {
  FlowState f(FlowId{0}, FlowSpec{0, 1, 0}, seconds(2));
  EXPECT_EQ(f.predicted_finish(), seconds(2));
}

TEST(CoflowState, PortLoadsCountFlows) {
  CoflowState c(two_by_two(), FlowId{0});
  ASSERT_EQ(c.sender_loads().size(), 2u);
  ASSERT_EQ(c.receiver_loads().size(), 2u);
  for (const auto& l : c.sender_loads()) EXPECT_EQ(l.unfinished_flows, 2);
  for (const auto& l : c.receiver_loads()) EXPECT_EQ(l.unfinished_flows, 2);
}

TEST(CoflowState, TotalSentTracksLazyProgress) {
  CoflowState c(two_by_two(), FlowId{0});
  for (auto& f : c.flows()) f.set_rate(10.0, 0);
  EXPECT_DOUBLE_EQ(c.total_sent(seconds(2)), 80.0);  // 4 flows x 20 bytes
  EXPECT_DOUBLE_EQ(c.max_flow_sent(seconds(2)), 20.0);
  EXPECT_DOUBLE_EQ(c.total_remaining(seconds(2)), 320.0);
}

TEST(CoflowState, FlowCompletionUpdatesLoads) {
  CoflowState c(two_by_two(), FlowId{0});
  auto& f0 = c.flows()[0];  // 0 -> 2
  f0.set_rate(100.0, 0);
  c.on_flow_complete(f0, seconds(1));
  EXPECT_EQ(c.unfinished_flows(), 3);
  EXPECT_FALSE(c.finished());
  int port0 = -1;
  for (const auto& l : c.sender_loads()) {
    if (l.port == 0) port0 = l.unfinished_flows;
  }
  EXPECT_EQ(port0, 1);
  ASSERT_EQ(c.finished_flow_lengths().size(), 1u);
  EXPECT_DOUBLE_EQ(c.finished_flow_lengths()[0], 100.0);
}

TEST(CoflowState, FinishesWhenLastFlowDone) {
  CoflowState c(make_coflow(1, seconds(1), {{0, 1, 10}, {1, 0, 10}}), FlowId{0});
  c.on_flow_complete(c.flows()[0], seconds(2));
  EXPECT_FALSE(c.finished());
  c.on_flow_complete(c.flows()[1], seconds(3));
  EXPECT_TRUE(c.finished());
  EXPECT_EQ(c.finish_time(), seconds(3));
  EXPECT_EQ(c.completion_time(), seconds(2));  // 3 - arrival(1)
}

TEST(CoflowState, BottleneckSeconds) {
  // Port 0 must push 200 bytes, port 1 only 100; at 100 B/s the bottleneck
  // is 2 seconds.
  CoflowState c(make_coflow(1, 0, {{0, 1, 100}, {0, 2, 100}}), FlowId{0});
  EXPECT_DOUBLE_EQ(c.bottleneck_seconds(100.0, 0), 2.0);
}

TEST(CoflowState, BottleneckOnReceiverSide) {
  CoflowState c(make_coflow(1, 0, {{0, 2, 100}, {1, 2, 200}}), FlowId{0});
  EXPECT_DOUBLE_EQ(c.bottleneck_seconds(100.0, 0), 3.0);  // receiver 2: 300 bytes
}

TEST(CoflowState, RestartFlowsOnPort) {
  CoflowState c(two_by_two(), FlowId{0});
  for (auto& f : c.flows()) f.set_rate(10.0, 0);
  EXPECT_DOUBLE_EQ(c.total_sent(seconds(1)), 40.0);
  const int restarted = c.restart_flows_on_port(0, seconds(1));
  EXPECT_EQ(restarted, 2);  // the two flows sent from port 0
  EXPECT_DOUBLE_EQ(c.total_sent(seconds(1)), 20.0);
}

TEST(CoflowState, PortLoadLookupOnWideCoflow) {
  // A wide mesh: the sorted slot index must answer per-port lookups for
  // every port the CoFlow touches, and 0 for ports it does not.
  CoflowSpec spec;
  spec.id = CoflowId{7};
  for (PortIndex m = 20; m > 0; --m) {
    for (PortIndex r = 0; r < 5; ++r) {
      spec.flows.push_back({m, static_cast<PortIndex>(30 + r), 10});
    }
  }
  CoflowState c(spec, FlowId{0});
  for (PortIndex m = 1; m <= 20; ++m) EXPECT_EQ(c.unfinished_on_sender(m), 5);
  for (PortIndex r = 30; r < 35; ++r) EXPECT_EQ(c.unfinished_on_receiver(r), 20);
  EXPECT_EQ(c.unfinished_on_sender(0), 0);
  EXPECT_EQ(c.unfinished_on_sender(99), 0);
  EXPECT_EQ(c.unfinished_on_receiver(1), 0);
}

/// Every sender/receiver slot list must equal the ascending unfinished
/// flows on that slot's port, and be exactly unfinished_flows long.
void expect_slot_lists_live(const CoflowState& c) {
  const auto flows = c.flows();
  for (int side = 0; side < 2; ++side) {
    const auto loads = side == 0 ? c.sender_loads() : c.receiver_loads();
    for (std::size_t s = 0; s < loads.size(); ++s) {
      std::vector<std::uint32_t> want;
      for (std::uint32_t i = 0; i < flows.size(); ++i) {
        const PortIndex p = side == 0 ? flows[i].src() : flows[i].dst();
        if (p == loads[s].port && !flows[i].finished()) want.push_back(i);
      }
      const auto got =
          side == 0 ? c.sender_slot_flows(s) : c.receiver_slot_flows(s);
      EXPECT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()), want)
          << (side == 0 ? "sender" : "receiver") << " port " << loads[s].port;
      EXPECT_EQ(got.size(),
                static_cast<std::size_t>(loads[s].unfinished_flows));
    }
  }
}

/// A 6x5 mesh with a few extra flows so slots differ in length and the
/// flow order interleaves ports.
CoflowSpec mesh_spec() {
  CoflowSpec spec;
  spec.id = CoflowId{3};
  for (PortIndex m = 0; m < 6; ++m) {
    for (PortIndex r = 0; r < 5; ++r) {
      spec.flows.push_back({static_cast<PortIndex>((m + 2 * r) % 6),
                            static_cast<PortIndex>(10 + (r + m) % 5), 10});
    }
  }
  spec.flows.push_back({2, 12, 10});
  spec.flows.push_back({2, 10, 10});
  spec.flows.push_back({5, 14, 10});
  return spec;
}

TEST(CoflowState, SlotListsHoldExactlyTheUnfinishedFlows) {
  // Completion orders that hit the head, the tail and the middle of the
  // slot runs: ascending, descending and a fixed shuffle.
  const auto spec = mesh_spec();
  const std::size_t n = spec.flows.size();
  std::vector<std::vector<std::size_t>> orders(3);
  for (std::size_t i = 0; i < n; ++i) {
    orders[0].push_back(i);
    orders[1].push_back(n - 1 - i);
    orders[2].push_back((i * 13 + 5) % n);  // 13 is coprime with 33
  }
  for (const auto& order : orders) {
    CoflowState c(spec, FlowId{0});
    expect_slot_lists_live(c);
    SimTime t = 0;
    for (const std::size_t i : order) {
      c.on_flow_complete(c.flows()[i], t += msec(1));
      expect_slot_lists_live(c);
    }
    EXPECT_TRUE(c.finished());
  }
}

TEST(CoflowState, RestoreFinishedCompactsSlotLists) {
  // Checkpoint restore routes finished flows through the completion
  // bookkeeping: the lists come out exactly as if the flows had finished
  // live, whatever order the restore visits them in.
  const auto spec = mesh_spec();
  CoflowState c(spec, FlowId{0});
  for (std::size_t i = spec.flows.size(); i-- > 0;) {
    if (i % 3 == 1) continue;
    c.restore_flow_finished(i, msec(5));
    expect_slot_lists_live(c);
  }
  EXPECT_EQ(c.unfinished_flows(), 11);
}

TEST(JobSpec, ValidateRejectsForwardDeps) {
  JobSpec job;
  job.id = JobId{1};
  job.stages.push_back({{{0, 1, 10}}, {1}});  // dep on a later stage
  job.stages.push_back({{{1, 2, 10}}, {}});
  EXPECT_THROW(job.validate(), std::invalid_argument);
}

TEST(JobSpec, ValidateRejectsEmptyStage) {
  JobSpec job;
  job.id = JobId{1};
  job.stages.push_back({{}, {}});
  EXPECT_THROW(job.validate(), std::invalid_argument);
}

TEST(CoflowState, ResetKeepsVersionsCountingAcrossLives) {
  CoflowState c(make_coflow(1, 0, {{0, 1, 1000}, {1, 2, 2000}, {2, 0, 500}}),
                FlowId{0}, /*capacity=*/4);
  // Drive one life: rate changes, a zeroing, completions.
  for (auto& f : c.flows()) f.set_rate(100.0, 0);
  c.flows()[1].set_rate(0.0, usec(10));
  c.on_flow_complete(c.flows()[0], seconds(10));
  c.on_flow_complete(c.flows()[2], seconds(5));
  c.flows()[1].set_rate(200.0, seconds(10));
  c.on_flow_complete(c.flows()[1], seconds(20));
  ASSERT_TRUE(c.finished());
  const std::uint64_t occupancy = c.occupancy_version();
  const std::uint64_t trajectory = c.trajectory_version();
  const std::uint64_t progress = c.progress_version();
  const FlowState* const handles = c.flows().data();
  const double* const lane = c.pool().rate;

  const CoflowSpec next =
      make_coflow(9, seconds(30), {{3, 4, 700}, {4, 3, 800}, {3, 3, 900},
                                   {5, 4, 100}});
  c.reset(next, FlowId{100});
  EXPECT_GT(c.occupancy_version(), occupancy);
  EXPECT_GT(c.trajectory_version(), trajectory);
  EXPECT_GT(c.progress_version(), progress);
  // Same storage: the pool block and the handle vector were reused.
  EXPECT_EQ(c.flows().data(), handles);
  EXPECT_EQ(c.pool().rate, lane);
  EXPECT_EQ(c.capacity(), 4u);

  // Every observable matches a state freshly built for the same spec.
  const CoflowState fresh(next, FlowId{100});
  EXPECT_EQ(c.id(), fresh.id());
  EXPECT_EQ(c.arrival(), fresh.arrival());
  EXPECT_FALSE(c.finished());
  EXPECT_EQ(c.unfinished_flows(), fresh.unfinished_flows());
  EXPECT_EQ(c.finish_time(), kNever);
  EXPECT_EQ(c.rated_flows(), 0);
  EXPECT_TRUE(c.finished_flow_lengths().empty());
  EXPECT_EQ(c.queue_index, 0);
  EXPECT_EQ(c.deadline, kNever);
  EXPECT_TRUE(c.data_available);
  EXPECT_EQ(c.total_sent(seconds(31)), 0.0);
  ASSERT_EQ(c.flows().size(), fresh.flows().size());
  for (std::size_t i = 0; i < c.flows().size(); ++i) {
    const FlowState& a = c.flows()[i];
    const FlowState& b = fresh.flows()[i];
    EXPECT_EQ(a.id(), b.id());
    EXPECT_EQ(a.src(), b.src());
    EXPECT_EQ(a.dst(), b.dst());
    EXPECT_EQ(a.size(), b.size());
    EXPECT_EQ(a.rate(), 0.0);
    EXPECT_EQ(a.predicted_finish(), b.predicted_finish());
    EXPECT_EQ(a.rate_version(), b.rate_version());
    EXPECT_FALSE(a.finished());
  }
  const auto same_loads = [](std::span<const PortLoad> x,
                             std::span<const PortLoad> y) {
    ASSERT_EQ(x.size(), y.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(x[i].port, y[i].port);
      EXPECT_EQ(x[i].unfinished_flows, y[i].unfinished_flows);
    }
  };
  same_loads(c.sender_loads(), fresh.sender_loads());
  same_loads(c.receiver_loads(), fresh.receiver_loads());
  for (std::size_t s = 0; s < c.sender_loads().size(); ++s) {
    const auto a = c.sender_slot_flows(s);
    const auto b = fresh.sender_slot_flows(s);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
  }
  for (std::size_t s = 0; s < c.receiver_loads().size(); ++s) {
    const auto a = c.receiver_slot_flows(s);
    const auto b = fresh.receiver_slot_flows(s);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
  }
  EXPECT_EQ(c.unfinished_on_sender(3), 2);
  EXPECT_EQ(c.unfinished_on_receiver(4), 2);
  EXPECT_EQ(c.unfinished_on_sender(0), 0);

  // The new life runs normally on the recycled storage.
  c.flows()[3].set_rate(100.0, seconds(30));
  const OccupancyDelta d = c.on_flow_complete(c.flows()[3], seconds(31));
  EXPECT_TRUE(d.sender_freed);
  EXPECT_FALSE(d.receiver_freed);
  EXPECT_EQ(c.unfinished_on_receiver(4), 1);
}

TEST(JobTracker, LinearChainReleasesInOrder) {
  JobSpec job;
  job.id = JobId{1};
  job.stages.push_back({{{0, 1, 10}}, {}});
  job.stages.push_back({{{1, 2, 10}}, {0}});
  job.stages.push_back({{{2, 3, 10}}, {1}});
  JobTracker tracker(job);

  auto ready = tracker.ready_stages();
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0], 0);
  tracker.mark_released(0);
  EXPECT_TRUE(tracker.ready_stages().empty());

  ready = tracker.mark_finished(0, seconds(1));
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0], 1);
  tracker.mark_released(1);
  ready = tracker.mark_finished(1, seconds(2));
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0], 2);
  tracker.mark_released(2);
  tracker.mark_finished(2, seconds(3));
  EXPECT_TRUE(tracker.all_finished());
  EXPECT_EQ(tracker.finish_time(), seconds(3));
}

TEST(JobTracker, DiamondDagWaitsForBothParents) {
  JobSpec job;
  job.id = JobId{2};
  job.stages.push_back({{{0, 1, 10}}, {}});        // 0
  job.stages.push_back({{{1, 2, 10}}, {}});        // 1
  job.stages.push_back({{{2, 3, 10}}, {0, 1}});    // 2 needs both
  JobTracker tracker(job);

  auto ready = tracker.ready_stages();
  EXPECT_EQ(ready.size(), 2u);
  tracker.mark_released(0);
  tracker.mark_released(1);
  EXPECT_TRUE(tracker.mark_finished(0, seconds(1)).empty());
  ready = tracker.mark_finished(1, seconds(2));
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0], 2);
}

TEST(JobTracker, MakeCoflowStampsLinkage) {
  JobSpec job;
  job.id = JobId{3};
  job.arrival = seconds(1);
  job.stages.push_back({{{0, 1, 10}, {0, 2, 20}}, {}});
  JobTracker tracker(job);
  const auto spec = tracker.make_coflow(0, CoflowId{9}, seconds(4));
  EXPECT_EQ(spec.id, CoflowId{9});
  EXPECT_EQ(spec.arrival, seconds(4));
  EXPECT_EQ(spec.job, JobId{3});
  EXPECT_EQ(spec.stage, 0);
  EXPECT_EQ(spec.width(), 2);
}

}  // namespace
}  // namespace saath
