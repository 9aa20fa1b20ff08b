#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <set>
#include <unordered_set>

#include "common/histogram.h"
#include "common/ids.h"
#include "common/interval_set.h"
#include "common/node_pool.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/time.h"
#include "common/units.h"

namespace saath {
namespace {

TEST(Ids, DefaultIsInvalid) {
  CoflowId id;
  EXPECT_FALSE(id.valid());
  EXPECT_TRUE(CoflowId{0}.valid());
  EXPECT_TRUE(CoflowId{42}.valid());
}

TEST(Ids, Ordering) {
  EXPECT_LT(CoflowId{1}, CoflowId{2});
  EXPECT_EQ(FlowId{7}, FlowId{7});
  EXPECT_NE(JobId{1}, JobId{2});
}

TEST(Ids, DistinctTypesHashIndependently) {
  std::unordered_set<CoflowId> coflows{CoflowId{1}, CoflowId{2}, CoflowId{1}};
  EXPECT_EQ(coflows.size(), 2u);
}

TEST(Time, Conversions) {
  EXPECT_EQ(msec(8), 8000);
  EXPECT_EQ(seconds(2), 2'000'000);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(3)), 3.0);
  EXPECT_DOUBLE_EQ(to_seconds(msec(500)), 0.5);
}

TEST(Units, Constants) {
  EXPECT_EQ(kMB, 1'000'000);
  EXPECT_EQ(100 * kMB, 100'000'000);
  EXPECT_DOUBLE_EQ(gbps(1), 125e6);
  EXPECT_DOUBLE_EQ(gbps(10), 1.25e9);
}

TEST(Stats, PercentileSingleValue) {
  const std::vector<double> v{5.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 2.0);
  EXPECT_DOUBLE_EQ(percentile(v, 10), 1.4);
}

TEST(Stats, PercentileUnsortedInput) {
  const std::vector<double> v{9, 1, 5, 3, 7};
  EXPECT_DOUBLE_EQ(percentile(v, 50), 5.0);
}

TEST(Stats, MeanAndStddev) {
  const std::vector<double> v{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(mean(v), 5.0);
  EXPECT_DOUBLE_EQ(stddev(v), 2.0);
  EXPECT_DOUBLE_EQ(normalized_stddev(v), 0.4);
}

TEST(Stats, NormalizedStddevZeroMean) {
  const std::vector<double> v{0, 0, 0};
  EXPECT_DOUBLE_EQ(normalized_stddev(v), 0.0);
}

TEST(Stats, NormalizedStddevEqualValues) {
  const std::vector<double> v{3, 3, 3, 3};
  EXPECT_DOUBLE_EQ(normalized_stddev(v), 0.0);
}

TEST(Stats, SummaryFields) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  const Summary s = summarize(v);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_NEAR(s.p50, 50.5, 0.01);
  EXPECT_NEAR(s.p90, 90.1, 0.01);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
}

TEST(Stats, EmpiricalCdfEndsAtOne) {
  std::vector<double> v{3, 1, 2};
  const auto cdf = empirical_cdf(v);
  ASSERT_FALSE(cdf.empty());
  EXPECT_DOUBLE_EQ(cdf.back().fraction, 1.0);
  EXPECT_DOUBLE_EQ(cdf.back().value, 3.0);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_LE(cdf[i - 1].value, cdf[i].value);
    EXPECT_LE(cdf[i - 1].fraction, cdf[i].fraction);
  }
}

TEST(Stats, EmpiricalCdfDownsamples) {
  std::vector<double> v(10'000);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
  const auto cdf = empirical_cdf(v, 100);
  EXPECT_LE(cdf.size(), 102u);
}

TEST(Stats, FractionAtMost) {
  const std::vector<double> v{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(fraction_at_most(v, 2.5), 0.5);
  EXPECT_DOUBLE_EQ(fraction_at_most(v, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(fraction_at_most(v, 10.0), 1.0);
}

TEST(Rng, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1'000'000), b.uniform_int(0, 1'000'000));
  }
}

TEST(Rng, UniformIntBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
  }
}

TEST(Rng, UniformRealBounds) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(1.5, 2.5);
    EXPECT_GE(v, 1.5);
    EXPECT_LT(v, 2.5);
  }
}

TEST(Rng, ParetoAboveScale) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.pareto(10.0, 1.5), 10.0);
  }
}

TEST(Rng, ForkIndependence) {
  Rng parent(5);
  Rng fork = parent.fork();
  // The fork must not replay the parent's stream.
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    if (parent.uniform_int(0, 1'000'000) != fork.uniform_int(0, 1'000'000)) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(6);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(LogHistogram, ExactAggregatesApproxPercentiles) {
  LogHistogram h(1e-6, 1.05, 512);
  for (int i = 1; i <= 1000; ++i) h.record(i * 1e-4);
  EXPECT_EQ(h.count(), 1000);
  EXPECT_DOUBLE_EQ(h.max(), 0.1);
  EXPECT_NEAR(h.sum(), 1000.0 * 1001.0 / 2.0 * 1e-4, 1e-9);
  EXPECT_NEAR(h.mean(), h.sum() / 1000.0, 1e-12);
  // Relative error of a log-bucketed percentile is bounded by the ratio.
  EXPECT_NEAR(h.percentile(50), 0.05, 0.05 * 0.06);
  EXPECT_NEAR(h.percentile(99), 0.099, 0.099 * 0.06);
}

TEST(LogHistogram, ClampsAndEmptyAndReset) {
  LogHistogram h(1.0, 2.0, 4);
  EXPECT_DOUBLE_EQ(h.percentile(99), 0.0);  // empty
  h.record(0.001);  // below floor: clamps into bucket 0
  EXPECT_EQ(h.bucket_of(0.001), 0);
  h.record(1e9);  // past the last bucket: clamps, exact max survives
  EXPECT_EQ(h.bucket_of(1e9), 3);
  EXPECT_DOUBLE_EQ(h.max(), 1e9);
  h.reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
}

TEST(LogHistogram, MergeMatchesSequentialRecord) {
  LogHistogram a(1e-6, 1.05, 128);
  LogHistogram b(1e-6, 1.05, 128);
  LogHistogram both(1e-6, 1.05, 128);
  for (int i = 1; i <= 50; ++i) {
    a.record(i * 1e-3);
    both.record(i * 1e-3);
  }
  for (int i = 51; i <= 100; ++i) {
    b.record(i * 1e-3);
    both.record(i * 1e-3);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_DOUBLE_EQ(a.sum(), both.sum());
  EXPECT_DOUBLE_EQ(a.max(), both.max());
  for (double p : {10.0, 50.0, 90.0, 99.0}) {
    EXPECT_DOUBLE_EQ(a.percentile(p), both.percentile(p));
  }
}

TEST(IdIntervalSet, AscendingIdsCollapseIntoOneRun) {
  IdIntervalSet ids;
  for (std::int64_t id = 0; id < 1000; ++id) {
    EXPECT_FALSE(ids.contains(id));
    ids.insert(id);
  }
  EXPECT_EQ(ids.runs(), 1u);
  EXPECT_TRUE(ids.contains(0));
  EXPECT_TRUE(ids.contains(999));
  EXPECT_FALSE(ids.contains(-1));
  EXPECT_FALSE(ids.contains(1000));
  ids.insert(1002);  // a gap opens a second run
  EXPECT_EQ(ids.runs(), 2u);
  ids.insert(1001);  // extends the second run down
  EXPECT_EQ(ids.runs(), 2u);
  ids.insert(1000);  // closes the gap: the runs merge
  EXPECT_EQ(ids.runs(), 1u);
  EXPECT_TRUE(ids.contains(1002));
  ids.insert(500);  // present: no-op
  EXPECT_EQ(ids.runs(), 1u);
}

TEST(IdIntervalSet, MatchesAStdSetOnScrambledIdsAndInt64Edges) {
  IdIntervalSet ids;
  std::set<std::int64_t> oracle;
  Rng rng(7);
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  std::vector<std::int64_t> probes = {kMin, kMin + 1, kMax - 1, kMax, -1, 0};
  for (int i = 0; i < 400; ++i) {
    probes.push_back(static_cast<std::int64_t>(rng.uniform_int(0, 120)) - 60);
  }
  for (const std::int64_t id : probes) {
    ids.insert(id);
    oracle.insert(id);
    for (std::int64_t q = -70; q <= 70; ++q) {
      ASSERT_EQ(ids.contains(q), oracle.contains(q)) << "after " << id;
    }
    for (const std::int64_t q : {kMin, kMin + 1, kMin + 2, kMax - 2, kMax - 1,
                                 kMax}) {
      ASSERT_EQ(ids.contains(q), oracle.contains(q)) << "after " << id;
    }
  }
  // Maximal runs: one per gap in the oracle.
  std::size_t runs = 0;
  std::int64_t prev = 0;
  bool first = true;
  for (const std::int64_t id : oracle) {
    if (first || id != prev + 1) ++runs;
    first = false;
    prev = id;
  }
  EXPECT_EQ(ids.runs(), runs);
}

TEST(NodePool, RecycledNodesKeepContainerOrder) {
  // The same insert/erase history with and without recycling iterates
  // identically; the pool never outgrows the container's peak.
  std::unordered_map<std::int64_t, int> pooled;
  std::unordered_map<std::int64_t, int> plain;
  NodePool<std::unordered_map<std::int64_t, int>> pool;
  std::set<std::pair<int, int>> pooled_set;
  std::set<std::pair<int, int>> plain_set;
  NodePool<std::set<std::pair<int, int>>> set_pool;
  Rng rng(3);
  for (int step = 0; step < 2000; ++step) {
    const auto key = static_cast<std::int64_t>(rng.uniform_int(0, 63));
    if (plain.contains(key)) {
      EXPECT_TRUE(pool.erase(pooled, key));
      plain.erase(key);
      EXPECT_TRUE(set_pool.erase(pooled_set, {static_cast<int>(key), 1}));
      plain_set.erase({static_cast<int>(key), 1});
    } else {
      pool.insert_new(pooled, key)->second = step;
      plain.emplace(key, step);
      EXPECT_TRUE(
          set_pool.insert(pooled_set, {static_cast<int>(key), 1}).second);
      plain_set.insert({static_cast<int>(key), 1});
    }
    ASSERT_TRUE(std::equal(pooled.begin(), pooled.end(), plain.begin(),
                           plain.end()));
    ASSERT_EQ(pooled_set, plain_set);
    EXPECT_LE(pool.size() + pooled.size(), 64u);
  }
  EXPECT_FALSE(pool.erase(pooled, 1000));
  const auto again = set_pool.insert(pooled_set, *pooled_set.begin());
  EXPECT_FALSE(again.second);  // present: the node goes back to the pool
}

}  // namespace
}  // namespace saath
