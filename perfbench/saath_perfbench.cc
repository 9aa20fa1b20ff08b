// saath_perfbench — the repo benchmark: four workloads, their end-to-end
// metrics, and a traced per-layer split measured from outside each layer.
//
//   saath_perfbench --workload fb-trace|churn|service-ingest
//                   --seed N --seconds S --trace 0|1 --run-dir DIR
//
// Layers are timed only by decorators around the public interfaces the
// Engine is handed (WorkloadSource, Scheduler, ResultSink) and around the
// public ServiceClient / ServiceDaemon calls; Engine::stats(), the
// ServiceReport and the STATS block are read for counts only. Every run's
// output is checked before its timings count. The last stdout line is the
// result object; NOTES.md next to this file says why each workload and
// metric exists.
#include <fcntl.h>
#include <malloc.h>
#include <sys/personality.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "replay/journal.h"
#include "sched/factory.h"
#include "service/client.h"
#include "service/daemon.h"
#include "service/source.h"
#include "sim/engine.h"
#include "trace/synth.h"
#include "workload/combinators.h"
#include "workload/sources.h"

namespace saath::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using workload::WorkloadEvent;
using workload::WorkloadSource;

// ------------------------------------------------------------ workload sizes
// Sized on a 4-core container with the default RelWithDebInfo build so one
// pass takes a few seconds and a run repeats it enough for steady medians.

/// The seed does not pick a new trace or stream: one synthetic FB trace
/// differs from the next by 2x in median CCT and 30% in replay speed, so a
/// seed-per-trace benchmark could not resolve a 10% change. It jitters each
/// arrival of the fixed input by up to 1 ms instead. With 8 ms the median
/// speedup on fb-trace flips between 1.0 and 1.11 from seed to seed; with
/// 0.1 ms most seeds give the same CCT p90 to the microsecond.
constexpr SimTime kArrivalJitter = msec(1);
/// fb-trace: the registry's fb-replay trace (seed 101, 150 ports, 526
/// CoFlows), replayed under Saath and Aalo each pass.
constexpr std::uint64_t kFbTraceSeed = 101;
/// churn: CoFlows per streamed pass of the steady-churn shape (seed 11).
/// The mean gap keeps the live set bounded (the registry's 40 ms default
/// is overloaded). At 8 000 CoFlows the seed's jitter moved peak RSS by
/// 13% from seed to seed; at 24 000 by about 1%.
constexpr std::uint64_t kChurnSeed = 11;
constexpr std::int64_t kChurnCoflows = 24'000;
constexpr SimTime kChurnGap = msec(100);
constexpr int kChurnPorts = 60;
/// Backlog guard: mean live CoFlows over the second half of a churn pass
/// may exceed the first half's by at most this factor (plus kBacklogSlack
/// CoFlows, so a near-empty fabric cannot trip it on noise).
constexpr double kBacklogFactor = 1.5;
constexpr double kBacklogSlack = 2.0;
/// service-ingest: single-flow CoFlows on a 32-port fabric.
constexpr int kSvcPorts = 32;
constexpr int kIngestEvents = 60'000;
/// The durable leg of service-ingest's traced run: a script of this many
/// events sent open loop at kDurableRate, below the journaled daemon's
/// saturation.
constexpr int kDurableEvents = 25'000;
constexpr double kDurableRate = 25'000.0;
/// The durable leg's 25 000 events take about 1 700 epochs, so the daemon
/// checkpoints once; the checkpoint stalls admission for milliseconds,
/// which is what its p99 shows.
constexpr std::int64_t kCheckpointEvery = 1024;
/// An open-loop leg whose generator was late by more than this at p99 did
/// not offer the load it claims: it is flagged and retried, up to
/// kLegAttempts times, and then fails.
constexpr double kLateLimitUs = 2'000.0;
constexpr int kLegAttempts = 3;
/// A simulation workload's set-up takes microseconds (churn) to a few
/// milliseconds (fb-trace) and the first one after a pass runs on cold
/// caches, so each pass adds one sample: the median of this many set-ups.
constexpr int kSetupBatch = 10;
/// About the CPU time of one HostSpeed reference loop on a 4-vCPU KVM guest
/// (Intel Xeon, RelWithDebInfo). It only sets the scale of the rescaled
/// figures; changing it, or the loop, re-bases every timed metric.
constexpr double kReferenceNominalS = 0.024;

std::int64_t ns_since(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
      .count();
}
double s_since(Clock::time_point t0) {
  return static_cast<double>(ns_since(t0)) * 1e-9;
}
double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// CPU time, in nanoseconds, of the calling thread (CLOCK_THREAD_CPUTIME_ID)
/// or of the whole process (CLOCK_PROCESS_CPUTIME_ID). End-to-end figures
/// are timed in CPU time: on a shared host a thread that waits for a core
/// accrues none, where wall time counts the wait as the program's cost.
std::int64_t cpu_ns(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}
std::int64_t thread_ns() { return cpu_ns(CLOCK_THREAD_CPUTIME_ID); }
std::int64_t process_ns() { return cpu_ns(CLOCK_PROCESS_CPUTIME_ID); }
double cpu_s_since(std::int64_t t0, clockid_t clock) {
  return static_cast<double>(cpu_ns(clock) - t0) * 1e-9;
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}
double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Quantile of CCTs, which the simulator reports in whole microseconds:
/// each value is treated as the bin [v - 0.5, v + 0.5) us and the quantile
/// interpolated inside its bin (the grouped-data estimator), so a seed that
/// moves the distribution moves the figure even when the bin is the same.
double cct_quantile_s(const std::vector<double>& ccts_s, double q) {
  std::vector<std::int64_t> us;
  us.reserve(ccts_s.size());
  for (double c : ccts_s) us.push_back(std::llround(c * 1e6));
  if (us.empty()) return 0;
  std::sort(us.begin(), us.end());
  const double rank = q * static_cast<double>(us.size());
  const auto lo = std::lower_bound(us.begin(), us.end(),
                                   us[std::min(static_cast<std::size_t>(rank),
                                               us.size() - 1)]);
  const auto hi = std::upper_bound(lo, us.end(), *lo);
  const double below = static_cast<double>(lo - us.begin());
  const double in_bin = static_cast<double>(hi - lo);
  return (static_cast<double>(*lo) - 0.5 + (rank - below) / in_bin) * 1e-6;
}

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}
std::uint64_t derive(std::uint64_t seed, std::uint64_t k) {
  return splitmix(splitmix(seed) ^ k) % 1'000'000'007ull + 1;
}

struct Fnv {
  std::uint64_t h = 14695981039346656037ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ull;
    }
  }
};

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

SimConfig paper_config() {
  SimConfig cfg;
  cfg.port_bandwidth = gbps(1);
  cfg.delta = msec(8);
  return cfg;
}

/// Every flow of a finished CoFlow took at least size / port bandwidth
/// (1 us of slack for the integer clock).
bool physical(const CoflowRecord& rec, Rate bandwidth) {
  for (std::size_t i = 0; i < rec.flow_sizes.size(); ++i) {
    if (rec.flow_fcts_seconds[i] + 1e-6 < rec.flow_sizes[i] / bandwidth) {
      return false;
    }
  }
  return rec.finish >= rec.arrival;
}

// ------------------------------------------------------------- host speed

/// The speed of a shared host's vCPU drifts by 10-30% over minutes (other
/// tenants on sibling hyperthreads, frequency), and every timed figure of a
/// run moves with it: across ten churn runs the Saath throughput times the
/// admission wait stayed within 1% while each alone spread by 14%. CPU time
/// does not remove that drift. So a run also times this fixed loop of
/// benchmark-owned code between passes, and divides each pass's timed
/// figures by the host's slowdown around that pass: the mean of the loop
/// times just before and just after it, over kReferenceNominalS.
/// The loop has the shape of the engine's work (a binary heap of timed
/// events, a read-modify-write at a scattered index of a 512 KiB table, a
/// square root, then a chain of dependent integer and floating-point
/// steps), but none of the program's code runs in it, so a change to the
/// program cannot move it.
class HostSpeed {
 public:
  /// Times one loop; returns its index.
  std::size_t sample() {
    const std::int64_t t0 = thread_ns();
    heap_.clear();
    std::uint32_t x = 12345;
    for (int i = 0; i < 4096; ++i) {
      x = x * 1664525u + 1013904223u;
      heap_.emplace_back(static_cast<double>(x % 100'000), x);
    }
    std::make_heap(heap_.begin(), heap_.end(), std::greater<>());
    double acc = 0;
    for (int step = 0; step < 100'000; ++step) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
      auto& [t, k] = heap_.back();
      k = k * 1664525u + 1013904223u;
      double& cell = table_[k & (table_.size() - 1)];
      cell = cell * 0.5 + std::sqrt(t + 1.0);
      acc += cell;
      t += static_cast<double>(k % 1000) + 1.0;
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
    }
    double a = 1;
    for (int step = 0; step < 3'000'000; ++step) {
      x = x * 1664525u + 1013904223u;
      a = a * 1.0000001 + static_cast<double>(x >> 20) * 1e-9;
      if ((x & 1024u) != 0) a -= 1e-7;
    }
    sink_ += acc + a;
    samples_.push_back(static_cast<double>(thread_ns() - t0) * 1e-9);
    return samples_.size() - 1;
  }
  /// The slowdown around a pass timed between loops i and i + 1: above 1
  /// on a slower host.
  [[nodiscard]] double slowdown_around(std::size_t i) const {
    return (samples_.at(i) + samples_.at(i + 1)) / 2 / kReferenceNominalS;
  }
  /// Median loop time over the nominal.
  [[nodiscard]] double slowdown() const {
    return median(samples_) / kReferenceNominalS;
  }
  [[nodiscard]] std::size_t samples() const { return samples_.size(); }
  /// Folds the loops' results into output so the compiler keeps them.
  [[nodiscard]] bool sane() const { return std::isfinite(sink_); }

 private:
  std::vector<std::pair<double, std::uint32_t>> heap_;
  std::vector<double> table_ = std::vector<double>(std::size_t{1} << 16);
  std::vector<double> samples_;
  double sink_ = 0;
};

// ---------------------------------------------------------- timing decorators

/// Spans and counts one engine run's decorators gathered.
struct Spans {
  std::int64_t next_ns = 0;
  std::int64_t peek_ns = 0;
  std::int64_t events = 0;
  std::int64_t schedule_ns = 0;
  std::int64_t schedule_calls = 0;
  std::int64_t valid_until_ns = 0;
  std::int64_t hook_ns = 0;
  std::int64_t hook_calls = 0;
  std::int64_t sink_ns = 0;
  std::int64_t sink_calls = 0;
  std::vector<double> schedule_us;  // one entry per schedule() call
};

/// Shared by one run's decorators. Untraced runs keep only the admission
/// stamps (one thread CPU clock read per arrival and per schedule() that
/// follows one): admission wait is an end-to-end metric, measured in every
/// run, in the engine thread's CPU time like the throughputs.
struct Probe {
  bool traced = false;
  Spans spans;
  std::vector<std::int64_t> pending;  // arrivals not yet scheduled (CPU ns)
  std::vector<double> admit_wait_us;
};

class TimedSource final : public WorkloadSource {
 public:
  TimedSource(std::shared_ptr<WorkloadSource> inner, Probe& probe)
      : inner_(std::move(inner)), probe_(probe) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] int num_ports() const override { return inner_->num_ports(); }
  [[nodiscard]] SimTime peek_next_time() override {
    if (!probe_.traced) return inner_->peek_next_time();
    const auto t0 = Clock::now();
    const SimTime t = inner_->peek_next_time();
    probe_.spans.peek_ns += ns_since(t0);
    return t;
  }
  [[nodiscard]] WorkloadEvent next() override {
    const auto t0 = probe_.traced ? Clock::now() : Clock::time_point{};
    WorkloadEvent ev = inner_->next();
    if (probe_.traced) {
      probe_.spans.next_ns += ns_since(t0);
      ++probe_.spans.events;
    }
    if (ev.kind == WorkloadEvent::Kind::kArrival) {
      probe_.pending.push_back(thread_ns());
    }
    return ev;
  }
  void on_coflow_complete(const CoflowRecord& rec, SimTime now) override {
    inner_->on_coflow_complete(rec, now);
  }

 private:
  std::shared_ptr<WorkloadSource> inner_;
  Probe& probe_;
};

class TimedScheduler final : public Scheduler {
 public:
  TimedScheduler(Scheduler& inner, Probe& probe)
      : inner_(inner), probe_(probe) {}

  using Scheduler::schedule;
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  void schedule(SimTime now, std::span<CoflowState* const> active,
                Fabric& fabric, RateAssignment& rates) override {
    timed([&] { inner_.schedule(now, active, fabric, rates); });
  }
  void schedule(SimTime now, std::span<CoflowState* const> active,
                Fabric& fabric, RateAssignment& rates,
                const SchedulerDelta& delta) override {
    timed([&] { inner_.schedule(now, active, fabric, rates, delta); });
  }
  [[nodiscard]] SimTime schedule_valid_until(
      SimTime now, std::span<CoflowState* const> active) const override {
    if (!probe_.traced) return inner_.schedule_valid_until(now, active);
    const auto t0 = Clock::now();
    const SimTime t = inner_.schedule_valid_until(now, active);
    probe_.spans.valid_until_ns += ns_since(t0);
    return t;
  }
  void set_parallelism(parallel::ThreadPool* pool, int shards) override {
    inner_.set_parallelism(pool, shards);
  }
  void on_coflow_arrival(CoflowState& coflow, SimTime now) override {
    hook([&] { inner_.on_coflow_arrival(coflow, now); });
  }
  void on_flow_complete(CoflowState& coflow, FlowState& flow,
                        SimTime now) override {
    hook([&] { inner_.on_flow_complete(coflow, flow, now); });
  }
  void on_coflow_complete(CoflowState& coflow, SimTime now) override {
    hook([&] { inner_.on_coflow_complete(coflow, now); });
  }
  void on_coflow_quarantined(CoflowState& coflow, SimTime now) override {
    hook([&] { inner_.on_coflow_quarantined(coflow, now); });
  }

 private:
  template <class F>
  void timed(F&& call) {
    const auto t0 = probe_.traced ? Clock::now() : Clock::time_point{};
    call();
    if (probe_.traced) {
      const auto t1 = Clock::now();
      probe_.spans.schedule_ns += (t1 - t0).count();
      ++probe_.spans.schedule_calls;
      probe_.spans.schedule_us.push_back(us_between(t0, t1));
    }
    if (probe_.pending.empty()) return;
    const std::int64_t done = thread_ns();
    for (const std::int64_t stamp : probe_.pending) {
      probe_.admit_wait_us.push_back(static_cast<double>(done - stamp) * 1e-3);
    }
    probe_.pending.clear();
  }
  template <class F>
  void hook(F&& call) {
    if (!probe_.traced) {
      call();
      return;
    }
    const auto t0 = Clock::now();
    call();
    probe_.spans.hook_ns += ns_since(t0);
    ++probe_.spans.hook_calls;
  }

  Scheduler& inner_;
  Probe& probe_;
};

class TimedSink final : public ResultSink {
 public:
  TimedSink(ResultSink* inner, Probe& probe) : inner_(inner), probe_(probe) {}
  void on_coflow_complete(const CoflowRecord& rec, SimTime now) override {
    const auto t0 = Clock::now();
    if (inner_ != nullptr) inner_->on_coflow_complete(rec, now);
    probe_.spans.sink_ns += ns_since(t0);
    ++probe_.spans.sink_calls;
  }
  void on_run_end(SimTime makespan) override {
    if (inner_ != nullptr) inner_->on_run_end(makespan);
  }

 private:
  ResultSink* inner_;
  Probe& probe_;
};

/// churn's ResultSink: digests the completion stream, keeps each CoFlow's
/// CCT, checks each record, and samples the live count per completion for
/// the backlog guard.
class CheckSink final : public ResultSink {
 public:
  explicit CheckSink(Rate bandwidth) : bandwidth_(bandwidth) {}
  void attach(const LiveTelemetry* telemetry) { telemetry_ = telemetry; }

  void on_coflow_complete(const CoflowRecord& rec, SimTime now) override {
    digest_.add(static_cast<std::uint64_t>(rec.id.value));
    digest_.add(static_cast<std::uint64_t>(rec.arrival));
    digest_.add(static_cast<std::uint64_t>(rec.finish));
    digest_.add(static_cast<std::uint64_t>(rec.total_bytes));
    if (!physical(rec, bandwidth_) || rec.finish != now || rec.id.value < 0) {
      ++bad_;
    }
    const auto id =
        static_cast<std::size_t>(std::max<std::int64_t>(rec.id.value, 0));
    if (ccts_.size() <= id) ccts_.resize(id + 1, -1.0);
    if (ccts_[id] >= 0) ++bad_;  // completed twice
    ccts_[id] = rec.cct_seconds();
    if (telemetry_ != nullptr) {
      live_.push_back(static_cast<double>(
          telemetry_->live_coflows.load(std::memory_order_relaxed)));
    }
  }

  [[nodiscard]] std::uint64_t digest() const { return digest_.h; }
  [[nodiscard]] std::int64_t bad() const { return bad_; }
  [[nodiscard]] const std::vector<double>& ccts() const { return ccts_; }
  /// Mean live count over the first and second half of the completions.
  [[nodiscard]] std::pair<double, double> live_halves() const {
    const std::size_t half = live_.size() / 2;
    double a = 0;
    double b = 0;
    for (std::size_t i = 0; i < live_.size(); ++i) {
      (i < half ? a : b) += live_[i];
    }
    return {half ? a / static_cast<double>(half) : 0,
            live_.size() > half
                ? b / static_cast<double>(live_.size() - half)
                : 0};
  }

 private:
  Rate bandwidth_;
  const LiveTelemetry* telemetry_ = nullptr;
  Fnv digest_;
  std::int64_t bad_ = 0;
  std::vector<double> ccts_;
  std::vector<double> live_;
};

// --------------------------------------------------------------- engine runs

struct EngineRun {
  bool ok = true;
  std::string why;
  double setup_s = 0;  // scheduler, source and engine construction (CPU)
  double cpu_s = 0;    // Engine::run(), the engine thread's CPU time
  double wall_s = 0;   // Engine::run(), wall (traced runs' spans are wall)
  std::int64_t arrivals = 0;
  std::int64_t completed = 0;
  std::uint64_t digest = 0;
  std::vector<double> cct_by_id;  // seconds, indexed by CoflowId
  std::vector<double> admit_wait_us;
  std::int64_t epochs = 0;
  std::int64_t flow_completions = 0;
  std::int64_t reclaimed = 0;
  std::int64_t peak_live = 0;
  std::int64_t live_sum = 0;
  double live_first = 0;  // churn backlog guard
  double live_second = 0;
  Spans spans;
};

/// One Engine::run() of `source` under `scheduler`, with the decorators in
/// place. record_results=false runs stream into a CheckSink. With
/// `setup_only` the engine is built and dropped: a set-up time sample.
EngineRun run_engine(std::shared_ptr<WorkloadSource> source,
                     const std::string& scheduler, SimConfig cfg,
                     bool traced, bool setup_only = false) {
  const std::int64_t t_setup = thread_ns();
  apply_scheduler_sim_overrides(scheduler, cfg);
  auto inner = make_scheduler(scheduler);
  Probe probe;
  probe.traced = traced;
  TimedScheduler sched(*inner, probe);
  Engine engine(std::make_shared<TimedSource>(std::move(source), probe), sched,
                cfg);
  CheckSink check(cfg.port_bandwidth);
  ResultSink* user_sink = cfg.record_results ? nullptr : &check;
  TimedSink timed_sink(user_sink, probe);
  if (traced) {
    engine.set_result_sink(&timed_sink);
  } else if (user_sink != nullptr) {
    engine.set_result_sink(user_sink);
  }
  check.attach(&engine.telemetry());

  EngineRun out;
  out.setup_s = cpu_s_since(t_setup, CLOCK_THREAD_CPUTIME_ID);
  if (setup_only) return out;
  const auto t0 = Clock::now();
  const std::int64_t c0 = thread_ns();
  SimResult result;
  try {
    result = engine.run();
  } catch (const std::exception& e) {
    out.ok = false;
    out.why = scheduler + ": " + e.what();
    return out;
  }
  out.cpu_s = cpu_s_since(c0, CLOCK_THREAD_CPUTIME_ID);
  out.wall_s = s_since(t0);

  const EngineStats& st = engine.stats();
  out.arrivals = st.arrivals_admitted;
  out.epochs = st.epochs;
  out.flow_completions = st.flow_completions;
  out.reclaimed = st.reclaimed_coflows;
  out.peak_live = st.peak_live_coflows;
  out.live_sum = st.live_coflow_epoch_sum;
  out.admit_wait_us = std::move(probe.admit_wait_us);
  out.spans = std::move(probe.spans);
  if (cfg.record_results) {
    out.completed = static_cast<std::int64_t>(result.coflows.size());
    out.digest = replay::result_digest(result);
    for (const CoflowRecord& rec : result.coflows) {
      if (!physical(rec, cfg.port_bandwidth)) {
        out.ok = false;
        out.why = scheduler + ": CoFlow " + std::to_string(rec.id.value) +
                  " finished faster than its port bandwidth allows";
      }
      const auto id = static_cast<std::size_t>(rec.id.value);
      if (out.cct_by_id.size() <= id) out.cct_by_id.resize(id + 1, -1.0);
      out.cct_by_id[id] = rec.cct_seconds();
    }
  } else {
    out.completed = static_cast<std::int64_t>(
        std::count_if(check.ccts().begin(), check.ccts().end(),
                      [](double c) { return c >= 0; }));
    out.digest = check.digest();
    out.cct_by_id = check.ccts();
    std::tie(out.live_first, out.live_second) = check.live_halves();
    if (check.bad() > 0) {
      out.ok = false;
      out.why = scheduler + ": " + std::to_string(check.bad()) +
                " streamed records failed their check";
    }
  }
  if (out.ok && (out.completed != out.arrivals || out.arrivals == 0 ||
                 !st.abandoned_coflow_ids.empty() || st.rejected_events != 0)) {
    out.ok = false;
    out.why = scheduler + ": " + std::to_string(out.completed) + " of " +
              std::to_string(out.arrivals) + " CoFlows finished, " +
              std::to_string(st.rejected_events) + " events rejected";
  }
  return out;
}

// --------------------------------------------------------------- service runs

struct Script {
  std::string name;
  int ports = 0;
  std::vector<WorkloadEvent> events;
};

/// Single-flow CoFlows 1 us apart in simulated time, sizes drawn from the
/// seed. Endpoints rotate over a fixed port permutation, as in
/// bench/service_ingest: with random endpoints the backlog of tiny CoFlows
/// makes the offline Saath run superlinear (NOTES.md).
Script service_script(const std::string& name, int events,
                      std::uint64_t seed) {
  Script s{name, kSvcPorts, {}};
  s.events.reserve(static_cast<std::size_t>(events));
  std::uint64_t state = seed;
  for (int i = 0; i < events; ++i) {
    state = splitmix(state);
    CoflowSpec spec;
    spec.id = CoflowId{i};
    spec.arrival = usec(i);
    const auto size = static_cast<Bytes>(1000 + (state % 13) * 64);
    spec.flows = {{i % kSvcPorts, (i + 7) % kSvcPorts, size}};
    s.events.push_back(WorkloadEvent::arrival(std::move(spec)));
  }
  return s;
}

/// Arrival events of a trace, in the (arrival, id) order a TraceSource
/// emits them.
Script trace_script(trace::Trace trace) {
  Script s{trace.name, trace.num_ports, {}};
  workload::TraceSource src(std::move(trace));
  while (src.peek_next_time() != kNever) s.events.push_back(src.next());
  return s;
}

/// Counts arrival lines as the daemon's journal grows: the instant a line
/// becomes visible is the instant the engine pulled that event. Whenever
/// the journal has grown it also looks at the checkpoint file and counts
/// each new version (the daemon writes a fresh file and renames it over the
/// old one), so the checkpoints reported are the ones actually written.
class JournalWatch {
 public:
  JournalWatch(std::string path, std::string checkpoint_path,
               std::vector<Clock::time_point>& released)
      : path_(std::move(path)),
        checkpoint_path_(std::move(checkpoint_path)),
        released_(released) {}
  JournalWatch(const JournalWatch&) = delete;
  JournalWatch& operator=(const JournalWatch&) = delete;
  ~JournalWatch() {
    if (fd_ >= 0) ::close(fd_);
  }

  void poll() {
    if (fd_ < 0) {
      fd_ = ::open(path_.c_str(), O_RDONLY);
      if (fd_ < 0) return;
    }
    char buf[1 << 16];
    for (;;) {
      const ssize_t n = ::read(fd_, buf, sizeof buf);
      if (n <= 0) return;
      check_checkpoint();
      const auto now = Clock::now();
      for (ssize_t i = 0; i < n; ++i) {
        if (line_start_) {
          first_ = buf[i];
          line_start_ = false;
        }
        if (first_ == 'A') ++arrival_bytes_;
        if (buf[i] == '\n') {
          if (first_ == 'A' && seen_ < released_.size()) {
            released_[seen_++] = now;
          }
          line_start_ = true;
        }
      }
    }
  }
  /// Notes a new version of the checkpoint file, if there is one.
  void check_checkpoint() {
    struct stat st {};
    if (::stat(checkpoint_path_.c_str(), &st) != 0) return;
    const auto version = std::make_tuple(st.st_ino, st.st_mtim.tv_sec,
                                         st.st_mtim.tv_nsec, st.st_size);
    if (checkpoints_ == 0 || version != last_checkpoint_) {
      ++checkpoints_;
      last_checkpoint_ = version;
    }
  }
  [[nodiscard]] std::size_t seen() const { return seen_; }
  [[nodiscard]] std::int64_t arrival_bytes() const { return arrival_bytes_; }
  [[nodiscard]] std::int64_t checkpoints() const { return checkpoints_; }

 private:
  std::string path_;
  std::string checkpoint_path_;
  std::vector<Clock::time_point>& released_;
  int fd_ = -1;
  bool line_start_ = true;
  char first_ = 0;
  std::size_t seen_ = 0;
  std::int64_t arrival_bytes_ = 0;
  std::int64_t checkpoints_ = 0;
  std::tuple<ino_t, std::int64_t, std::int64_t, off_t> last_checkpoint_{};
};

std::map<std::string, std::string> parse_stats(const std::string& text) {
  std::map<std::string, std::string> out;
  std::istringstream in(text);
  std::string word;
  std::string key;
  std::string val;
  while (in >> word >> key >> val) out[key] = val;
  return out;
}

/// The events a ServiceClient drives. Closed loop (rate 0): handed over as
/// fast as the client asks. Open loop: each event is held until its due
/// wall instant; while waiting, the journal is polled for release instants.
class ClientSource final : public WorkloadSource {
 public:
  ClientSource(const Script& script, double rate, JournalWatch& watch)
      : name_(script.name),
        ports_(script.ports),
        events_(script.events),
        rate_(rate),
        watch_(watch) {
    if (rate_ > 0) {
      due_.reserve(events_.size());
      late_us_.reserve(events_.size());
    }
  }

  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] int num_ports() const override { return ports_; }
  [[nodiscard]] SimTime peek_next_time() override {
    return idx_ < events_.size() ? events_[idx_].time : kNever;
  }
  [[nodiscard]] WorkloadEvent next() override {
    const auto entry = Clock::now();
    if (idx_ == 0) first_call_ = entry;
    last_call_ = entry;
    if (rate_ > 0) {
      const auto due =
          first_call_ + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(
                                static_cast<double>(idx_) / rate_));
      due_.push_back(due);
      late_us_.push_back(std::max(0.0, us_between(due, entry)));
      do {
        watch_.poll();
      } while (Clock::now() < due);
    }
    return std::move(events_[idx_++]);
  }

  /// Open loop: the due instant of event i.
  [[nodiscard]] Clock::time_point due(std::size_t i) const { return due_[i]; }
  /// Mean gap between successive next() calls.
  [[nodiscard]] double ns_per_event() const {
    return idx_ > 1 ? static_cast<double>((last_call_ - first_call_).count()) /
                          static_cast<double>(idx_ - 1)
                    : 0;
  }
  [[nodiscard]] const std::vector<double>& late_us() const { return late_us_; }

 private:
  std::string name_;
  int ports_;
  std::vector<WorkloadEvent> events_;
  double rate_;
  JournalWatch& watch_;
  std::size_t idx_ = 0;
  Clock::time_point first_call_;
  Clock::time_point last_call_;
  std::vector<Clock::time_point> due_;
  std::vector<double> late_us_;
};

struct DaemonRun {
  bool ok = false;
  std::string why;
  bool generator_late = false;  // open loop: p99 lateness over kLateLimitUs
  double setup_s = 0;   // daemon start + connect + event copy (process CPU)
  double drive_s = 0;   // first event handed over -> END received (wall)
  double drive_cpu_s = 0;  // the same interval, the process's CPU time
  double finish_s = 0;  // FIN -> END
  std::int64_t sent = 0;
  std::int64_t completions = 0;
  std::int64_t released = 0;
  std::int64_t rejected = 0;
  std::int64_t checkpoints = 0;  // open loop: checkpoint files seen
  // STATS admission wait (push -> release), read after the daemon's run
  // has ended.
  double stat_wait_max_us = 0;
  std::string digest_hex;
  double client_ns_per_event = 0;
  std::vector<double> wait_us;  // open loop: due -> release, per event
  std::vector<double> late_us;  // open loop: generator lateness
  double journal_bytes_per_event = 0;
};

/// One script through an in-process daemon over a Unix socket in
/// `run_dir`. rate 0 drives it closed loop into a daemon without a journal.
/// rate > 0 paces it open loop into a daemon with its journal and periodic
/// checkpoints on; release instants come from the journal (microsecond
/// resolution), and the run fails unless the checkpoints were written.
DaemonRun run_daemon(const Script& script, const std::string& scheduler,
                     double rate, const std::string& run_dir) {
  const bool durable = rate > 0;
  // Start from a trimmed heap, as a fresh daemon process would: the daemon
  // threads of earlier instances leave free memory in allocator arenas, and
  // which arena the next instance lands on made peak RSS vary by 60%.
  ::malloc_trim(0);
  static int serial = 0;
  const std::string stem = run_dir + "/d" + std::to_string(::getpid()) + "-" +
                           std::to_string(serial++);
  DaemonRun out;
  const std::int64_t c_setup = process_ns();
  service::DaemonConfig cfg;
  cfg.address = "unix:" + stem + ".sock";
  cfg.num_ports = script.ports;
  cfg.scheduler = scheduler;
  cfg.sim = paper_config();
  cfg.expect_clients = 1;
  cfg.workload_name = script.name;
  if (durable) {
    cfg.journal_path = stem + ".journal";
    cfg.checkpoint_path = stem + ".ckpt";
    cfg.checkpoint_every_epochs = kCheckpointEvery;
  }
  const std::size_t n = script.events.size();
  std::vector<Clock::time_point> released(n);
  JournalWatch watch(cfg.journal_path, cfg.checkpoint_path, released);
  ClientSource source(script, rate, watch);
  service::ServiceDaemon daemon(cfg);
  daemon.start();
  service::ClientOptions copts{daemon.address()};
  copts.client_name = "perfbench";
  // Open loop: flush each frame as it is due (a 1 us pause per frame)
  // instead of batching 64 KiB.
  copts.throttle_us = durable ? 1 : 0;
  service::ServiceClient client(copts);
  const bool connected = client.connect(script.name, script.ports);
  out.setup_s = cpu_s_since(c_setup, CLOCK_PROCESS_CPUTIME_ID);

  const auto t0 = Clock::now();
  const std::int64_t c0 = process_ns();
  bool driven = connected && client.drive(source);
  const auto t_drive = Clock::now();
  // Every event sent is pulled without waiting for FIN. The wait is
  // bounded: DONE lines are not read meanwhile and can fill the socket.
  while (driven && durable && watch.seen() < n && s_since(t_drive) < 1.0) {
    watch.poll();
  }
  const auto t_fin = Clock::now();
  driven = driven && client.finish();
  out.drive_cpu_s = cpu_s_since(c0, CLOCK_PROCESS_CPUTIME_ID);
  out.drive_s = s_since(t0);
  out.finish_s = s_since(t_fin);
  if (!driven) daemon.shutdown();  // else wait() would wait for the client
  const service::ServiceReport rep = daemon.wait();
  if (durable) {
    watch.poll();  // stragglers: dated when first seen
    watch.check_checkpoint();
  }
  const std::size_t seen = watch.seen();
  const auto stats = parse_stats(daemon.stats_text());
  const auto stat_num = [&stats](const char* key) {
    const auto it = stats.find(key);
    return it == stats.end() ? 0.0 : std::stod(it->second);
  };
  out.sent = client.report().sent;
  out.completions = rep.completions;
  out.released = static_cast<std::int64_t>(stat_num("ingest_released"));
  out.rejected = static_cast<std::int64_t>(stat_num("ingest_rejected"));
  out.stat_wait_max_us = stat_num("admission_wait_max_us");
  out.digest_hex = client.report().digest_hex;
  out.client_ns_per_event = source.ns_per_event();
  out.late_us = source.late_us();
  // A snapshot is taken at the top of each kCheckpointEvery-th epoch, so at
  // least this many were due.
  const std::int64_t checkpoints_due =
      durable ? std::max<std::int64_t>(rep.engine_stats.epochs - 1, 0) /
                    kCheckpointEvery
              : 0;
  if (durable) {
    if (seen == n) {
      out.wait_us.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        out.wait_us.push_back(
            std::max(0.0, us_between(source.due(i), released[i])));
      }
    }
    out.checkpoints = watch.checkpoints();
    out.journal_bytes_per_event =
        static_cast<double>(watch.arrival_bytes()) /
        static_cast<double>(std::max<std::size_t>(seen, 1));
    std::error_code ec;
    std::filesystem::remove(cfg.journal_path, ec);
    std::filesystem::remove(cfg.checkpoint_path, ec);
    std::filesystem::remove(cfg.checkpoint_path + ".tmp", ec);
  }

  const auto events = static_cast<std::int64_t>(n);
  if (!connected || !driven) {
    out.why = "client: " + client.report().error;
  } else if (!rep.ok) {
    out.why = "daemon: " + rep.error;
  } else if (out.digest_hex != rep.digest_hex) {
    out.why = "END digest differs from the daemon's report";
  } else if (out.sent != events || out.completions != events ||
             out.rejected != 0 || client.report().rejects_seen != 0) {
    out.why = "sent " + std::to_string(out.sent) + ", completed " +
              std::to_string(out.completions) + ", rejected " +
              std::to_string(out.rejected) + " of " + std::to_string(events);
  } else if (durable && seen < n) {
    out.why = "release seen for " + std::to_string(seen) + " of " +
              std::to_string(events) + " events";
  } else if (out.checkpoints < checkpoints_due) {
    out.why = "saw " + std::to_string(out.checkpoints) + " checkpoint(s) of " +
              std::to_string(checkpoints_due) + " due";
  } else {
    out.ok = true;
  }
  out.generator_late =
      durable && quantile(out.late_us, 0.99) > kLateLimitUs;
  return out;
}

// ------------------------------------------------------------------ workloads

/// A workload's inputs for one pass.
struct Inputs {
  /// Builds the source one engine run consumes; each pass runs it once per
  /// scheduler.
  std::function<std::shared_ptr<WorkloadSource>()> source;
  SimConfig cfg = paper_config();
  /// Events driven through the daemon (service-ingest: the measured
  /// script; simulation workloads: the traced run's daemon leg).
  Script script;
  double synth_s = 0;  // time to build the inputs
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string run_dir = ".";
};

/// Builds a pass's inputs; `with_script` also materializes the events a
/// simulation workload's daemon leg drives.
Inputs make_inputs(const Options& o, bool with_script) {
  Inputs in;
  const auto t0 = Clock::now();
  if (o.workload == "fb-trace") {
    trace::SynthConfig sc;
    sc.seed = kFbTraceSeed;
    trace::Trace jittered = trace::synth_fb_trace(sc);
    std::uint64_t state = derive(o.seed, 0);
    for (CoflowSpec& c : jittered.coflows) {
      state = splitmix(state);
      c.arrival += static_cast<SimTime>(state % kArrivalJitter);
    }
    jittered.normalize();
    auto t = std::make_shared<const trace::Trace>(std::move(jittered));
    in.synth_s = s_since(t0);
    in.source = [t] {
      return std::make_shared<workload::TraceSource>(trace::Trace(*t));
    };
    if (with_script) in.script = trace_script(*t);
  } else if (o.workload == "churn") {
    workload::SynthStreamConfig sc;
    sc.name = "churn";
    sc.shape.num_ports = kChurnPorts;
    sc.seed = kChurnSeed;
    sc.num_coflows = kChurnCoflows;
    sc.mean_gap = kChurnGap;
    sc.p_burst = 0.4;
    sc.bands.small_lo = 0.05 * kMB;
    sc.bands.small_hi = 20.0 * kMB;
    sc.bands.large_lo = 20.0 * kMB;
    sc.bands.large_hi = 400.0 * kMB;
    const std::uint64_t jitter_seed = derive(o.seed, 0);
    in.source = [sc, jitter_seed] {
      return std::make_shared<workload::JitterSource>(
          std::make_shared<workload::SynthSource>(sc), kArrivalJitter,
          jitter_seed);
    };
    in.synth_s = s_since(t0);
    in.cfg.record_results = false;
    if (with_script) {
      auto src = in.source();
      in.script = trace_script(workload::materialize_arrivals(*src));
    }
  } else {
    in.script = service_script("svc-ingest", kIngestEvents, derive(o.seed, 0));
    in.synth_s = s_since(t0);
    auto script = std::make_shared<const Script>(in.script);
    in.source = [script] {
      return std::make_shared<service::VectorSource>(
          script->name, script->ports, script->events);
    };
  }
  return in;
}

// ------------------------------------------------------------ result printing

struct Result {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void fail(const std::string& why) {
    ++failed;
    std::printf("check failed: %s\n", why.c_str());
  }
  void print() const {
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                failed == 0 ? "true" : "false",
                static_cast<long long>(attempted),
                static_cast<long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const auto& [name, vu] = metrics[i];
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", name.c_str(),
                  std::isfinite(vu.first) ? vu.first : 0.0,
                  vu.second.c_str());
    }
    std::printf("}}\n");
  }
};

const char* const kSchedulers[] = {"saath", "aalo"};

std::string hex(std::uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

/// Runs the pass's engine under one scheduler and checks it: complete, the
/// same digest as this scheduler's first run in the process, and (churn) a
/// bounded backlog. A failed run is reported and counted.
std::optional<EngineRun> checked_run(const Inputs& in, int s, bool traced,
                                     std::map<int, std::uint64_t>& digests,
                                     Result& r) {
  ++r.attempted;
  EngineRun run = run_engine(in.source(), kSchedulers[s], in.cfg, traced);
  if (run.ok) {
    const auto [first, fresh] = digests.emplace(s, run.digest);
    if (!fresh && first->second != run.digest) {
      run.ok = false;
      run.why = std::string(kSchedulers[s]) + (traced ? " traced" : "") +
                ": digest " + hex(run.digest) +
                " differs from the first run's " + hex(first->second);
    }
  }
  if (run.ok && !in.cfg.record_results &&
      run.live_second > kBacklogFactor * run.live_first + kBacklogSlack) {
    run.ok = false;
    run.why = std::string(kSchedulers[s]) + ": backlog grew, mean live " +
              std::to_string(run.live_first) + " -> " +
              std::to_string(run.live_second);
  }
  if (!run.ok) {
    r.fail(run.why);
    return std::nullopt;
  }
  return run;
}

/// Saath CCTs (seconds) and per-CoFlow Aalo/Saath CCT ratios of one pair of
/// runs over the same input.
void add_ccts(const EngineRun& saath, const EngineRun& aalo,
              std::vector<double>& ccts, std::vector<double>& speedups) {
  for (std::size_t i = 0; i < saath.cct_by_id.size(); ++i) {
    const double a = i < aalo.cct_by_id.size() ? aalo.cct_by_id[i] : -1;
    if (saath.cct_by_id[i] >= 0) ccts.push_back(saath.cct_by_id[i]);
    if (saath.cct_by_id[i] > 0 && a > 0) {
      speedups.push_back(a / saath.cct_by_id[i]);
    }
  }
}

// ------------------------------------------------------------ untraced run

/// One pass's timed work as timed, and the HostSpeed loop timed just
/// before it.
struct PassFigures {
  std::size_t loop_before = 0;
  double setup_s = 0;
  std::int64_t completed = 0;  // Saath CoFlows completed
  std::int64_t events = 0;     // input events admitted or sent
  double cpu_s = 0;            // the CPU time both took
  std::vector<double> wait_us;  // Saath admission waits
};

Result measure(const Options& o) {
  Result r;
  std::vector<PassFigures> passes;
  std::vector<double> ccts;
  std::vector<double> speedups;
  std::map<int, std::uint64_t> digests;
  double rss_mb = 0;
  HostSpeed host;
  const bool service = o.workload == "service-ingest";

  const auto start = Clock::now();
  for (int pass = 0; pass == 0 || s_since(start) < o.seconds; ++pass) {
    PassFigures fig;
    fig.loop_before = host.sample();
    const std::int64_t c_setup = thread_ns();
    const Inputs in = make_inputs(o, false);
    fig.setup_s = cpu_s_since(c_setup, CLOCK_THREAD_CPUTIME_ID);
    // The engine under Saath each pass, and under Aalo until one pass gave
    // the speedups (they are fixed by the seed). On service-ingest these are
    // offline replays of the script, which the daemon's digest must match.
    std::optional<EngineRun> runs[2];
    runs[0] = checked_run(in, 0, false, digests, r);
    if (!runs[0]) continue;
    if (speedups.empty()) {
      runs[1] = checked_run(in, 1, false, digests, r);
      if (!runs[1]) continue;
    }
    if (service) {
      ++r.attempted;
      DaemonRun run = run_daemon(in.script, "saath", 0, o.run_dir);
      if (run.ok && run.digest_hex != hex(digests[0])) {
        run.ok = false;
        run.why = "saath: daemon digest " + run.digest_hex +
                  " != offline replay " + hex(digests[0]);
      }
      if (!run.ok) {
        r.fail(run.why);
        continue;
      }
      // Through the daemon, in the process's CPU time (client, reader and
      // engine threads together).
      fig.setup_s += run.setup_s;
      fig.completed = run.completions;
      fig.events = run.sent;
      fig.cpu_s = run.drive_cpu_s;
    } else {
      fig.completed = runs[0]->completed;
      fig.events = runs[0]->arrivals;
      fig.cpu_s = runs[0]->cpu_s;
      std::vector<double> batch;
      for (int i = 0; i < kSetupBatch; ++i) {
        const std::int64_t c_sample = thread_ns();
        const Inputs again = make_inputs(o, false);
        double one = cpu_s_since(c_sample, CLOCK_THREAD_CPUTIME_ID);
        for (const char* sched : kSchedulers) {
          one +=
              run_engine(again.source(), sched, again.cfg, false, true).setup_s;
        }
        batch.push_back(one);
      }
      fig.setup_s = median(std::move(batch));
    }
    fig.wait_us = std::move(runs[0]->admit_wait_us);
    if (runs[1]) add_ccts(*runs[0], *runs[1], ccts, speedups);
    passes.push_back(std::move(fig));
    // Later passes only repeat the first.
    if (pass == 0) rss_mb = peak_rss_mb();
  }
  host.sample();  // the loop after the last pass

  // A figure worked out from no kept sample would read as 0: fail instead.
  if (passes.empty()) r.fail("no pass passed its checks");
  if (ccts.empty() || speedups.empty()) {
    r.fail("no Saath and Aalo pair passed its checks");
  }
  if (!host.sane()) r.fail("the reference loop gave a non-finite value");
  // Each pass's times are divided by the host's slowdown around it (see
  // HostSpeed). Throughputs are then the whole run's work over its CPU
  // time, and the admission-wait percentiles are over every event of the
  // run: other tenants slow some passes and not others, and pooling the
  // passes averages that out (one pass's p99 wait on service-ingest ranged
  // from 60 to 143 us within a run). Set-up time is the median pass, so
  // that work moved into set-up shows. The figures as timed are printed
  // first.
  struct Totals {
    std::vector<double> setup_s;
    double completed = 0;
    double events = 0;
    double cpu_s = 0;
    std::vector<double> wait_us;
  } totals[2];  // as timed, rescaled
  for (const PassFigures& p : passes) {
    const double slow = host.slowdown_around(p.loop_before);
    for (int k = 0; k < 2; ++k) {
      const double div = k == 0 ? 1 : slow;
      Totals& t = totals[k];
      t.setup_s.push_back(p.setup_s / div);
      t.completed += static_cast<double>(p.completed);
      t.events += static_cast<double>(p.events);
      t.cpu_s += p.cpu_s / div;
      for (const double w : p.wait_us) t.wait_us.push_back(w / div);
    }
  }
  const Totals& raw = totals[0];
  const Totals& scaled = totals[1];
  const auto per_s = [](double n, double s) { return s > 0 ? n / s : 0.0; };
  std::printf("host: reference loop median %.3f ms over %zu loops, "
              "slowdown %.4f\n",
              host.slowdown() * kReferenceNominalS * 1e3, host.samples(),
              host.slowdown());
  std::printf("as timed: setup_s %.9g saath_coflows_per_s %.9g "
              "ingest_events_per_s %.9g admission_wait_p50_us %.9g "
              "admission_wait_p99_us %.9g\n",
              median(raw.setup_s), per_s(raw.completed, raw.cpu_s),
              per_s(raw.events, raw.cpu_s), quantile(raw.wait_us, 0.5),
              quantile(raw.wait_us, 0.99));
  r.add("setup_s", median(scaled.setup_s), "s");
  r.add("peak_rss_mb", rss_mb, "MB");
  r.add("saath_coflows_per_s", per_s(scaled.completed, scaled.cpu_s), "1/s");
  r.add("cct_p50_s", cct_quantile_s(ccts, 0.5), "s");
  r.add("cct_p90_s", cct_quantile_s(ccts, 0.9), "s");
  r.add("speedup_p50", quantile(speedups, 0.5), "x");
  r.add("speedup_p90", quantile(speedups, 0.9), "x");
  r.add("ingest_events_per_s", per_s(scaled.events, scaled.cpu_s), "1/s");
  r.add("admission_wait_p50_us", quantile(scaled.wait_us, 0.5), "us");
  r.add("admission_wait_p99_us", quantile(scaled.wait_us, 0.99), "us");
  return r;
}

// --------------------------------------------------------------- traced run

/// One daemon leg of the traced run: `script` through a daemon under Saath
/// (rate 0: closed loop; rate > 0: open loop into a journaled daemon),
/// checked against an offline replay of the same events, which it also
/// returns. An open-loop leg whose generator fell behind is retried, then
/// fails.
std::pair<DaemonRun, EngineRun> daemon_leg(const Script& script, double rate,
                                           const Options& o, Result& r) {
  ++r.attempted;
  EngineRun offline = run_engine(std::make_shared<service::VectorSource>(
                           script.name, script.ports, script.events),
                       "saath", paper_config(), false);
  DaemonRun leg;
  for (int attempt = 0; attempt < kLegAttempts; ++attempt) {
    leg = run_daemon(script, "saath", rate, o.run_dir);
    if (!leg.ok || !leg.generator_late) break;
    std::printf("flagged: the %s leg's generator fell behind (p99 %.0f us "
                "late)\n",
                script.name.c_str(), quantile(leg.late_us, 0.99));
  }
  if (leg.ok && (!offline.ok || leg.digest_hex != hex(offline.digest))) {
    leg.ok = false;
    leg.why = script.name + ": daemon digest " + leg.digest_hex +
              " != offline replay " + hex(offline.digest);
  }
  if (leg.ok && leg.generator_late) {
    leg.ok = false;
    leg.why = script.name + ": the generator fell behind in " +
              std::to_string(kLegAttempts) + " attempts";
  }
  if (!leg.ok) r.fail(leg.why);
  if (!leg.late_us.empty()) {
    std::printf("%s generator lateness: p99 %.1f us, max %.1f us\n",
                script.name.c_str(), quantile(leg.late_us, 0.99),
                *std::max_element(leg.late_us.begin(), leg.late_us.end()));
  }
  return {std::move(leg), std::move(offline)};
}

Result measure_traced(const Options& o) {
  Result r;
  std::vector<double> wall[2];  // untraced, traced pass walls
  double aalo_done = 0;  // untraced Aalo passes: CoFlows, engine CPU time
  double aalo_cpu_s = 0;
  std::vector<double> synth_s;
  Spans sum;
  std::int64_t epochs = 0;
  std::int64_t flow_done = 0;
  std::int64_t arrivals = 0;
  std::int64_t reclaimed = 0;
  std::int64_t peak_live = 0;
  std::int64_t live_sum = 0;
  double run_wall_ns = 0;
  std::map<int, std::uint64_t> digests;
  HostSpeed host;
  const Inputs in = make_inputs(o, true);

  // Alternate untraced and traced passes over the same inputs. Every run's
  // digest must equal the first run's: the decorators change no result.
  const auto start = Clock::now();
  for (int pass = 0; pass < 2 || s_since(start) < o.seconds * 0.6; ++pass) {
    const bool traced = pass % 2 == 1;
    host.sample();
    synth_s.push_back(make_inputs(o, false).synth_s);
    double pass_wall = 0;
    bool pass_ok = true;
    for (int s = 0; s < 2; ++s) {
      const std::optional<EngineRun> run =
          checked_run(in, s, traced, digests, r);
      if (!run) {
        pass_ok = false;
        continue;
      }
      pass_wall += run->wall_s;
      if (!traced && s == 1) {
        aalo_done += static_cast<double>(run->completed);
        aalo_cpu_s += run->cpu_s;
      }
      if (!traced) continue;
      const Spans& sp = run->spans;
      sum.next_ns += sp.next_ns;
      sum.peek_ns += sp.peek_ns;
      sum.events += sp.events;
      sum.schedule_ns += sp.schedule_ns;
      sum.schedule_calls += sp.schedule_calls;
      sum.valid_until_ns += sp.valid_until_ns;
      sum.hook_ns += sp.hook_ns;
      sum.hook_calls += sp.hook_calls;
      sum.sink_ns += sp.sink_ns;
      sum.sink_calls += sp.sink_calls;
      sum.schedule_us.insert(sum.schedule_us.end(), sp.schedule_us.begin(),
                             sp.schedule_us.end());
      epochs += run->epochs;
      flow_done += run->flow_completions;
      arrivals += run->arrivals;
      reclaimed += run->reclaimed;
      peak_live = std::max(peak_live, run->peak_live);
      live_sum += run->live_sum;
      run_wall_ns += run->wall_s * 1e9;
    }
    if (pass_ok) wall[traced ? 1 : 0].push_back(pass_wall);
  }

  // The daemon leg: the workload's events through the service under Saath,
  // closed loop. service-ingest also sends a script open loop into a
  // journaled, checkpointing daemon: the replay layer and the admission wait
  // below saturation.
  const auto [leg, offline] = daemon_leg(in.script, 0, o, r);
  DaemonRun durable;
  if (o.workload == "service-ingest") {
    durable = daemon_leg(service_script("svc-durable", kDurableEvents,
                                        derive(o.seed, 1)),
                         kDurableRate, o, r)
                  .first;
  }

  const double passes =
      static_cast<double>(std::max<std::size_t>(wall[1].size(), 1));
  const double self_ns =
      std::max(0.0, run_wall_ns - static_cast<double>(
                                      sum.next_ns + sum.peek_ns +
                                      sum.schedule_ns + sum.valid_until_ns +
                                      sum.hook_ns + sum.sink_ns));
  const auto per_pass = [passes](auto v) {
    return static_cast<double>(v) / passes;
  };
  const auto ratio = [](auto a, auto b) {
    return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };

  r.add("workload.next_ns", per_pass(sum.next_ns), "ns");
  r.add("workload.peek_ns", per_pass(sum.peek_ns), "ns");
  r.add("workload.events", per_pass(sum.events), "count");
  r.add("sched.schedule_ns", per_pass(sum.schedule_ns), "ns");
  r.add("sched.schedule_calls", per_pass(sum.schedule_calls), "count");
  r.add("sched.schedule_us_p50", quantile(sum.schedule_us, 0.5), "us");
  r.add("sched.schedule_us_p99", quantile(sum.schedule_us, 0.99), "us");
  r.add("sched.valid_until_ns", per_pass(sum.valid_until_ns), "ns");
  r.add("sched.hook_ns", per_pass(sum.hook_ns), "ns");
  r.add("sched.hook_calls", per_pass(sum.hook_calls), "count");
  r.add("sched.rounds_per_epoch", ratio(sum.schedule_calls, epochs), "ratio");
  r.add("sim.self_ns", per_pass(self_ns), "ns");
  r.add("sim.epochs", per_pass(epochs), "count");
  r.add("sim.flow_completions", per_pass(flow_done), "count");
  r.add("sim.arrivals", per_pass(arrivals), "count");
  r.add("sim.reclaimed", per_pass(reclaimed), "count");
  r.add("sim.peak_live", static_cast<double>(peak_live), "count");
  r.add("sim.mean_live", ratio(live_sum, epochs), "count");
  r.add("sim.self_ns_per_completion", ratio(self_ns, flow_done), "ns");
  r.add("sim.self_ns_per_arrival", ratio(self_ns, arrivals), "ns");
  r.add("sim.aalo_coflows_per_s", ratio(aalo_done, aalo_cpu_s), "1/s");
  r.add("sink.complete_ns", per_pass(sum.sink_ns), "ns");
  r.add("sink.completions", per_pass(sum.sink_calls), "count");
  r.add("trace.synth_ns", median(synth_s) * 1e9, "ns");
  r.add("trace.overhead", ratio(median(wall[1]), median(wall[0])), "ratio");
  r.add("trace.host_slowdown", host.slowdown(), "ratio");
  r.add("service.client_ns_per_event", leg.client_ns_per_event, "ns");
  r.add("service.drain_ns", leg.finish_s * 1e9, "ns");
  r.add("service.daemon_overhead", ratio(leg.drive_s, offline.wall_s), "ratio");
  r.add("service.released", static_cast<double>(leg.released), "count");
  r.add("service.rejected", static_cast<double>(leg.rejected), "count");
  r.add("service.admission_wait_max_us", leg.stat_wait_max_us, "us");
  r.add("replay.journal_bytes_per_event", durable.journal_bytes_per_event,
        "B/event");
  r.add("replay.checkpoints", static_cast<double>(durable.checkpoints),
        "count");
  r.add("replay.admission_wait_p50_us", quantile(durable.wait_us, 0.5), "us");
  r.add("replay.admission_wait_p99_us", quantile(durable.wait_us, 0.99), "us");
  r.add("replay.generator_late_p99_us", quantile(durable.late_us, 0.99), "us");
  return r;
}

int run(int argc, char** argv) {
  // Address-space randomization moves the heap between processes, and with
  // it cache-set conflicts: with it on, the median pass time of one input
  // varied by up to 40% from process to process on a 4-vCPU VM, against
  // about 10% with it off. Re-exec once without it.
  const int persona = ::personality(0xffffffff);
  if (persona != -1 && (persona & ADDR_NO_RANDOMIZE) == 0 &&
      ::personality(static_cast<unsigned long>(persona | ADDR_NO_RANDOMIZE)) !=
          -1) {
    ::execv("/proc/self/exe", argv);
  }
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      o.workload = val;
    } else if (key == "--seed") {
      o.seed = std::stoull(val);
    } else if (key == "--seconds") {
      o.seconds = std::stod(val);
    } else if (key == "--trace") {
      o.trace = val == "1";
    } else if (key == "--run-dir") {
      o.run_dir = val;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return 2;
    }
  }
  if (o.workload != "fb-trace" && o.workload != "churn" &&
      o.workload != "service-ingest") {
    std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }
  // Open-loop pacing sleeps 1 us per frame; the default 50 us timer slack
  // would cap the offered rate far below its target.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const Result r = o.trace ? measure_traced(o) : measure(o);
  r.print();
  return 0;
}

}  // namespace
}  // namespace saath::perfbench

int main(int argc, char** argv) {
  try {
    return saath::perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "saath_perfbench: %s\n", e.what());
    return 1;
  }
}
