// Streaming-ingestion bench: drives a large (default 1M) CoFlow SynthSource
// through the engine with per-CoFlow record materialization off, and gates
// that live memory stays bounded — the whole point of the streaming input
// surface. Emits BENCH_workload.json:
//
//   ingest_events_per_sec   workload events pulled+admitted per wall second
//   peak_live / mean_live   live-CoFlow set trajectory (EngineStats)
//   live_bound_ok           peak <= 2x steady-state mean (the CI gate)
//   peak_rss_mb             process high-water RSS (getrusage)
//
// Exits non-zero when the gate fails, so CI can call it directly.
//
//   $ ./workload_stream --coflows 1000000 --out BENCH_workload.json
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>

#include "bench_util.h"
#include "sched/factory.h"
#include "sim/engine.h"
#include "workload/sink.h"
#include "workload/sources.h"

using namespace saath;

namespace {

workload::SynthStreamConfig stream_config(std::int64_t coflows) {
  workload::SynthStreamConfig cfg;
  cfg.name = "stream-1m";
  cfg.num_coflows = coflows;
  cfg.seed = 7;
  // Churn regime: mostly-small CoFlows on 256 uniformly-popular ports at
  // ~40% aggregate utilization, so the live set hovers at its steady-state
  // mean (~ utilization x ports) instead of accumulating — the boundedness
  // property the gate checks.
  cfg.shape.num_ports = 256;
  cfg.shape.port_zipf = 0.0;
  cfg.shape.p_single = 0.7;
  cfg.shape.p_narrow_given_multi = 0.9;
  cfg.shape.p_small_given_narrow = 0.95;
  cfg.shape.p_small_given_wide = 0.9;
  cfg.mean_gap = usec(500);
  cfg.p_burst = 0.1;
  cfg.burst_gap = usec(150);
  cfg.bands.small_lo = 1.0 * kMB;
  cfg.bands.small_hi = 8.0 * kMB;
  cfg.bands.large_lo = 8.0 * kMB;
  cfg.bands.large_hi = 64.0 * kMB;
  return cfg;
}

[[nodiscard]] double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KB
}

}  // namespace

int main(int argc, char** argv) {
  bench::check_flags(argc, argv, {{"--coflows", "N"}, {"--out", "FILE"}});
  std::int64_t coflows = 1'000'000;
  std::string out_path = "BENCH_workload.json";
  for (int i = 1; i < argc - 1; ++i) {
    if (std::strcmp(argv[i], "--coflows") == 0) coflows = std::atoll(argv[i + 1]);
    if (std::strcmp(argv[i], "--out") == 0) out_path = argv[i + 1];
  }
  out_path = bench::bench_out_path(out_path);

  auto source = std::make_shared<workload::SynthSource>(stream_config(coflows));
  auto scheduler = make_scheduler("saath");
  SimConfig cfg;
  cfg.record_results = false;
  // Unbounded-horizon guard only; the source itself bounds the run.
  cfg.max_sim_time = seconds(4'000'000);
  workload::CctAggregator agg;

  Engine engine(source, *scheduler, cfg);
  engine.set_result_sink(&agg);
  const auto t0 = std::chrono::steady_clock::now();
  const SimResult result = engine.run();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const EngineStats& stats = engine.stats();

  const double mean_live =
      stats.epochs == 0 ? 0.0
                        : static_cast<double>(stats.live_coflow_epoch_sum) /
                              static_cast<double>(stats.epochs);
  const double live_ratio =
      mean_live == 0 ? 0.0
                     : static_cast<double>(stats.peak_live_coflows) / mean_live;
  const bool live_bound_ok = live_ratio > 0 && live_ratio <= 2.0;
  const bool complete = agg.count() == coflows;
  const double events_per_sec =
      wall_s == 0 ? 0 : static_cast<double>(stats.source_events) / wall_s;

  std::printf(
      "streamed %lld coflows (%lld events) in %.1fs: %.0f events/s, "
      "makespan %.0fs, mean CCT %.3fs (~P90 %.3fs)\n",
      static_cast<long long>(agg.count()),
      static_cast<long long>(stats.source_events), wall_s, events_per_sec,
      to_seconds(agg.makespan()), agg.mean_cct_seconds(),
      agg.percentile_cct_seconds(90));
  std::printf(
      "live set: peak %lld, steady-state mean %.1f, ratio %.2fx (gate <= "
      "2x: %s); peak RSS %.1f MB; records materialized: %zu\n",
      static_cast<long long>(stats.peak_live_coflows), mean_live, live_ratio,
      live_bound_ok ? "ok" : "FAIL", peak_rss_mb(), result.coflows.size());

  std::ofstream out(out_path);
  out << "{\n"
      << "  \"fingerprint\": " << bench::fingerprint_json() << ",\n"
      << "  \"coflows\": " << coflows << ",\n"
      << "  \"completed\": " << agg.count() << ",\n"
      << "  \"complete\": " << (complete ? "true" : "false") << ",\n"
      << "  \"source_events\": " << stats.source_events << ",\n"
      << "  \"wall_s\": " << wall_s << ",\n"
      << "  \"ingest_events_per_sec\": " << events_per_sec << ",\n"
      << "  \"epochs\": " << stats.epochs << ",\n"
      << "  \"peak_live\": " << stats.peak_live_coflows << ",\n"
      << "  \"mean_live\": " << mean_live << ",\n"
      << "  \"live_ratio\": " << live_ratio << ",\n"
      << "  \"live_bound_ok\": " << (live_bound_ok ? "true" : "false") << ",\n"
      << "  \"peak_rss_mb\": " << peak_rss_mb() << ",\n"
      << "  \"makespan_s\": " << to_seconds(agg.makespan()) << ",\n"
      << "  \"mean_cct_s\": " << agg.mean_cct_seconds() << "\n"
      << "}\n";
  std::printf("wrote %s\n", out_path.c_str());

  if (!complete) {
    std::fprintf(stderr, "FAIL: run completed %lld of %lld coflows\n",
                 static_cast<long long>(agg.count()),
                 static_cast<long long>(coflows));
    return 1;
  }
  if (!live_bound_ok) {
    std::fprintf(stderr,
                 "FAIL: peak live coflows %.2fx the steady-state mean "
                 "(bound: 2x) — streaming ingestion is accumulating\n",
                 live_ratio);
    return 1;
  }
  return 0;
}
