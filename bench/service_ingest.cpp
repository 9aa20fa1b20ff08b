// service_ingest — the service-layer acceptance gate (ISSUE 10).
//
// Phase 1 (correctness): a scripted workload driven through an in-process
// daemon over a loopback Unix socket must produce the identical result
// digest as the same events run directly through the offline engine. A
// mismatch is a hard failure (exit 2): every throughput number below would
// be meaningless on a divergent service.
//
// Phase 2 (throughput): one client streams a large synthetic event script
// through the daemon (no journal — pure ingest path) and we report
// events/sec over the drive wall time plus the ingress admission-wait
// p50/p99 from the daemon's log-bucket histogram. The CI gate requires
// >= 100k events/sec, applied only on machines with >= 2 hardware threads
// (single-core boxes timeshare the engine, reader, and client threads).
//
//   $ ./service_ingest [--events N] [--out BENCH_service.json]
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "replay/journal.h"
#include "sched/factory.h"
#include "service/client.h"
#include "service/daemon.h"
#include "service/source.h"
#include "sim/engine.h"

namespace saath {
namespace {

using Clock = std::chrono::steady_clock;
using service::ClientOptions;
using service::DaemonConfig;
using service::ServiceClient;
using service::ServiceDaemon;
using service::ServiceReport;
using service::VectorSource;
using workload::WorkloadEvent;

constexpr int kPorts = 32;
constexpr const char* kWorkload = "svc-ingest";

/// Small single-flow CoFlows at a 1 us arrival cadence: the engine's work
/// per event is trivial, so the measurement isolates the wire + framing +
/// ingress path rather than the scheduler.
std::vector<WorkloadEvent> make_script(int events) {
  std::vector<WorkloadEvent> evs;
  evs.reserve(static_cast<std::size_t>(events));
  for (int i = 0; i < events; ++i) {
    CoflowSpec spec;
    spec.id = CoflowId{i};
    spec.arrival = i;  // 1 us apart
    spec.flows = {{i % kPorts, (i + 7) % kPorts, 1000 + (i % 13) * 64}};
    evs.push_back(WorkloadEvent::arrival(std::move(spec)));
  }
  return evs;
}

SimConfig bench_cfg() {
  SimConfig cfg = bench::paper_sim_config();
  return cfg;
}

std::string digest_offline(int events) {
  auto src =
      std::make_shared<VectorSource>(kWorkload, kPorts, make_script(events));
  auto sched = make_scheduler("saath");
  SimConfig cfg = bench_cfg();
  apply_scheduler_sim_overrides("saath", cfg);
  Engine engine(src, *sched, cfg);
  const SimResult result = engine.run();
  return replay::result_digest_hex(result);
}

struct ServiceRun {
  ServiceReport report;
  double drive_sec = 0;   // connect-to-END wall time client-side
  double wait_p50_us = 0;  // ingress admission wait (push -> release)
  double wait_p99_us = 0;
  std::int64_t sent = 0;
};

ServiceRun run_service(int events) {
  DaemonConfig cfg;
  cfg.address = "unix:/tmp/saath_bench_ingest_" +
                std::to_string(static_cast<long>(::getpid())) + ".sock";
  cfg.num_ports = kPorts;
  cfg.scheduler = "saath";
  cfg.sim = bench_cfg();
  cfg.expect_clients = 1;
  ServiceDaemon daemon(cfg);
  daemon.start();

  ServiceRun out;
  const auto t0 = Clock::now();
  ServiceClient client(ClientOptions{daemon.address()});
  if (!client.connect(kWorkload, kPorts)) {
    std::fprintf(stderr, "connect failed: %s\n",
                 client.report().error.c_str());
    return out;
  }
  VectorSource src(kWorkload, kPorts, make_script(events));
  if (!client.drive(src) || !client.finish()) {
    std::fprintf(stderr, "drive failed: %s\n", client.report().error.c_str());
    return out;
  }
  out.drive_sec = std::chrono::duration<double>(Clock::now() - t0).count();
  out.sent = client.report().sent;
  out.report = daemon.wait();
  // The admission-wait histogram (push -> engine pull, wall time) comes
  // from the daemon's STAT block — the same numbers a live STATS request
  // would stream.
  std::istringstream stats(daemon.stats_text());
  std::string word, key, val;
  while (stats >> word >> key >> val) {
    if (key == "admission_wait_p50_us") out.wait_p50_us = std::stod(val);
    if (key == "admission_wait_p99_us") out.wait_p99_us = std::stod(val);
  }
  return out;
}

int run(int argc, char** argv) {
  bench::check_flags(argc, argv, {{"--events", "N"}, {"--out", "FILE"}});
  int events = 120'000;
  std::string out = "BENCH_service.json";
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--events") == 0) events = std::atoi(argv[i + 1]);
    if (std::strcmp(argv[i], "--out") == 0) out = argv[i + 1];
  }
  out = bench::bench_out_path(out);
  const unsigned cores = std::thread::hardware_concurrency();

  bench::print_header(
      "service ingest — daemon loopback digest + throughput, " +
          std::to_string(events) + " events",
      "ISSUE 10 acceptance: digest identity; >= 100k events/sec (cores >= 2)");

  // Phase 1: digest cross-check on a small run (full completion stream).
  constexpr int kDigestEvents = 2'000;
  const std::string offline = digest_offline(kDigestEvents);
  const ServiceRun check = run_service(kDigestEvents);
  const bool digest_ok =
      check.report.ok && check.report.digest_hex == offline;
  std::printf("digest check (%d events): offline %s service %s  %s\n",
              kDigestEvents, offline.c_str(),
              check.report.digest_hex.c_str(),
              digest_ok ? "MATCH" : "MISMATCH");

  // Phase 2: throughput at scale.
  const ServiceRun perf = run_service(events);
  const double rate =
      perf.drive_sec > 0 ? static_cast<double>(perf.sent) / perf.drive_sec : 0;
  std::printf("ingest: %lld events in %.3f s = %.0f events/sec\n",
              static_cast<long long>(perf.sent), perf.drive_sec, rate);
  std::printf("admission wait: p50 %.1f us  p99 %.1f us\n", perf.wait_p50_us,
              perf.wait_p99_us);

  const bool gate_applies = cores >= 2;
  const bool rate_ok = !gate_applies || rate >= 100'000.0;
  std::printf("gate: %s (cores=%u%s)\n",
              digest_ok && rate_ok ? "PASS" : "FAIL", cores,
              gate_applies ? "" : ", throughput gate waived on 1 core");

  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"service_ingest\",\n"
               "  \"fingerprint\": %s,\n"
               "  \"cores\": %u,\n"
               "  \"digest_events\": %d,\n"
               "  \"digest_offline\": \"%s\",\n"
               "  \"digest_service\": \"%s\",\n"
               "  \"digest_identical\": %s,\n"
               "  \"events\": %lld,\n"
               "  \"drive_sec\": %.4f,\n"
               "  \"events_per_sec\": %.0f,\n"
               "  \"admission_wait_p50_us\": %.1f,\n"
               "  \"admission_wait_p99_us\": %.1f,\n"
               "  \"throughput_gate_applied\": %s,\n"
               "  \"gate_pass\": %s\n"
               "}\n",
               bench::fingerprint_json().c_str(), cores, kDigestEvents,
               offline.c_str(),
               check.report.digest_hex.c_str(), digest_ok ? "true" : "false",
               static_cast<long long>(perf.sent), perf.drive_sec, rate,
               perf.wait_p50_us, perf.wait_p99_us,
               gate_applies ? "true" : "false",
               digest_ok && rate_ok ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", out.c_str());
  return digest_ok ? (rate_ok ? 0 : 3) : 2;
}

}  // namespace
}  // namespace saath

int main(int argc, char** argv) { return saath::run(argc, argv); }
