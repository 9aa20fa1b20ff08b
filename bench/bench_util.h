// Shared plumbing for the per-figure benchmark binaries.
//
// Every binary regenerates one table/figure of the paper on the synthetic
// FB/OSP traces (DESIGN.md §2 documents the substitution) and prints the
// same rows/series the paper reports, annotated with the paper's published
// numbers where they exist. Absolute values differ (their testbed, their
// traces); the *shape* is the reproduction target.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <initializer_list>
#include <iostream>
#include <map>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>

#include "analysis/metrics.h"
#include "analysis/table.h"
#include "sim/engine.h"
#include "trace/synth.h"

namespace saath::bench {

/// One `--name VALUE` flag a bench accepts, for check_flags' usage line.
struct FlagSpec {
  std::string_view name;     // "--coflows"
  std::string_view metavar;  // "N"
};

/// Rejects a bad command line before a bench measures or writes anything.
/// Benches take `--name VALUE` pairs only: an unknown name, a name with no
/// value, or --help/-h prints the usage line to stderr and exits 2, so a
/// typo (or a reflexive --help) never runs the whole benchmark and
/// overwrites the committed BENCH_*.json. Call it first thing in main().
inline void check_flags(int argc, char** argv,
                        std::initializer_list<FlagSpec> flags) {
  const auto fail = [&](std::string_view why, std::string_view arg) {
    if (!why.empty()) {
      std::string line(why);
      line += " '";
      line += arg;
      line += '\'';
      std::fprintf(stderr, "%s\n", line.c_str());
    }
    std::string usage = "usage: ";
    usage += std::filesystem::path(argv[0]).filename().string();
    for (const FlagSpec& f : flags) {
      usage += " [";
      usage += f.name;
      usage += ' ';
      usage += f.metavar;
      usage += ']';
    }
    std::fprintf(stderr, "%s\n", usage.c_str());
    std::exit(2);
  };
  for (int i = 1; i < argc; i += 2) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") fail({}, arg);
    bool known = false;
    for (const FlagSpec& f : flags) known = known || arg == f.name;
    if (!known) fail("unknown flag", arg);
    if (i + 1 >= argc) fail("missing value for", arg);
  }
}

/// Resolves a bare BENCH_*.json filename to the repo root — the nearest
/// ancestor of the current directory holding both ROADMAP.md and
/// CMakeLists.txt — so every bench binary writes its snapshot to one
/// canonical, committable place no matter which build directory it runs
/// from. Names that already carry a directory component are returned
/// verbatim (explicit --out paths win), and when no repo root is found the
/// bare name falls back to the current directory.
inline std::string bench_out_path(const std::string& name) {
  if (name.find('/') != std::string::npos) return name;
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::path dir = fs::current_path(ec);
  while (!ec && !dir.empty()) {
    if (fs::exists(dir / "ROADMAP.md", ec) &&
        fs::exists(dir / "CMakeLists.txt", ec)) {
      return (dir / name).string();
    }
    if (dir == dir.parent_path()) break;
    dir = dir.parent_path();
  }
  return name;
}

/// The evaluation defaults of §6: S=10MB, E=10, K=10, δ=8ms, 1 Gbps ports.
inline SimConfig paper_sim_config() {
  SimConfig cfg;
  cfg.port_bandwidth = gbps(1);
  cfg.delta = msec(8);
  return cfg;
}

/// FB-like trace at evaluation scale (150 ports / 526 CoFlows).
inline trace::Trace fb_trace() { return trace::synth_fb_trace(); }

/// OSP-like trace (100 ports / 1000 CoFlows, busier).
inline trace::Trace osp_trace() { return trace::synth_osp_trace(); }

/// Machine fingerprint for a BENCH_*.json baseline, as one JSON object:
/// cores, CPU model, compiler, build type and the C++ flags of the bench
/// build (SAATH_BENCH_BUILD_TYPE / SAATH_BENCH_CXX_FLAGS come from
/// CMakeLists.txt), so a recorded number names the machine and build it
/// came from.
inline std::string fingerprint_json() {
  std::string cpu = "unknown";
  if (std::FILE* f = std::fopen("/proc/cpuinfo", "r")) {
    char line[512];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::strncmp(line, "model name", 10) != 0) continue;
      if (const char* colon = std::strchr(line, ':')) {
        cpu = colon + 1;
        cpu.erase(0, cpu.find_first_not_of(' '));
        cpu.erase(cpu.find_last_not_of(" \n") + 1);
      }
      break;
    }
    std::fclose(f);
  }
  const auto quoted = [](std::string_view v) {
    std::string out = "\"";
    for (const char ch : v) {
      if (ch == '"' || ch == '\\') out += '\\';
      out += ch;
    }
    out += '"';
    return out;
  };
  std::string json = "{\"cores\": ";
  json += std::to_string(std::thread::hardware_concurrency());
  json += ", \"cpu_model\": ";
  json += quoted(cpu);
  json += ", \"compiler\": ";
  json += quoted(__VERSION__);
  json += ", \"build_type\": ";
  json += quoted(SAATH_BENCH_BUILD_TYPE);
  json += ", \"cxx_flags\": ";
  json += quoted(SAATH_BENCH_CXX_FLAGS);
  json += "}";
  return json;
}

inline void print_header(const std::string& title, const std::string& paper) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  if (!paper.empty()) std::printf("paper reference: %s\n", paper.c_str());
  std::printf("================================================================\n");
}

}  // namespace saath::bench
