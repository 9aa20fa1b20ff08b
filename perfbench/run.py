#!/usr/bin/env python3
"""The repo benchmark's entry point.

    python3 perfbench/run.py --workload fb-trace --seed 1 --seconds 20 --trace 0

Run from the repo root. It builds the library and the benchmark program from source
into .bench_build/ (the root build's flags and default build type), records
which build it timed, refuses a Debug or sanitizer build, then runs one
workload. The last stdout line is the result object; with --trace 0 it holds
the end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones.
NOTES.md in this directory describes the workloads and metrics.
"""

import argparse
import json
import os
import re
import shlex
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(".bench_build", "perfbench")
RUN_DIR = os.path.join(".bench_build", "run")
WORKLOADS = ("fb-trace", "churn", "service-ingest")
RUN_TIMEOUT_S = 170


def die(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile("CMakeLists.txt") or not os.path.isdir("src"):
        die("run from the repo root: CMakeLists.txt and src/ not found", 2)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            die("configure failed", 2)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    cmd = ["cmake", "--build", BUILD, "--target", "saath_perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        die("build failed", 2)


def cache_value(key):
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(re.escape(key) + r"(:[A-Z]+)?=(.*)", line.strip())
            if m:
                return m.group(2)
    return ""


def library_flags():
    """Compile flags of one library source, as the build actually used them."""
    with open(os.path.join(BUILD, "compile_commands.json")) as f:
        for entry in json.load(f):
            if "/src/" in entry["file"] and "saath_core" in entry.get(
                "output", entry["command"]
            ):
                return shlex.split(entry["command"])
    die("no library entry in compile_commands.json", 2)


def fingerprint():
    flags = library_flags()
    compiler = cache_value("CMAKE_CXX_COMPILER")
    version = subprocess.run(
        [compiler, "--version"], capture_output=True, text=True
    ).stdout.splitlines()
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cores": os.cpu_count(),
        "cpu": cpu,
        "compiler": version[0] if version else compiler,
        "build_type": cache_value("CMAKE_BUILD_TYPE"),
        "opt": [f for f in flags if re.fullmatch(r"-O\w*", f)],
        "march": [f for f in flags if f.startswith(("-march=", "-mtune="))]
        or ["default"],
        "sanitizers": [f for f in flags if f.startswith("-fsanitize")],
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    fp = fingerprint()
    print("fingerprint: " + json.dumps(fp, sort_keys=True))
    if fp["build_type"] == "Debug" or fp["sanitizers"]:
        die("refusing to time a Debug or sanitizer build", 3)
    if not fp["opt"] or fp["opt"][-1] in ("-O0", "-Og"):
        die("refusing to time an unoptimized build", 3)

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    os.makedirs(RUN_DIR, exist_ok=True)
    cmd = [
        os.path.join(BUILD, "saath_perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--run-dir", RUN_DIR,
    ]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        die("run exceeded %d s" % RUN_TIMEOUT_S, 4)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        die("benchmark program exited with %d" % proc.returncode, 4)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    missing = wanted - set(result["metrics"])
    extra = set(result["metrics"]) - wanted
    if missing or extra:
        die("metric names differ from BENCHMARK.json: missing %s, extra %s"
            % (sorted(missing), sorted(extra)), 4)
    print(lines[-1])


if __name__ == "__main__":
    main()
