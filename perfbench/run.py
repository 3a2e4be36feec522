#!/usr/bin/env python3
"""Benchmark of xtalk-sta: builds xtalk_perfbench from source, runs one workload
in fresh processes, checks its outputs and prints the result.

    python3 perfbench/run.py --workload table|eco|service|all --seed N \
        --seconds S --trace 0|1

Run it from the root of the repository. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The lines before it give the host fingerprint, the workload's own figures
and any failures. See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("table", "eco", "service")
# setup_s is the median over this many fresh processes (the measuring
# process and the rest set-up-only ones). table sets up in about 0.05 s,
# where a single slow process start shows most, so it takes more of them.
SETUP_PROCESSES = {"table": 7, "eco": 3, "service": 3}
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def benchmark_names(key):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return [m["name"] for m in json.load(f)[key]]
    except (OSError, ValueError, KeyError):
        return []


PER_LAYER = benchmark_names("per_layer")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no xtalk sources under %s/src" % ROOT)
    try:
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
        jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
        subprocess.run(["cmake", "--build", build_dir, "--target",
                        "xtalk_perfbench", "-j", jobs],
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        raise BenchError("build failed: %s" % e)
    exe = os.path.join(build_dir, "xtalk_perfbench")
    if not os.access(exe, os.X_OK):
        raise BenchError("build produced no %s" % exe)
    return exe


def cmake_cache(build_dir):
    values = {}
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if "=" in line and ":" in line.split("=", 1)[0]:
                    key, value = line.rstrip("\n").split("=", 1)
                    values[key.split(":", 1)[0]] = value
    except OSError:
        pass
    return values


def first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
        return out.stdout.splitlines()[0].strip() if out.returncode == 0 else None
    except (OSError, subprocess.SubprocessError, IndexError):
        return None


def source_digest():
    """sha256 over the program's and the benchmark's sources, for checkouts
    that are not git repositories."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def fingerprint(build_dir, args):
    cache = cmake_cache(build_dir)
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "compiler": compiler,
        "compiler_version": first_line([compiler, "--version"]) if compiler else None,
        "cxx_flags": " ".join(x for x in (cache.get("CMAKE_CXX_FLAGS", ""),
                                          cache.get("CMAKE_CXX_FLAGS_" + build_type.upper(), ""))
                              if x),
        "build_type": build_type,
        "git_sha": first_line(["git", "-C", ROOT, "rev-parse", "HEAD"]),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_bench(exe, workload, seed, extra):
    cmd = [exe, "--workload", workload, "--seed", str(seed)] + extra
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("%s timed out" % " ".join(cmd[1:]))
    if out.returncode != 0:
        raise BenchError("%s exited with %d" % (" ".join(cmd[1:]), out.returncode))
    lines = out.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        raise BenchError("%s printed no result" % " ".join(cmd[1:]))


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(exe, workload, args):
    started = time.monotonic()
    setups = []
    if not args.trace:
        # Fresh processes, so each set-up pays the static table fills a user
        # pays per invocation.
        for _ in range(SETUP_PROCESSES[workload] - 1):
            setups.append(run_bench(exe, workload, args.seed, ["--setup-only"])["setup_s"])
    r = run_bench(exe, workload, args.seed,
                   ["--seconds", str(args.seconds), "--trace", str(args.trace)])
    setups.append(r["setup_s"])
    if args.trace:
        metrics = r["layers"]
        missing = sorted(set(PER_LAYER) - set(metrics))
        if missing:
            raise BenchError("per-layer metrics missing: %s" % ", ".join(missing))
    else:
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(r["peak_rss_mb"], "MB"),
            "ops_per_s": metric(r["ops_per_s"], "1/s"),
            "work_ms": metric(r["work_ms"], "ms"),
        }
    detail = dict(r["detail"])
    detail["failed_share"] = metric(r["failed"] / max(1, r["attempted"]), "ratio")
    if not args.trace:
        detail["setup_s"] = metric(statistics.median(setups), "s")
        detail["peak_rss_mb"] = metric(r["peak_rss_mb"], "MB")
        if r["work_p90_supported"]:
            detail["work_p90_ms"] = metric(r["work_p90_ms"], "ms")
    print("workload %s: %d operations in %.2f s window, %d attempted, %d failed, "
          "%.1f s total" % (workload, r["ops"], r["window_s"], r["attempted"],
                            r["failed"], time.monotonic() - started))
    for why in r["failures"]:
        print("  FAILED: %s" % why)
    print("detail " + json.dumps({"workload": workload, "metrics": detail}, sort_keys=True))
    return {"correct": r["failed"] == 0, "attempted": r["attempted"],
            "failed": r["failed"], "metrics": metrics}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()
    if not 0 < args.seconds <= 600:
        p.error("--seconds must be in (0, 600]")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        exe = build(build_dir)
        print("fingerprint " + json.dumps(fingerprint(build_dir, args), sort_keys=True))
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {w: run_workload(exe, w, args) for w in names}
    except BenchError as e:
        log("perfbench: %s" % e)
        return 1

    if args.workload != "all":
        result = results[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {w + "." + k: v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
