#!/usr/bin/env python3
"""End-to-end `seqrtg serve` benchmark: build, run one workload, print metrics.

Run from the repository root:

    python3 servebench/run.py --workload fleet_warm --seed 1 --seconds 20 --trace 0
    python3 servebench/run.py --selftest

The first run configures and builds `seqrtg` and the `servebench` harness
(Release) into $CARGO_TARGET_DIR, or `.bench_build` when it is unset; later
runs only re-check the build. Build output goes to stderr, so the last line
of stdout is always the result JSON of the run. NOTES.md describes the
workloads, the metrics and how the fixed constants were derived.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("fleet_warm", "loghub_mix", "fleet_replicated",
             "fleet_governed")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"servebench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(REPO_ROOT, path))


def build(out_dir):
    """Configures once, then (re)builds both binaries; returns their paths."""
    if not os.path.isfile(os.path.join(REPO_ROOT, "src", "CMakeLists.txt")):
        fail(f"no seqrtg sources next to {BENCH_DIR}; "
             "run from a full checkout")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", BENCH_DIR, "-B", out_dir,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                fail("cmake configure failed")
        cmd = ["cmake", "--build", out_dir, "-j", str(os.cpu_count() or 1),
               "--target", "seqrtg", "servebench"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed")
    return (os.path.join(out_dir, "seqrtg", "src", "cli", "seqrtg"),
            os.path.join(out_dir, "servebench"))


def run_once(binaries, workload, seed, seconds, trace, extra=()):
    """Runs the harness once; returns (exit status, stdout lines)."""
    seqrtg, harness = binaries
    work = os.path.join(build_dir(), f"work-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    cmd = [harness, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--seqrtg", seqrtg, "--work-dir", work, *extra]
    # A timeout kills the harness; its servers die with it (they are
    # spawned with a parent-death signal).
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return proc.returncode, proc.stdout.splitlines()


# Every end-to-end metric the table must print, with its unit.
TABLE = (("setup_s", "s"), ("records_per_s", "rec/s"),
         ("cpu_us_per_record", "us"), ("commit_p50_ms", "ms"),
         ("commit_p99_ms", "ms"), ("peak_rss_mb", "MiB"),
         ("failed_frac", "ratio"))


def selftest(binaries):
    """Smoke pass of every declared workload in both modes, plus a planted
    fault that the conservation check must catch."""
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    problems = []
    for workload in (w["name"] for w in declared["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} --trace {trace}"
            before = len(problems)
            status, lines = run_once(binaries, workload, 1, 2, trace,
                                     ["--smoke"])
            if status != 0 or not lines:
                problems.append(f"{label}: exit {status}")
                continue
            metrics = json.loads(lines[-1])["metrics"]
            units = {m["name"]: m["unit"] for m in declared[key]}
            if {k: v["unit"] for k, v in metrics.items()} != units:
                problems.append(f"{label}: metrics or units differ from "
                                f"BENCHMARK.json {key}")
            if trace == 0:
                for name, unit in TABLE:
                    if not any(l.split()[:1] == [name] and unit in l.split()
                               for l in lines):
                        problems.append(f"{label}: table lacks {name} "
                                        f"[{unit}]")
            print(f"selftest: {label}: "
                  f"{'ok' if len(problems) == before else problems[-1]}",
                  file=sys.stderr)
    # Planted fault: the generator silently skips one record; the
    # conservation check must fail the run.
    status, lines = run_once(binaries, "loghub_mix", 1, 2, 0,
                             ["--smoke", "--plant-skip", "100"])
    result = json.loads(lines[-1]) if lines and lines[-1][:1] == "{" else None
    if status != 1 or not result or result["correct"] or result["failed"] < 1:
        problems.append(f"planted fault not caught (exit {status}, "
                        f"result {result})")
    else:
        print("selftest: planted fault caught by the conservation check",
              file=sys.stderr)
    for p in problems:
        print(f"selftest FAILED: {p}", file=sys.stderr)
    print("selftest: " + ("ok" if not problems else "FAILED"))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    started = time.monotonic()
    binaries = build(build_dir())
    print(f"servebench: build checked in {time.monotonic() - started:.1f} s",
          file=sys.stderr)
    if args.selftest:
        sys.exit(selftest(binaries))
    status, lines = run_once(binaries, args.workload, args.seed, args.seconds,
                             args.trace)
    print("\n".join(lines))
    sys.exit(status)


if __name__ == "__main__":
    main()
