#!/usr/bin/env python3
"""Entry point of the radiocast repo benchmark.

Builds the benchmark binary from source (the repo's own CMake project, Release),
runs one workload (or all of them) in its own process, checks its outputs,
prints every metric by name with its unit, writes one machine-readable result
file per run, and prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload bcast_mega --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --trace 1      # per-layer metrics
    python3 perfbench/run.py --selftest                    # the benchmark's tests

The build goes to $CARGO_TARGET_DIR (default .bench_build); result files go to
<build>/results/ unless --out names a file. Exit status: 0 when every output
check passed, 1 when one failed, 2 when the benchmark could not build or run.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["bcast_mega", "det_full", "trial_batch", "campaign_sweep"]
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build(bdir):
    """Configures (once) and builds the perfbench target; False on failure."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log("perfbench: the radiocast sources are not next to perfbench/; "
            "run from the root of a full checkout")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
        except OSError as e:
            log(f"perfbench: cannot run {cmd[0]}: {e}")
            return False
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return False
    return True


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_one(binary, bdir, workload, seed, seconds, trace, out_path):
    """Runs one workload in its own process; returns its result or None."""
    work = bdir / "work" / f"{workload}-{os.getpid()}"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", str(work)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish within {RUN_TIMEOUT_S} s")
        return None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"perfbench: {workload} exited {proc.returncode} without a result")
        return None
    result["host"]["git_commit"] = git_commit()

    if out_path is None:
        results = bdir / "results"
        results.mkdir(parents=True, exist_ok=True)
        out_path = results / (f"{workload}-seed{seed}-trace{trace}-"
                              f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json")
    Path(out_path).write_text(json.dumps(result, indent=1) + "\n")

    host = result["host"]
    print(f"== {workload}  seed={seed}  trace={trace}  "
          f"attempted={result['attempted']}  failed={result['failed']}")
    print(f"   host: nproc={host['nproc']} hardware_threads="
          f"{host['hardware_threads']} cpu={host['cpu_model']!r} "
          f"compiler={host['compiler']!r} build={host['build_type']} "
          f"commit={host['git_commit']}")
    for name, m in result["metrics"].items():
        print(f"   {name:28s} {m['value']:>16.6g} {m['unit']}")
    details = result["details"]
    for key in ("units", "trial_samples", "trial_ms_p95", "edge_visits_per_s"):
        if key in details:
            print(f"   [{key}] {details[key]}")
    for failure in result["failures"]:
        print(f"   FAILED: {failure}")
    print(f"   result: {out_path}")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    help="one of " + ", ".join(WORKLOADS) + ", or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="result file (single workload only)")
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    if args.workload != "all" and args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}")
    bdir = build_dir()
    if not build(bdir):
        return 2
    binary = bdir / "perfbench"
    if args.selftest:
        return subprocess.run([str(binary), "--selftest"]).returncode

    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        r = run_one(binary, bdir, name, args.seed, args.seconds, args.trace,
                    args.out if len(names) == 1 else None)
        if r is None:
            return 2
        results[name] = r

    if len(names) == 1:
        r = results[names[0]]
        metrics = r["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, r in results.items()
                   for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
