#!/usr/bin/env python3
"""End-to-end benchmark of libpreempt: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The script builds perfbench_workload (and the
library it links) from the checkout's sources into $CARGO_TARGET_DIR
(default .bench_build), then:

  * runs the workload once in a fresh process for --seconds, which sets up,
    times its operations, checks every output and reports;
  * repeats the workload's set-up in SETUP_REPEATS more fresh processes, so
    setup_s is a median rather than one cold start;
  * prints every metric by name with its unit, a run fingerprint, and as the
    last line one JSON object {"correct","attempted","failed","metrics"}.

With --trace 0 the metrics are the end_to_end list of BENCHMARK.json; with
--trace 1 they are its per_layer list (from the traced half of the run). The full
report, fingerprint included, is also written to .bench_out/. The exit code
is non-zero when any output check failed or the run could not complete.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import fcntl
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("paper-sweep", "fleet-10x", "daemon-mixed", "shard-sweep")
SETUP_REPEATS = 6          # extra set-up-only processes per run
RUN_TIMEOUT_S = 170        # hard cap on the measuring process
BUILD_TIMEOUT_S = 880

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(targets):
    """Configure and build; returns the build directory. Raises on failure."""
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        raise RuntimeError(f"libpreempt sources not found under {ROOT}")
    bdir = build_dir()
    bdir.mkdir(parents=True, exist_ok=True)
    logfile = bdir / "build.log"
    with open(bdir / ".lock", "w") as lock, open(logfile, "a") as out:
        fcntl.flock(lock, fcntl.LOCK_EX)
        started = time.monotonic()
        steps = []
        if not (bdir / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", str(bdir), "-j", jobs, "--target", *targets])
        for cmd in steps:
            left = BUILD_TIMEOUT_S - (time.monotonic() - started)
            rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                timeout=max(1, left)).returncode
            if rc != 0:
                raise RuntimeError(f"build failed ({' '.join(cmd[:2])}); see {logfile}")
    return bdir


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_binary(bdir, args, timeout):
    """Run perfbench_workload; returns its report (the last stdout line as JSON)."""
    proc = subprocess.run([str(bdir / "perfbench_workload"), *args], capture_output=True,
                          text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 3) or not lines:
        raise RuntimeError(f"perfbench_workload {' '.join(args)} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest():
    h = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for p in sorted(base.rglob("*")):
            if p.is_file() and p.suffix in (".cpp", ".hpp", ".txt", ".py"):
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    h.update((ROOT / "CMakeLists.txt").read_bytes())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "none (not a git checkout)"


def build_type(bdir):
    try:
        for line in (bdir / "CMakeCache.txt").read_text().splitlines():
            if line.startswith("CMAKE_BUILD_TYPE:"):
                return line.split("=", 1)[1]
    except OSError:
        pass
    return "unknown"


def percentile_counts(report):
    """The sample counts behind every percentile the workload reported."""
    out = {}
    for section in ("e2e", "layer"):
        for name, m in report.get(section, {}).items():
            note = m.get("note", "")
            if note.startswith("p") and " of n=" in note:
                out[name] = note
    return out


def measure(workload, seed, seconds, trace):
    bdir = build(["perfbench_workload"])
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    load_before = os.getloadavg()
    common = ["--workload", workload, "--seed", str(seed), "--out", str(out_dir)]

    setup_samples = []
    for i in range(SETUP_REPEATS):
        r = run_binary(bdir, common + ["--seconds", str(seconds), "--setup-only"], 120)
        setup_samples.append(r["setup_s"])
    report = run_binary(bdir, common + ["--seconds", str(seconds), "--trace", str(trace)],
                        RUN_TIMEOUT_S)
    setup_samples.append(report["setup_s"])
    load_after = os.getloadavg()

    e2e = dict(report["e2e"])
    e2e["setup_s"] = {"value": statistics.median(setup_samples), "unit": "s",
                      "note": f"median of {len(setup_samples)} fresh-process set-ups"}
    fingerprint = {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "vk_path": report["vk_path"],
        "build_type": build_type(bdir),
        "commit": commit(),
        "source_digest": source_digest(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "loadavg_before": [round(x, 2) for x in load_before],
        "loadavg_after": [round(x, 2) for x in load_after],
        "percentile_samples": percentile_counts(report),
    }

    spec = benchmark_spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    source = report["layer"] if trace else e2e
    metrics = {}
    for m in wanted:
        got = source.get(m["name"])
        # A layer the workload never calls reports 0: nothing was counted.
        value = got["value"] if got is not None else 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    attempted = int(report["attempted"])
    failed = int(report["failed"])
    full = {"fingerprint": fingerprint, "setup_samples_s": setup_samples, "e2e": e2e,
            "layer": report["layer"], "attempted": attempted, "failed": failed,
            "failures": report["failures"]}
    result_path = out_dir / f"result-{workload}-{seed}-trace{trace}.json"
    result_path.write_text(json.dumps(full, indent=1))

    print("fingerprint: " + json.dumps(fingerprint))
    for section, values in (("end-to-end", e2e), ("per-layer", report["layer"])):
        for name, m in values.items():
            note = f"  ({m['note']})" if m.get("note") else ""
            print(f"{section} {workload} {name} = {m['value']:.6g} {m['unit']}{note}")
    share = failed / attempted if attempted else 1.0
    print(f"end-to-end {workload} fail_share = {share:.6g} ratio ({failed}/{attempted} ops)")
    for msg in report["failures"]:
        print(f"FAILED: {msg}")
    print(f"report: {result_path}")
    result = {"correct": failed == 0 and attempted > 0, "attempted": max(1, attempted),
              "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def self_test():
    """Unit tests of the harness, then a short smoke of every workload."""
    bdir = build(["perfbench_workload", "perfbench_tests"])
    rc = subprocess.run([str(bdir / "perfbench_tests")], timeout=600).returncode
    if rc != 0:
        log("perfbench_tests failed")
        return 1
    rc = subprocess.run([sys.executable, str(BENCH_DIR / "tests" / "test_run.py")],
                        timeout=1200).returncode
    if rc != 0:
        log("test_run.py failed")
        return 1
    log("self-test passed")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            ap.error("--workload is required")
        seconds = args.seconds
        if seconds is None:
            seconds = benchmark_spec()["run_seconds"]
        return measure(args.workload, args.seed, seconds, args.trace)
    except (RuntimeError, OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
