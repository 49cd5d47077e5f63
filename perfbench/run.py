#!/usr/bin/env python3
"""Run one benchmark workload and print its result as a JSON line.

    python3 perfbench/run.py --workload resnet_tq_train --seed 1 \\
        --seconds 10 --trace 0

Run from the repository root.  The first run configures and builds
perfbench/ (libmrq from src/ plus perfbench_measure) under .bench_build/;
later runs only check the build is current.  --trace 0 prints the
end-to-end metrics, --trace 1 the per-layer ones.  `--workload all`
runs every workload in turn and prints one table.  MRQ_THREADS, when
set, replaces the workload's own pool size.  See README.md.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
MEASURE = BUILD / "perfbench_measure"
WORKLOADS = ["resnet_tq_train", "resnet_tq_eval", "lstm_uq_train",
             "mmac_hw_sweep"]

sys.path.insert(0, str(HERE))
import analysis  # noqa: E402


def measure_timeout_s(seconds, trace):
    """Ample time for the planned work (one timed pass untraced, two
    traced, plus set-ups), so a slow host measures slowly rather than
    failing."""
    return 120 + 10 * seconds * (2 if trace else 1)


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found at {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "perfbench_measure"])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=850).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if rc != 0:
            fail(f"build step {' '.join(cmd[:2])} exited {rc}")


def run_measure(args, workload):
    runs = BUILD / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    raw_path = runs / f"{workload}-seed{args.seed}-trace{args.trace}.json"
    raw_path.unlink(missing_ok=True)
    cmd = [str(MEASURE), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(raw_path), "--work-dir", str(BUILD / "work")]
    if args.smoke:
        cmd.append("--smoke")
    if args.delay_span:
        cmd += ["--delay-span", args.delay_span,
                "--delay-us", str(args.delay_us)]
    if args.corrupt:
        cmd.append("--corrupt")
    timeout = measure_timeout_s(args.seconds, args.trace)
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)
    try:
        rc = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: measurement exceeded {timeout} s")
    finally:
        # Also reached on SIGTERM (see main): never leave the
        # measuring process running behind us.
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if rc != 0:
        fail(f"{workload}: perfbench_measure exited {rc}")
    with open(raw_path) as f:
        return json.load(f)


def describe(raw):
    """Context lines printed ahead of the result line."""
    fp = raw["fingerprint"]
    steps = len(raw["step_wall_ns"])
    setups = analysis.clock(raw, "setup_")
    lines = [
        "fingerprint " + json.dumps(fp, sort_keys=True),
        f"digest {raw['digest']} steps {steps} (p90 over "
        f"{steps // raw['step_group']} samples)",
        f"set-up {setups[0] / 1e9:.4f} s cold (from main), "
        f"median {statistics.median(setups) / 1e9:.4f} s "
        f"over {len(setups)}",
    ]
    lines += [f"failure {w}" for w in raw["failures"]]
    if raw["trace"]:
        self_ms, untraced_ms, gap = analysis.self_time_check(raw)
        overhead = analysis.per_layer_values(raw)["trace_overhead_pct"]
        lines.append(f"self-time sum {self_ms:.3f} ms/step vs untraced step "
                     f"{untraced_ms:.3f} ms: gap {gap:+.2f}% "
                     f"(trace_overhead_pct {overhead:.2f}%, steal-free "
                     f"clock)")
        table = analysis.span_table(raw)
        lines.append(f"{'span':34} {'calls/step':>10} {'self ms/step':>13}"
                     f" {'total ms/step':>14} {'alloc KiB/step':>15}")
        for name, row in sorted(table.items(),
                                key=lambda kv: -kv[1]["self_ns"]):
            lines.append(
                f"{name:34} {row['count'] / steps:10.2f} "
                f"{row['self_ns'] / steps / 1e6:13.4f} "
                f"{row['total_ns'] / steps / 1e6:14.4f} "
                f"{row['alloc_bytes'] / steps / 1024:15.1f}")
    return lines


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, for the benchmark's own tests")
    p.add_argument("--delay-span", default="",
                   help="stretch this span (attribution self-test)")
    p.add_argument("--delay-us", type=int, default=0)
    p.add_argument("--corrupt", action="store_true",
                   help="damage one output (failure-count self-test)")
    args = p.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: fail("terminated", 143))
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    os.chdir(ROOT)
    build()

    if args.workload != "all":
        raw = run_measure(args, args.workload)
        for line in describe(raw):
            print(line)
        print(json.dumps(analysis.report(raw)), flush=True)
        return

    print(f"{'workload':16} {'metric':18} {'value':>12} unit")
    attempted = failed = 0
    for workload in WORKLOADS:
        rep = analysis.report(run_measure(args, workload))
        attempted += rep["attempted"]
        failed += rep["failed"]
        for name, m in rep["metrics"].items():
            print(f"{workload:16} {name:18} {m['value']:12.4f} {m['unit']}")
        print(f"{workload:16} attempted {rep['attempted']} "
              f"failed {rep['failed']}")
    print(json.dumps({"attempted": attempted, "failed": failed}))


if __name__ == "__main__":
    main()
