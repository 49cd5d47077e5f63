"""End-to-end checks of the benchmark on tiny inputs (--smoke).

Builds perfbench/ on first use (a few minutes), then runs every
workload untraced and traced, plus the determinism, failure-count,
attribution and refusal self-tests.

    python3 -m unittest discover perfbench/tests
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
import analysis  # noqa: E402
from run import BUILD, WORKLOADS  # noqa: E402


def run_bench(*extra, env=None, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--seconds", "1", *extra],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=900)


def smoke(workload, trace, *extra, seed=5, threads=None):
    env = None
    if threads is not None:
        env = dict(os.environ, MRQ_THREADS=str(threads))
    out = run_bench("--workload", workload, "--seed", str(seed),
                    "--trace", str(trace), "--smoke", *extra, env=env)
    if out.returncode != 0:
        raise AssertionError(f"{workload} exited {out.returncode}:\n"
                             f"{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    rep = analysis.parse_report(lines[-1])
    digest = next(ln.split()[1] for ln in lines if ln.startswith("digest "))
    return rep, digest


def raw_file(workload, seed, trace):
    path = BUILD / "runs" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def median_self_ms(raw):
    """Median over steps of each span name's per-step self time."""
    tr = raw["traced"]
    selfs = analysis.self_times([(s[1], s[3], s[4]) for s in tr["spans"]])
    steps = len(raw["step_wall_ns"])
    per = {}
    for s, ns in zip(tr["spans"], selfs):
        per.setdefault(tr["span_names"][s[0]], [0] * steps)[s[2]] += ns
    return {n: statistics.median(v) / 1e6 for n, v in per.items()}


class Smoke(unittest.TestCase):
    def test_every_workload_untraced_and_traced(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                rep, digest = smoke(w, 0)
                self.assertEqual(rep["failed"], 0)
                self.assertEqual(
                    [n for n, _, _ in analysis.END_TO_END],
                    list(rep["metrics"]))
                self.assertTrue(all(m["value"] > 0
                                    for m in rep["metrics"].values()))
                traced, traced_digest = smoke(w, 1)
                # The traced run also compares its traced and untraced
                # digests and counts a mismatch as a failure.
                self.assertEqual(traced["failed"], 0)
                self.assertEqual(traced_digest, digest)
                self.assertEqual(
                    [n for n, _, _ in analysis.per_layer_metrics()],
                    list(traced["metrics"]))

    def test_digest_is_independent_of_pool_size(self):
        for w in ("resnet_tq_train", "lstm_uq_train"):
            with self.subTest(workload=w):
                _, own = smoke(w, 0)
                _, single = smoke(w, 0, threads=1)
                self.assertEqual(own, single)
                fp = raw_file(w, 5, 0)["fingerprint"]
                self.assertEqual(fp["pool_threads"], "1")
                self.assertEqual(fp["mrq_threads"], "1")

    def test_hw_counts_are_exact(self):
        smoke("mmac_hw_sweep", 1)
        first = analysis.per_layer_values(raw_file("mmac_hw_sweep", 5, 1))
        smoke("mmac_hw_sweep", 1)
        again = analysis.per_layer_values(raw_file("mmac_hw_sweep", 5, 1))
        for name in first:
            if name.endswith(("_per_sample", "_per_step")):
                self.assertEqual(first[name], again[name], name)

    def test_corrupted_output_counts_as_failed(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                rep, _ = smoke(w, 0, "--corrupt")
                self.assertGreaterEqual(rep["failed"], 1)
                self.assertFalse(rep["correct"])

    def test_injected_delay_is_attributed_to_its_layer(self):
        target = "nn.1.conv2d.fwd"
        # One thread keeps host contention from moving other layers.
        smoke("resnet_tq_train", 1, threads=1)
        base = median_self_ms(raw_file("resnet_tq_train", 5, 1))
        smoke("resnet_tq_train", 1, "--delay-span", target, "--delay-us",
              "3000", threads=1)
        slow = median_self_ms(raw_file("resnet_tq_train", 5, 1))
        # Teacher and student each run the layer once per step.
        self.assertAlmostEqual(slow[target] - base[target], 6.0, delta=1.5)
        for name in base:
            if name not in (target, "step"):
                self.assertLess(abs(slow[name] - base[name]),
                                max(1.0, 0.3 * base[name]), name)

    def test_refuses_library_knobs(self):
        env = dict(os.environ, MRQ_TRACE="1")
        out = run_bench("--workload", "lstm_uq_train", "--seed", "1",
                        "--trace", "0", "--smoke", env=env)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"metrics"', out.stdout)

    def test_refuses_a_bad_pool_size(self):
        env = dict(os.environ, MRQ_THREADS="0")
        out = run_bench("--workload", "lstm_uq_train", "--seed", "1",
                        "--trace", "0", "--smoke", env=env)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"metrics"', out.stdout)

    def test_fails_without_the_sources(self):
        bare = BUILD / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            out = run_bench("--workload", "lstm_uq_train", "--seed", "1",
                            "--trace", "0", cwd=bare,
                            script=bare / "perfbench" / "run.py")
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"metrics"', out.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
