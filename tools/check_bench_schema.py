#!/usr/bin/env python3
"""Validate a BENCH_<suite>.json trajectory file (stdlib only).

Usage: check_bench_schema.py FILE [FILE ...]

Schema (versions 1 through 3, written by bench/harness/report.cpp; v2
added the per-case "resources" map — peak RSS, machine-dependent
and therefore noise-gated by
bench_compare.py rather than compared exactly; v3 added the heap keys
alloc_bytes / alloc_count / peak_heap to that same map, present only
when the run had MRQ_HEAPPROF on — absence is never an error):

  {
    "type": "bench", "version": 1 | 2 | 3, "suite": str,
    "manifest": {"type": "manifest", "run": str, "seed": int,
                 "git": str, ...string-valued extras...},
    "cases": [
      {"name": str, "reps": int >= 1, "warmup": int >= 0,
       "failed": bool,
       "wall_ms": {"count": int, "median": num, "mad": num,
                   "min": num, "max": num, "mean": num,
                   "outliers": int},
       "values": {str: num},          # deterministic at fixed tier
       "timing_values": {str: num},   # wall-clock, machine-dependent
       "metrics": {str: num},         # MetricsRegistry snapshot
       "resources": {str: num}},      # v2+: RSS / v3 heap
      ...
    ]
  }

Cases must be sorted by name and names unique.  Exits non-zero on the
first violation.
"""

import json
import sys

WALL_KEYS = {"count", "median", "mad", "min", "max", "mean", "outliers"}


def fail(path, message):
    print(f"{path}: {message}", file=sys.stderr)
    sys.exit(1)


def check_number_map(path, case_name, key, obj):
    if not isinstance(obj, dict):
        fail(path, f"case {case_name}: {key} is not an object")
    for k, v in obj.items():
        if not isinstance(k, str) or not k:
            fail(path, f"case {case_name}: {key} has empty key")
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            fail(path,
                 f"case {case_name}: {key}[{k!r}] not numeric: {v!r}")


def check_case(path, case, version):
    if not isinstance(case, dict):
        fail(path, "case is not an object")
    name = case.get("name")
    if not isinstance(name, str) or not name:
        fail(path, f"case missing name: {case}")
    if not isinstance(case.get("reps"), int) or case["reps"] < 1:
        fail(path, f"case {name}: reps must be int >= 1")
    if not isinstance(case.get("warmup"), int) or case["warmup"] < 0:
        fail(path, f"case {name}: warmup must be int >= 0")
    if not isinstance(case.get("failed"), bool):
        fail(path, f"case {name}: failed must be bool")
    wall = case.get("wall_ms")
    if not isinstance(wall, dict) or set(wall) != WALL_KEYS:
        fail(path, f"case {name}: wall_ms keys must be {sorted(WALL_KEYS)}")
    for k in WALL_KEYS:
        v = wall[k]
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            fail(path, f"case {name}: wall_ms.{k} not numeric: {v!r}")
    if wall["count"] != case["reps"]:
        fail(path, f"case {name}: wall_ms.count != reps")
    if not (wall["min"] <= wall["median"] <= wall["max"]):
        fail(path, f"case {name}: wall_ms median outside [min, max]")
    if not 0 <= wall["outliers"] <= wall["count"]:
        fail(path, f"case {name}: wall_ms.outliers out of range")
    for key in ("values", "timing_values", "metrics"):
        check_number_map(path, name, key, case.get(key))
    if version >= 2:
        check_number_map(path, name, "resources", case.get("resources"))
    elif "resources" in case:
        fail(path, f"case {name}: resources present in a v1 file")
    return name


def check_file(path):
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            fail(path, f"invalid JSON: {e}")
    if not isinstance(doc, dict):
        fail(path, "top level is not an object")
    if doc.get("type") != "bench":
        fail(path, f"type must be 'bench', got {doc.get('type')!r}")
    version = doc.get("version")
    if version not in (1, 2, 3):
        fail(path, f"unsupported version {version!r}")
    if not isinstance(doc.get("suite"), str) or not doc["suite"]:
        fail(path, "missing suite name")

    manifest = doc.get("manifest")
    if not isinstance(manifest, dict):
        fail(path, "missing manifest object")
    if manifest.get("type") != "manifest":
        fail(path, "manifest.type must be 'manifest'")
    if not isinstance(manifest.get("run"), str) or not manifest["run"]:
        fail(path, "manifest missing run name")
    if not isinstance(manifest.get("seed"), int):
        fail(path, "manifest missing integer seed")
    if not isinstance(manifest.get("git"), str):
        fail(path, "manifest missing git describe")

    cases = doc.get("cases")
    if not isinstance(cases, list) or not cases:
        fail(path, "cases must be a non-empty array")
    names = [check_case(path, c, version) for c in cases]
    if names != sorted(names):
        fail(path, "cases are not sorted by name")
    if len(set(names)) != len(names):
        fail(path, "duplicate case names")

    n_values = sum(len(c["values"]) for c in cases)
    n_metrics = sum(len(c["metrics"]) for c in cases)
    print(f"{path}: OK ({len(cases)} cases, {n_values} values, "
          f"{n_metrics} metrics, suite={doc['suite']})")


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    for path in argv[1:]:
        check_file(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
