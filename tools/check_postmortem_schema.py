#!/usr/bin/env python3
"""Validate an mrq post-mortem dump (stdlib only).

Usage: check_postmortem_schema.py [options] FILE

Options:
  --reason R         require header reason R (signal, terminate,
                     hang, usr1)
  --require-flight   require at least one flight event line
  --require-symbol   require at least one symbolized backtrace frame
                     (symbol != "?")

Schema (JSONL, written by src/obs/crash_handler.cpp with raw
write(2) — every line is one complete object):

  line 1    {"type": "postmortem", "version": 1, "reason": str,
             "pid": int, "unix_time": int, "thread": str,
             "git": str, "isa": str, "peak_rss_kb": int, ...}
            reason "signal" additionally carries "signal" (name),
            "signo" (int) and "fault_addr" ("0x..."); reason
            "terminate" may carry "exception_type".
  then      optional {"type": "manifest", ...} (the run manifest),
            optional {"type": "heap", "current_bytes": int,
             "peak_bytes": int, "alloc_count": int,
             "alloc_bytes": int, "free_count": int,
             "free_bytes": int, "samples": int,
             "guard_violations": int} (heap digest, present when
             the replacement operators are linked),
            {"type": "frame", "index": int, "pc": "0x...",
             "symbol": str, "object": str} lines (innermost first),
            {"type": "flight", "slot": int, "thread": str,
             "ns": int, "kind": "mark"|"span"|"metric"|"alert",
             "name": str, "a": int, "b": int, "v": num|null} lines,
  last      {"type": "postmortem_end", "frames": int,
             "flight_events": int}  with counts matching the file.

Exits non-zero on the first violation.
"""

import json
import sys

FLIGHT_KINDS = ("mark", "span", "metric", "alert")
REASONS = ("signal", "terminate", "hang", "usr1")


def fail(path, lineno, message):
    print(f"{path}:{lineno}: {message}", file=sys.stderr)
    sys.exit(1)


def check_int(path, lineno, obj, key):
    v = obj.get(key)
    if not isinstance(v, int) or isinstance(v, bool):
        fail(path, lineno, f"{key} not int: {obj}")
    return v


def check_str(path, lineno, obj, key):
    v = obj.get(key)
    if not isinstance(v, str):
        fail(path, lineno, f"{key} not str: {obj}")
    return v


def check_hex(path, lineno, obj, key):
    v = check_str(path, lineno, obj, key)
    if not v.startswith("0x"):
        fail(path, lineno, f"{key} not hex: {obj}")
    try:
        int(v, 16)
    except ValueError:
        fail(path, lineno, f"{key} not hex: {obj}")
    return v


def main(argv):
    want_reason = None
    require_flight = False
    require_symbol = False
    paths = []
    it = iter(argv[1:])
    for arg in it:
        if arg == "--reason":
            want_reason = next(it, None)
            if want_reason not in REASONS:
                print(f"--reason must be one of {REASONS}",
                      file=sys.stderr)
                return 2
        elif arg == "--require-flight":
            require_flight = True
        elif arg == "--require-symbol":
            require_symbol = True
        elif arg.startswith("-"):
            print(__doc__, file=sys.stderr)
            return 2
        else:
            paths.append(arg)
    if len(paths) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    path = paths[0]

    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines:
        fail(path, 0, "empty file")

    frames = 0
    flights = 0
    symbolized = 0
    end_obj = None
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            fail(path, lineno, "blank line")
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            fail(path, lineno, f"invalid JSON: {e}")
        if end_obj is not None:
            fail(path, lineno, "line after postmortem_end")
        t = check_str(path, lineno, obj, "type")
        if lineno == 1:
            if t != "postmortem":
                fail(path, lineno, f"first line type {t}")
            if check_int(path, lineno, obj, "version") != 1:
                fail(path, lineno, f"unknown version: {obj}")
            reason = check_str(path, lineno, obj, "reason")
            if reason not in REASONS:
                fail(path, lineno, f"unknown reason: {obj}")
            if want_reason is not None and reason != want_reason:
                fail(path, lineno,
                     f"reason {reason}, wanted {want_reason}")
            check_int(path, lineno, obj, "pid")
            check_int(path, lineno, obj, "unix_time")
            check_str(path, lineno, obj, "thread")
            check_str(path, lineno, obj, "git")
            check_str(path, lineno, obj, "isa")
            check_int(path, lineno, obj, "peak_rss_kb")
            if reason == "signal":
                check_str(path, lineno, obj, "signal")
                check_int(path, lineno, obj, "signo")
                check_hex(path, lineno, obj, "fault_addr")
            continue
        if t == "postmortem":
            fail(path, lineno, "duplicate header")
        elif t == "manifest":
            check_str(path, lineno, obj, "run")
        elif t == "heap":
            for key in ("current_bytes", "peak_bytes", "alloc_count",
                        "alloc_bytes", "free_count", "free_bytes",
                        "samples", "guard_violations"):
                check_int(path, lineno, obj, key)
        elif t == "frame":
            check_int(path, lineno, obj, "index")
            check_hex(path, lineno, obj, "pc")
            sym = check_str(path, lineno, obj, "symbol")
            check_str(path, lineno, obj, "object")
            frames += 1
            if sym != "?":
                symbolized += 1
        elif t == "flight":
            check_int(path, lineno, obj, "slot")
            check_str(path, lineno, obj, "thread")
            check_int(path, lineno, obj, "ns")
            if check_str(path, lineno, obj, "kind") not in FLIGHT_KINDS:
                fail(path, lineno, f"unknown flight kind: {obj}")
            check_str(path, lineno, obj, "name")
            check_int(path, lineno, obj, "a")
            check_int(path, lineno, obj, "b")
            v = obj.get("v")
            if v is not None and (not isinstance(v, (int, float))
                                  or isinstance(v, bool)):
                fail(path, lineno, f"v not numeric/null: {obj}")
            flights += 1
        elif t == "postmortem_end":
            if check_int(path, lineno, obj, "frames") != frames:
                fail(path, lineno,
                     f"frames {obj['frames']} != counted {frames}")
            if check_int(path, lineno, obj, "flight_events") != flights:
                fail(path, lineno,
                     f"flight_events {obj['flight_events']} != "
                     f"counted {flights}")
            end_obj = obj
        else:
            fail(path, lineno, f"unknown type {t}")

    if end_obj is None:
        fail(path, len(lines), "missing postmortem_end (truncated?)")
    if require_flight and flights == 0:
        fail(path, len(lines), "no flight events")
    if require_symbol and symbolized == 0:
        fail(path, len(lines), "no symbolized frames")
    print(f"{path}: OK ({frames} frames, {symbolized} symbolized, "
          f"{flights} flight events)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
