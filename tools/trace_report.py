#!/usr/bin/env python3
"""Summarize an mrq timeline trace (stdlib only).

Usage: trace_report.py [--top=N] FILE

Sections:
  self time    top-N span paths by self time (total minus time covered
               by nested spans on the same thread track) with call
               counts
  stragglers   per parallel-region "pool.chunk" spread: how much the
               slowest chunk exceeds the median (Sec. 7.4's straggler
               headroom, observed instead of simulated)
  alerts       watchdog instant-event digest grouped by rule

All times come from the trace's microsecond timestamps; the report is
wall-clock and therefore not expected to be identical across runs.
"""

import json
import sys
from collections import defaultdict


def load_events(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    events = doc.get("traceEvents", [])
    meta = doc.get("otherData", {})
    return events, meta


def fmt_us(us):
    if us >= 1e6:
        return f"{us / 1e6:.3f}s"
    if us >= 1e3:
        return f"{us / 1e3:.3f}ms"
    return f"{us:.1f}us"


def self_times(events):
    """Per-path total/self/count via an interval sweep per thread."""
    spans = defaultdict(list)  # tid -> [(ts, end, path)]
    for ev in events:
        if ev.get("ph") == "X":
            ts = float(ev["ts"])
            spans[ev.get("tid", 0)].append(
                (ts, ts + float(ev["dur"]), ev["args"]["path"]))

    total = defaultdict(float)
    self = defaultdict(float)
    count = defaultdict(int)
    for tid_spans in spans.values():
        # Sort by start, longest first on ties, so parents precede
        # their children; a stack then attributes nested time.
        tid_spans.sort(key=lambda s: (s[0], -(s[1] - s[0])))
        stack = []  # [(end, path)]
        for ts, end, path in tid_spans:
            total[path] += end - ts
            self[path] += end - ts
            count[path] += 1
            while stack and stack[-1][0] <= ts:
                stack.pop()
            if stack:
                # Child time is not the parent's self time.
                self[stack[-1][1]] -= min(end, stack[-1][0]) - ts
            stack.append((end, path))
    return total, self, count


def straggler_chunks(events):
    """Group pool.chunk spans into regions by parent path and overlap."""
    chunks = defaultdict(list)  # parent path -> [(ts, dur)]
    for ev in events:
        if ev.get("ph") != "X" or ev.get("name") != "pool.chunk":
            continue
        parent = ev["args"]["path"].rsplit("/pool.chunk", 1)[0]
        chunks[parent].append((float(ev["ts"]), float(ev["dur"])))

    rows = []
    for parent, items in chunks.items():
        durs = sorted(d for _, d in items)
        if not durs:
            continue
        median = durs[len(durs) // 2]
        worst = durs[-1]
        spread = worst / median if median > 0 else float("inf")
        rows.append((spread, parent, len(items), median, worst))
    rows.sort(reverse=True)
    return rows


def alert_digest(events):
    by_rule = defaultdict(list)
    for ev in events:
        if ev.get("ph") == "i" and ev.get("cat") == "alert":
            rule = ev["name"].split(":", 1)[-1]
            by_rule[rule].append(ev.get("args", {}).get("detail", ""))
    return by_rule


def main(argv):
    top = 15
    paths = []
    for arg in argv[1:]:
        if arg.startswith("--top="):
            top = int(arg[6:])
        else:
            paths.append(arg)
    if len(paths) != 1:
        print(__doc__, file=sys.stderr)
        return 2

    events, meta = load_events(paths[0])
    total, self, count = self_times(events)
    print(f"{paths[0]}: {sum(count.values())} spans, "
          f"{meta.get('threads', '?')} thread(s), "
          f"{meta.get('droppedEvents', '?')} dropped")

    print(f"\ntop {top} span paths by self time:")
    print(f"  {'self':>12} {'total':>12} {'count':>8}  path")
    ranked = sorted(self.items(), key=lambda kv: -kv[1])[:top]
    for path, self_us in ranked:
        print(f"  {fmt_us(self_us):>12} {fmt_us(total[path]):>12} "
              f"{count[path]:>8}  {path}")

    rows = straggler_chunks(events)
    if rows:
        print("\nstraggler chunks (worst / median duration per region):")
        print(f"  {'spread':>8} {'chunks':>7} {'median':>10} "
              f"{'worst':>10}  region")
        for spread, parent, n, median, worst in rows[:top]:
            print(f"  {spread:>7.2f}x {n:>7} {fmt_us(median):>10} "
                  f"{fmt_us(worst):>10}  {parent or '(root)'}")

    alerts = alert_digest(events)
    if alerts:
        print("\nwatchdog alerts:")
        for rule in sorted(alerts):
            details = alerts[rule]
            print(f"  {rule} x{len(details)}")
            for d in details[:5]:
                print(f"    {d}")
            if len(details) > 5:
                print(f"    ... {len(details) - 5} more")
    else:
        print("\nno watchdog alerts on the timeline")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
