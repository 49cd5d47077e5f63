#!/usr/bin/env python3
"""Human-readable report over an mrq post-mortem dump (stdlib only).

Usage: mrq_postmortem.py FILE [--tail N]

Sections: crash summary (reason/signal/thread/peak RSS), run
manifest, symbolized backtrace, and the last N
flight-recorder events per thread with times relative to the newest
event (the crash instant, near enough).

The dump is produced by src/obs/crash_handler.cpp; validate it first
with check_postmortem_schema.py if in doubt.  C++ symbols are left
mangled by the writer (the demangler is not async-signal-safe); this
report demangles when the interpreter can shell out to c++filt, and
falls back to the mangled name.
"""

import json
import shutil
import subprocess
import sys


def load(path):
    header = None
    manifest = None
    frames = []
    flights = []
    end = None
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                continue  # Salvage what parses: dumps may truncate.
            t = obj.get("type")
            if t == "postmortem":
                header = obj
            elif t == "manifest":
                manifest = obj
            elif t == "frame":
                frames.append(obj)
            elif t == "flight":
                flights.append(obj)
            elif t == "postmortem_end":
                end = obj
    return header, manifest, frames, flights, end


def demangler():
    path = shutil.which("c++filt")
    if path is None:
        return lambda s: s

    def run(sym):
        try:
            out = subprocess.run([path, sym], capture_output=True,
                                 text=True, timeout=5)
            pretty = out.stdout.strip()
            return pretty if out.returncode == 0 and pretty else sym
        except (OSError, subprocess.SubprocessError):
            return sym

    return run


def fmt_ms(delta_ns):
    return f"{delta_ns / 1e6:+.3f}ms"


def main(argv):
    tail = 12
    paths = []
    it = iter(argv[1:])
    for arg in it:
        if arg == "--tail":
            tail = int(next(it, "12"))
        else:
            paths.append(arg)
    if len(paths) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    path = paths[0]
    header, manifest, frames, flights, end = load(path)
    if header is None:
        print(f"{path}: no postmortem header found", file=sys.stderr)
        return 1

    print("==== mrq post-mortem ====")
    reason = header.get("reason", "?")
    line = f"reason: {reason}"
    if "signal" in header:
        line += (f"  signal: {header['signal']} "
                 f"({header.get('signo', '?')})"
                 f"  fault_addr: {header.get('fault_addr', '?')}")
    if "exception_type" in header:
        line += f"  exception: {header['exception_type']}"
    print(line)
    print(f"pid: {header.get('pid', '?')}"
          f"  thread: {header.get('thread', '?')}"
          f"  peak_rss_kb: {header.get('peak_rss_kb', '?')}")
    print(f"git: {header.get('git', '?')}"
          f"  isa: {header.get('isa', '?')}"
          f"  unix_time: {header.get('unix_time', '?')}")
    if end is None:
        print("WARNING: no postmortem_end line — dump is truncated")

    if manifest is not None:
        print("\n---- run manifest ----")
        for k, v in manifest.items():
            if k != "type":
                print(f"  {k}: {v}")

    if frames:
        print("\n---- backtrace (innermost first) ----")
        dem = demangler()
        for fr in frames:
            sym = fr.get("symbol", "?")
            pretty = dem(sym) if sym != "?" else "?"
            obj = fr.get("object", "?")
            print(f"  #{fr.get('index', '?'):>2} {fr.get('pc', '?')} "
                  f"{pretty}  ({obj})")

    if flights:
        newest = max(ev.get("ns", 0) for ev in flights)
        by_thread = {}
        for ev in flights:
            key = (ev.get("slot"), ev.get("thread") or "unnamed")
            by_thread.setdefault(key, []).append(ev)
        print("\n---- flight recorder (last events per thread) ----")
        for (slot, thread), events in sorted(by_thread.items()):
            events.sort(key=lambda e: e.get("ns", 0))
            shown = events[-tail:]
            print(f"  [{thread} / slot {slot}] "
                  f"{len(events)} events, showing {len(shown)}:")
            for ev in shown:
                delta = fmt_ms(ev.get("ns", newest) - newest)
                extra = ""
                kind = ev.get("kind", "?")
                if kind == "metric":
                    extra = f" step={ev.get('a')} value={ev.get('v')}"
                elif kind == "span":
                    v = ev.get("v") or 0
                    extra = f" arg={ev.get('a')} dur={v / 1e6:.3f}ms"
                elif ev.get("a", -1) != -1:
                    extra = f" a={ev.get('a')}"
                print(f"    {delta:>12} {kind:<6} "
                      f"{ev.get('name', '?')}{extra}")
    else:
        print("\n(no flight events in dump)")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv))
    except BrokenPipeError:
        # Reader (e.g. `| head`) went away; not an error.
        sys.exit(0)
