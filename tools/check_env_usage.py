#!/usr/bin/env python3
"""Audit environment access and the README knob table (stdlib only).

All MRQ_* knobs flow through the typed helpers in src/obs/env.hpp
(envTruthy / envSet / envValue / envLong) so that the README env-var
table and the runtime agree on parsing rules, and so a future
snapshot-at-startup change has exactly one call site to touch.  A raw
std::getenv anywhere else silently forks the parsing rules — this
audit makes that a test failure instead of a review-time catch.

The same helpers make the knob set greppable, so the audit also holds
the README's "Environment variables" table to the code: every MRQ_*
name passed as a literal to an env.hpp helper under src/ or bench/
must appear in a table row, and every MRQ_* name a row mentions must
be read by such a call.  A removed knob therefore cannot linger in
the docs, and a new one cannot ship undocumented.

Usage: check_env_usage.py [ROOT]

Scans ROOT (default: the repository root containing this script):
*.cpp/*.hpp/*.h/*.cc files under src/, bench/, and tests/ for getenv
or secure_getenv outside src/obs/env.hpp, and README.md's table.
Exit codes: 0 clean, 1 violations found, 2 usage error.
"""

import os
import re
import sys

ALLOWED = {os.path.join("src", "obs", "env.hpp")}
SCAN_DIRS = ("src", "bench", "tests")
KNOB_DIRS = ("src", "bench")
EXTENSIONS = (".cpp", ".hpp", ".h", ".cc")
PATTERN = re.compile(r"\b(?:secure_)?getenv\b")
READ = re.compile(r'\benv(?:Truthy|Set|Value|Long)\(\s*"(MRQ_\w+)"')
KNOB = re.compile(r"\bMRQ_[A-Z0-9_]*[A-Z0-9]\b")
TABLE_HEADING = "### Environment variables"


def scan(root):
    violations = []
    knobs = set()
    files = 0
    for top in SCAN_DIRS:
        base = os.path.join(root, top)
        if not os.path.isdir(base):
            continue
        for dirpath, _dirnames, filenames in os.walk(base):
            for name in sorted(filenames):
                if not name.endswith(EXTENSIONS):
                    continue
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, root)
                files += 1
                with open(path, "r", encoding="utf-8",
                          errors="replace") as handle:
                    text = handle.read()
                if top in KNOB_DIRS:
                    knobs.update(READ.findall(text))
                if rel in ALLOWED:
                    continue
                for lineno, line in enumerate(text.splitlines(), 1):
                    if PATTERN.search(line):
                        violations.append(
                            "%s:%d: raw getenv outside src/obs/env.hpp: "
                            "%s" % (rel, lineno, line.strip()))
    return files, knobs, violations


def documented_knobs(root):
    """Every MRQ_* name in the rows of README.md's env-var table."""
    names = set()
    in_section = False
    with open(os.path.join(root, "README.md"), "r",
              encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("#"):
                in_section = line.strip() == TABLE_HEADING
            elif in_section and line.startswith("|"):
                names.update(KNOB.findall(line))
    return names


def main(argv):
    if len(argv) > 2:
        print(__doc__, file=sys.stderr)
        return 2
    if len(argv) == 2:
        root = argv[1]
    else:
        root = os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))
    files, knobs, violations = scan(root)
    documented = documented_knobs(root)
    for knob in sorted(knobs - documented):
        violations.append("%s is read but has no README env-table row"
                          % knob)
    for knob in sorted(documented - knobs):
        violations.append("README env table names %s, which nothing "
                          "in src/ or bench/ reads" % knob)
    for msg in violations:
        print("check_env_usage: " + msg, file=sys.stderr)
    if violations:
        print("check_env_usage: %d violation(s)" % len(violations),
              file=sys.stderr)
        return 1
    print("check_env_usage: ok (%d files scanned, getenv confined to "
          "src/obs/env.hpp, %d knobs documented)" % (files, len(knobs)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
