#!/usr/bin/env python3
"""Schema and sanity checker for bench/wallclock_harness JSON artifacts.

Validates a BENCH_wallclock.json emitted by the wall-clock harness: valid
JSON, the expected top-level keys, and well-formed entries (known executor
names, non-negative seconds, positive speedups, workers consistent with the
run). Optionally gates on performance: --min-speedup S requires that the
best pooled speedup across the sweep reaches S. CI only applies the gate on
multi-core runners — on a single-core host the pool cannot win and the
speedup hovers around 1, which is exactly what the determinism invariant
predicts. Exits non-zero with a message on the first violation.

The preferred performance gate is baseline-relative: --baseline B compares
the artifact against a committed bench/baselines/*.json via bench_diff
(self-normalized relative costs, so baselines survive host changes) and
fails on any entry that regressed beyond --tolerance (default:
$HPU_BENCH_TOLERANCE or 0.5). --min-speedup remains for hosts where a
known absolute floor makes sense, but it is flaky by construction on
shared runners — prefer the baseline gate.

Usage: tools/check_bench.py BENCH_wallclock.json
           [--min-speedup S] [--min-entries N]
           [--baseline B.json] [--tolerance T]
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_diff  # noqa: E402  (sibling tool; shares the comparison core)

EXECUTORS = {"sequential", "multicore", "gpu", "basic", "advanced", "pipelined"}
TOP_KEYS = {"bench", "algo", "platform", "host_concurrency", "entries"}
ENTRY_KEYS = {"size", "executor", "workers", "seconds", "speedup_vs_serial"}


def fail(msg):
    print(f"check_bench: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("artifact", help="BENCH_wallclock.json to check")
    ap.add_argument("--min-speedup", type=float, default=None,
                    help="require the best pooled speedup_vs_serial to "
                         "reach this value (only meaningful on multi-core "
                         "hosts)")
    ap.add_argument("--min-entries", type=int, default=1,
                    help="minimum number of entries required")
    ap.add_argument("--baseline", default=None,
                    help="committed baseline JSON; gates each entry's "
                         "self-normalized cost against it")
    ap.add_argument("--tolerance", type=float, default=None,
                    help="relative slack for the baseline gate (default: "
                         "$HPU_BENCH_TOLERANCE or 0.5)")
    args = ap.parse_args()

    try:
        with open(args.artifact, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot parse {args.artifact}: {e}")

    if not isinstance(doc, dict):
        fail("top level is not a JSON object")
    missing = TOP_KEYS - doc.keys()
    if missing:
        fail(f"missing top-level keys: {sorted(missing)}")
    if doc["bench"] != "wallclock":
        fail(f"bench is '{doc['bench']}', expected 'wallclock'")
    if not isinstance(doc["host_concurrency"], int) or doc["host_concurrency"] < 1:
        fail("host_concurrency is not a positive integer")
    entries = doc["entries"]
    if not isinstance(entries, list):
        fail("entries is not a list")
    if len(entries) < args.min_entries:
        fail(f"only {len(entries)} entries, expected at least {args.min_entries}")

    best = 0.0
    seen_pooled = False
    for i, e in enumerate(entries):
        if not isinstance(e, dict):
            fail(f"entry {i} is not an object")
        missing = ENTRY_KEYS - e.keys()
        if missing:
            fail(f"entry {i} lacks keys: {sorted(missing)}")
        if e["executor"] not in EXECUTORS:
            fail(f"entry {i} has unknown executor '{e['executor']}'")
        if not isinstance(e["size"], int) or e["size"] < 1:
            fail(f"entry {i} has invalid size {e['size']}")
        if not isinstance(e["workers"], int) or e["workers"] < 0:
            fail(f"entry {i} has invalid workers {e['workers']}")
        if not isinstance(e["seconds"], (int, float)) or e["seconds"] < 0:
            fail(f"entry {i} has invalid seconds {e['seconds']}")
        sp = e["speedup_vs_serial"]
        if not isinstance(sp, (int, float)) or sp <= 0:
            fail(f"entry {i} has invalid speedup_vs_serial {sp}")
        if e["workers"] == 0:
            if sp != 1.0:
                fail(f"entry {i} is an inline run (workers=0) but its "
                     f"speedup_vs_serial is {sp}, expected exactly 1.0")
        else:
            seen_pooled = True
            best = max(best, sp)

    if not seen_pooled:
        fail("no pooled (workers > 0) entries in the sweep")
    if args.min_speedup is not None and best < args.min_speedup:
        fail(f"best pooled speedup {best:.2f} < required {args.min_speedup}")

    if args.baseline is not None:
        tolerance = (args.tolerance if args.tolerance is not None
                     else bench_diff.default_tolerance())
        baseline = bench_diff.load(args.baseline)
        rows, regressions, dropped = bench_diff.compare(doc, baseline, tolerance)
        if not rows:
            fail(f"no comparable entries against baseline {args.baseline}")
        for key in dropped:
            print(f"check_bench: note: baseline entry {key} missing from run")
        if regressions:
            bench_diff.print_table(regressions, markdown=False, out=sys.stderr)
            fail(f"{len(regressions)} entries regressed beyond "
                 f"±{tolerance:.0%} vs {args.baseline}")
        print(f"check_bench: baseline OK: {len(rows)} entries within "
              f"±{tolerance:.0%} of {args.baseline}")

    note = f", best pooled speedup {best:.2f}x" if seen_pooled else ""
    print(f"check_bench: OK: {len(entries)} entries on "
          f"{doc['host_concurrency']}-way '{doc['platform']}'{note} "
          f"in {args.artifact}")


if __name__ == "__main__":
    main()
