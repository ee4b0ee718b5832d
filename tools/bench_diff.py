#!/usr/bin/env python3
"""Baseline-relative trend check for bench/wallclock_harness artifacts.

Compares a freshly produced BENCH_wallclock.json against a committed
baseline (bench/baselines/*.json) and prints a trend table. Raw seconds are
not comparable across hosts, so both runs are first normalized: every
entry's time is divided by that run's own sequential-inline time at the
same size. The dimensionless relative cost is what gets compared —

    ratio = rel_current / rel_baseline

A ratio above 1 + tolerance is a regression and the script exits non-zero.
This replaces the old fixed `--min-speedup` gate, which was flaky by
construction: an absolute speedup threshold encodes assumptions about the
runner's core count and load that no tolerance can absorb, while a
self-normalized ratio only moves when the *shape* of the sweep moves.

Usage:
  tools/bench_diff.py CURRENT.json --baseline BASELINE.json
      [--tolerance T]       relative slack, e.g. 0.5 allows +50%
                            (default: $HPU_BENCH_TOLERANCE or 0.5)
      [--markdown]          emit the trend table as GitHub markdown
  tools/bench_diff.py --self-test

Exit codes: 0 ok / self-test pass, 1 regression found, 2 bad input.
"""

import argparse
import contextlib
import io
import json
import os
import sys

SEQ = "sequential"


def fail(msg, code=2):
    print(f"bench_diff: FAIL: {msg}", file=sys.stderr)
    sys.exit(code)


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot parse {path}: {e}")


def key_name(key):
    """"size/executor/mode" of a normalized key."""
    size, executor, pooled = key
    return f"{size}/{executor}/{'pooled' if pooled else 'inline'}"


def normalized(doc, label):
    """{(size, executor, pooled): seconds / seq_inline_seconds(size)}.

    Entries are keyed by the pooled/inline class, not the worker count, so
    baselines recorded on a different host shape still line up. Two rows
    sharing one key (e.g. quickhull rows at a mergesort sweep size) would
    be normalized against one another, so they fail naming the key.
    """
    seen = set()
    for e in doc.get("entries", []):
        key = (e["size"], e["executor"], e["workers"] > 0)
        if key in seen:
            fail(f"{label}: two entries share the key {key_name(key)}")
        seen.add(key)
    seq = {}
    for e in doc.get("entries", []):
        if e["executor"] == SEQ and e["workers"] == 0:
            seq[e["size"]] = e["seconds"]
    rel = {}
    for e in doc.get("entries", []):
        base = seq.get(e["size"])
        if base is None:
            fail(f"{label}: no sequential inline entry at size {e['size']}")
        if base <= 0:
            # Degenerate timer resolution; skip rather than divide by zero.
            continue
        rel[(e["size"], e["executor"], e["workers"] > 0)] = e["seconds"] / base
    return rel


def compare(current_doc, baseline_doc, tolerance):
    """Returns (rows, regressions). Each row is a dict for the table."""
    cur = normalized(current_doc, "current")
    base = normalized(baseline_doc, "baseline")
    rows, regressions = [], []
    for key in sorted(cur.keys() & base.keys()):
        size, executor, pooled = key
        ratio = cur[key] / base[key] if base[key] > 0 else 1.0
        # The sequential-inline rows are the normalizer (ratio 1 by
        # definition); keep them out of the table noise.
        if executor == SEQ and not pooled:
            continue
        verdict = "ok"
        if ratio > 1.0 + tolerance:
            verdict = "REGRESSION"
        elif ratio < 1.0 - tolerance:
            verdict = "improved"
        row = {
            "size": size,
            "executor": executor,
            "mode": "pooled" if pooled else "inline",
            "baseline_rel": base[key],
            "current_rel": cur[key],
            "ratio": ratio,
            "verdict": verdict,
        }
        rows.append(row)
        if verdict == "REGRESSION":
            regressions.append(row)
    missing = base.keys() - cur.keys()
    dropped = [k for k in missing if not (k[1] == SEQ and not k[2])]
    return rows, regressions, dropped


def print_table(rows, markdown, out=sys.stdout):
    headers = ["size", "executor", "mode", "baseline", "current", "ratio", "verdict"]
    table = [
        [str(r["size"]), r["executor"], r["mode"], f"{r['baseline_rel']:.3f}",
         f"{r['current_rel']:.3f}", f"{r['ratio']:.2f}x", r["verdict"]]
        for r in rows
    ]
    if markdown:
        print("| " + " | ".join(headers) + " |", file=out)
        print("|" + "|".join("---" for _ in headers) + "|", file=out)
        for row in table:
            print("| " + " | ".join(row) + " |", file=out)
        return
    widths = [max(len(h), *(len(row[i]) for row in table)) if table else len(h)
              for i, h in enumerate(headers)]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)), file=out)
    for row in table:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)), file=out)


def default_tolerance():
    env = os.environ.get("HPU_BENCH_TOLERANCE")
    if env is None:
        return 0.5
    try:
        return float(env)
    except ValueError:
        fail(f"HPU_BENCH_TOLERANCE is not a number: {env!r}")


def make_doc(entries):
    return {"bench": "wallclock", "algo": "mergesort_coalesced", "platform": "HPU1",
            "host_concurrency": 4, "entries": entries}


def self_test():
    def entry(size, executor, workers, seconds):
        return {"size": size, "executor": executor, "workers": workers,
                "seconds": seconds, "speedup_vs_serial": 1.0}

    baseline = make_doc([
        entry(1024, "sequential", 0, 1.0), entry(1024, "advanced", 0, 0.8),
        entry(1024, "advanced", 3, 0.4),
    ])
    # Same shape, different host speed (everything 2x slower): no drift.
    same = make_doc([
        entry(1024, "sequential", 0, 2.0), entry(1024, "advanced", 0, 1.6),
        entry(1024, "advanced", 3, 0.8),
    ])
    rows, regs, dropped = compare(same, baseline, 0.25)
    assert not regs and not dropped, f"clean run flagged: {regs} {dropped}"
    assert all(r["verdict"] == "ok" for r in rows), rows

    # Pooled advanced 2x slower relative to its own sequential: regression.
    slow = make_doc([
        entry(1024, "sequential", 0, 1.0), entry(1024, "advanced", 0, 0.8),
        entry(1024, "advanced", 3, 0.8),
    ])
    rows, regs, _ = compare(slow, baseline, 0.25)
    assert len(regs) == 1 and regs[0]["executor"] == "advanced", regs
    assert regs[0]["mode"] == "pooled", regs

    # A 2x improvement is reported but never fails the gate.
    fast = make_doc([
        entry(1024, "sequential", 0, 1.0), entry(1024, "advanced", 0, 0.8),
        entry(1024, "advanced", 3, 0.2),
    ])
    rows, regs, _ = compare(fast, baseline, 0.25)
    assert not regs, regs
    assert any(r["verdict"] == "improved" for r in rows), rows

    # An entry that vanished from the sweep is surfaced.
    _, _, dropped = compare(make_doc([entry(1024, "sequential", 0, 1.0)]),
                            baseline, 0.25)
    assert dropped, "dropped entries not detected"

    # Two algorithms' rows at one size collide: a hard error naming the key.
    colliding = make_doc(baseline["entries"] + [
        entry(1024, "sequential", 0, 3.0), entry(1024, "advanced", 3, 0.5),
    ])
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            normalized(colliding, "current")
    except SystemExit:
        pass
    else:
        raise AssertionError("colliding rows not rejected")
    assert "1024/sequential/inline" in err.getvalue(), err.getvalue()

    print("bench_diff: self-test OK")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("current", nargs="?", help="fresh BENCH_wallclock.json")
    ap.add_argument("--baseline", help="committed baseline JSON to compare against")
    ap.add_argument("--tolerance", type=float, default=None,
                    help="relative slack before a ratio counts as a regression "
                         "(default: $HPU_BENCH_TOLERANCE or 0.5)")
    ap.add_argument("--markdown", action="store_true",
                    help="emit the trend table as GitHub markdown")
    ap.add_argument("--self-test", action="store_true",
                    help="run the built-in fixture checks and exit")
    args = ap.parse_args()

    if args.self_test:
        self_test()
        return
    if not args.current or not args.baseline:
        fail("need CURRENT.json and --baseline BASELINE.json (or --self-test)")

    tolerance = args.tolerance if args.tolerance is not None else default_tolerance()
    if tolerance < 0:
        fail(f"tolerance must be non-negative, got {tolerance}")
    rows, regressions, dropped = compare(load(args.current), load(args.baseline),
                                         tolerance)
    if not rows:
        fail("no comparable entries between current and baseline")
    print_table(rows, args.markdown)
    for key in dropped:
        print(f"bench_diff: note: baseline entry {key} missing from current run")
    if regressions:
        print(f"bench_diff: FAIL: {len(regressions)} regression(s) beyond "
              f"±{tolerance:.0%} vs baseline", file=sys.stderr)
        sys.exit(1)
    print(f"bench_diff: OK: {len(rows)} entries within ±{tolerance:.0%} of baseline")


if __name__ == "__main__":
    main()
