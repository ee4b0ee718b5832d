#!/usr/bin/env python3
"""Persisted bench trajectory for bench/wallclock_harness artifacts.

Where bench_diff.py answers "did THIS run regress against ONE committed
baseline", this tool keeps the whole trajectory: every CI run appends its
host-normalized sweep to bench/history.jsonl keyed by git SHA, and the
report subcommand turns the accumulated file into BENCH_trajectory.json
plus a markdown trend table for $GITHUB_STEP_SUMMARY.

Raw seconds are not comparable across CI hosts, so each run is normalized
by bench_diff.py's normalizer: every entry's time is divided by that run's
own sequential-inline time at the same size, and an artifact whose rows
share a key (two algorithms at one size) is refused. Only the
dimensionless relative cost is persisted — the trajectory stays meaningful
even when the runner hardware changes between commits.

Usage:
  tools/bench_history.py append BENCH_wallclock.json \
      --history bench/history.jsonl --sha <git-sha> [--label msg]
      [--max-entries N]
      # idempotent: re-appending the same SHA replaces the old record;
      # --max-entries prunes the file to the newest N records afterwards
  tools/bench_history.py report \
      --history bench/history.jsonl [--out BENCH_trajectory.json]
      [--markdown] [--last N]
  tools/bench_history.py --self-test

Exit codes: 0 ok / self-test pass, 2 bad input.
"""

import argparse
import contextlib
import io
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_diff  # noqa: E402  (sibling tool; owns the per-size normalizer)

SEQ = bench_diff.SEQ


def fail(msg, code=2):
    print(f"bench_history: FAIL: {msg}", file=sys.stderr)
    sys.exit(code)


def load_json(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot parse {path}: {e}")


def normalized(doc):
    """{"size/executor/mode": seconds / seq_inline_seconds(size)}, by
    bench_diff's normalizer, without the normalizer rows themselves."""
    return {bench_diff.key_name(key): rel
            for key, rel in bench_diff.normalized(doc, "artifact").items()
            if key[1:] != (SEQ, False)}


def make_record(doc, sha, label=""):
    rec = {
        "sha": sha,
        "platform": doc.get("platform", "?"),
        "host_concurrency": doc.get("host_concurrency", 0),
        "entries": normalized(doc),
    }
    if label:
        rec["label"] = label
    if not rec["entries"]:
        fail("bench artifact produced no normalizable entries")
    return rec


def read_history(path):
    records = []
    if not os.path.exists(path):
        return records
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as e:
                fail(f"{path}:{lineno}: corrupt history line: {e}")
    return records


def write_history(path, records):
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(json.dumps(rec, sort_keys=True) + "\n")
    os.replace(tmp, path)


def append(history_path, doc, sha, label="", max_entries=0):
    """Appends (or replaces, for a re-run of the same SHA) one record.
    max_entries > 0 prunes the file to the newest N records afterwards so
    a long-lived trajectory never grows without bound."""
    records = [r for r in read_history(history_path) if r.get("sha") != sha]
    records.append(make_record(doc, sha, label))
    if max_entries > 0:
        records = records[-max_entries:]
    write_history(history_path, records)
    return records


def trajectory(records):
    """Pivots history records into {key: [{"sha":…, "rel":…}, …]}."""
    series = {}
    for rec in records:
        for key, rel in rec.get("entries", {}).items():
            series.setdefault(key, []).append({"sha": rec["sha"], "rel": rel})
    return {
        "bench": "wallclock",
        "runs": len(records),
        "series": {k: series[k] for k in sorted(series)},
    }


def trend_rows(records, last):
    """One row per series: first, previous, current rel cost + ratios."""
    traj = trajectory(records)
    rows = []
    for key, points in traj["series"].items():
        pts = points[-last:] if last else points
        cur = pts[-1]["rel"]
        first = pts[0]["rel"]
        prev = pts[-2]["rel"] if len(pts) > 1 else cur
        rows.append({
            "series": key,
            "runs": len(pts),
            "first": first,
            "prev": prev,
            "current": cur,
            "vs_prev": cur / prev if prev > 0 else 1.0,
            "vs_first": cur / first if first > 0 else 1.0,
        })
    return rows


def print_trend(rows, markdown, out=sys.stdout):
    headers = ["series", "runs", "first", "prev", "current", "vs prev", "vs first"]
    table = [
        [r["series"], str(r["runs"]), f"{r['first']:.3f}", f"{r['prev']:.3f}",
         f"{r['current']:.3f}", f"{r['vs_prev']:.2f}x", f"{r['vs_first']:.2f}x"]
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


def make_doc(entries):
    return {"bench": "wallclock", "algo": "mergesort_coalesced", "platform": "HPU1",
            "host_concurrency": 4, "entries": entries}


def self_test():
    import tempfile

    def entry(size, executor, workers, seconds):
        return {"size": size, "executor": executor, "workers": workers,
                "seconds": seconds, "speedup_vs_serial": 1.0}

    doc_a = make_doc([
        entry(1024, "sequential", 0, 1.0), entry(1024, "advanced", 0, 0.8),
        entry(1024, "advanced", 3, 0.4),
    ])
    # Same shape on a 2x slower host: identical normalized record.
    doc_b = make_doc([
        entry(1024, "sequential", 0, 2.0), entry(1024, "advanced", 0, 1.6),
        entry(1024, "advanced", 3, 0.9),  # pooled drifted 0.4 -> 0.45
    ])

    rec = make_record(doc_a, "sha-a")
    assert abs(rec["entries"]["1024/advanced/inline"] - 0.8) < 1e-12, rec
    assert abs(rec["entries"]["1024/advanced/pooled"] - 0.4) < 1e-12, rec
    assert "1024/sequential/inline" not in rec["entries"], rec

    # Quickhull rows at a mergesort sweep size collide with its rows: a
    # hard error naming the key, not a silently merged record.
    colliding = make_doc(doc_a["entries"] + [
        entry(1024, "sequential", 0, 3.0), entry(1024, "advanced", 3, 2.4),
    ])
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            make_record(colliding, "sha-x")
    except SystemExit:
        pass
    else:
        raise AssertionError("colliding rows not rejected")
    assert "1024/sequential/inline" in err.getvalue(), err.getvalue()

    with tempfile.TemporaryDirectory() as tmp:
        hist = os.path.join(tmp, "history.jsonl")
        append(hist, doc_a, "sha-a")
        append(hist, doc_b, "sha-b")
        records = read_history(hist)
        assert [r["sha"] for r in records] == ["sha-a", "sha-b"], records

        # Re-appending sha-b (a CI re-run) replaces, never duplicates.
        append(hist, doc_b, "sha-b")
        records = read_history(hist)
        assert [r["sha"] for r in records] == ["sha-a", "sha-b"], records

        traj = trajectory(records)
        assert traj["runs"] == 2, traj
        pooled = traj["series"]["1024/advanced/pooled"]
        assert [p["sha"] for p in pooled] == ["sha-a", "sha-b"], pooled
        assert abs(pooled[-1]["rel"] - 0.45) < 1e-12, pooled

        rows = trend_rows(records, last=0)
        pooled_row = next(r for r in rows if r["series"] == "1024/advanced/pooled")
        assert abs(pooled_row["vs_prev"] - 0.45 / 0.4) < 1e-12, pooled_row
        inline_row = next(r for r in rows if r["series"] == "1024/advanced/inline")
        assert abs(inline_row["vs_prev"] - 1.0) < 1e-12, inline_row

        out = io.StringIO()
        print_trend(rows, markdown=True, out=out)
        assert "| series |" in out.getvalue(), out.getvalue()

        # --max-entries prunes from the front, keeping the newest runs.
        append(hist, doc_a, "sha-c", max_entries=2)
        records = read_history(hist)
        assert [r["sha"] for r in records] == ["sha-b", "sha-c"], records
        append(hist, doc_b, "sha-b", max_entries=2)  # replace + prune
        records = read_history(hist)
        assert [r["sha"] for r in records] == ["sha-c", "sha-b"], records

        # A corrupt line is a hard error, not silent data loss.
        with open(hist, "a", encoding="utf-8") as f:
            f.write("{nope\n")
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                read_history(hist)
        except SystemExit:
            pass
        else:
            raise AssertionError("corrupt history line not rejected")

    print("bench_history: self-test OK")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("command", nargs="?", choices=["append", "report"],
                    help="append a run to the history, or report the trajectory")
    ap.add_argument("artifact", nargs="?",
                    help="BENCH_wallclock.json produced by the harness (append)")
    ap.add_argument("--history", default="bench/history.jsonl",
                    help="history file, one JSON record per line")
    ap.add_argument("--sha", help="git commit SHA keying this run (append)")
    ap.add_argument("--label", default="", help="free-form note stored with the run")
    ap.add_argument("--max-entries", type=int, default=0,
                    help="after appending, keep only the newest N records "
                         "(append; 0 = never prune)")
    ap.add_argument("--out", help="write BENCH_trajectory.json here (report)")
    ap.add_argument("--markdown", action="store_true",
                    help="emit the trend table as GitHub markdown (report)")
    ap.add_argument("--last", type=int, default=0,
                    help="limit the trend to the last N runs per series (report)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the built-in fixture checks and exit")
    args = ap.parse_args()

    if args.self_test:
        self_test()
        return
    if args.command == "append":
        if not args.artifact or not args.sha:
            fail("append needs BENCH_wallclock.json and --sha")
        records = append(args.history, load_json(args.artifact), args.sha, args.label,
                         args.max_entries)
        print(f"bench_history: appended {args.sha} "
              f"({len(records)} run(s) in {args.history})")
    elif args.command == "report":
        records = read_history(args.history)
        if not records:
            fail(f"no history in {args.history}")
        if args.out:
            with open(args.out, "w", encoding="utf-8") as f:
                json.dump(trajectory(records), f, indent=1, sort_keys=True)
                f.write("\n")
            print(f"bench_history: wrote {args.out}", file=sys.stderr)
        print_trend(trend_rows(records, args.last), args.markdown)
    else:
        fail("need a command: append or report (or --self-test)")


if __name__ == "__main__":
    main()
