#!/usr/bin/env python3
"""Google-benchmark JSON (--benchmark_out_format=json) as a markdown table.

One row per median aggregate (run the benchmarks with repetitions). The run
name's path arguments become the leading columns, named by --args
(BM_CoalescedRun/gpu/0/real_time with --args executor,workers gives
executor = gpu, workers = 0); then the real time per iteration in the unit
the benchmark reports, and nanoseconds per processed item (from
items_per_second; "-" when the benchmark set none).

Usage: tools/bench_table.py BENCH.json [--filter REGEX] [--args a,b]
       tools/bench_table.py --self-test
Exit codes: 0 ok, 1 no benchmark matched, 2 bad input.
"""

import argparse
import json
import re
import sys

# Run-name components google-benchmark appends for its own options.
OPTION_PARTS = ("real_time", "process_time", "manual_time")


def path_args(run_name):
    """The argument components of a run name, without the benchmark name or
    option suffixes (real_time, repeats:3, threads:1, ...)."""
    return [p for p in run_name.split("/")[1:] if p not in OPTION_PARTS and ":" not in p]


def medians(doc, pattern):
    """The median aggregates whose run name matches `pattern`, in file order."""
    return [b for b in doc.get("benchmarks", [])
            if b.get("aggregate_name") == "median" and re.search(pattern, b["run_name"])]


def table(doc, pattern="", args=()):
    """Markdown lines for the benchmarks of `doc` matching `pattern`; no
    rows when none matches."""
    rows = medians(doc, pattern)
    units = {b["time_unit"] for b in rows}
    if len(units) > 1:
        raise ValueError(f"the matching benchmarks mix time units {sorted(units)}")
    unit = units.pop() if units else "ns"
    header = list(args) + [f"{unit} per iteration", "ns per item"]
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    for b in rows:
        values = path_args(b["run_name"])
        if len(values) != len(args):
            raise ValueError(f"{b['run_name']}: {len(values)} path arguments, "
                             f"--args names {len(args)}")
        ips = b.get("items_per_second")
        cells = values + [f"{b['real_time']:.2f}", f"{1e9 / ips:.2f}" if ips else "-"]
        lines.append("| " + " | ".join(cells) + " |")
    return lines


FIXTURE = {
    "benchmarks": [
        {"name": "BM_CoalescedRun/gpu/0/real_time_median",
         "run_name": "BM_CoalescedRun/gpu/0/real_time", "run_type": "aggregate",
         "aggregate_name": "median", "real_time": 50.0, "time_unit": "ms",
         "items_per_second": 2e7},
        {"name": "BM_CoalescedRun/gpu/0/real_time_mean",
         "run_name": "BM_CoalescedRun/gpu/0/real_time", "run_type": "aggregate",
         "aggregate_name": "mean", "real_time": 55.0, "time_unit": "ms"},
        {"name": "BM_CoalescedRun/basic/3/real_time_median",
         "run_name": "BM_CoalescedRun/basic/3/real_time", "run_type": "aggregate",
         "aggregate_name": "median", "real_time": 25.0, "time_unit": "ms",
         "items_per_second": 4e7},
        {"name": "BM_PoolBatch/16/3/real_time_median", "run_name": "BM_PoolBatch/16/3/real_time",
         "run_type": "aggregate", "aggregate_name": "median", "real_time": 5900.0,
         "time_unit": "ns"},
    ],
}


def self_test():
    got = table(FIXTURE, "^BM_CoalescedRun/", ("executor", "workers"))
    want = [
        "| executor | workers | ms per iteration | ns per item |",
        "|---|---|---|---|",
        "| gpu | 0 | 50.00 | 50.00 |",
        "| basic | 3 | 25.00 | 25.00 |",
    ]
    assert got == want, f"median table:\n{got}"
    # The time column is in the benchmark's own unit; no items_per_second
    # reads "-".
    got = table(FIXTURE, "^BM_PoolBatch/", ("items", "workers"))
    assert got[0] == "| items | workers | ns per iteration | ns per item |", got
    assert got[2:] == ["| 16 | 3 | 5900.00 | - |"], got
    assert path_args("BM_PoolBatch/64/3/repeats:3/real_time") == ["64", "3"]
    # Path arguments that --args does not name, and a table that mixes time
    # units, are bad input.
    for pattern, names in (("^BM_CoalescedRun/", ("executor",)), ("", ("a", "b"))):
        try:
            table(FIXTURE, pattern, names)
        except ValueError:
            pass
        else:
            raise AssertionError(f"table({pattern!r}, {names}) passed")
    assert table(FIXTURE, "^BM_Missing")[2:] == []
    print("bench_table: self-test OK")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("file", nargs="?", help="google-benchmark JSON output")
    ap.add_argument("--filter", default="", help="regex the run names must match")
    ap.add_argument("--args", default="", help="comma-separated names of the path arguments")
    ap.add_argument("--self-test", action="store_true",
                    help="run the built-in fixture checks and exit")
    args = ap.parse_args()

    if args.self_test:
        self_test()
        return
    if not args.file:
        print("bench_table: FAIL: need a file (or --self-test)", file=sys.stderr)
        sys.exit(2)
    try:
        with open(args.file, encoding="utf-8") as f:
            doc = json.load(f)
        names = tuple(a for a in args.args.split(",") if a)
        lines = table(doc, args.filter, names)
    except (OSError, ValueError, KeyError) as e:
        print(f"bench_table: FAIL: {args.file}: {e}", file=sys.stderr)
        sys.exit(2)
    if len(lines) == 2:
        print(f"bench_table: FAIL: no median aggregate in {args.file} matches "
              f"{args.filter!r}", file=sys.stderr)
        sys.exit(1)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
