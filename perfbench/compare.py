#!/usr/bin/env python3
"""Compare two benchmark result files.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the records perfbench/run.py appends to
.bench_results/results.jsonl, one JSON object a line, any number of runs
of any workloads.  For every workload and metric present in both files
this prints each side's median and quartiles over its runs and the
relative change of the median.  It judges end-to-end metrics against
their bounds in BENCHMARK.json:

  worse     the median got worse by more than the bound
  better    the median got better by more than the bound
  ok        the median moved by no more than the bound
  unresolved  one side's spread (quartile distance over median) is wider
            than the bound, so neither a change nor its absence can be
            told

A wide spread is still judged when the runs do not overlap: `better` or
`ok` when every new run reads better than every base run, `worse` when
every new run reads worse and the median got worse by more than the
bound.  Per-layer metrics have no bound and are printed without a
verdict.

A record whose run was not correct (correct false, or failed rows) is
reported as a failure, whatever its metrics.  Exits 1 when any metric is
worse or any record failed, else 0.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    """((workload, metric) -> list of values, list of failed records)."""
    runs = defaultdict(list)
    failures = []
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        workload = record["meta"]["workload"]
        if not record["correct"] or record["failed"]:
            failures.append(f"{path}: {workload} seed "
                            f"{record['meta']['seed']} trace "
                            f"{record['trace']}: correct "
                            f"{record['correct']}, failed {record['failed']}")
        for name, metric in record["metrics"].items():
            runs[(workload, name)].append(metric["value"])
    return runs, failures


def summary(values):
    """(q1, median, q3); with one value all three are that value."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(q1, median, q3):
    return (q3 - q1) / abs(median) if median else float("inf")


def verdict(metric, base_values, new_values):
    """The verdict for an end-to-end metric, or '' for a per-layer one."""
    if metric is None:
        return ""
    base = summary(base_values)
    new = summary(new_values)
    bound = metric["bound"]
    if base[1] == 0:
        return "ok" if new[1] == 0 else "unresolved"
    change = (new[1] - base[1]) / abs(base[1])
    sign = 1 if metric["better"] == "lower" else -1
    worse = sign * change
    if max(spread(*base), spread(*new)) > bound:
        # Every new run better (or worse) than every base run.
        if sign * max(new_values) < sign * min(base_values):
            return "better" if -worse > bound else "ok"
        if sign * min(new_values) > sign * max(base_values) and worse > bound:
            return "worse"
        return "unresolved"
    if abs(worse) <= bound:
        return "ok"
    return "worse" if worse > 0 else "better"


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    base, base_failures = load(argv[1])
    new, new_failures = load(argv[2])
    keys = sorted(set(base) & set(new))
    if not keys:
        print("no workload and metric in common", file=sys.stderr)
        return 2
    print(f"{'workload':16s} {'metric':32s} {'base q1/med/q3':>36s} "
          f"{'new q1/med/q3':>36s} {'delta':>8s}  verdict")
    any_worse = False
    for workload, name in keys:
        b = summary(base[(workload, name)])
        n = summary(new[(workload, name)])
        delta = (n[1] - b[1]) / abs(b[1]) if b[1] else float("nan")
        call = verdict(bounded.get(name), base[(workload, name)],
                       new[(workload, name)])
        any_worse = any_worse or call == "worse"
        print(f"{workload:16s} {name:32s} "
              f"{b[0]:11.5g} {b[1]:11.5g} {b[2]:11.5g}  "
              f"{n[0]:11.5g} {n[1]:11.5g} {n[2]:11.5g}  "
              f"{delta:+7.1%}  {call}")
    for failure in base_failures + new_failures:
        print(f"FAILED {failure}")
    return 1 if any_worse or base_failures or new_failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
