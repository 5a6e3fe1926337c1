#!/usr/bin/env python3
"""Summarises and compares sets of perfbench result files.

    python3 perfbench/compare.py RUNS_A [RUNS_B]

RUNS_A and RUNS_B are directories of result files written by perfbench/run.py
(one file per run, e.g. ten seeds of every workload). For each workload and
metric it prints the median and the spread (interquartile range over median,
quartiles as statistics.quantiles(values, n=4) gives them). With two sets it
also prints the change of the median from A to B. Where BENCHMARK.json at the
checkout root gives a metric a bound, a spread over the bound, or a change for
the worse by more than the bound, is flagged; the exit status is 1 if any is.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    """{(workload, trace): {metric: [values]}} over every result file."""
    groups = defaultdict(lambda: defaultdict(list))
    for path in sorted(Path(directory).glob("*.json")):
        r = json.loads(path.read_text())
        key = (r["workload"], int(r["trace"]))
        for name, m in r["metrics"].items():
            groups[key][name].append(m["value"])
    return groups


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__)
        return 2
    bench = ROOT / "BENCHMARK.json"
    rules = {}
    if bench.is_file():
        for m in json.loads(bench.read_text())["end_to_end"]:
            rules[m["name"]] = m
    a = load(argv[1])
    b = load(argv[2]) if len(argv) == 3 else None
    flagged = False
    for key in sorted(a):
        workload, trace = key
        print(f"{workload} (trace={trace}, {len(next(iter(a[key].values())))} runs)")
        for name, va in sorted(a[key].items()):
            rule = rules.get(name) if trace == 0 else None
            med_a, sp_a = statistics.median(va), spread(va)
            line = f"  {name:28s} median {med_a:14.6g}  spread {sp_a:7.3f}"
            bad = rule is not None and name != "setup_s" and sp_a > rule["bound"]
            if b is not None and name in b.get(key, {}):
                vb = b[key][name]
                med_b, sp_b = statistics.median(vb), spread(vb)
                change = (med_b - med_a) / med_a if med_a else 0.0
                line += (f" | B median {med_b:14.6g}  spread {sp_b:7.3f}"
                         f"  change {change:+.3f}")
                if rule is not None:
                    worse = change if rule["better"] == "lower" else -change
                    bad = bad or worse > rule["bound"]
                    bad = bad or (name != "setup_s" and sp_b > rule["bound"])
            if rule is not None:
                line += f"  (bound {rule['bound']})"
            if bad:
                line += "  <-- over bound"
                flagged = True
            print(line)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
