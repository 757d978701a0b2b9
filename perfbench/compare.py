#!/usr/bin/env python3
"""Compare two sets of perfbench runs, metric by metric.

Each input file holds the standard output of one or more runs (a stamp
line followed by a result line per run). Runs recorded on different hosts
are refused: the stamps must agree on host_cores and host_mem_bytes.

    python3 perfbench/compare.py OLD.txt NEW.txt

For every workload and metric it prints each side's median and the change
as a share of the old median, and flags a change beyond the metric's bound
in BENCHMARK.json (end-to-end metrics only; per-layer metrics have none).
"""

import json
import statistics
import sys
from pathlib import Path


def runs(path):
    """(stamp, result) pairs of every run in the file."""
    out, stamp = [], None
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            continue
        if "stamp" in obj:
            stamp = obj["stamp"]
        elif "metrics" in obj and stamp is not None:
            out.append((stamp, obj))
            stamp = None
    return out


def host(stamp):
    return (stamp.get("host_cores"), stamp.get("host_mem_bytes"))


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old, new = runs(argv[1]), runs(argv[2])
    if not old or not new:
        print("compare: each file needs at least one run", file=sys.stderr)
        return 2
    hosts = {host(s) for s, _ in old + new}
    if len(hosts) != 1:
        print(f"compare: refusing to compare runs from different hosts {sorted(hosts)}",
              file=sys.stderr)
        return 3
    bench = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}
    worse = 0
    workloads = sorted({s["workload"] for s, _ in old} & {s["workload"] for s, _ in new})
    for w in workloads:
        a = [r for s, r in old if s["workload"] == w]
        b = [r for s, r in new if s["workload"] == w]
        print(f"{w}: {len(a)} old runs, {len(b)} new runs")
        names = [n for n in a[0]["metrics"] if all(n in r["metrics"] for r in a + b)]
        for name in names:
            ma = statistics.median(r["metrics"][name]["value"] for r in a)
            mb = statistics.median(r["metrics"][name]["value"] for r in b)
            unit = a[0]["metrics"][name]["unit"]
            change = (mb - ma) / ma if ma else 0.0
            flag = ""
            if name in bounds:
                bound, better = bounds[name]
                loss = change if better == "lower" else -change
                if loss > bound:
                    flag = f"  WORSE beyond bound {bound}"
                    worse += 1
            print(f"  {name:30} {ma:14.6g} -> {mb:14.6g} {unit:6} {change:+8.1%}{flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
