"""Median, quartiles and spread of each metric over several runs of one workload.

Usage: python3 perfbench/spread.py RESULTS...

Each RESULTS file holds the result lines of runs of one workload (the last
stdout line of run.py, one per line; anything before the first '{' on a line
is ignored). The spread is the quartile distance as a share of the median,
with quartiles as statistics.quantiles(values, n=4) gives them.
"""
from __future__ import annotations

import json
import sys

from harness import median, quartiles, spread


def main(paths: list[str]) -> int:
    if not paths:
        print(__doc__, file=sys.stderr)
        return 2
    for path in paths:
        results = []
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if "{" in line:
                    results.append(json.loads(line[line.index("{"):]))
        correct = sum(1 for r in results if r["correct"])
        print(f"{path}: {len(results)} runs, {correct} correct")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, mid, q3 = quartiles(values)
            share = spread(values) if median(values) and len(values) > 1 else 0.0
            print(f"  {name}: median {mid:.6g} {first['unit']}, quartiles {q1:.6g}..{q3:.6g}, "
                  f"spread {share:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
