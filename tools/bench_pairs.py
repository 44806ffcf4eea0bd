"""Alternating benchmark pairs of two checkouts.

    python tools/bench_pairs.py --parent ../parent --change . \\
        --workload mc-poisson-hull [--seed 1] [--pairs 10]

Each pair runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

once in each checkout, one run at a time, where T is the benchmark's
`run_seconds` in BENCHMARK.json, so both sides run as long as the
benchmark runs them. At least 10 pairs are run. The parent goes first in
even pairs and the change in odd ones, so that a slow spell of a shared
host falls on both sides alike. A run's last two output lines are its `info`
record, which holds `raw_wall_s`, and its result, which holds `metrics`
and `failed`.

The tool prints one line per pair as it ends, then per metric each side's
median with its quartiles and the number of pairs the change wins. Every
metric of the benchmark's `--trace 0` runs (`wall_s`, `setup_s`,
`peak_rss_mb`) and `raw_wall_s` is better lower, so a win is a pair whose
change value is the lower. The last line adds up `failed` per side.

A metric with a `bound` in the benchmark's `end_to_end` list gets a second
line: the change/parent ratio of the medians, the parent's quartile spread
(q3 - q1) relative to its median, and a verdict. The verdict is
`unresolved` when that spread is wider than the bound, unless every change
run beats every parent run; else `worse than bound` when the ratio exceeds
1 + bound, and `within bound` otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
MIN_PAIRS = 10


def run_record(output: str) -> dict:
    """The metric values, raw_wall_s and failed of one run's output."""
    *_, info, result = output.splitlines()
    result = json.loads(result)
    record = {name: metric["value"] for name, metric in result["metrics"].items()}
    record["raw_wall_s"] = json.loads(info)["info"]["raw_wall_s"]
    record["failed"] = result["failed"]
    return record


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    command = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True, check=True)
    return run_record(done.stdout)


def pair_line(index: int, parent: dict, change: dict) -> str:
    first = "parent" if index % 2 == 0 else "change"
    values = " ".join(f"{name} {parent[name]:.4g} -> {change[name]:.4g}"
                      for name in parent if name != "failed")
    return f"pair {index + 1} ({first} first): {values}"


def summary(pairs: list, bounds: dict) -> list[str]:
    """Per metric, the median [first quartile, third quartile] of each side
    and the pairs the change wins, and for a metric in bounds (name -> bound)
    its ratio, spread and verdict; then the failed count of each side."""
    lines = []
    for name in pairs[0][0]:
        if name == "failed":
            continue
        sides = np.array([[parent[name], change[name]] for parent, change in pairs])
        q1, median, q3 = np.percentile(sides, [25, 50, 75], axis=0)
        wins = int(np.count_nonzero(sides[:, 1] < sides[:, 0]))
        lines.append(f"{name}: parent {median[0]:.4g} [{q1[0]:.4g}, {q3[0]:.4g}], "
                     f"change {median[1]:.4g} [{q1[1]:.4g}, {q3[1]:.4g}], "
                     f"change wins {wins} of {len(pairs)}")
        if name not in bounds:
            continue
        bound = bounds[name]
        ratio = median[1] / median[0]
        spread = (q3[0] - q1[0]) / median[0]
        if spread > bound and not sides[:, 1].max() < sides[:, 0].min():
            verdict = "unresolved"
        else:
            verdict = "worse than bound" if ratio > 1 + bound else "within bound"
        lines.append(f"{name}: change/parent {ratio:.4g}, parent spread {spread:.4g}, "
                     f"bound {bound:g}: {verdict}")
    failed = [sum(pair[side]["failed"] for pair in pairs) for side in (0, 1)]
    lines.append(f"failed: parent {failed[0]}, change {failed[1]}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    args = parser.parse_args(argv)
    if args.pairs < MIN_PAIRS:
        parser.error(f"--pairs must be at least {MIN_PAIRS}")
    benchmark = json.loads(BENCHMARK.read_text())
    seconds = benchmark["run_seconds"]
    bounds = {metric["name"]: metric["bound"] for metric in benchmark["end_to_end"]
              if "bound" in metric}
    pairs = []
    for index in range(args.pairs):
        sides = {}
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        for side in order:
            sides[side] = run_once(getattr(args, side), args.workload, args.seed, seconds)
        pairs.append((sides["parent"], sides["change"]))
        print(pair_line(index, *pairs[-1]), flush=True)
    print("\n".join(summary(pairs, bounds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
