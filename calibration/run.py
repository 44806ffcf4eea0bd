"""Calibration of the statistical gates: failure rates over many seeds.

    python3 calibration/run.py --out CALIBRATION.json
    python3 calibration/run.py --suite mc-strauss/mc-gibbs --seeds 4500

Run from the root of a source checkout; ppmoments is imported from its src/
directory. For each of the SEED_COUNT = 500 workload seeds s from FIRST_SEED
= 1,000,000 on, it builds the suite configs of the benchmark's two Monte
Carlo workloads (`perfbench/workloads.py`: mc-poisson-hull and mc-strauss)
at seed s and runs every Monte Carlo suite among them through
`cli.run_suite`: mc-poisson, transform-invariance, rho-tau and mc-identity
at their mc-poisson-hull sizes, mc-gibbs and mc-identity at their mc-strauss
sizes. The seeds are fixed, clear of the benchmark seeds (1, 17, 105, 9001)
and of every seed the tests pin (all below 800,000). Run without options,
the tool runs what produced CALIBRATION.json.

`--first-seed` and `--seeds` (a count) set another seed range, and
`--suite` (repeatable) keeps only the named runs, each a run label such as
mc-strauss/mc-gibbs or a suite name such as mc-identity for its runs in
both workloads, so that one family can be rerun at many seeds. The result
records the range and the names kept.

A gate family is one kind of gated record of one suite run, such as the
factorial moments of mc-poisson or the chi-square fits of
transform-invariance. Per family it reports the gate evaluations, the
failures, the observed failure rate with its 95% Clopper-Pearson interval
and the nominal rate: 2 (1 - Phi(Z_GATE)) = 6.3e-5 for a |z| gate, P_GATE =
1e-3 for a p-value gate. A family is flagged when the interval lies wholly
above the nominal rate. For p-value families it adds a Kolmogorov-Smirnov
test of the p-values against the uniform law, for z families the standard
deviation of z, which is about 1 when the standard errors are right. Per suite run it reports the
share of runs with any failed gate, against the rate its gates would give
if they were independent. Only records that carry a statistical gate
count; the exact transform-condition records do not.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy  # noqa: E402
import scipy  # noqa: E402
from scipy import stats  # noqa: E402

import workloads  # noqa: E402
from ppmoments.montecarlo import P_GATE, Z_GATE  # noqa: E402

FIRST_SEED = 1_000_000
SEED_COUNT = 500
MC_SUITES = {"mc-poisson", "mc-gibbs", "mc-identity", "transform-invariance", "rho-tau"}
NOMINAL = {"z": math.erfc(Z_GATE / math.sqrt(2.0)), "p": P_GATE}
CONFIDENCE = 0.95


def clopper_pearson(failures: int, trials: int) -> tuple[float, float]:
    """Two-sided CONFIDENCE interval of a binomial rate."""
    tail = (1.0 - CONFIDENCE) / 2.0
    low = 0.0 if failures == 0 else stats.beta.ppf(tail, failures, trials - failures + 1)
    if failures == trials:
        return float(low), 1.0
    high = stats.beta.ppf(1.0 - tail, failures + 1, trials - failures)
    return float(low), float(high)


def suite_runs(seed: int, only=()):
    """(run label, suite config) of every Monte Carlo suite run at workload
    seed, or of those whose label or suite is in only when it is given."""
    for workload in ("mc-poisson-hull", "mc-strauss"):
        build, _ = workloads.WORKLOADS[workload]
        for config in build(seed)["configs"]:
            label = f"{workload}/{config.suite}"
            if config.suite in MC_SUITES and (not only or {label, config.suite} & set(only)):
                yield label, config


def gates(text: str):
    """(family, kind, value, passed) of every statistically gated record."""
    _, *body, _ = [json.loads(line) for line in text.splitlines()]
    for record in body:
        if record.get("gate") == P_GATE and "p_value" in record:
            yield f"{record['record']}/{record['name']}", "p", record["p_value"], record["passed"]
        elif record.get("gate") == Z_GATE:
            yield f"{record['record']}/{record['name']}", "z", record["z"], record["passed"]


def summarize(families: dict, runs: dict) -> dict:
    rows = []
    for (label, family), (kind, values, failures) in sorted(families.items()):
        trials = len(values)
        low, high = clopper_pearson(failures, trials)
        row = {
            "run": label, "family": family, "gate": kind, "trials": trials,
            "failures": failures, "rate": failures / trials,
            "ci95": [low, high], "nominal": NOMINAL[kind],
            "above_nominal": low > NOMINAL[kind],
        }
        if kind == "p":
            row["ks_uniform_p"] = float(stats.kstest(values, "uniform").pvalue)
        else:
            # about 1 when the standard errors are right
            row["z_sd"] = float(numpy.std(values))
        rows.append(row)
    suites = []
    for label, (failed_runs, total, familywise) in sorted(runs.items()):
        low, high = clopper_pearson(failed_runs, total)
        suites.append({
            "run": label, "runs": total, "failed_runs": failed_runs,
            "rate": failed_runs / total, "ci95": [low, high],
            "nominal_if_independent": familywise,
            "above_nominal": low > familywise,
        })
    return {"families": rows, "suites": suites}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="JSON result path (default: none)")
    parser.add_argument("--first-seed", type=int, default=FIRST_SEED,
                        help=f"first workload seed (default: {FIRST_SEED})")
    parser.add_argument("--seeds", type=int, default=SEED_COUNT,
                        help=f"number of workload seeds (default: {SEED_COUNT})")
    parser.add_argument("--suite", action="append", default=[], metavar="NAME",
                        help="keep only this run label or suite; repeatable (default: all)")
    args = parser.parse_args(argv)
    if args.first_seed < 0 or args.seeds < 1:
        parser.error("--first-seed must be nonnegative and --seeds at least 1")
    names = {name for label, config in suite_runs(args.first_seed)
             for name in (label, config.suite)}
    unknown = sorted(set(args.suite) - names)
    if unknown:
        parser.error(f"no Monte Carlo suite run is named {', '.join(unknown)}")
    seeds = range(args.first_seed, args.first_seed + args.seeds)

    # (run label, family) -> [gate kind, values, failures]
    families = defaultdict(lambda: [None, [], 0])
    # run label -> [runs with a failed gate, runs, family-wise nominal rate]
    runs = defaultdict(lambda: [0, 0, 0.0])
    start = time.perf_counter()
    for done, seed in enumerate(seeds, 1):
        for label, config in suite_runs(seed, args.suite):
            _, text = workloads.report(config)
            failed = False
            survive = 1.0
            for family, kind, value, passed in gates(text):
                entry = families[label, family]
                entry[0] = kind
                entry[1].append(value)
                entry[2] += not passed
                failed |= not passed
                survive *= 1.0 - NOMINAL[kind]
            runs[label][0] += failed
            runs[label][1] += 1
            runs[label][2] = 1.0 - survive
        if done % 50 == 0:
            print(f"{done} seeds, {time.perf_counter() - start:.0f} s", file=sys.stderr, flush=True)

    result = {
        "seeds": {"first": args.first_seed, "count": args.seeds},
        **({"only": sorted(args.suite)} if args.suite else {}),
        "confidence": CONFIDENCE,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **summarize(families, runs),
    }
    for row in result["families"]:
        low, high = row["ci95"]
        flag = "ABOVE NOMINAL" if row["above_nominal"] else ""
        ks = (f" ks_p={row['ks_uniform_p']:.3f}" if "ks_uniform_p" in row
              else f" z_sd={row['z_sd']:.2f}")
        print(f"{row['run']:40s} {row['family']:45s} {row['failures']:3d}/{row['trials']:<6d}"
              f" rate={row['rate']:.2e} ci95=[{low:.1e}, {high:.1e}]"
              f" nominal={row['nominal']:.1e}{ks} {flag}")
    for row in result["suites"]:
        low, high = row["ci95"]
        print(f"{row['run']:40s} any gate failed {row['failed_runs']:3d}/{row['runs']:<6d}"
              f" ci95=[{low:.1e}, {high:.1e}] nominal_if_independent="
              f"{row['nominal_if_independent']:.1e}")
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
