"""The benchmark's four workloads.

Each workload is a pair of functions:

    build(seed)    the seeded inputs (set-up; no library work). Its "repeat"
                   entry is the suite config whose report body must come
                   out byte-identical when run twice with the same seed.
    run(inputs)    one pass of the fixed batch, checking every gated
                   output; returns an Outcome

The library receives only the generated inputs: suite configs for the cli
suites, and for exact-large the site weights, interaction pairs and the
callables defined here, shaped like those in ppmoments.instances.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass

import numpy as np

from ppmoments import cli
from ppmoments.finite_model import FiniteModel, GroundSpace, pairwise_log_density
from ppmoments.identities import (
    dtheta_joint_expansion,
    factorial_moment_identity,
    joint_factorial_identity,
    partition_moment_identity,
)

EXACT_GATE = 1e-9

EXACT_SUITES = (
    "exact-gnz",
    "exact-factorial",
    "exact-joint",
    "exact-stirling",
    "exact-partition",
    "exact-independence",
    "stir1",
    "ddd0",
)
# suite seeds per pass of exact-small
EXACT_SMALL_SEEDS = 4

UNIT_WINDOW = {"x_min": 0.0, "x_max": 1.0, "y_min": 0.0, "y_max": 1.0}


@dataclass
class Outcome:
    """Gated checks attempted and failed in one pass, and report records."""

    attempted: int = 0
    failed: int = 0
    records: int = 0

    def check(self, ok: bool):
        self.attempted += 1
        self.failed += not ok


def _seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def rel_gap(lhs: float, rhs: float) -> float:
    return abs(lhs - rhs) / (1.0 + max(abs(lhs), abs(rhs)))


def record_ok(record: dict) -> bool:
    """Recompute a report record's verdict from its numbers where it has
    them; the record's own verdict must agree."""
    if record.get("passed") is not True:
        return False
    gate = record.get("gate")
    kind = record["record"]
    if kind == "identity":
        return rel_gap(record["lhs"], record["rhs"]) <= gate
    if kind == "estimate":
        lhs, rhs = record["lhs"], record["rhs"]
        spread = math.hypot(lhs["std_error"], rhs["std_error"])
        z = 0.0 if spread == 0.0 else (lhs["mean"] - rhs["mean"]) / spread
        return abs(z) <= gate
    if "p_value" in record:
        return record["p_value"] >= gate
    if "z" in record:
        return abs(record["z"]) <= gate
    return True


def report(config: cli.SuiteConfig) -> tuple[int, str]:
    stream = io.StringIO()
    status = cli.run_suite(config, stream)
    return status, stream.getvalue()


def run_checked(config: cli.SuiteConfig, outcome: Outcome):
    """Run one suite and check every record, the exit status and the
    summary against each other."""
    status, text = report(config)
    header, *body, summary = [json.loads(line) for line in text.splitlines()]
    failures = 0
    for record in body:
        ok = record_ok(record)
        outcome.check(ok)
        failures += not ok
    outcome.records += len(body)
    outcome.check(
        status == cli.EXIT_PASS
        and header["suite"] == config.suite
        and summary["n_records"] == len(body)
        and summary["n_failures"] == 0
    )


def body(text: str) -> str:
    """A report without the header's timestamp."""
    header, _, rest = text.partition("\n")
    fields = json.loads(header)
    fields.pop("timestamp")
    return json.dumps(fields, sort_keys=True) + "\n" + rest


def deterministic(config: cli.SuiteConfig) -> bool:
    """Run config twice in-process; the bodies must be byte-identical."""
    first = body(report(config)[1])
    second = body(report(config)[1])
    return first == second


# -- exact-small -------------------------------------------------------------------


def build_exact_small(seed: int) -> dict:
    configs = [
        cli.SuiteConfig(suite, suite_seed)
        for suite_seed in _seeds(seed, EXACT_SMALL_SEEDS)
        for suite in EXACT_SUITES
    ]
    return {"configs": configs, "repeat": cli.SuiteConfig("exact-joint", configs[0].seed)}


def run_suites(inputs: dict) -> Outcome:
    outcome = Outcome()
    for config in inputs["configs"]:
        run_checked(config, outcome)
    return outcome


# -- exact-large -------------------------------------------------------------------


def _functional(rng, m: int):
    base = float(rng.uniform(-1.0, 1.0))
    table = [float(v) for v in rng.uniform(-1.0, 1.0, m)]
    parity_term = float(rng.uniform(-1.0, 1.0))
    parity_set = frozenset(x for x in range(m) if rng.random() < 0.5)

    def functional(config):
        total = base + sum(table[x] for x in config)
        odd = len(config & parity_set) % 2
        return total - parity_term if odd else total + parity_term

    return functional


def _kernel(rng, m: int):
    site_term = [float(v) for v in rng.uniform(-1.0, 1.0, m)]
    parity_scale = [float(v) for v in rng.uniform(-1.0, 1.0, m)]
    parity_set = frozenset(x for x in range(m) if rng.random() < 0.5)

    def kernel(x, config):
        if len(config & parity_set) % 2:
            return site_term[x] - parity_scale[x]
        return site_term[x] + parity_scale[x]

    return kernel


def _region(rng, m: int):
    base = [bool(rng.random() < 0.5) for _ in range(m)]
    flip = [bool(rng.random() < 0.4) for _ in range(m)]
    control = frozenset(x for x in range(m) if rng.random() < 0.4)

    def region(x, config):
        return base[x] != (flip[x] and len(config & control) % 2 == 1)

    return region


def _disjoint_regions(rng, m: int):
    """Two regions confined to disjoint site pools, so disjoint for every
    configuration."""
    sites = [int(x) for x in rng.permutation(m)]
    half = m // 2
    regions = []
    for pool in (sites[:half], sites[half:]):
        even = frozenset(x for x in pool if rng.random() < 0.7)
        odd = frozenset(x for x in pool if rng.random() < 0.7)
        control = frozenset(x for x in range(m) if rng.random() < 0.4)

        def region(x, config, even=even, odd=odd, control=control):
            return x in (odd if len(config & control) % 2 else even)

        regions.append(region)
    return regions


def _model_spec(rng, m: int) -> dict:
    return {
        "weights": tuple(float(w) for w in rng.uniform(0.1, 2.0, m)),
        "gamma": float(rng.choice((0.25, 0.5, 0.75))),
        "pairs": [(a, b) for a in range(m) for b in range(a + 1, m) if rng.random() < 0.3],
    }


# (call, m, order or orders); gnz at 16 and 17 sites straddles the
# FiniteModel configuration cache limit of 16 sites
EXACT_LARGE_CALLS = (
    ("gnz", 16, None),
    ("gnz", 17, None),
    ("factorial", 11, 4),
    ("partition", 11, 3),
    ("joint", 10, (2, 2)),
    ("dtheta", 10, (1, 2)),
)


def build_exact_large(seed: int) -> dict:
    *case_seeds, repeat_seed = _seeds(seed, len(EXACT_LARGE_CALLS) + 1)
    cases = []
    for (call, m, order), case_seed in zip(EXACT_LARGE_CALLS, case_seeds):
        rng = np.random.default_rng(case_seed)
        case = {"call": call, "m": m, "order": order, "model": _model_spec(rng, m)}
        if call == "gnz" or call == "partition":
            case["kernel"] = _kernel(rng, m)
        else:
            case["functional"] = _functional(rng, m)
        if call == "factorial":
            case["region"] = _region(rng, m)
        if call in ("joint", "dtheta"):
            case["regions"] = _disjoint_regions(rng, m)
        cases.append(case)
    repeat = cli.SuiteConfig("exact-gnz", repeat_seed, 3, {"m_max": 12})
    return {"cases": cases, "repeat": repeat}


def run_exact_large(inputs: dict) -> Outcome:
    outcome = Outcome()
    for case in inputs["cases"]:
        spec = case["model"]
        model = FiniteModel(
            GroundSpace(spec["weights"]), pairwise_log_density(spec["gamma"], spec["pairs"])
        )
        call, order = case["call"], case["order"]
        if call == "gnz":
            lhs, rhs = model.gnz_residual(case["kernel"])
        else:
            if call == "factorial":
                result = factorial_moment_identity(model, case["functional"], case["region"], order)
            elif call == "partition":
                result = partition_moment_identity(model, case["kernel"], order)
            elif call == "joint":
                result = joint_factorial_identity(model, case["functional"], case["regions"], order)
            else:
                result = dtheta_joint_expansion(model, case["functional"], case["regions"], order)
            lhs, rhs = result.lhs, result.rhs
        outcome.check(rel_gap(lhs, rhs) <= EXACT_GATE)
    return outcome


# -- mc-strauss --------------------------------------------------------------------

MC_GIBBS_SAMPLES = 60
MC_STRAUSS_SAMPLES = 150


def _experiment(process: dict, identity: str, n: int, n_samples: int) -> dict:
    return {**process, "window": UNIT_WINDOW, "identity": identity, "n": n, "n_samples": n_samples}


STRAUSS = {"process": "strauss", "beta": 12.0, "gamma": 0.5, "r": 0.08, "n_steps": 600}
POISSON = {"process": "poisson", "intensity": 3.0}


def build_mc_strauss(seed: int) -> dict:
    gibbs_seed, identity_seed, repeat_seed = _seeds(seed, 3)
    experiments = [
        _experiment(STRAUSS, "factorial", 2, MC_STRAUSS_SAMPLES),
        _experiment(STRAUSS, "partition", 2, MC_STRAUSS_SAMPLES),
    ]
    return {
        "configs": [
            cli.SuiteConfig("mc-gibbs", gibbs_seed, MC_GIBBS_SAMPLES),
            cli.SuiteConfig("mc-identity", identity_seed, parameters={"experiments": experiments}),
        ],
        "repeat": cli.SuiteConfig(
            "mc-identity",
            repeat_seed,
            parameters={"experiments": [_experiment(STRAUSS, "factorial", 2, 20)]},
        ),
    }


# -- mc-poisson-hull ---------------------------------------------------------------

MC_POISSON_REPLICATES = 5_000
TRANSFORM_REPLICATES = 1_000
RHO_TAU_REPLICATES = 600
MC_POISSON_SAMPLES = 2_000


def build_mc_poisson_hull(seed: int) -> dict:
    poisson_seed, transform_seed, rho_seed, identity_seed, repeat_seed = _seeds(seed, 5)
    experiments = [
        _experiment(POISSON, "factorial", 2, MC_POISSON_SAMPLES),
        _experiment(POISSON, "partition", 3, MC_POISSON_SAMPLES),
    ]
    return {
        "configs": [
            cli.SuiteConfig("mc-poisson", poisson_seed, MC_POISSON_REPLICATES),
            cli.SuiteConfig("transform-invariance", transform_seed, TRANSFORM_REPLICATES),
            cli.SuiteConfig("rho-tau", rho_seed, RHO_TAU_REPLICATES),
            cli.SuiteConfig("mc-identity", identity_seed, parameters={"experiments": experiments}),
        ],
        "repeat": cli.SuiteConfig("rho-tau", repeat_seed, 100),
    }


# name -> (build, run); why each exists is recorded in BENCHMARK.json
WORKLOADS = {
    "exact-small": (build_exact_small, run_suites),
    "exact-large": (build_exact_large, run_exact_large),
    "mc-strauss": (build_mc_strauss, run_suites),
    "mc-poisson-hull": (build_mc_poisson_hull, run_suites),
}
