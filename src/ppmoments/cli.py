"""Batch entry point: run verification suites and emit JSON-lines reports.

Usage:
    ppmoments run --suite exact-gnz --seed 1 --out report.jsonl
    ppmoments run --config experiment.json
    ppmoments list-suites
    ppmoments explain transform-invariance

A report stream starts with one header record carrying the version, a hash
of the effective configuration and a timestamp (the only nondeterministic
field, quarantined there so report bodies diff cleanly), followed by one
record per instance and a closing summary record. The exit status is 0 when
every gate passes, 1 on gate failure, 2 on config parse errors and 3 on
validation errors. Validation errors include a config key or suite parameter
the suite does not read, an mc-identity experiment list next to the
parameters it replaces, an instance count below 1 and a negative seed; these
exit before the header is written.

SUITES is the registry: per suite the runner, the one-line summary that
list-suites prints, the statement that explain prints and the parameter
names the runner reads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .combinatorics import falling_factorial, stirling_reindex_gap
from .difference_ops import diff, diff_multi, product_expansion_gap
from .finite_model import load_model
from .identities import (
    IdentityReport,
    factorial_moment_identity,
    joint_factorial_identity,
    partition_moment_identity,
    poisson_independence_check,
    stirling_moment_identity,
)
from .instances import MAX_INSTANCE_SITES, generate_random_instance
from .montecarlo import (
    MAX_ESTIMATOR_ORDER,
    P_GATE,
    Z_GATE,
    PoissonModel,
    StraussModel,
    _block_streams,
    _chain_steps,
    _child_seed,
    estimate_factorial_identity,
    estimate_partition_moment,
    gnz_estimates,
    mean_and_se,
    poisson_mean,
    process_from_config,
    sample_batch,
    sample_poisson,
    target_check,
    window_from_config,
    z_score,
    z_value,
)
from .transforms import (
    TransformSpec,
    invariance_suite,
    region_from_config,
    rho_tau_check,
    verify_transform_condition,
)

EXIT_PASS = 0
EXIT_GATE_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_VALIDATION_ERROR = 3

EXACT_GATE = 1e-9
EXPANSION_GATE = 1e-10
# window of the mc-poisson, mc-gibbs and mc-identity suites when none is given
UNIT_WINDOW = {"x_min": 0.0, "x_max": 1.0, "y_min": 0.0, "y_max": 1.0}
# window of the transform-invariance and rho-tau suites when none is given;
# it must contain the unit disk the transformation acts on
DISK_WINDOW = {"x_min": -1.05, "x_max": 1.05, "y_min": -1.05, "y_max": 1.05}


@dataclass
class SuiteConfig:
    """Validated suite invocation."""

    suite: str
    seed: int
    instance_count: int | None = None
    parameters: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.suite not in SUITES:
            raise ValueError(f"unknown suite {self.suite!r}")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.instance_count is not None and self.instance_count < 1:
            raise ValueError("instance_count must be at least 1")
        if not isinstance(self.parameters, dict):
            raise ValueError("parameters must be an object")
        unknown = sorted(set(self.parameters) - set(SUITES[self.suite].parameters))
        if unknown:
            raise ValueError(f"suite {self.suite} reads no parameter {', '.join(unknown)}")
        # mc-identity reads its other parameters only to build the default
        # experiments, so next to an experiment list they would be ignored
        if self.suite == "mc-identity" and self.parameters.get("experiments") is not None:
            ignored = sorted(set(self.parameters) - {"experiments"})
            if self.instance_count is not None:
                ignored.append("instance_count")
            if ignored:
                raise ValueError(f"experiments exclude {', '.join(ignored)}")

    @classmethod
    def from_dict(cls, raw: dict) -> "SuiteConfig":
        if "suite" not in raw:
            raise ValueError("config must name a suite")
        unknown = sorted(set(raw) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config key {', '.join(unknown)}")
        if raw.get("seed") is None:
            raise ValueError("config must provide a seed")
        count = raw.get("instance_count")
        return cls(
            str(raw["suite"]),
            _number(raw, "seed", None, int),
            None if count is None else _number(raw, "instance_count", None, int),
            raw.get("parameters", {}),
        )

    def canonical(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "instance_count": self.instance_count,
            "parameters": self.parameters,
        }


def _number(params: dict, name: str, default, kind):
    """kind(params.get(name, default)); a ValueError, so exit 3, when the
    value is not a number (int([5]) raises TypeError) or, for kind int, a
    float that is not integral (int(2.5) would truncate it)."""
    value = params.get(name, default)
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{name} must be an integer, not {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be a number: {exc}") from exc


def _emit(stream, record: dict):
    stream.write(json.dumps(record, sort_keys=True) + "\n")


def _identity_record(report: IdentityReport, instance: int, gate: float) -> dict:
    record = report.to_dict()
    record["record"] = "identity"
    record["instance"] = instance
    record["gate"] = gate
    record["passed"] = report.rel_gap <= gate
    return record


def _z_gated(record: dict) -> dict:
    """The record with the |z| <= Z_GATE verdict added."""
    return {**record, "gate": Z_GATE, "passed": abs(record["z"]) <= Z_GATE}


def _estimate_record(name, instance, lhs, rhs) -> dict:
    return _z_gated({
        "record": "estimate",
        "name": name,
        "instance": instance,
        "lhs": lhs.to_dict(),
        "rhs": rhs.to_dict(),
        "z": z_score(lhs, rhs),
    })


def _window(parameters: dict, default: dict):
    return window_from_config(parameters.get("window") or default)


# -- suite runners -------------------------------------------------------------
# Each runner yields report records; a record with "passed": False fails the
# suite gate.

# the exact-gnz parameter "kernels" is the instance generator's n_kernels bound
_BOUND_NAMES = {"kernels": "n_kernels"}


def _exact_suite(
    summary: str,
    explanation: str,
    kind: str,
    count: int,
    m_min: int,
    defaults: dict,
    evaluate: Callable,
    model_file: bool = True,
) -> "Suite":
    """Registry entry of an instance-driven exact suite.

    Instance i is generate_random_instance(kind, bounds, child seed i), with
    the bounds m_min and the suite parameters in defaults (name -> default);
    evaluate(bundle, i) yields its IdentityReports. When model_file is set,
    the "model_file" parameter replaces each generated model by the model
    that file describes, loaded once; the instances are then drawn at its
    site count.
    """

    def run(config: SuiteConfig):
        params = config.parameters
        bounds = {"m_min": m_min}
        for name, default in defaults.items():
            bounds[_BOUND_NAMES.get(name, name)] = _number(params, name, default, int)
        path = params.get("model_file") if model_file else None
        model = None
        if path is not None:
            if "m_max" in params:
                raise ValueError("m_max does not apply with model_file: the file fixes the sites")
            try:
                model = load_model(path)
            except OSError as exc:
                raise ValueError(f"cannot read model_file: {exc}") from exc
            if model.m > MAX_INSTANCE_SITES:
                raise ValueError(
                    f"model_file has {model.m} sites; generated instances "
                    f"support at most {MAX_INSTANCE_SITES}"
                )
            bounds["m_min"] = bounds["m_max"] = model.m
        for i in range(config.instance_count or count):
            bundle = generate_random_instance(kind, bounds, _child_seed(config.seed, i))
            if model is not None:
                bundle["model"] = model
            for report in evaluate(bundle, i):
                yield _identity_record(report, i, EXACT_GATE)

    parameters = tuple(defaults) + (("model_file",) if model_file else ())
    return Suite(run, summary, explanation, parameters)


def _gnz_reports(bundle: dict, instance: int):
    model = bundle["model"]
    for j, kernel in enumerate(bundle["kernels"]):
        lhs, rhs = model.gnz_residual(kernel)
        yield IdentityReport.build(
            "gnz", lhs, rhs, {"instance": instance, "kernel": j, "sites": model.m}
        )


def _run_stir1(config: SuiteConfig):
    matrices = config.instance_count or 20
    n_max = _number(config.parameters, "n_max", 4, int)
    m_max = _number(config.parameters, "m_max", 3, int)
    p_max = _number(config.parameters, "p_max", 2, int)
    instance = 0
    for n in range(1, n_max + 1):
        for m in range(1, m_max + 1):
            for p in range(1, p_max + 1):
                rng = np.random.default_rng(_child_seed(config.seed, instance))
                for k in range(matrices):
                    alphas = [[float(v) for v in rng.uniform(-1, 1, m)] for _ in range(p)]
                    betas = [float(v) for v in rng.uniform(-1, 1, p)]
                    lhs, rhs = stirling_reindex_gap(alphas, betas, n, m)
                    report = IdentityReport.build(
                        "stirling-reindex", lhs, rhs,
                        {"n": n, "m": m, "p": p, "matrix": k},
                    )
                    yield _identity_record(report, instance, EXACT_GATE)
                instance += 1


def _run_ddd0(config: SuiteConfig):
    count = config.instance_count or 50
    l_max = _number(config.parameters, "l_max", 3, int)
    bounds = {"m_min": 3, "m_max": _number(config.parameters, "m_max", 6, int),
              "l_max": l_max}
    lemma_count = _number(config.parameters, "lemma_count", 25, int)
    for i in range(count):
        bundle = generate_random_instance(
            "expansion", bounds, _child_seed(config.seed, i)
        )
        lhs, rhs = product_expansion_gap(
            bundle["kernels"], bundle["points"], bundle["config"]
        )
        report = IdentityReport.build(
            "product-expansion", lhs, rhs,
            {"length": len(bundle["points"]), "sites": bundle["model"].m},
        )
        yield _identity_record(report, i, EXPANSION_GATE)
        # alternating-sum versus composed differences on the same data
        kernel = bundle["kernels"][0]
        points = bundle["points"]
        functional = lambda cfg, k=kernel, x=points[0]: k(x, cfg)
        multi = diff_multi(functional, points)(bundle["config"])
        composed = functional
        for x in points:
            composed = diff(composed, x)
        comp_value = composed(bundle["config"])
        report = IdentityReport.build(
            "difference-composition", multi, comp_value,
            {"length": len(points)},
        )
        yield _identity_record(report, i, EXPANSION_GATE)
    for i in range(lemma_count):
        bundle = generate_random_instance(
            "cover-lemma", bounds, _child_seed(config.seed, 10_000 + i)
        )
        lhs, rhs = product_expansion_gap(
            bundle["kernels"], bundle["points"], bundle["config"]
        )
        report = IdentityReport.build(
            "cover-implication", lhs, 0.0,
            {"length": len(bundle["points"]), "sites": bundle["model"].m},
        )
        yield _identity_record(report, i, EXPANSION_GATE)


def _run_mc_poisson(config: SuiteConfig):
    replicates = config.instance_count or 100_000
    window = _window(config.parameters, UNIT_WINDOW)
    intensity = _number(config.parameters, "intensity", 3.0 / window.area, float)
    orders = config.parameters.get("orders", [1, 2, 3])
    if not isinstance(orders, list) or not orders or not all(
        type(order) is int and order >= 1 for order in orders
    ):
        raise ValueError("orders must be a nonempty list of integers >= 1")
    target_mean = poisson_mean(window, intensity)
    # the counts are the first draw of each block stream, as in sample_batch
    blocks = _block_streams(config.seed, replicates)
    counts = np.concatenate([rng.poisson(target_mean, size) for rng, size in blocks]).astype(float)
    for order in orders:
        yield _z_gated({
            "record": "moment",
            "name": "poisson-factorial-moment",
            "order": order,
            **target_check(falling_factorial(counts, order), target_mean**order),
        })


def _run_mc_gibbs(config: SuiteConfig):
    window = _window(config.parameters, UNIT_WINDOW)
    beta = _number(config.parameters, "beta", 30.0 / window.area, float)
    gamma = _number(config.parameters, "gamma", 0.5, float)
    radius = _number(config.parameters, "r", 0.05, float)
    n_samples = config.instance_count or 1500
    n_steps = _number(config.parameters, "n_steps", 900, int)
    model = StraussModel(window, beta, gamma, radius)
    kernels = [
        lambda x, y, count: 1.0,
        lambda x, y, count: x,
        lambda x, y, count: count,
    ]
    pairs = gnz_estimates(model, kernels, n_samples, _child_seed(config.seed, 0), n_steps)
    for j, (lhs, rhs) in enumerate(pairs):
        yield {**_estimate_record("strauss-gnz", j, lhs, rhs), "kernel": j}
    # gamma = 1 chain against the direct sampler, mean count
    poisson_like = StraussModel(window, beta, 1.0, radius)
    _, _, chain = sample_batch(poisson_like, max(400, n_samples // 3),
                               _child_seed(config.seed, 1), n_steps)
    _, _, direct = sample_batch(PoissonModel(window, beta), 4 * n_samples,
                                _child_seed(config.seed, 2))
    chain_mean, chain_se = mean_and_se(chain)
    direct_mean, direct_se = mean_and_se(direct)
    # np.hypot, not math.hypot: the two differ in the last bit on some inputs
    se = float(np.hypot(chain_se, direct_se))
    yield _z_gated({
        "record": "comparison",
        "name": "gibbs-vs-poisson-mean-count",
        "chain_mean": chain_mean,
        "direct_mean": direct_mean,
        "z": z_value(chain_mean, direct_mean, se),
    })


def _run_mc_identity(config: SuiteConfig):
    params = config.parameters
    experiments = params.get("experiments")
    if experiments is None:
        raw_window = params.get("window") or UNIT_WINDOW
        area = window_from_config(raw_window).area
        n_samples = config.instance_count or 20_000
        poisson = {
            "process": "poisson", "window": raw_window, "n_samples": n_samples,
            "intensity": _number(params, "intensity", 3.0 / area, float),
        }
        strauss = {
            "process": "strauss", "window": raw_window,
            "beta": _number(params, "beta", 12.0 / area, float),
            "gamma": _number(params, "gamma", 0.5, float),
            "r": _number(params, "r", 0.08, float),
            "n_samples": max(2000, n_samples // 10),
            "n_steps": _number(params, "n_steps", 600, int),
        }
        experiments = [
            {**poisson, "identity": "factorial", "n": 2},
            {**strauss, "identity": "factorial", "n": 2},
            {**poisson, "identity": "partition", "n": 3},
            {**strauss, "identity": "partition", "n": 2},
        ]
    if not isinstance(experiments, list) or not experiments:
        raise ValueError("experiments must be a nonempty list")
    # every experiment is validated before the first one runs
    runs = [_experiment(experiment, index, _child_seed(config.seed, index))
            for index, experiment in enumerate(experiments)]
    for run in runs:
        yield run()


# the keys an experiment may carry: every experiment, then per process and
# per identity (only the factorial and partition identities have an order n)
_EXPERIMENT_KEYS = {"process", "window", "identity", "n_samples", "seed"}
_PROCESS_KEYS = {"poisson": {"intensity"}, "strauss": {"beta", "gamma", "r", "n_steps"}}
_IDENTITY_KEYS = {"gnz": set(), "factorial": {"n"}, "partition": {"n"}}


def _experiment(experiment: dict, index: int, seed: int) -> Callable[[], dict]:
    """The estimator run of an experiment description, validated, as a
    callable that returns its estimate record.

    The test integrands are fixed bounded functions of the window: the
    region is the left half, the functional 1 + 0.1 |omega| and the kernel
    1 + y - 0.05 |omega|; experiment files select the process, the identity
    ("gnz", "factorial" or "partition"), the order n and the sample counts.
    A key that the experiment's process and identity do not read is an error.
    """
    model = process_from_config(experiment)
    identity = experiment.get("identity", "factorial")
    if not isinstance(identity, str) or identity not in _IDENTITY_KEYS:
        raise ValueError(f"unknown identity {identity!r}")
    name = f"{experiment['process']}-{identity}"
    allowed = _EXPERIMENT_KEYS | _PROCESS_KEYS[experiment["process"]] | _IDENTITY_KEYS[identity]
    unknown = sorted(set(experiment) - allowed)
    if unknown:
        raise ValueError(f"a {name} experiment reads no key {', '.join(unknown)}")
    n_samples = _number(experiment, "n_samples", 10_000, int)
    if n_samples < 2:
        raise ValueError("experiment n_samples must be at least 2")
    n_steps = experiment.get("n_steps")
    n_steps = None if n_steps is None else _number(experiment, "n_steps", None, int)
    seed = _number(experiment, "seed", seed, int)
    n = _number(experiment, "n", 2, int)
    if identity != "gnz" and not 1 <= n <= MAX_ESTIMATOR_ORDER:
        raise ValueError(f"order must satisfy 1 <= n <= {MAX_ESTIMATOR_ORDER}")
    if isinstance(model, StraussModel):
        _chain_steps(model, n_steps)
    window = model.window
    half_x = (window.x_min + window.x_max) / 2.0
    region = lambda x, y, count: x <= half_x
    functional = lambda count: 1.0 + 0.1 * count
    kernel = lambda x, y, count: 1.0 + y - 0.05 * count
    if identity == "gnz":
        estimate = lambda: gnz_estimates(model, [kernel], n_samples, seed, n_steps)[0]
    elif identity == "factorial":
        estimate = lambda: estimate_factorial_identity(
            model, functional, region, n, n_samples, seed, n_steps
        )
    else:
        estimate = lambda: estimate_partition_moment(model, kernel, n, n_samples, seed, n_steps)
    return lambda: _estimate_record(name, index, *estimate())


_DEFAULT_REGIONS = (
    {"type": "box", "x_min": -0.6, "x_max": -0.2, "y_min": -0.2, "y_max": 0.2},
    {"type": "box", "x_min": 0.2, "x_max": 0.6, "y_min": -0.2, "y_max": 0.2},
    {"type": "box", "x_min": -0.2, "x_max": 0.2, "y_min": 0.3, "y_max": 0.62},
)


def _run_transform_invariance(config: SuiteConfig):
    params = config.parameters
    offset = _number(params, "offset", 0.37, float)
    intensity = _number(params, "intensity", 40.0, float)
    replicates = config.instance_count or 10_000
    window = _window(params, DISK_WINDOW)
    regions = params.get("regions", _DEFAULT_REGIONS)
    if not isinstance(regions, (list, tuple)):
        raise ValueError("regions must be a list")
    regions = [region_from_config(r) for r in regions]
    condition_count = _number(params, "condition_instances", 20, int)
    report = invariance_suite(
        TransformSpec(offset), window, intensity, regions, replicates, config.seed
    )
    for row in report.gof:
        yield {
            "record": "gof", "name": "transform-invariance", **row,
            "gate": P_GATE, "passed": row["p_value"] >= P_GATE,
        }
    for kind, rows in (("covariance", report.covariances), ("moment", report.moments)):
        for row in rows:
            yield _z_gated({"record": kind, "name": "transform-invariance", **row})
    # the vanishing-difference condition on sampled tuples
    rng = np.random.default_rng(_child_seed(config.seed, 1))
    for i in range(condition_count):
        sample = sample_poisson(window, intensity / 4.0, rng)
        length = int(rng.integers(1, 4))
        points = tuple(
            (float(x), float(y)) for x, y in rng.uniform(-1.1, 1.1, (length, 2))
        )
        ok = verify_transform_condition(TransformSpec(offset), sample, points, 1e-9)
        yield {
            "record": "condition",
            "name": "transform-condition",
            "instance": i,
            "tuple_length": length,
            "passed": bool(ok),
        }


def _run_rho_tau(config: SuiteConfig):
    params = config.parameters
    report = rho_tau_check(
        TransformSpec(_number(params, "offset", 0.37, float)),
        _window(params, DISK_WINDOW),
        _number(params, "intensity", 30.0, float),
        config.instance_count or 5_000,
        config.seed,
        grid_size=_number(params, "grid_size", 3, int),
    )
    for name, rows in (
        ("rho-tau-first", report.first_moments),
        ("rho-tau-second", report.second_moments),
    ):
        for row in rows:
            yield _z_gated({"record": "moment", "name": name, **row})


# -- the registry ----------------------------------------------------------------


class Suite(NamedTuple):
    """A registry entry. runner(config) yields the report records; summary
    is the list-suites line, explanation the explain text, and parameters
    the names the runner reads from config.parameters."""

    runner: Callable
    summary: str
    explanation: str
    parameters: tuple


SUITES = {
    "exact-gnz": _exact_suite(
        "Exact two-sided check of the Georgii-Nguyen-Zessin identity on "
        "random finite models.",
        "For a finite model with hereditary density q and Papangelou density "
        "c(x, omega) = q(omega u x)/q(omega), the identity "
        "E[sum_{x in omega} u(x, omega)] = sum_x sigma_x E[c(x, omega) "
        "u(x, omega u x)] holds exactly; the suite evaluates both sides by "
        "full enumeration on random models and kernels.",
        "gnz", 200, 3, {"m_max": 8, "kernels": 5}, _gnz_reports,
    ),
    "exact-factorial": _exact_suite(
        "Exact factorial moment identity E[F N(A)_(n)] for random "
        "configuration-dependent regions.",
        "E[F N(A)_(n)] equals the sum over ordered n-tuples of distinct "
        "sites of the sigma-weighted expectation of the compound Papangelou "
        "density times F and the region indicators evaluated after adding "
        "the tuple. A is allowed to depend on the configuration.",
        "factorial", 100, 3, {"m_max": 7, "n_max": 3},
        lambda b, i: [
            factorial_moment_identity(b["model"], b["functional"], b["region"], b["n"])
        ],
    ),
    "exact-joint": _exact_suite(
        "Exact joint factorial moment identity for families of disjoint "
        "random regions.",
        "The joint version: E[F prod_i N(A_i)_(n_i)] equals the tensorized "
        "tuple sum when the random regions are disjoint for every "
        "configuration.",
        "joint", 50, 4, {"m_max": 7, "n_max": 4},
        lambda b, i: [
            joint_factorial_identity(b["model"], b["functional"], b["regions"], b["orders"])
        ],
    ),
    "exact-stirling": _exact_suite(
        "Exact raw-moment identity E[F N(A)^n] via Stirling numbers over "
        "the factorial representation.",
        "E[F N(A)^n] = sum_k S(n,k) T_k where T_k is the order-k factorial "
        "right side and S(n,k) are Stirling numbers of the second kind.",
        "stirling", 50, 3, {"m_max": 7, "n_max": 3},
        lambda b, i: [
            stirling_moment_identity(b["model"], b["functional"], b["region"], b["n"])
        ],
    ),
    "exact-partition": _exact_suite(
        "Exact moment identity for sums sum_x u(x, omega) via set "
        "partitions.",
        "E[(sum_{x in omega} u(x, omega))^n] expands over set partitions of "
        "{1..n}: each partition with k blocks contributes an ordered "
        "k-tuple sum with u raised to the block sizes.",
        "partition", 50, 3, {"m_max": 6, "n_max": 3},
        lambda b, i: [partition_moment_identity(b["model"], b["kernel"], b["n"])],
    ),
    "exact-independence": _exact_suite(
        "Factorization of joint factorial moments for swap regions of the "
        "q = 1 model (independent Poisson-type counts).",
        "For the q = 1 model and disjoint regions with configuration-"
        "independent weight multisets satisfying the vanishing-cover "
        "condition, joint factorial moments factorize into the per-region "
        "predictions n! e_n(p_x), the atomic analogue of independent "
        "Poisson counts with parameters sigma(A_i).",
        "independence", 25, 6, {"m_max": 8, "n_max": 3},
        lambda b, i: poisson_independence_check(b["model"], b["regions"], b["max_order"]),
        model_file=False,
    ),
    "stir1": Suite(
        _run_stir1,
        "Stirling reindexing identity (id stir1): composition/position-set "
        "sums against partition/index-tuple sums, by direct enumeration.",
        "The combinatorial identity equating (a) sums over compositions "
        "n_1+...+n_p = n and disjoint position sets I_1..I_p covering "
        "{1..m} weighted by Stirling numbers and factorials with (b) sums "
        "over m-block partitions of {1..n} and index tuples; it is the "
        "reindexing step that turns factorial moment identities into raw "
        "moment identities.",
        ("n_max", "m_max", "p_max"),
    ),
    "ddd0": Suite(
        _run_ddd0,
        "Product difference expansion (id ddd0): iterated differences of "
        "kernel products against sums over index-subset families, the "
        "alternating-sum form against composed differences, and the "
        "vanishing-cover implication.",
        "D_{x_1}...D_{x_l}(u_1(x_1,.) ... u_l(x_l,.)) equals the sum over "
        "all families (Theta_1..Theta_l) of index subsets with union "
        "{1..l} of the product of D_{Theta_j} u_j; when every family of "
        "nonempty subsets yields zero, the full difference vanishes.",
        ("l_max", "m_max", "lemma_count"),
    ),
    "mc-poisson": Suite(
        _run_mc_poisson,
        "Monte Carlo factorial moments of Poisson counts against "
        "(intensity * area)^n.",
        "Empirical factorial moments E[N(A)_(n)] of a sampled Poisson "
        "process must match (intensity * |A|)^n within Monte Carlo error. "
        "Only the counts are drawn: the first draw of each block stream of "
        "the seed, so they are the counts of the replicates that the "
        "Monte Carlo engine samples at that seed.",
        ("window", "intensity", "orders"),
    ),
    "mc-gibbs": Suite(
        _run_mc_gibbs,
        "Birth-death chain for the Strauss process: Monte Carlo GNZ "
        "residuals and the gamma = 1 reduction to Poisson.",
        "A birth-death Metropolis-Hastings chain with acceptance ratios "
        "driven by c(x, omega) = beta gamma^t targets the Strauss process; "
        "the GNZ identity must hold statistically, and gamma = 1 reduces "
        "the chain to the Poisson process.",
        ("window", "beta", "gamma", "r", "n_steps"),
    ),
    "mc-identity": Suite(
        _run_mc_identity,
        "Monte Carlo two-sided estimates of the factorial and partition "
        "moment identities on continuous windows.",
        "The factorial and partition moment identities estimated on "
        "continuous windows: left sides from sampled configurations, right "
        "sides from the window-uniform importance representation of the "
        "intensity integrals.",
        ("experiments", "window", "intensity", "beta", "gamma", "r", "n_steps"),
    ),
    "transform-invariance": Suite(
        _run_transform_invariance,
        "Distribution invariance of the Poisson process under the "
        "hull-conditioned rotation: chi-square goodness of fit, "
        "covariances, factorial moments, and the vanishing-difference "
        "condition.",
        "The hull-conditioned star rotation preserves Lebesgue measure and "
        "satisfies the vanishing-difference condition, so it maps the "
        "Poisson process to itself: counts of fixed disjoint regions stay "
        "independent Poisson with unchanged parameters.",
        ("offset", "intensity", "window", "regions", "condition_instances"),
    ),
    "rho-tau": Suite(
        _run_rho_tau,
        "First and second factorial moment measures of the transformed "
        "Poisson process against the constant-correlation prediction.",
        "The transformed Poisson process keeps correlation function "
        "identically 1: first moments of disjoint boxes match intensity * "
        "area and second product moments match the products.",
        ("offset", "intensity", "window", "grid_size"),
    ),
}


def run_suite(config: SuiteConfig, stream) -> int:
    """Execute a suite, writing JSON-lines records to the stream.

    Returns the exit status (0 pass, 1 gate failure, 3 validation error).
    """
    runner = SUITES[config.suite][0]
    header = {
        "record": "header",
        "version": __version__,
        "suite": config.suite,
        "config_hash": hashlib.sha256(
            json.dumps(config.canonical(), sort_keys=True).encode()
        ).hexdigest(),
        "timestamp": time.time(),
    }
    _emit(stream, header)
    failures = 0
    total = 0
    try:
        for record in runner(config):
            total += 1
            if not record.get("passed", True):
                failures += 1
            _emit(stream, record)
    except ValueError as exc:
        _emit(stream, {"record": "error", "message": str(exc)})
        return EXIT_VALIDATION_ERROR
    _emit(
        stream,
        {
            "record": "summary",
            "suite": config.suite,
            "n_records": total,
            "n_failures": failures,
            "passed": failures == 0,
        },
    )
    return EXIT_PASS if failures == 0 else EXIT_GATE_FAILURE


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ppmoments",
        description="Verification suites for point process moment identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="run a verification suite")
    run_parser.add_argument("--suite", help="suite name (see list-suites)")
    run_parser.add_argument("--config", help="path to a JSON suite config")
    run_parser.add_argument("--seed", type=int, help="seed (overrides config)")
    run_parser.add_argument(
        "--instances", type=int, help="instance count (overrides config)"
    )
    run_parser.add_argument("--out", help="output path (default: stdout)")
    sub.add_parser("list-suites", help="list available suites")
    explain_parser = sub.add_parser("explain", help="describe what a suite verifies")
    explain_parser.add_argument("suite")

    args = parser.parse_args(argv)

    if args.command == "list-suites":
        for name in sorted(SUITES):
            print(f"{name}: {SUITES[name].summary}")
        return EXIT_PASS

    if args.command == "explain":
        if args.suite not in SUITES:
            print(f"unknown suite {args.suite!r}", file=sys.stderr)
            return EXIT_VALIDATION_ERROR
        print(f"{args.suite}: {SUITES[args.suite].summary}")
        print()
        print(SUITES[args.suite].explanation)
        return EXIT_PASS

    raw: dict = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                raw = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read config: {exc}", file=sys.stderr)
            return EXIT_CONFIG_ERROR
        if not isinstance(raw, dict):
            print("config must be a JSON object", file=sys.stderr)
            return EXIT_CONFIG_ERROR
    if args.suite is not None:
        raw["suite"] = args.suite
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.instances is not None:
        raw["instance_count"] = args.instances

    try:
        config = SuiteConfig.from_dict(raw)
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_VALIDATION_ERROR

    if args.out is None:
        return run_suite(config, sys.stdout)
    with open(args.out, "w", encoding="utf-8") as handle:
        return run_suite(config, handle)


if __name__ == "__main__":
    sys.exit(main())
