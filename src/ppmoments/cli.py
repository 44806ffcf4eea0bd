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
every gate passes, 1 on gate failure, 2 on config parse errors or an --out
path that cannot be opened, and 3 on validation errors. Validation errors
include a config key or suite parameter the suite does not read, an
mc-identity experiment list next to the parameters it replaces, an instance
count below 1 and a negative seed; these exit before the header is written.
A malformed or out-of-range suite parameter exits after the header, with an
error record and before any other record.

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
from .combinatorics import (
    MAX_REINDEX_M,
    MAX_REINDEX_N,
    MAX_REINDEX_P,
    falling_factorial,
    stirling_reindex_gap,
)
from .difference_ops import diff, diff_multi, product_expansion_gap
from .finite_model import _real, load_model
from .identities import (
    MAX_IDENTITY_ORDER,
    IdentityReport,
    factorial_moment_identity,
    joint_factorial_identity,
    partition_moment_identity,
    poisson_independence_check,
    stirling_moment_identity,
)
from .instances import MAX_INSTANCE_SITES, generate_random_instance
from .montecarlo import (
    P_GATE,
    Z_GATE,
    _PROCESSES,
    StraussModel,
    _birth_death_counts,
    _block_streams,
    _chain_steps,
    _child_seed,
    _draw_sides,
    _factorial_parts,
    _gnz_parts,
    _partition_parts,
    _poisson_counts,
    gnz_estimates,
    mean_and_se,
    poisson_mean,
    process_from_config,
    sample_poisson,
    target_check,
    window_from_config,
    z_score,
    z_value,
)
from .parallel import _map
from .transforms import (
    TransformSpec,
    _checked_conditions,
    invariance_suite,
    region_from_config,
    rho_tau_check,
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
        return cls(
            str(raw["suite"]),
            _number(raw, "seed", None, int),
            _number(raw, "instance_count", None, int),
            raw.get("parameters", {}),
        )

    def canonical(self) -> dict:
        return dict(vars(self))


def _number(params: dict, name: str, default, kind):
    """params[name] as kind (float or int), or default when it is absent or
    null; a ValueError, so exit 3, when it is not a real number (a bool or a
    string is not one) or, for kind int, a float that is not integral."""
    value = params.get(name)
    return default if value is None else _real(value, name, kind)


def _count(params: dict, name: str, default: int, low: int, high: int | None = None) -> int:
    """_number(params, name, default, int), a ValueError unless it is at
    least low and, when high is given, at most high."""
    value = _number(params, name, default, int)
    if value < low or (high is not None and value > high):
        bound = f"at least {low}" if high is None else f"between {low} and {high}"
        raise ValueError(f"{name} must be {bound}, got {value}")
    return value


# json.dumps(record, sort_keys=True) with the encoder built once, not per record
_ENCODER = json.JSONEncoder(sort_keys=True)


def _emit(stream, record: dict):
    stream.write(_ENCODER.encode(record) + "\n")


def _identity_record(report: IdentityReport, instance: int, gate: float) -> dict:
    record = report.to_dict()
    record["record"] = "identity"
    record["instance"] = instance
    record["gate"] = gate
    record["passed"] = report.rel_gap <= gate
    return record


def _gated(record: dict) -> dict:
    """The record with its statistical verdict added: a record with a
    p_value passes at p_value >= P_GATE, any other at |z| <= Z_GATE."""
    if "p_value" in record:
        return {**record, "gate": P_GATE, "passed": record["p_value"] >= P_GATE}
    return {**record, "gate": Z_GATE, "passed": abs(record["z"]) <= Z_GATE}


def _estimate_record(name, instance, lhs, rhs) -> dict:
    return _gated({
        "record": "estimate",
        "name": name,
        "instance": instance,
        "lhs": lhs.to_dict(),
        "rhs": rhs.to_dict(),
        "z": z_score(lhs, rhs),
    })


def _raw_window(parameters: dict, default: dict):
    """parameters["window"], or default when it is absent or null."""
    window = parameters.get("window")
    return default if window is None else window


def _window(parameters: dict, default: dict):
    return window_from_config(_raw_window(parameters, default))


# -- suite runners -------------------------------------------------------------
# Each runner yields report records; a record with "passed": False fails the
# suite gate.

# instances per map of an exact suite: above every default count, so a
# default run forks once, and small enough that a large --instances holds
# the records of one chunk at a time
_INSTANCE_CHUNK = 256


def _exact_suite(
    summary: str,
    explanation: str,
    kind: str,
    count: int,
    m_min: int,
    defaults: dict,
    evaluate: Callable,
    model_file: bool = True,
    n_range: tuple = (1, MAX_IDENTITY_ORDER),
) -> "Suite":
    """Registry entry of an instance-driven exact suite.

    Instance i is generate_random_instance(kind, bounds, child seed i), with
    the bounds m_min and the suite parameters in defaults (name -> default);
    evaluate(bundle, i) yields its IdentityReports. m_max lies in [m_min,
    MAX_INSTANCE_SITES], n_max in n_range (None: no upper bound) and any
    other parameter is at least 1. When model_file is set, the "model_file"
    parameter replaces each generated model by the model that file
    describes, loaded once; the instances are then drawn at its site count.

    The instances run through parallel._map in chunks of _INSTANCE_CHUNK,
    and a chunk's records are yielded before the next chunk starts.
    """
    ranges = {"m_max": (m_min, MAX_INSTANCE_SITES), "n_max": n_range}

    def run(config: SuiteConfig):
        params = config.parameters
        bounds = {"m_min": m_min}
        for name, default in defaults.items():
            low, high = ranges.get(name, (1, None))
            bounds[name] = _count(params, name, default, low, high)
        path = params.get("model_file") if model_file else None
        model = None
        if path is not None:
            # a number would be read as a file descriptor, as 0 for stdin
            if not isinstance(path, str):
                raise ValueError(f"model_file must be a path string, got {path!r}")
            if params.get("m_max") is not None:
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

        def records(i):
            bundle = generate_random_instance(kind, bounds, _child_seed(config.seed, i))
            if model is not None:
                bundle["model"] = model
            return [_identity_record(report, i, EXACT_GATE) for report in evaluate(bundle, i)]

        total = config.instance_count or count
        for start in range(0, total, _INSTANCE_CHUNK):
            chunk = range(start, min(start + _INSTANCE_CHUNK, total))
            for instance_records in _map(records, chunk):
                yield from instance_records

    parameters = tuple(defaults) + (("model_file",) if model_file else ())
    return Suite(run, summary, explanation, parameters)


def _gnz_reports(bundle: dict, instance: int):
    model = bundle["model"]
    for j, (lhs, rhs) in enumerate(model.gnz_residuals(bundle["kernels"])):
        yield IdentityReport.build(
            "gnz", lhs, rhs, {"instance": instance, "kernel": j, "sites": model.m}
        )


def _run_stir1(config: SuiteConfig):
    matrices = config.instance_count or 20
    n_max = _count(config.parameters, "n_max", 4, 1, MAX_REINDEX_N)
    m_max = _count(config.parameters, "m_max", 3, 1, MAX_REINDEX_M)
    p_max = _count(config.parameters, "p_max", 2, 1, MAX_REINDEX_P)
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
    # an instance draws l_max distinct sites of a model with at least m_min
    m_min = 3
    bounds = {"m_min": m_min,
              "m_max": _count(config.parameters, "m_max", 6, m_min, MAX_INSTANCE_SITES),
              "l_max": _count(config.parameters, "l_max", 3, 1, m_min)}
    lemma_count = _count(config.parameters, "lemma_count", 25, 0)
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
    try:
        targets = [target_mean**order for order in orders]
    except OverflowError as exc:
        raise ValueError(f"orders must keep (intensity * area)^n a finite float: {exc}") from exc
    counts = _poisson_counts(target_mean, _block_streams(config.seed, replicates)).astype(float)
    for order, target in zip(orders, targets):
        yield _gated({
            "record": "moment",
            "name": "poisson-factorial-moment",
            "order": order,
            **target_check(falling_factorial(counts, order), target),
        })


def _run_mc_gibbs(config: SuiteConfig):
    window = _window(config.parameters, UNIT_WINDOW)
    beta = _number(config.parameters, "beta", 30.0 / window.area, float)
    gamma = _number(config.parameters, "gamma", 0.5, float)
    radius = _number(config.parameters, "r", 0.05, float)
    n_samples = config.instance_count or 1500
    n_steps = _number(config.parameters, "n_steps", None, int)
    model = StraussModel(window, beta, gamma, radius)
    n_steps = _chain_steps(model, n_steps, 900)
    kernels = [
        lambda x, y, count: 1.0,
        lambda x, y, count: x,
        lambda x, y, count: count,
    ]
    pairs = gnz_estimates(model, kernels, n_samples, _child_seed(config.seed, 0), n_steps)
    for j, (lhs, rhs) in enumerate(pairs):
        yield {**_estimate_record("strauss-gnz", j, lhs, rhs), "kernel": j}
    # gamma = 1 chain against the direct sampler, mean count: the counts of
    # sample_batch's replicates at these seeds, drawn without their points
    chain_blocks = _block_streams(_child_seed(config.seed, 1), max(400, n_samples // 3))
    chain = _birth_death_counts(StraussModel(window, beta, 1.0, radius), n_steps, chain_blocks)
    direct = _poisson_counts(poisson_mean(window, beta),
                             _block_streams(_child_seed(config.seed, 2), 4 * n_samples))
    chain_mean, chain_se = mean_and_se(chain)
    direct_mean, direct_se = mean_and_se(direct)
    # np.hypot, not math.hypot: the two differ in the last bit on some inputs
    se = float(np.hypot(chain_se, direct_se))
    yield _gated({
        "record": "comparison",
        "name": "gibbs-vs-poisson-mean-count",
        "chain_mean": chain_mean,
        "direct_mean": direct_mean,
        "z": z_value(chain_mean, direct_mean, se),
    })


def _run_mc_identity(config: SuiteConfig):
    params = config.parameters
    experiments = params.get("experiments")
    # a Strauss experiment without n_steps runs the default burn-in, or in
    # the default experiments 600 steps when that is longer
    default_steps = 0 if experiments is not None else 600
    if experiments is None:
        raw_window = _raw_window(params, UNIT_WINDOW)
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
            "n_steps": _number(params, "n_steps", None, int),
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
    runs = [_experiment(experiment, index, _child_seed(config.seed, index), default_steps)
            for index, experiment in enumerate(experiments)]
    # the experiments that share (model, n_samples, n_steps) draw their sides
    # in one call, so their Strauss chains run in lockstep; every side comes
    # out as it would if drawn alone
    drawn = {}
    for index, run in enumerate(runs):
        if index not in drawn:
            group = [i for i, other in enumerate(runs) if other.draw == run.draw]
            model, n_samples, n_steps = run.draw
            sides = [side for i in group for side in runs[i].sides]
            sides = iter(_draw_sides(model, sides, n_samples, n_steps))
            drawn.update((i, [next(sides) for _ in runs[i].sides]) for i in group)
        yield run.record(drawn.pop(index))


# the keys an experiment may carry: every experiment, then per process and
# per identity (only the factorial and partition identities have an order n)
_EXPERIMENT_KEYS = {"process", "window", "identity", "n_samples", "seed"}
_PROCESS_KEYS = {kind: set(keys) for kind, (_, keys) in _PROCESSES.items()}
_PROCESS_KEYS["strauss"].add("n_steps")
_IDENTITY_KEYS = {"gnz": set(), "factorial": {"n"}, "partition": {"n"}}


class _ExperimentRun(NamedTuple):
    """A validated mc-identity experiment: draw is the (model, n_samples,
    n_steps) that its (seed, extra) sides are drawn at, and record(drawn)
    its estimate record, given the drawn sides."""

    draw: tuple
    sides: tuple
    record: Callable


def _experiment(experiment: dict, index: int, seed: int, default_steps: int) -> _ExperimentRun:
    """The estimator run of an experiment description, validated; a Strauss
    experiment without n_steps runs the larger of default_steps and the
    default burn-in.

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
    n_steps = _number(experiment, "n_steps", None, int)
    seed = _number(experiment, "seed", seed, int)
    n = _number(experiment, "n", 2, int)
    if isinstance(model, StraussModel):
        n_steps = _chain_steps(model, n_steps, default_steps)
    window = model.window
    half_x = (window.x_min + window.x_max) / 2.0
    region = lambda x, y, count: x <= half_x
    functional = lambda count: 1.0 + 0.1 * count
    kernel = lambda x, y, count: 1.0 + y - 0.05 * count
    if identity == "gnz":
        sides, evaluate_all = _gnz_parts(model, [kernel], seed)
        evaluate = lambda drawn: evaluate_all(drawn)[0]
    elif identity == "factorial":
        sides, evaluate = _factorial_parts(model, functional, region, n, seed)
    else:
        sides, evaluate = _partition_parts(model, kernel, n, seed)
    record = lambda drawn: _estimate_record(name, index, *evaluate(drawn))
    return _ExperimentRun((model, n_samples, n_steps), sides, record)


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
    condition_count = _count(params, "condition_instances", 20, 0)
    for kind, group in invariance_suite(
        TransformSpec(offset), window, intensity, regions, replicates, config.seed
    ).items():
        for row in group:
            yield _gated({"record": kind, "name": "transform-invariance", **row})
    # the vanishing-difference condition on sampled tuples, drawn lazily in
    # instance order and checked a chunk at a time
    rng = np.random.default_rng(_child_seed(config.seed, 1))

    def draws():
        for _ in range(condition_count):
            sample = sample_poisson(window, intensity / 4.0, rng)
            length = int(rng.integers(1, 4))
            yield sample, rng.uniform(-1.1, 1.1, (length, 2)).tolist()

    checked = _checked_conditions(TransformSpec(offset), draws(), 1e-9)
    for i, ((_, points), ok) in enumerate(checked):
        yield {
            "record": "condition",
            "name": "transform-condition",
            "instance": i,
            "tuple_length": len(points),
            "passed": ok,
        }


def _run_rho_tau(config: SuiteConfig):
    params = config.parameters
    for name, group in rho_tau_check(
        TransformSpec(_number(params, "offset", 0.37, float)),
        _window(params, DISK_WINDOW),
        _number(params, "intensity", 30.0, float),
        config.instance_count or 5_000,
        config.seed,
        grid_size=_number(params, "grid_size", 3, int),
    ).items():
        for row in group:
            yield _gated({"record": "moment", "name": name, **row})


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
        # an instance draws two orders of at least 1
        n_range=(2, MAX_IDENTITY_ORDER),
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
        "Poisson counts with parameters sigma(A_i). The orders sum to at "
        "most n_max, and each stops at its region's site count, above "
        "which both sides are 0.",
        "independence", 25, 6, {"m_max": 8, "n_max": 3},
        lambda b, i: poisson_independence_check(b["model"], b["regions"], b["max_order"]),
        model_file=False,
        n_range=(1, None),
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
        "the chain to the Poisson process. At gamma = 1, c = beta whatever "
        "the points are, so the count is a birth-death chain of its own: "
        "the reduction check runs only that count chain, which gives the "
        "counts of the full chain bit for bit, and compares its mean count "
        "with direct Poisson(beta |W|) counts.",
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
    try:
        handle = open(args.out, "w", encoding="utf-8")
    except OSError as exc:
        print(f"cannot write report: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    with handle:
        return run_suite(config, handle)


if __name__ == "__main__":
    sys.exit(main())
