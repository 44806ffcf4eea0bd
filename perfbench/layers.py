"""Which library calls the traced run wraps, what each call counts, and how
a traced pass turns into the per-layer metrics.

The wrapped functions are each module's public entry points. Accessors and
helpers called once per configuration, per point or per triple
(FiniteModel.config/mask/q/probability/papangelou/compound_campbell,
falling_factorial, region_count, orientation, HullFrame and Window methods)
are left unwrapped: a span costs about a microsecond, which would exceed the
work it measures. Their time is charged to the calling span.

Work counts repeat exactly for equal inputs; they are computed here from
call arguments and results, never read from the library.
"""

from __future__ import annotations

import math
from functools import lru_cache

from ppmoments import (
    cli,
    combinatorics,
    difference_ops,
    finite_model,
    identities,
    instances,
    montecarlo,
    transforms,
)


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


# hooks run while the wrappers are installed, so they compute what they
# need themselves instead of calling (and tracing) the library
@lru_cache(maxsize=None)
def _stirling2(n: int, k: int) -> int:
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * _stirling2(n - 1, k) + _stirling2(n - 1, k - 1)


# -- counting hooks ---------------------------------------------------------------


def _count_build(tracer, args, kwargs, result):
    space = _arg(args, kwargs, 1, "space")
    tracer.counts["finite_model.builds"] += 1
    tracer.counts["finite_model.configs"] += 1 << space.m


def _count_tuples(tracer, m: int, sizes):
    """One right-side enumeration per entry of sizes: every ordered k-tuple
    of distinct sites against all 2^m configurations, of which the 2^(m-k)
    disjoint from the tuple can contribute."""
    for k in sizes:
        tuples = math.perm(m, k)
        tracer.counts["identities.tuple_configs"] += tuples << m
        tracer.counts["identities.useful_configs"] += tuples << (m - k)


def _identity_hook(tuple_sizes):
    def hook(tracer, args, kwargs, result):
        model = _arg(args, kwargs, 0, "model")
        _count_tuples(tracer, model.m, tuple_sizes(args, kwargs))
        reports = result if isinstance(result, list) else [result]
        for report in reports:
            tracer.peak("identities.max_rel_gap", report.rel_gap)

    return hook


def _order(args, kwargs):
    return [_arg(args, kwargs, 3, "n")]


def _stirling_orders(args, kwargs):
    return list(range(1, _arg(args, kwargs, 3, "n") + 1))


def _joint_order(args, kwargs):
    return [sum(_arg(args, kwargs, 3, "orders"))]


def _dtheta_orders(args, kwargs):
    # the direct right side and the difference expansion each enumerate
    return _joint_order(args, kwargs) * 2


def _partition_blocks(args, kwargs):
    n = _arg(args, kwargs, 2, "n")
    return [k for k in range(1, n + 1) for _ in range(_stirling2(n, k))]


def _no_tuples(args, kwargs):
    return []


def _count_gibbs(tracer, args, kwargs, result):
    tracer.counts["montecarlo.gibbs_steps"] += _arg(args, kwargs, 1, "n_steps")


def _count_poisson(tracer, args, kwargs, result):
    tracer.counts["montecarlo.poisson_points"] += len(result)


def _replicates(position):
    def hook(tracer, args, kwargs, result):
        # both sides draw n_samples configurations
        tracer.counts["montecarlo.replicates"] += 2 * _arg(args, kwargs, position, "n_samples")

    return hook


_MAP_PARENTS = ("transforms.invariance_suite", "transforms.rho_tau_check")


def _count_hull(tracer, args, kwargs, result):
    tracer.counts["transforms.hulls"] += 1
    # the samplers in invariance_suite/rho_tau_check extract one hull per
    # replicate from the whole configuration, then map every point of it
    if tracer.parent_name() in _MAP_PARENTS:
        tracer.counts["transforms.points_mapped"] += len(_arg(args, kwargs, 0, "config"))


TARGETS = [
    (finite_model, "FiniteModel.__init__", _count_build),
    (finite_model, "FiniteModel.expectation", None),
    (finite_model, "FiniteModel.gnz_residual", None),
    (finite_model, "FiniteModel.correlation", None),
    (finite_model, "poisson_log_density", None),
    (finite_model, "pairwise_log_density", None),
    (finite_model, "model_from_description", None),
    (finite_model, "load_model", None),
    (identities, "factorial_moment_identity", _identity_hook(_order)),
    (identities, "joint_factorial_identity", _identity_hook(_joint_order)),
    (identities, "stirling_moment_identity", _identity_hook(_stirling_orders)),
    (identities, "partition_moment_identity", _identity_hook(_partition_blocks)),
    (identities, "dtheta_joint_expansion", _identity_hook(_dtheta_orders)),
    (identities, "poisson_independence_check", _identity_hook(_no_tuples)),
    (identities, "validate_disjoint", None),
    (instances, "generate_random_instance", None),
    (cli, "run_suite", None),
    (combinatorics, "stirling2", None),
    (combinatorics, "partitions", None),
    (combinatorics, "covers", None),
    (combinatorics, "moments_from_factorial", None),
    (combinatorics, "compound_poisson_moment", None),
    (combinatorics, "stirling_reindex_gap", None),
    (difference_ops, "add_points", None),
    (difference_ops, "diff", None),
    (difference_ops, "diff_multi", None),
    (difference_ops, "product_expansion_gap", None),
    (difference_ops, "cover_condition_holds", None),
    (montecarlo, "sample_poisson", _count_poisson),
    (montecarlo, "sample_gibbs", _count_gibbs),
    (montecarlo, "sample_process", None),
    (montecarlo, "sample_many", None),
    (montecarlo, "default_burn_in", None),
    (montecarlo, "compound_papangelou", None),
    (montecarlo, "z_score", None),
    (montecarlo, "estimate_gnz", None),
    (montecarlo, "gnz_estimates", _replicates(2)),
    (montecarlo, "estimate_factorial_identity", _replicates(4)),
    (montecarlo, "estimate_partition_moment", _replicates(3)),
    (montecarlo, "process_from_config", None),
    (montecarlo, "window_from_config", None),
    (transforms, "convex_hull", None),
    (transforms, "hull_frame", _count_hull),
    (transforms, "apply_tau", None),
    (transforms, "push_forward", None),
    (transforms, "verify_transform_condition", None),
    (transforms, "region_from_config", None),
    (transforms, "regions_disjoint", None),
    (transforms, "poisson_count_gof", None),
    (transforms, "invariance_suite", None),
    (transforms, "rho_tau_check", None),
]

ROOT = "bench.pass"

_ESTIMATORS = (
    "montecarlo.estimate_gnz",
    "montecarlo.gnz_estimates",
    "montecarlo.estimate_factorial_identity",
    "montecarlo.estimate_partition_moment",
)

# (name, unit, better) of every per-layer metric, in report order
METRICS = [
    ("finite_model.self_s", "s", "lower"),
    ("finite_model.build_s", "s", "lower"),
    ("finite_model.builds", "count", "lower"),
    ("finite_model.configs", "count", "lower"),
    ("finite_model.ns_per_config", "ns", "lower"),
    ("finite_model.gnz_s", "s", "lower"),
    ("finite_model.gnz_calls", "count", "lower"),
    ("finite_model.expectation_s", "s", "lower"),
    ("identities.self_s", "s", "lower"),
    ("identities.calls", "count", "lower"),
    ("identities.tuple_configs", "count", "lower"),
    ("identities.ns_per_tuple_config", "ns", "lower"),
    ("identities.useful_frac", "ratio", "higher"),
    ("identities.max_rel_gap", "ratio", "lower"),
    ("instances.self_s", "s", "lower"),
    ("instances.calls", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.records", "count", "higher"),
    ("combinatorics.self_s", "s", "lower"),
    ("combinatorics.calls", "count", "lower"),
    ("difference_ops.self_s", "s", "lower"),
    ("difference_ops.calls", "count", "lower"),
    ("montecarlo.self_s", "s", "lower"),
    ("montecarlo.gibbs_s", "s", "lower"),
    ("montecarlo.gibbs_steps", "count", "lower"),
    ("montecarlo.us_per_gibbs_step", "us", "lower"),
    ("montecarlo.poisson_s", "s", "lower"),
    ("montecarlo.poisson_points", "count", "lower"),
    ("montecarlo.estimator_self_s", "s", "lower"),
    ("montecarlo.replicates", "count", "lower"),
    ("transforms.self_s", "s", "lower"),
    ("transforms.hull_s", "s", "lower"),
    ("transforms.hulls", "count", "lower"),
    ("transforms.map_count_s", "s", "lower"),
    ("transforms.points_mapped", "count", "lower"),
    ("transforms.ns_per_point", "ns", "lower"),
    ("transforms.gof_s", "s", "lower"),
    ("transforms.condition_s", "s", "lower"),
    ("bench.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

COUNTS = {name for name, unit, _ in METRICS if unit == "count"}


def _ratio(numerator, denominator, scale=1.0):
    return scale * numerator / denominator if denominator else 0.0


def pass_metrics(tracer, records: int) -> dict:
    """Per-layer metrics of one traced pass (everything but the overhead).

    records is the number of report records the cli emitted in the pass.
    """
    summary = tracer.summary()
    inclusive = summary["inclusive_s"]
    own = summary["self_s"]
    calls = summary["calls"]
    layer = summary["layer_self_s"]
    counts = tracer.counts

    def total(table, *names):
        return sum(table.get(name, 0.0) for name in names)

    def layer_calls(prefix):
        return sum(n for name, n in calls.items() if name.startswith(prefix + "."))

    gibbs_s = own.get("montecarlo.sample_gibbs", 0.0)
    map_s = total(own, *_MAP_PARENTS)
    out = {
        "finite_model.self_s": layer.get("finite_model", 0.0),
        "finite_model.build_s": inclusive.get("finite_model.FiniteModel.__init__", 0.0),
        "finite_model.builds": counts["finite_model.builds"],
        "finite_model.configs": counts["finite_model.configs"],
        "finite_model.gnz_s": inclusive.get("finite_model.FiniteModel.gnz_residual", 0.0),
        "finite_model.gnz_calls": calls.get("finite_model.FiniteModel.gnz_residual", 0),
        "finite_model.expectation_s": inclusive.get("finite_model.FiniteModel.expectation", 0.0),
        "identities.self_s": layer.get("identities", 0.0),
        "identities.calls": layer_calls("identities"),
        "identities.tuple_configs": counts["identities.tuple_configs"],
        "identities.useful_frac": _ratio(
            counts["identities.useful_configs"], counts["identities.tuple_configs"]
        ),
        "identities.max_rel_gap": tracer.peaks.get("identities.max_rel_gap", 0.0),
        "instances.self_s": layer.get("instances", 0.0),
        "instances.calls": layer_calls("instances"),
        "cli.self_s": layer.get("cli", 0.0),
        "cli.records": records,
        "combinatorics.self_s": layer.get("combinatorics", 0.0),
        "combinatorics.calls": layer_calls("combinatorics"),
        "difference_ops.self_s": layer.get("difference_ops", 0.0),
        "difference_ops.calls": layer_calls("difference_ops"),
        "montecarlo.self_s": layer.get("montecarlo", 0.0),
        "montecarlo.gibbs_s": gibbs_s,
        "montecarlo.gibbs_steps": counts["montecarlo.gibbs_steps"],
        "montecarlo.poisson_s": inclusive.get("montecarlo.sample_poisson", 0.0),
        "montecarlo.poisson_points": counts["montecarlo.poisson_points"],
        "montecarlo.estimator_self_s": total(own, *_ESTIMATORS),
        "montecarlo.replicates": counts["montecarlo.replicates"],
        "transforms.self_s": layer.get("transforms", 0.0),
        "transforms.hull_s": inclusive.get("transforms.hull_frame", 0.0),
        "transforms.hulls": counts["transforms.hulls"],
        "transforms.map_count_s": map_s,
        "transforms.points_mapped": counts["transforms.points_mapped"],
        "transforms.gof_s": inclusive.get("transforms.poisson_count_gof", 0.0),
        "transforms.condition_s": inclusive.get("transforms.verify_transform_condition", 0.0),
        "bench.self_s": layer.get("bench", 0.0),
        "trace.wall_s": inclusive.get(ROOT, 0.0),
        "trace.spans": len(tracer.names),
    }
    out["finite_model.ns_per_config"] = _ratio(
        out["finite_model.build_s"], out["finite_model.configs"], 1e9
    )
    out["identities.ns_per_tuple_config"] = _ratio(
        out["identities.self_s"], out["identities.tuple_configs"], 1e9
    )
    out["montecarlo.us_per_gibbs_step"] = _ratio(gibbs_s, out["montecarlo.gibbs_steps"], 1e6)
    out["transforms.ns_per_point"] = _ratio(map_s, out["transforms.points_mapped"], 1e9)
    return out
