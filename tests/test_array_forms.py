"""Array forms of the generated callables (on_masks, on_sites) against
their frozenset callables, and the engine's use of them."""

import functools

import numpy as np
import pytest

from ppmoments.finite_model import (
    FiniteModel,
    model_from_description,
    pairwise_log_density,
    poisson_log_density,
)
from ppmoments.identities import (
    dtheta_joint_expansion,
    factorial_moment_identity,
    joint_factorial_identity,
    partition_moment_identity,
    validate_disjoint,
)
from ppmoments.instances import MAX_INSTANCE_SITES, generate_random_instance

KINDS = (
    "gnz", "factorial", "joint", "stirling", "partition", "dtheta",
    "independence", "expansion", "cover-lemma",
)


def _bits(values) -> np.ndarray:
    return np.ascontiguousarray(values).view(np.uint8)


def assert_bit_identical(array_values, scalar_values):
    array_values = np.asarray(array_values)
    assert array_values.dtype == scalar_values.dtype
    assert array_values.shape == scalar_values.shape
    assert np.array_equal(_bits(array_values), _bits(scalar_values))


def _configs(m):
    return [frozenset(x for x in range(m) if mask >> x & 1) for mask in range(1 << m)]


def assert_functional_parity(functional, m):
    scalar = np.array([functional(config) for config in _configs(m)], float)
    assert_bit_identical(functional.on_masks(np.arange(1 << m)), scalar)


def assert_site_parity(kernel, m):
    configs = _configs(m)
    scalar = np.array([[kernel(x, config) for config in configs] for x in range(m)])
    assert_bit_identical(kernel.on_sites(np.arange(m)[:, None], np.arange(1 << m)), scalar)
    # the flat (sites, masks) pairs the engine passes for x in omega
    rows, sites = np.nonzero((np.arange(1 << m)[:, None] >> np.arange(m)) & 1)
    assert_bit_identical(kernel.on_sites(sites, rows), scalar[sites, rows])


def _bundle_callables(bundle):
    functionals = [bundle["model"].log_density]
    if "functional" in bundle:
        functionals.append(bundle["functional"])
    site_callables = [bundle[k] for k in ("kernel", "region") if k in bundle]
    site_callables += bundle.get("kernels", []) + bundle.get("regions", [])
    return functionals, site_callables


@pytest.mark.parametrize("kind", KINDS)
def test_array_forms_equal_frozenset_forms_bit_for_bit(kind):
    for m in range(1, MAX_INSTANCE_SITES + 1):
        for seed in (0, 1, 9):
            bounds = {"m_min": m, "m_max": m, "l_max": min(3, m)}
            bundle = generate_random_instance(kind, bounds, seed)
            m_model = bundle["model"].m
            functionals, site_callables = _bundle_callables(bundle)
            assert site_callables
            for functional in functionals:
                assert_functional_parity(functional, m_model)
            for kernel in site_callables:
                assert_site_parity(kernel, m_model)


@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
def test_pairwise_density_array_form(gamma):
    # a repeated pair counts twice in both forms; gamma 0 gives -inf, no NaN
    pairs = [(0, 1), (1, 3), (4, 2), (0, 1), (5, 6), (0, 6)]
    log_q = pairwise_log_density(gamma, pairs)
    assert_functional_parity(log_q, 7)
    assert not np.isnan(log_q.on_masks(np.arange(1 << 7))).any()
    assert_functional_parity(poisson_log_density(), 3)


def test_model_description_density_array_form():
    model = model_from_description(
        {
            "sites": 5,
            "weights": [0.5, 1.0, 0.7, 1.2, 0.9],
            "density": {"type": "pairwise", "gamma": 0.25, "pairs": [[0, 1], [2, 3], [1, 4]]},
        }
    )
    assert_functional_parity(model.log_density, 5)


# -- the engine's fast path ------------------------------------------------------


def _counted(callable_, calls):
    """The callable with its scalar calls counted; functools.wraps copies
    its __dict__, so the array form rides along."""

    @functools.wraps(callable_)
    def counted(*args):
        calls.append(args)
        return callable_(*args)

    return counted


def _hidden(callable_):
    """The scalar callable alone, without its array form."""
    return lambda *args: callable_(*args)


def _with(bundle, wrap):
    """The bundle with every callable wrapped, the model rebuilt around
    its wrapped density."""
    model = bundle["model"]
    out = dict(bundle, model=FiniteModel(model.space, wrap(model.log_density)))
    for key in ("functional", "kernel", "region"):
        if key in bundle:
            out[key] = wrap(bundle[key])
    for key in ("kernels", "regions"):
        if key in bundle:
            out[key] = [wrap(c) for c in bundle[key]]
    return out


def _sides(kind, b):
    """Both sides of each report, as float hex strings, and for joint the
    region tables validate_disjoint returns."""
    if kind == "gnz":
        sides = [v for k in b["kernels"] for v in b["model"].gnz_residual(k)]
    elif kind == "factorial":
        report = factorial_moment_identity(b["model"], b["functional"], b["region"], b["n"])
        sides = [report.lhs, report.rhs]
    elif kind == "partition":
        report = partition_moment_identity(b["model"], b["kernel"], b["n"])
        sides = [report.lhs, report.rhs]
    elif kind == "joint":
        report = joint_factorial_identity(b["model"], b["functional"], b["regions"], b["orders"])
        tables = validate_disjoint(b["model"], b["regions"])
        return [report.lhs.hex(), report.rhs.hex()] + [t.tobytes() for t in tables]
    else:
        report = dtheta_joint_expansion(b["model"], b["functional"], b["regions"], b["orders"])
        sides = [report.lhs, report.rhs]
    return [v.hex() for v in sides]


@pytest.mark.parametrize("kind", ["gnz", "factorial", "joint", "partition", "dtheta"])
@pytest.mark.parametrize("seed", [2, 3])
def test_tables_call_no_scalar_callable_and_match_the_fallback(kind, seed):
    bundle = generate_random_instance(kind, {"m_min": 3, "m_max": 7}, seed)
    calls = []
    fast = _sides(kind, _with(bundle, lambda c: _counted(c, calls)))
    assert calls == []
    fallback = _sides(kind, _with(bundle, _hidden))
    assert fast == fallback
