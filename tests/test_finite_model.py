"""Exact engine tests: probabilities, Papangelou densities, GNZ residuals."""

import json
import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ppmoments import finite_model
from ppmoments.finite_model import (
    FiniteModel,
    GroundSpace,
    load_model,
    model_from_description,
    pairwise_log_density,
    poisson_log_density,
)
from ppmoments.instances import _by_parity


def q1_model(weights):
    return FiniteModel(GroundSpace(tuple(weights)), poisson_log_density())


def test_single_site_probabilities():
    model = q1_model([1.0])
    assert model.probability(frozenset()) == pytest.approx(0.5)
    assert model.probability(frozenset({0})) == pytest.approx(0.5)


def test_probabilities_sum_to_one():
    model = FiniteModel(
        GroundSpace((0.4, 1.7, 0.9)), pairwise_log_density(0.5, [(0, 1), (1, 2)])
    )
    total = sum(model.probability(model.config(mask)) for mask in range(8))
    assert total == pytest.approx(1.0, abs=1e-12)
    assert all(model.probability(model.config(mask)) >= 0.0 for mask in range(8))


def test_forbidden_configuration_has_zero_probability():
    model = FiniteModel(GroundSpace((1.0, 1.0)), pairwise_log_density(0.0, [(0, 1)]))
    assert model.probability(frozenset({0, 1})) == 0.0


def test_product_form_empty_probability():
    weights = (0.3, 1.2, 0.8, 2.0)
    model = q1_model(weights)
    expected = 1.0
    for w in weights:
        expected /= 1.0 + w
    assert model.probability(frozenset()) == pytest.approx(expected, rel=1e-12)


def test_expectation_normalization_and_mean():
    s = 0.6
    model = q1_model([s] * 5)
    assert model.expectation(lambda cfg: 1.0) == pytest.approx(1.0, abs=1e-12)
    assert model.expectation(lambda cfg: float(len(cfg))) == pytest.approx(
        5 * s / (1 + s), rel=1e-12
    )
    empty_prob = model.expectation(lambda cfg: 1.0 if not cfg else 0.0)
    assert empty_prob == pytest.approx(model.probability(frozenset()), rel=1e-12)


def test_papangelou_poisson_and_occupancy():
    model = q1_model([0.5, 0.5])
    assert model.papangelou(0, frozenset()) == 1.0
    assert model.papangelou(0, frozenset({1})) == 1.0
    assert model.papangelou(0, frozenset({0})) == 0.0


def test_papangelou_pairwise_neighbor_count():
    gamma = 0.4
    pairs = [(0, 1), (0, 2), (2, 3)]
    model = FiniteModel(GroundSpace((1.0,) * 4), pairwise_log_density(gamma, pairs))
    assert model.papangelou(0, frozenset({1, 2})) == pytest.approx(gamma**2)
    assert model.papangelou(0, frozenset({3})) == pytest.approx(1.0)
    assert model.papangelou(2, frozenset({0, 3})) == pytest.approx(gamma**2)


def test_compound_campbell_base_cases():
    model = q1_model([1.0, 1.0, 1.0])
    assert model.compound_campbell((), frozenset({1})) == 1.0
    assert model.compound_campbell((0, 2), frozenset()) == 1.0
    assert model.compound_campbell((0, 0), frozenset()) == 0.0
    assert model.compound_campbell((1,), frozenset({1})) == 0.0


@pytest.mark.parametrize("site", [7, -1])
def test_compound_campbell_site_outside_the_ground_space(site):
    model = q1_model([1.0, 1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match=f"site {site} outside the ground space"):
        model.compound_campbell((0, site), frozenset({1}))
    with pytest.raises(ValueError, match=f"site {site} outside the ground space"):
        model.papangelou(site, frozenset())
    # a repeat or an overlap still contributes zero
    assert model.compound_campbell((2, 2), frozenset()) == 0.0
    assert model.compound_campbell((0, 1), frozenset({1})) == 0.0


def test_compound_campbell_matches_stepwise_product():
    model = FiniteModel(
        GroundSpace((0.7, 1.1, 0.4, 0.9)),
        pairwise_log_density(0.35, [(0, 1), (1, 2), (0, 3)]),
    )
    for mask in range(16):
        config = model.config(mask)
        for tup in permutations(range(4), 2):
            stepwise = model.papangelou(tup[0], config) * model.papangelou(
                tup[1], config | {tup[0]}
            )
            assert model.compound_campbell(tup, config) == pytest.approx(
                stepwise, abs=1e-14
            )


def test_compound_campbell_semigroup_property():
    model = FiniteModel(
        GroundSpace((1.0, 0.5, 1.5, 0.8)), pairwise_log_density(0.6, [(0, 2), (1, 3)])
    )
    for mask in range(4):  # configurations within sites {0,1}
        config = model.config(mask)
        joint = model.compound_campbell((2, 3), config)
        split = model.compound_campbell((2,), config | {3}) * model.compound_campbell(
            (3,), config
        )
        assert joint == pytest.approx(split, abs=1e-14)


def test_gnz_residual_zero_kernel():
    model = q1_model([1.0, 2.0])
    assert model.gnz_residual(lambda x, cfg: 0.0) == (0.0, 0.0)


def test_gnz_residual_counting_kernel():
    s = 0.9
    model = q1_model([s] * 6)
    lhs, rhs = model.gnz_residual(lambda x, cfg: 1.0)
    expected = 6 * s / (1 + s)
    assert lhs == pytest.approx(expected, rel=1e-12)
    assert rhs == pytest.approx(expected, rel=1e-12)


def test_gnz_residual_random_models():
    import random

    rng = random.Random(3)
    for _ in range(25):
        m = rng.randint(2, 7)
        weights = tuple(rng.uniform(0.1, 2.0) for _ in range(m))
        gamma = rng.choice([0.0, 0.3, 0.7, 1.0])
        pairs = [
            (a, b)
            for a in range(m)
            for b in range(a + 1, m)
            if rng.random() < 0.4
        ]
        model = FiniteModel(GroundSpace(weights), pairwise_log_density(gamma, pairs))
        table = {
            (x, k): rng.uniform(-1, 1) for x in range(m) for k in range(m + 2)
        }
        kernel = lambda x, cfg, t=table: t[(x, len(cfg))]
        lhs, rhs = model.gnz_residual(kernel)
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))


@pytest.mark.parametrize(
    "gamma,pairs",
    [(0.5, [(0, 1), (2, 7), (3, 14), (9, 12)]), (0.0, [(0, 1)]), (0.0, [(0, 1), (1, 5), (4, 9)])],
    ids=["pairwise-full-support", "hard-core-two-blocks", "hard-core-one-block"],
)
def test_gnz_residuals_equal_each_kernel_alone(gamma, pairs):
    # m = 15: the full support is two blocks of the chunked sums, and the
    # hard cores leave a partial support of two blocks and of one
    m = 15
    rng = np.random.default_rng(23)
    weights = tuple(float(w) for w in rng.uniform(0.1, 2.0, m))
    model = FiniteModel(GroundSpace(weights), pairwise_log_density(gamma, pairs))
    assert (len(model.support) > 1 << 14) == (len(pairs) == 1 or gamma > 0.0)
    site_term = [float(v) for v in rng.uniform(-1, 1, m)]
    scalar = lambda x, cfg: site_term[x] * (1.0 + 0.1 * len(cfg))
    array_kernels = [
        _by_parity(
            [float(v) for v in rng.uniform(-1, 1, m)],
            [float(v) for v in rng.uniform(-1, 1, m)],
            frozenset(int(x) for x in rng.choice(m, 5, replace=False)),
        )
        for _ in range(3)
    ]
    kernels = [array_kernels[0], scalar, *array_kernels[1:]]
    sides = model.gnz_residuals(kernels)
    assert sides == [model.gnz_residual(u) for u in kernels]
    assert model.gnz_residuals([]) == []
    for lhs, rhs in sides:
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))


@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
def test_pairwise_array_form_raises_no_floating_point_error(gamma):
    pairs = [(0, 1), (1, 2), (0, 3), (2, 4)]
    log_q = pairwise_log_density(gamma, pairs)
    masks = np.arange(1 << 5)
    with np.errstate(all="raise"):
        values = log_q.on_masks(masks)
    expected = [log_q(frozenset(x for x in range(5) if mask >> x & 1)) for mask in range(32)]
    assert values.tolist() == expected
    assert (gamma == 0.0) == (-math.inf in expected)


def test_correlation_poisson_product_form():
    weights = (0.2, 0.9, 1.4)
    model = q1_model(weights)
    # on the weighted atomic space the q = 1 correlation is the expected
    # disjointness indicator, a product of 1/(1 + sigma_x)
    expected = 1.0
    for w in weights[:2]:
        expected /= 1.0 + w
    assert model.correlation((0, 1)) == pytest.approx(expected, rel=1e-12)
    single = model.correlation((2,))
    assert single == pytest.approx(
        model.expectation(lambda cfg: model.papangelou(2, cfg)), rel=1e-12
    )


def test_correlation_consistent_with_factorial_moments():
    # sum over distinct tuples in a region of rho * weights = E[N(A)_(n)]
    weights = (0.5, 1.0, 0.7, 0.3)
    model = FiniteModel(
        GroundSpace(weights), pairwise_log_density(0.45, [(0, 1), (2, 3)])
    )
    region = {0, 1, 2}
    n = 2
    total = 0.0
    for tup in permutations(sorted(region), n):
        w = 1.0
        for x in tup:
            w *= weights[x]
        total += model.correlation(tup) * w

    def falling_count(cfg):
        c = len(cfg & region)
        return float(c * (c - 1))

    assert total == pytest.approx(model.expectation(falling_count), rel=1e-10)


def test_correlation_hard_core_pair_vanishes():
    model = FiniteModel(GroundSpace((1.0, 1.0, 1.0)), pairwise_log_density(0.0, [(0, 1)]))
    assert model.correlation((0, 1)) == 0.0
    with pytest.raises(ValueError):
        model.correlation((0, 0))


def test_hereditarity_validation():
    def non_hereditary(cfg):
        # forbids the singleton {0} but allows {0, 1}
        if cfg == frozenset({0}):
            return -math.inf
        return 0.0

    with pytest.raises(ValueError):
        FiniteModel(GroundSpace((1.0, 1.0)), non_hereditary)


def test_empty_configuration_must_be_allowed():
    with pytest.raises(ValueError):
        FiniteModel(GroundSpace((1.0,)), lambda cfg: -math.inf)


def test_ground_space_validation():
    with pytest.raises(ValueError):
        GroundSpace(())
    with pytest.raises(ValueError):
        GroundSpace((1.0, 0.0))


def test_model_description_roundtrip(tmp_path):
    description = {
        "sites": 3,
        "weights": [0.5, 1.0, 1.5],
        "density": {"type": "pairwise", "gamma": 0.25, "pairs": [[0, 1]]},
    }
    model = model_from_description(description)
    assert model.m == 3
    assert model.papangelou(0, frozenset({1})) == pytest.approx(0.25)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(description))
    loaded = load_model(path)
    assert loaded.partition_constant == pytest.approx(model.partition_constant)


def test_model_description_poisson_and_errors():
    model = model_from_description(
        {"sites": 2, "weights": [1.0, 1.0], "density": {"type": "poisson"}}
    )
    assert model.papangelou(0, frozenset()) == 1.0
    with pytest.raises(ValueError):
        model_from_description({"sites": 2, "weights": [1.0], "density": {"type": "poisson"}})
    with pytest.raises(ValueError):
        model_from_description(
            {"sites": 1, "weights": [1.0], "density": {"type": "nope"}}
        )
    with pytest.raises(ValueError):
        model_from_description(
            {"sites": 2, "weights": [1.0, 1.0],
             "density": {"type": "pairwise", "gamma": 0.5, "pairs": [[0, 5]]}}
        )


_PAIRWISE = {"type": "pairwise", "gamma": 0.5, "pairs": [[0, 1]]}


@pytest.mark.parametrize(
    "description",
    [
        # a site count or pair index that int() would truncate
        {"sites": 2.9, "weights": [1.0, 1.0], "density": {"type": "poisson"}},
        {"sites": 2, "weights": [1.0, 1.0],
         "density": {**_PAIRWISE, "pairs": [[0.7, 1.2]]}},
        # strings and booleans are not numbers
        {"sites": "2", "weights": [1.0, 1.0], "density": {"type": "poisson"}},
        {"sites": True, "weights": [1.0], "density": {"type": "poisson"}},
        {"sites": 2, "weights": ["1.0", True], "density": {"type": "poisson"}},
        {"sites": 2, "weights": [1.0, True], "density": {"type": "poisson"}},
        {"sites": 2, "weights": [1.0, 1.0], "density": {**_PAIRWISE, "gamma": "0.5"}},
        {"sites": 2, "weights": [1.0, 1.0], "density": {**_PAIRWISE, "pairs": [[True, 0]]}},
    ],
    ids=["sites-not-integral", "pair-not-integral", "sites-string", "sites-bool",
         "weights-string-and-bool", "weight-bool", "gamma-string", "pair-bool"],
)
def test_model_description_rejects_values_that_are_not_real_numbers(description):
    with pytest.raises(ValueError):
        model_from_description(description)


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: q1_model([1.0] * (finite_model.MAX_SITES + 1)), "at most"),
        (lambda: FiniteModel(GroundSpace((1.0,)), lambda config: 1000.0), "density overflow"),
        # every q(omega) is finite, but a site weight carries q w past the
        # float range
        (lambda: FiniteModel(GroundSpace((1e300,)), lambda config: 700.0),
         "partition constant must be positive and finite"),
        (lambda: pairwise_log_density(-0.5, [(0, 1)]), "gamma must be nonnegative"),
        (lambda: pairwise_log_density(0.5, [(0, 1), (1, 1)]), "must join distinct sites"),
        (lambda: model_from_description({"weights": [1.0], "density": {"type": "poisson"}}),
         "malformed model description"),
    ],
    ids=["above-max-sites", "density-overflow", "partition-constant-overflow",
         "gamma-negative", "self-pair", "description-without-sites"],
)
def test_model_guards_name_the_fault(build, message):
    with np.errstate(over="ignore"), pytest.raises(ValueError, match=message):
        build()


def test_model_description_reads_integral_floats_as_integers():
    model = model_from_description(
        {"sites": 2.0, "weights": [1, 2], "density": {**_PAIRWISE, "pairs": [[0.0, 1.0]]}}
    )
    assert model.m == 2 and model.weights == (1.0, 2.0)
    assert model.papangelou(0, frozenset({1})) == 0.5


def test_hereditarity_check_is_exhaustive_above_sixteen_sites():
    # forbids only {0..15} while allowing its superset {0..16}
    forbidden = frozenset(range(16))

    def log_q(cfg):
        return -math.inf if cfg == forbidden else 0.0

    with pytest.raises(ValueError, match="hereditary"):
        FiniteModel(GroundSpace((1.0,) * 17), log_q)


def test_gnz_kernel_called_once_per_site_and_configuration():
    m = 6
    weights = tuple(0.3 + 0.2 * x for x in range(m))
    model = FiniteModel(GroundSpace(weights), poisson_log_density())
    calls = []

    def kernel(x, cfg):
        calls.append((x, cfg))
        return 1.0 + x * len(cfg)

    model.gnz_residual(kernel)
    assert len(calls) == m * 2 ** (m - 1)
    assert len(set(calls)) == len(calls)
    assert all(x in cfg for x, cfg in calls)


# finite floats of every binary exponent from -1074 (the subnormals) to 1000
_finite = st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1074, 1000))


@st.composite
def _cancelling(draw):
    """Finite floats, some of them negated copies of others, shuffled."""
    values = draw(st.lists(_finite, max_size=70))
    copies = draw(st.lists(st.sampled_from(values), max_size=len(values))) if values else []
    return draw(st.permutations(values + [-v for v in copies]))


def _fsum_outcome(values):
    """(math.fsum(values).hex(), finite_model._fsum(array).hex()), with an
    exception as its type, under a cutoff of 8 and chunks of 16 values: the
    lengths drawn then reach both sides of the cutoff and several chunks."""
    outcomes = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(finite_model, "_EXACT_MIN", 8)
        patch.setattr(finite_model, "_EXACT_CHUNK", 16)
        for add, data in ((math.fsum, values), (finite_model._fsum, np.array(values, float))):
            try:
                outcomes.append(add(data).hex())
            except (ValueError, OverflowError) as exc:
                outcomes.append(type(exc))
    return outcomes


@settings(max_examples=400, deadline=None)
@given(values=_cancelling())
@example(values=[-0.0] * 20)
@example(values=[1.0, -1.0] * 10 + [-0.0])
@example(values=[5e-324] * 40 + [-5e-324] * 3)
@example(values=[1.0] + [2.0**-53] * 17)
def test_exact_sum_equals_math_fsum_bit_for_bit(values):
    # hex() tells -0.0 from 0.0
    fsum, exact = _fsum_outcome(values)
    assert exact == fsum


_extreme = st.sampled_from(
    [math.nan, math.inf, -math.inf, 2.0**1020, -(2.0**1023), 1.7976931348623157e308]
)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.one_of(st.floats(), _extreme), max_size=70))
@example(values=[math.inf, -math.inf] + [1.0] * 10)
@example(values=[1e308, 1e308, -1e308] + [0.0] * 10)
@example(values=[1.7976931348623157e308] * 2 + [-1.0] * 10)
def test_exact_sum_follows_math_fsum_on_nan_inf_and_overflow(values):
    fsum, exact = _fsum_outcome(values)
    assert exact == fsum
