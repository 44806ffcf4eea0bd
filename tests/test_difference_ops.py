"""Difference operator tests: expansions, compositions, cover condition."""

import functools
import itertools
import operator
import random

import numpy as np
import pytest

from ppmoments.difference_ops import (
    add_points,
    cover_condition_holds,
    diff,
    diff_multi,
    product_expansion_gap,
)
from ppmoments.difference_ops import _family_products, _moebius
from ppmoments.instances import generate_random_instance


def table_functional(rng, n_sites):
    values = {mask: rng.uniform(-1, 1) for mask in range(1 << n_sites)}

    def functional(cfg):
        return values[sum(1 << x for x in cfg if x < n_sites)]

    return functional


def test_add_points_basics():
    count = lambda cfg: float(len(cfg))
    assert add_points(count, ())(frozenset({1})) == 1.0
    shifted = add_points(count, (5,))
    assert shifted(frozenset()) == 1.0
    assert shifted(frozenset({5})) == 1.0  # duplicates collapse


def test_add_points_composes_like_union():
    rng = random.Random(0)
    functional = table_functional(rng, 6)
    first = add_points(functional, (0, 1))
    composed = add_points(first, (1, 2))
    direct = add_points(functional, (0, 1, 2))
    for mask in range(16):
        cfg = frozenset(x for x in range(4) if mask >> x & 1)
        assert composed(cfg) == direct(cfg)


def test_diff_constant_and_members():
    const = lambda cfg: 3.25
    assert diff(const, 0)(frozenset()) == 0.0
    count = lambda cfg: float(len(cfg))
    assert diff(count, 4)(frozenset()) == 1.0
    assert diff(count, 4)(frozenset({4})) == 0.0


def test_diff_multi_singleton_matches_diff():
    rng = random.Random(1)
    functional = table_functional(rng, 5)
    single = diff_multi(functional, {3})
    plain = diff(functional, 3)
    for mask in range(32):
        cfg = frozenset(x for x in range(5) if mask >> x & 1)
        assert single(cfg) == pytest.approx(plain(cfg), abs=1e-14)


def test_diff_multi_kills_constants():
    const = lambda cfg: -2.0
    for size in (1, 2, 3):
        op = diff_multi(const, set(range(size)))
        assert op(frozenset()) == pytest.approx(0.0, abs=1e-14)


def test_diff_multi_equals_iterated_composition_any_order():
    rng = random.Random(2)
    functional = table_functional(rng, 6)
    points = (0, 2, 4, 5)
    multi = diff_multi(functional, points)
    for ordering in itertools.permutations(points):
        composed = functional
        for x in ordering:
            composed = diff(composed, x)
        for mask in (0, 3, 17, 42):
            cfg = frozenset(x for x in range(6) if mask >> x & 1)
            assert multi(cfg) == pytest.approx(composed(cfg), abs=1e-12)


def test_epsilon_expansion_over_all_subsets():
    # F(omega u points) = sum over subsets Theta of D_Theta F(omega)
    rng = random.Random(3)
    functional = table_functional(rng, 6)
    points = (1, 3, 5)
    for mask in (0, 9, 21):
        cfg = frozenset(x for x in range(6) if mask >> x & 1)
        lhs = add_points(functional, points)(cfg)
        total = 0.0
        for size in range(len(points) + 1):
            for subset in itertools.combinations(points, size):
                total += diff_multi(functional, subset)(cfg)
        assert lhs == pytest.approx(total, abs=1e-12)


def random_kernels(rng, count, n_sites):
    kernels = []
    for _ in range(count):
        values = {
            (x, mask): rng.uniform(-1, 1)
            for x in range(n_sites)
            for mask in range(1 << n_sites)
        }

        def kernel(x, cfg, v=values):
            return v[(x, sum(1 << e for e in cfg if e < n_sites))]

        kernels.append(kernel)
    return kernels


def test_product_expansion_single_kernel():
    rng = random.Random(4)
    kernel = random_kernels(rng, 1, 4)[0]
    cfg = frozenset({1})
    lhs, rhs = product_expansion_gap([kernel], (2,), cfg)
    direct = diff(lambda c: kernel(2, c), 2)(cfg)
    assert lhs == pytest.approx(direct, abs=1e-14)
    assert rhs == pytest.approx(direct, abs=1e-14)


def test_product_expansion_constant_kernels_vanish():
    kernels = [lambda x, cfg: 1.5, lambda x, cfg: -0.5]
    lhs, rhs = product_expansion_gap(kernels, (0, 1), frozenset())
    assert lhs == 0.0
    assert rhs == 0.0


def test_product_expansion_agreement_random():
    rng = random.Random(5)
    for trial in range(30):
        length = rng.randint(1, 4)
        kernels = random_kernels(rng, length, 5)
        points = tuple(rng.sample(range(5), length))
        cfg = frozenset(x for x in range(5) if rng.random() < 0.4)
        lhs, rhs = product_expansion_gap(kernels, points, cfg)
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs)), (trial, lhs, rhs)


def test_difference_table_matches_the_submask_sum():
    # reference: d[theta] = sum over eta subset theta of (-1)^{|theta|-|eta|} v[eta]
    rng = random.Random(8)
    by_length = {}
    for _ in range(200):
        length = rng.randint(1, 4)
        values = [rng.uniform(-1, 1) for _ in range(1 << length)]
        expected = [
            sum(
                (-1) ** (bin(theta).count("1") - bin(eta).count("1")) * values[eta]
                for eta in range(theta + 1)
                if eta & theta == eta
            )
            for theta in range(1 << length)
        ]
        table = _moebius(values)
        assert table.tolist() == pytest.approx(expected, rel=0.0, abs=1e-14)
        by_length.setdefault(length, []).append((values, table))
    # with leading batch axes every row is transformed on its own
    for length, cases in by_length.items():
        rows = np.array([values for values, _ in cases])
        batch = _moebius(rows[:, None, :])
        assert batch.shape == (len(cases), 1, 1 << length)
        assert (batch[:, 0] == np.array([table for _, table in cases])).all()


def test_family_products_match_the_per_family_loop():
    # reference: for every ordered family of index subsets with full union,
    # prod_j d[j][Theta_j], multiplied in j order
    rng = random.Random(9)
    for _ in range(24):
        length = rng.randint(1, 4)
        d = np.array([
            [[rng.uniform(-1, 1) for _ in range(1 << length)] for _ in range(length)]
            for _ in range(2)
        ])
        for allow_empty in (True, False):
            start = 0 if allow_empty else 1
            expected = []
            for table in d.tolist():
                row = []
                for family in itertools.product(range(start, 1 << length), repeat=length):
                    if functools.reduce(operator.or_, family) != (1 << length) - 1:
                        continue
                    prod = 1.0
                    for j in range(length):
                        prod *= table[j][family[j]]
                    row.append(prod)
                expected.append(row)
            assert _family_products(d, allow_empty).tolist() == expected


def test_product_expansion_guards():
    kernels = [lambda x, cfg: 0.0] * 5
    with pytest.raises(ValueError):
        product_expansion_gap(kernels, tuple(range(5)), frozenset())
    with pytest.raises(ValueError):
        product_expansion_gap(kernels[:2], (0,), frozenset())


def test_cover_condition_trivial_cases():
    omega_free = [lambda x, cfg: float(x)] * 3
    assert cover_condition_holds(omega_free, (0, 1, 2), frozenset())
    sensitive = [lambda x, cfg: float(len(cfg))]
    # D_{x_1} u(x_1, .) = 1 != 0
    assert not cover_condition_holds(sensitive, (4,), frozenset())


def test_cover_condition_implies_zero_product():
    # kernels built to satisfy the condition: the full product difference
    # must vanish on every constructed instance
    for seed in range(25):
        bundle = generate_random_instance(
            "cover-lemma", {"m_min": 4, "m_max": 6, "l_max": 3}, 1000 + seed
        )
        kernels, points, cfg = bundle["kernels"], bundle["points"], bundle["config"]
        assert cover_condition_holds(kernels, points, cfg, tol=1e-12)
        lhs, _ = product_expansion_gap(kernels, points, cfg)
        assert abs(lhs) <= 1e-10
