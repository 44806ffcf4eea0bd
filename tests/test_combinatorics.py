"""Combinatorics tests against independent brute-force oracles."""

import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppmoments.combinatorics import (
    MAX_REINDEX_M,
    MAX_REINDEX_N,
    MAX_REINDEX_P,
    Cover,
    Partition,
    _compositions,
    compound_poisson_moment,
    covers,
    falling_factorial,
    moments_from_factorial,
    partitions,
    stirling2,
    stirling_reindex_gap,
)
from ppmoments.difference_ops import _families


def stirling_by_surjections(n, k):
    """Independent oracle: S(n,k) = #surjections(n -> k) / k!."""
    if k == 0:
        return 1 if n == 0 else 0
    count = 0
    for labeling in product(range(k), repeat=n):
        if len(set(labeling)) == k:
            count += 1
    return count // math.factorial(k)


def stirling_by_multinomial(n, k):
    """Second oracle: the multinomial-sum formula over compositions of n
    into k positive parts, divided by k!."""
    if k == 0:
        return 1 if n == 0 else 0

    def compositions(total, parts):
        if parts == 1:
            if total >= 1:
                yield (total,)
            return
        for first in range(1, total - parts + 2):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    total = 0
    for comp in compositions(n, k):
        term = math.factorial(n)
        for d in comp:
            term //= math.factorial(d)
        total += term
    return total // math.factorial(k)


def test_falling_factorial_values():
    assert falling_factorial(5, 3) == 60
    assert falling_factorial(123.5, 0) == 1
    assert falling_factorial(2, 4) == 0
    assert falling_factorial(-2, 2) == 6
    assert falling_factorial(Fraction(1, 2), 2) == Fraction(-1, 4)


def test_falling_factorial_rejects_negative_order():
    with pytest.raises(ValueError):
        falling_factorial(3, -1)


@pytest.mark.parametrize("n,k,expected", [(3, 2, 3), (4, 2, 7), (5, 5, 1), (6, 0, 0)])
def test_stirling_frozen_values(n, k, expected):
    assert stirling2(n, k) == expected


def test_stirling_against_both_oracles():
    for n in range(0, 8):
        for k in range(0, n + 1):
            expected = stirling_by_surjections(n, k)
            assert stirling2(n, k) == expected
            assert stirling_by_multinomial(n, k) == expected


def test_stirling_range_guard():
    with pytest.raises(ValueError):
        stirling2(26, 3)
    with pytest.raises(ValueError):
        stirling2(4, 5)
    with pytest.raises(ValueError):
        stirling2(3, -1)


def test_classical_moment_identity_exact_integers():
    # sum_k S(n,k) x_(k) = x^n, exact over the integer grid
    for x in range(-5, 6):
        for n in range(0, 11):
            total = sum(
                stirling2(n, k) * falling_factorial(x, k) for k in range(n + 1)
            )
            assert total == x**n


def test_partition_counts_match_bell_numbers():
    for n in range(1, 8):
        bell = sum(stirling2(n, k) for k in range(n + 1))
        assert sum(1 for _ in partitions(n)) == bell


def test_partitions_unique_and_canonical():
    seen = set()
    for part in partitions(5):
        assert part.ground_size == 5
        assert part not in seen
        seen.add(part)
        mins = [min(b) for b in part.blocks]
        assert mins == sorted(mins)
        assert set().union(*part.blocks) == {1, 2, 3, 4, 5}


def test_partition_one_element():
    only = list(partitions(1))
    assert only == [Partition((frozenset({1}),), 1)]


def test_enumeration_orders_are_pinned():
    # report bodies depend on these orders: partitions lays out the
    # mc-identity right-side points, _families orders ddd0's running sum and
    # _compositions orders stir1's sum
    assert [[sorted(b) for b in part.blocks] for part in partitions(4)] == [
        [[1, 2, 3, 4]], [[1, 2, 3], [4]], [[1, 2, 4], [3]], [[1, 2], [3, 4]],
        [[1, 2], [3], [4]], [[1, 3, 4], [2]], [[1, 3], [2, 4]], [[1, 3], [2], [4]],
        [[1, 4], [2, 3]], [[1], [2, 3, 4]], [[1], [2, 3], [4]], [[1, 4], [2], [3]],
        [[1], [2, 4], [3]], [[1], [2], [3, 4]], [[1], [2], [3], [4]],
    ]
    assert [[sorted(p) for p in cover.parts] for cover in covers(2, 2)] == [
        [[1, 2]], [[1], [2]], [[1], [1, 2]], [[2], [1]], [[2], [1, 2]], [[1, 2], [1]],
        [[1, 2], [2]], [[1, 2], [1, 2]],
    ]
    assert _families(2, False).tolist() == [
        [1, 2], [1, 3], [2, 1], [2, 3], [3, 1], [3, 2], [3, 3],
    ]
    assert _families(2, True).tolist() == [
        [0, 3], [1, 2], [1, 3], [2, 1], [2, 3], [3, 0], [3, 1], [3, 2], [3, 3],
    ]
    assert list(_compositions(2, 3)) == [
        (0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0),
    ]


def test_partition_range_guard():
    with pytest.raises(ValueError):
        next(partitions(0))
    with pytest.raises(ValueError):
        next(partitions(13))


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((frozenset({1}), frozenset({1, 2})), 2)
    with pytest.raises(ValueError):
        Partition((frozenset({2}), frozenset({1})), 2)
    assert Partition.from_blocks([{2}, {1}], 2).blocks == (
        frozenset({1}),
        frozenset({2}),
    )


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: Partition((), 0), "ground_size must be positive"),
        (lambda: Partition((frozenset(), frozenset({1})), 1), "empty block"),
        (lambda: Partition((frozenset({1}),), 2), "blocks must cover"),
        (lambda: Cover((), 0), "ground_size must be positive"),
        (lambda: Cover((frozenset({1}), frozenset()), 1), "empty part"),
        (lambda: Cover((frozenset({2}),), 2), "parts must cover"),
        (lambda: moments_from_factorial([1.0], 0), "order must be positive"),
        (lambda: stirling_reindex_gap([[]], [1.0], 1, 0), "m must satisfy"),
        (lambda: stirling_reindex_gap([[1.0] * (MAX_REINDEX_M + 1)], [1.0], 1,
                                      MAX_REINDEX_M + 1), "m must satisfy"),
        (lambda: stirling_reindex_gap([[1.0]] * (MAX_REINDEX_P + 1),
                                      [1.0] * (MAX_REINDEX_P + 1), 1, 1), "p must satisfy"),
    ],
    ids=["partition-ground-size-0", "partition-empty-block", "partition-misses-an-element",
         "cover-ground-size-0", "cover-empty-part", "cover-misses-an-element",
         "moments-from-factorial-order-0", "reindex-m-0", "reindex-m-above-bound",
         "reindex-p-above-bound"],
)
def test_guards_name_the_fault(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_cover_counts():
    assert sum(1 for _ in covers(1, 1)) == 1
    two_part = [c for c in covers(2, 2) if c.n_parts == 2]
    # the seven ordered pairs of nonempty subsets of {1,2} with full union
    assert len(two_part) == 7
    for cover in covers(3, 2):
        assert frozenset().union(*cover.parts) == {1, 2, 3}


def test_cover_uniqueness_and_order():
    seen = set()
    for cover in covers(3, 2):
        key = (cover.parts, cover.ground_size)
        assert key not in seen
        seen.add(key)


def test_cover_guards():
    with pytest.raises(ValueError):
        next(covers(7, 2))
    with pytest.raises(ValueError):
        next(covers(2, 0))
    with pytest.raises(ValueError):
        Cover((frozenset(),), 1)
    with pytest.raises(ValueError):
        Cover((frozenset({1}),), 2)


def test_moments_from_factorial_poisson_case():
    # Poisson with rate 1: mu_k^f = 1, third moment is 1 + 3 + 1
    assert moments_from_factorial([1, 1, 1], 3) == 5


def test_moments_from_factorial_degenerate_case():
    # X = 3 surely: mu_1^f = 3, mu_2^f = 6, second moment 9
    fm = [falling_factorial(3, k) for k in (1, 2)]
    assert moments_from_factorial(fm, 2) == 9


def test_moments_from_factorial_first_order_passthrough():
    assert moments_from_factorial([2.5], 1) == 2.5


def test_moments_from_factorial_short_input():
    with pytest.raises(ValueError):
        moments_from_factorial([1.0], 2)


def test_compound_poisson_single_component():
    lam = Fraction(7, 5)
    assert compound_poisson_moment([1], [lam], 2) == lam + lam**2


def test_compound_poisson_zero_betas():
    assert compound_poisson_moment([0, 0], [2.0, 3.0], 3) == 0


def test_compound_poisson_mean_of_sum():
    assert compound_poisson_moment([1, 1], [Fraction(1, 3), Fraction(1, 4)], 1) == Fraction(7, 12)


def test_compound_poisson_matches_factorial_route():
    # single component: moment = beta^n sum_k S(n,k) alpha^k
    beta, alpha = Fraction(2, 3), Fraction(5, 4)
    for n in range(1, 6):
        direct = compound_poisson_moment([beta], [alpha], n)
        via_stirling = beta**n * sum(
            stirling2(n, k) * alpha**k for k in range(1, n + 1)
        )
        assert direct == via_stirling
        fm = [alpha**k for k in range(1, n + 1)]
        assert direct == beta**n * moments_from_factorial(fm, n)


def test_compound_poisson_guards():
    with pytest.raises(ValueError):
        compound_poisson_moment([1], [1, 2], 2)
    with pytest.raises(ValueError):
        compound_poisson_moment([], [], 1)
    with pytest.raises(ValueError):
        compound_poisson_moment([1], [1], 11)


def test_stirling_reindex_trivial_cases():
    lhs, rhs = stirling_reindex_gap([[Fraction(0)]], [Fraction(3)], 2, 1)
    assert lhs == rhs == 0
    b = Fraction(4, 7)
    lhs, rhs = stirling_reindex_gap([[Fraction(1)]], [b], 1, 1)
    assert lhs == rhs == b


def test_stirling_reindex_exact_on_rationals():
    import random

    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = rng.randint(1, 3)
        p = rng.randint(1, 3)
        alphas = [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 5)) for _ in range(m)]
            for _ in range(p)
        ]
        betas = [Fraction(rng.randint(-3, 3), rng.randint(1, 5)) for _ in range(p)]
        lhs, rhs = stirling_reindex_gap(alphas, betas, n, m)
        assert lhs == rhs


def test_stirling_reindex_exact_at_every_shape():
    # two matrices per shape, so the second reads the cached enumeration
    import random

    rng = random.Random(29)
    for n, m, p in product(
        range(1, MAX_REINDEX_N + 1), range(1, MAX_REINDEX_M + 1), range(1, MAX_REINDEX_P + 1)
    ):
        for _ in range(2):
            alphas = [
                [Fraction(rng.randint(-5, 5), rng.randint(1, 7)) for _ in range(m)]
                for _ in range(p)
            ]
            betas = [Fraction(rng.randint(-5, 5), rng.randint(1, 7)) for _ in range(p)]
            lhs, rhs = stirling_reindex_gap(alphas, betas, n, m)
            assert lhs == rhs, (n, m, p)


def test_stirling_reindex_float_tolerance():
    import random

    rng = random.Random(13)
    for _ in range(40):
        n, m, p = rng.randint(1, 5), rng.randint(1, 4), rng.randint(1, 3)
        alphas = [[rng.uniform(-1, 1) for _ in range(m)] for _ in range(p)]
        betas = [rng.uniform(-1, 1) for _ in range(p)]
        lhs, rhs = stirling_reindex_gap(alphas, betas, n, m)
        assert abs(lhs - rhs) <= 1e-9 * (1 + max(abs(lhs), abs(rhs)))


def test_stirling_reindex_guards():
    with pytest.raises(ValueError):
        stirling_reindex_gap([[1.0]], [1.0], 6, 1)
    with pytest.raises(ValueError):
        stirling_reindex_gap([[1.0, 1.0]], [1.0], 1, 1)


@settings(max_examples=60, deadline=None)
@given(x=st.integers(min_value=-20, max_value=20), n=st.integers(min_value=0, max_value=12))
def test_falling_factorial_recurrence(x, n):
    # x_(n+1) = x_(n) * (x - n)
    assert falling_factorial(x, n + 1) == falling_factorial(x, n) * (x - n)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=1, max_value=7), k=st.integers(min_value=1, max_value=7))
def test_stirling_recurrence_consistency(n, k):
    if k > n:
        assert stirling2(n, min(k, n)) >= 0
        return
    left = stirling2(n + 1, k)
    assert left == k * stirling2(n, k) + stirling2(n, k - 1)
