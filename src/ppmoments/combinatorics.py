"""Exact combinatorics behind the moment identities.

Everything here is integer or rational arithmetic (Python ints, or whatever
numeric type the caller passes through), so results can serve as exact
oracles for the floating-point engines. Hard size guards keep the partition
and cover streams at desk scale; they grow like Bell numbers or worse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import permutations, product
from operator import or_
from typing import Iterator, Sequence

MAX_STIRLING_N = 25
MAX_PARTITION_N = 12
MAX_COVER_N = 6
MAX_COVER_PARTS = 6
MAX_COMPOUND_N = 10
MAX_REINDEX_N = 5
MAX_REINDEX_M = 4
MAX_REINDEX_P = 3


@dataclass(frozen=True)
class Partition:
    """A partition of {1, ..., ground_size} into disjoint nonempty blocks.

    Blocks are stored in canonical order (sorted by smallest element), so
    equality of two partitions is plain tuple equality.
    """

    blocks: tuple[frozenset[int], ...]
    ground_size: int

    def __post_init__(self):
        if self.ground_size < 1:
            raise ValueError("ground_size must be positive")
        seen: set[int] = set()
        for block in self.blocks:
            if not block:
                raise ValueError("empty block in partition")
            if block & seen:
                raise ValueError("blocks must be disjoint")
            seen |= block
        if seen != set(range(1, self.ground_size + 1)):
            raise ValueError("blocks must cover {1..n}")
        mins = [min(b) for b in self.blocks]
        if mins != sorted(mins):
            raise ValueError("blocks must be sorted by smallest element")

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def block_sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)

    @classmethod
    def from_blocks(cls, blocks, ground_size: int) -> "Partition":
        """Build a partition from blocks in any order."""
        canon = tuple(sorted((frozenset(b) for b in blocks), key=min))
        return cls(canon, ground_size)


@dataclass(frozen=True)
class Cover:
    """An ordered family of nonempty subsets of {1..ground_size} whose union
    is the whole ground set. Parts may overlap; order is significant."""

    parts: tuple[frozenset[int], ...]
    ground_size: int

    def __post_init__(self):
        if self.ground_size < 1:
            raise ValueError("ground_size must be positive")
        union: set[int] = set()
        for part in self.parts:
            if not part:
                raise ValueError("empty part in cover")
            union |= part
        if union != set(range(1, self.ground_size + 1)):
            raise ValueError("parts must cover {1..n}")

    @property
    def n_parts(self) -> int:
        return len(self.parts)


def falling_factorial(x, n: int):
    """x (x-1) ... (x-n+1), with the empty product equal to 1 when n = 0.

    Exact for integer x; works for floats, Fractions and, elementwise, numpy
    arrays alike, returning the type of x.
    """
    if n < 0:
        raise ValueError("order must be nonnegative")
    result = x**0
    for k in range(n):
        result = result * (x - k)
    return result


@lru_cache(maxsize=None)
def _stirling2(n: int, k: int) -> int:
    if k == 0:
        return 1 if n == 0 else 0
    if k > n:
        return 0
    if k == n:
        return 1
    return k * _stirling2(n - 1, k) + _stirling2(n - 1, k - 1)


def stirling2(n: int, k: int) -> int:
    """Number of partitions of an n-set into k nonempty blocks.

    Computed by the triangular recurrence S(n,k) = k S(n-1,k) + S(n-1,k-1),
    which stays in exact integers.
    """
    if not (0 <= k <= n <= MAX_STIRLING_N):
        raise ValueError(
            f"stirling2 requires 0 <= k <= n <= {MAX_STIRLING_N}, got n={n}, k={k}"
        )
    return _stirling2(n, k)


def partitions(n: int) -> Iterator[Partition]:
    """Yield every partition of {1..n} exactly once.

    Enumeration is in the lexicographic order of restricted growth strings:
    the label of element 1 is 0 and each later label is at most one more
    than the running maximum. That order puts blocks in canonical order for
    free.
    """
    if not (1 <= n <= MAX_PARTITION_N):
        raise ValueError(f"partitions requires 1 <= n <= {MAX_PARTITION_N}, got {n}")

    def grow(blocks: tuple[frozenset[int], ...], element: int) -> Iterator[Partition]:
        if element > n:
            yield Partition(blocks, n)
            return
        # the element joins each block in turn, then opens a new last block
        for i in range(len(blocks) + 1):
            joined = blocks[i] | {element} if i < len(blocks) else frozenset({element})
            yield from grow(blocks[:i] + (joined,) + blocks[i + 1:], element + 1)

    yield from grow((), 1)


def covers(n: int, max_parts: int) -> Iterator[Cover]:
    """Yield every ordered family of at most max_parts nonempty subsets of
    {1..n} with union {1..n}, each family exactly once.

    Families are ordered sequences: ({1},{2}) and ({2},{1}) are distinct.
    Enumeration order is deterministic: by number of parts, then
    lexicographically in the bitmask encoding of the parts.
    """
    if not (1 <= n <= MAX_COVER_N):
        raise ValueError(f"covers requires 1 <= n <= {MAX_COVER_N}, got {n}")
    if not (1 <= max_parts <= MAX_COVER_PARTS):
        raise ValueError(
            f"covers requires 1 <= max_parts <= {MAX_COVER_PARTS}, got {max_parts}"
        )
    subsets = [frozenset(i + 1 for i in range(n) if mask >> i & 1) for mask in range(1 << n)]
    for k in range(1, max_parts + 1):
        for masks in _cover_tuples(n, k):
            yield Cover(tuple(subsets[m] for m in masks), n)


def _cover_tuples(n: int, k: int, allow_empty: bool = False) -> Iterator[tuple[int, ...]]:
    """Ordered k-tuples of subset bitmasks with union {1..n}, in lexicographic
    order; the subsets are nonempty unless allow_empty."""
    full = (1 << n) - 1
    masks = range(0 if allow_empty else 1, full + 1)
    return (family for family in product(masks, repeat=k) if reduce(or_, family, 0) == full)


def moments_from_factorial(factorial_moments: Sequence, n: int):
    """Convert factorial moments to the raw moment of order n.

    Uses E[X^n] = sum_k S(n,k) mu_k^f with mu_k^f = E[X (X-1) ... (X-k+1)].
    factorial_moments[k-1] must hold mu_k^f for k = 1..n.
    """
    if n < 1:
        raise ValueError("order must be positive")
    if len(factorial_moments) < n:
        raise ValueError(
            f"need factorial moments up to order {n}, got {len(factorial_moments)}"
        )
    return sum(stirling2(n, k) * factorial_moments[k - 1] for k in range(1, n + 1))


def compound_poisson_moment(betas: Sequence, alphas: Sequence, n: int):
    """Raw moment of order n of sum_i beta_i Z_i for independent Poisson Z_i
    with rates alpha_i.

    Evaluates the partition expansion: the cumulant of order s is
    kappa_s = sum_i alpha_i beta_i^s and the moment is the sum over set
    partitions of {1..n} of the product of kappa_{|block|}.
    """
    if len(betas) != len(alphas):
        raise ValueError("betas and alphas must have equal length")
    if not betas:
        raise ValueError("need at least one component")
    if not (1 <= n <= MAX_COMPOUND_N):
        raise ValueError(f"order must satisfy 1 <= n <= {MAX_COMPOUND_N}")
    kappa = {
        s: sum(a * b**s for a, b in zip(alphas, betas)) for s in range(1, n + 1)
    }
    total = 0
    for part in partitions(n):
        term = 1
        for block in part.blocks:
            term = term * kappa[len(block)]
        total = total + term
    return total


def stirling_reindex_gap(alphas, betas: Sequence, n: int, m: int):
    """Evaluate both sides of the Stirling reindexing identity (suite id
    "stir1") by independent direct enumeration.

    Left side: sum over compositions n_1 + ... + n_p = n of nonnegative
    integers and over ordered families (I_1, ..., I_p) of pairwise disjoint
    (possibly empty) position sets with I_1 u ... u I_p = {1..m} and
    |I_i| <= n_i, of

        n!/(n_1! ... n_p!) * prod_i S(n_i, |I_i|) * (|I_1|! ... |I_p|!)/m!
        * prod_i beta_i^{n_i} prod_{j in I_i} alpha[i][j].

    Right side: sum over ordered sequences (P_1, ..., P_m) of disjoint
    nonempty blocks partitioning {1..n} and over index tuples
    (i_1, ..., i_m) in {1..p}^m of prod_j beta_{i_j}^{|P_j|} alpha[i_j][j],
    divided by m! (each unordered partition is visited in all m! block
    orders, which is what makes position-dependent alpha columns pair
    consistently with the left side).

    alphas is a p x m matrix (sequence of p rows). Returns (lhs, rhs).
    Exact for int/Fraction entries.
    """
    p = len(betas)
    if p < 1 or len(alphas) != p or any(len(row) != m for row in alphas):
        raise ValueError("alphas must be a p x m matrix matching len(betas)")
    if not (1 <= n <= MAX_REINDEX_N):
        raise ValueError(f"n must satisfy 1 <= n <= {MAX_REINDEX_N}")
    if not (1 <= m <= MAX_REINDEX_M):
        raise ValueError(f"m must satisfy 1 <= m <= {MAX_REINDEX_M}")
    if p > MAX_REINDEX_P:
        raise ValueError(f"p must satisfy p <= {MAX_REINDEX_P}")

    m_fact = math.factorial(m)
    left, right = _reindex_terms(n, m, p)

    lhs = 0
    for comp, assignment, weight in left:
        term = weight
        for i in range(p):
            term = term * betas[i] ** comp[i]
        for j, i in enumerate(assignment):
            term = term * alphas[i][j]
        lhs = lhs + term / m_fact

    rhs = 0
    for sizes, idx in right:
        term = 1
        for j in range(m):
            term = term * betas[idx[j]] ** sizes[j] * alphas[idx[j]][j]
        rhs = rhs + term / m_fact

    return lhs, rhs


@lru_cache(maxsize=None)
def _reindex_terms(n: int, m: int, p: int):
    """The enumeration behind stirling_reindex_gap, which depends only on the
    shape (n, m, p); the MAX_REINDEX_* guards bound the cache at 60 shapes.

    Left: (composition, assignment, integer weight) for every term of
    nonzero weight. Right: (ordered block sizes, index tuple) for every
    ordered m-block partition of {1..n} and index tuple. Both in the order
    their sums add them.
    """
    left = []
    for comp in _compositions(n, p):
        multinom = math.factorial(n)
        for n_i in comp:
            multinom //= math.factorial(n_i)
        # assignment[j] = which I_i receives position j; parts stay disjoint
        for assignment in product(range(p), repeat=m):
            sizes = [0] * p
            for i in assignment:
                sizes[i] += 1
            if any(sizes[i] > comp[i] for i in range(p)):
                continue
            weight = multinom
            for i in range(p):
                weight *= _stirling2(comp[i], sizes[i]) * math.factorial(sizes[i])
            if weight != 0:
                left.append((comp, assignment, weight))

    right = []
    for part in partitions(n):
        if part.n_blocks != m:
            continue
        for ordered_blocks in permutations(part.blocks):
            sizes = tuple(len(b) for b in ordered_blocks)
            right.extend((sizes, idx) for idx in product(range(p), repeat=m))
    return tuple(left), tuple(right)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Ordered tuples of nonnegative integers of given length summing to total,
    in lexicographic order."""
    return (comp for comp in product(range(total + 1), repeat=parts) if sum(comp) == total)
