"""Hull-conditioned random transformation of planar configurations.

The transformation is parameterized by the extremal vertices of the convex
hull of the configuration restricted to the closed unit disk. Points outside
the open hull interior (including the extremal vertices themselves and
everything outside the disk) are left fixed; interior points are moved by an
area-preserving star rotation about the vertex centroid.

The star rotation works in cumulative-sector-area coordinates. Writing a
point as anchor + rho * u(phi), with R(phi) the distance from the anchor to
the hull boundary along angle phi and Acum(phi) the area swept from a fixed
reference angle, the map sends

    Acum(phi') = (Acum(phi) + offset * T) mod T,   rho' = rho * R(phi')/R(phi)

with T the hull area. In the coordinates (s, t) = (Acum(phi), (rho/R(phi))^2)
the Lebesgue area element is exactly ds dt, and the map is a translation in
s, so it preserves area on the hull interior. Because the hull boundary is
polygonal every sector area is a triangle area, so both Acum and its
inverse are closed-form per edge.

The transform suites map their replicates a block of rows at a time. The
hulls of a block come from one array kernel (`_hull_vertices`), which
deletes the non-convex turns of every row's monotone chains at once and
ends with the vertices of `convex_hull`, the per-row monotone chain, in its
order; the sector tables and the rotation are arrays over the block too.
Points that the hull prefilter certifies strictly inside the hull move
without the per-edge inside test, which only the disk's other points take.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice
from itertools import product as _iter_product
from typing import Sequence

import numpy as np

from .combinatorics import falling_factorial
from .difference_ops import _covers_vanish
from .montecarlo import (
    Window,
    _batch,
    _batch_of,
    _block_streams,
    _frozensets,
    _poisson_batch,
    config_floats,
    mean_and_se,
    target_check,
    z_value,
)
from .parallel import _map

Configuration = frozenset

_TWO_PI = 2.0 * math.pi
_ORIENT_FILTER = 1e-12
MAX_CONDITION_TUPLE = 3
# rho-tau writes a record per pair of its grid_size^2 boxes, and checks every
# pair for overlap: g^4 / 2 of each, 80,000 at 20
MAX_GRID_SIZE = 20
# half-width of the rho-tau box grid; 0.7 sqrt(2) < 1 keeps it in the disk
_GRID_EXTENT = 0.7


@dataclass(frozen=True)
class TransformSpec:
    """Fraction of the total hull area by which interior points rotate."""

    rotation_offset: float

    def __post_init__(self):
        if not 0.0 <= self.rotation_offset < 1.0:
            raise ValueError("rotation_offset must lie in [0, 1)")


# -- robust planar primitives --------------------------------------------------


def orientation(a, b, c) -> int:
    """Sign of the cross product (b - a) x (c - a).

    +1 for a counterclockwise turn, -1 for clockwise, 0 for collinear.
    A float filter handles the generic case; near-degenerate inputs fall
    back to exact rational arithmetic (float -> Fraction is lossless).
    """
    t1 = (b[0] - a[0]) * (c[1] - a[1])
    t2 = (b[1] - a[1]) * (c[0] - a[0])
    det = t1 - t2
    magnitude = abs(t1) + abs(t2)
    if abs(det) > _ORIENT_FILTER * magnitude:
        return 1 if det > 0.0 else -1
    if magnitude == 0.0:
        return 0
    bax = Fraction(b[0]) - Fraction(a[0])
    bay = Fraction(b[1]) - Fraction(a[1])
    cax = Fraction(c[0]) - Fraction(a[0])
    cay = Fraction(c[1]) - Fraction(a[1])
    exact = bax * cay - bay * cax
    if exact > 0:
        return 1
    if exact < 0:
        return -1
    return 0


def convex_hull(points) -> list:
    """Extreme points of the convex hull, counterclockwise.

    Monotone chain with strict turns: collinear boundary points are dropped,
    so only true extreme points survive. Starts at the lexicographically
    smallest vertex. Returns fewer than 3 points for degenerate input.
    """
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts
    lower: list = []
    for p in pts:
        while len(lower) >= 2 and orientation(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(pts):
        while len(upper) >= 2 and orientation(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


# -- hull frames, a block at a time ------------------------------------------------
# A block is the (xs, ys) of a `montecarlo` batch: each row holds its points,
# then NaN, which no disk, hull or region test accepts.

# replicates per block of _transformed_counts. Swept on a 2-core VM over the
# transform suites of the mc-poisson-hull benchmark: a serial pass took 0.158,
# 0.149, 0.157 and 0.163 s of CPU at 64, 128, 256 and 512 rows (medians of 7),
# 128 beat 64 in 4 of 4 benchmark runs, and 512 raised peak memory from 112
# to 121 MB
_BLOCK = 128


def _hull_candidates(x: np.ndarray, y: np.ndarray):
    """Masks of the points of a (B, N) block that may be extreme points of
    the hull of their row's points in the closed unit disk, and of the
    certified interior: the disk points that lie strictly inside that hull.

    Keeps the points in the disk, then drops those strictly inside the
    polygon of the row's arg-max points in eight directions (Akl & Toussaint
    1978). That polygon is made of input points, so a point strictly inside
    it is strictly inside the hull and is no extreme point. "Strictly inside"
    is the float filter of `orientation` certifying a left turn on every edge
    of nonzero length. (When every edge has zero length, all the row's
    points coincide and there is no hull either way.) The disk points it
    drops are the certified interior, which `_Frames.rotate` moves without
    an edge test.

    The directions are (1, 0), (1, 1), (0, 1) and (-1, 1) and their
    negations, counterclockwise. Their scores x, x + y, y and y - x are
    exact, and a negation's arg-max is the arg-min of the score; both take
    the first of tied points.
    """
    keep = x * x + y * y <= 1.0
    scores = np.stack((x, x + y, y, y - x))
    corners = np.concatenate((np.where(keep, scores, -np.inf).argmax(axis=2),
                              np.where(keep, scores, np.inf).argmin(axis=2))).T
    cx = np.take_along_axis(x, corners, axis=1)
    cy = np.take_along_axis(y, corners, axis=1)
    ex = np.roll(cx, -1, axis=1) - cx
    ey = np.roll(cy, -1, axis=1) - cy
    inside = np.ones_like(keep)
    for k in range(corners.shape[1]):
        t1 = ex[:, k, None] * (y - cy[:, k, None])
        t2 = ey[:, k, None] * (x - cx[:, k, None])
        certified = t1 - t2 > _ORIENT_FILTER * (np.abs(t1) + np.abs(t2))
        inside &= certified | ((ex[:, k, None] == 0.0) & (ey[:, k, None] == 0.0))
    return keep & ~inside, keep & inside


def _hull_vertices(x: np.ndarray, y: np.ndarray):
    """Per row of a (B, N) block, the extreme points of the hull of its
    points in the closed unit disk, in the order of `convex_hull`: the flat
    arrays (hx, hy) of every row's vertices, row after row, n[b], the count
    of row b (0 when it has fewer than 3), and the (B, N) mask of the
    prefilter's certified interior, the disk points it drops.

    One array kernel serves the whole block. The prefilter's survivors of
    each row are sorted and made distinct as `sorted(set(points))` does.
    Each row's lower chain (its sorted points) and upper chain (the same,
    reversed) lie end to end in flat arrays, and the first and last vertex
    of each chain stay. A round tests every other vertex against its
    current neighbours with the float filter of `orientation`, calls
    `orientation` itself on the triples the filter cannot certify, and
    deletes every vertex that is no strict left turn. Such a vertex lies on
    or left of the directed chord between its neighbours, so it is no vertex
    of its chain of the hull of the current points, and deleting all of
    them at once leaves both chains of the hull as they were. When a round
    deletes nothing, every turn is strictly convex: each chain is the
    monotone chain's, and a row's vertices are `lower[:-1] + upper[:-1]`.

    Rounds run until one deletes nothing. In the worst case each deletes
    one vertex: a convex arc whose last point drops far below loses only
    its last interior vertex in a round, then the one before, so a chain of
    m points takes m - 1 rounds and O(m^2) work. Behind the prefilter, a
    block of the transform suites' Poisson samples takes 2 to 6 rounds.
    """
    candidates, interior = _hull_candidates(x, y)
    at = np.flatnonzero(candidates)
    b = at // x.shape[1]
    px, py = x.take(at), y.take(at)
    order = np.lexsort((py, px, b))
    b, px, py = b[order], px[order], py[order]
    # a point equal to the one before it in its row is a duplicate
    distinct = np.ones(len(b), dtype=bool)
    distinct[1:] = (b[1:] != b[:-1]) | (px[1:] != px[:-1]) | (py[1:] != py[:-1])
    b, px, py = b[distinct], px[distinct], py[distinct]
    # row r of m points fills 2 m slots j: its lower chain p_0 .. p_{m-1},
    # then its upper chain p_{m-1} .. p_0
    m = np.bincount(b, minlength=len(x))
    size = np.repeat(m, 2 * m)
    j = np.arange(len(size)) - np.repeat(np.cumsum(2 * m) - 2 * m, 2 * m)
    at = np.repeat(np.cumsum(m) - m, 2 * m) + np.minimum(j, 2 * size - 1 - j)
    vx, vy, row = px[at], py[at], b[at]
    last = (j == size - 1) | (j == 2 * size - 1)
    end = last | (j == 0) | (j == size)
    while True:
        i = np.flatnonzero(~end)
        ax, ay, bx, by = vx[i - 1], vy[i - 1], vx[i], vy[i]
        t1 = (bx - ax) * (vy[i + 1] - ay)
        t2 = (by - ay) * (vx[i + 1] - ax)
        det = t1 - t2
        certified = np.abs(det) > _ORIENT_FILTER * (np.abs(t1) + np.abs(t2))
        left = certified & (det > 0.0)
        for u in np.flatnonzero(~certified).tolist():
            v = i[u]
            left[u] = orientation(*zip(vx[v - 1:v + 2].tolist(), vy[v - 1:v + 2].tolist())) > 0
        if left.all():
            break
        keep = np.ones(len(vx), dtype=bool)
        keep[i[~left]] = False
        vx, vy, row, last, end = vx[keep], vy[keep], row[keep], last[keep], end[keep]
    vx, vy, row = vx[~last], vy[~last], row[~last]
    n = np.bincount(row, minlength=len(x))
    # rows of fewer than 3 distinct or only collinear points have no hull
    n[n < 3] = 0
    hull = n[row] > 0
    return vx[hull], vy[hull], n, interior


def _hulls(x: np.ndarray, y: np.ndarray) -> list:
    """Per row of a (B, N) block, the extreme points of the hull of its
    points in the closed unit disk as a tuple (as `convex_hull`), or None
    when there are fewer than 3: the list view of `_hull_vertices`."""
    hx, hy, n, _ = _hull_vertices(x, y)
    vertices = list(zip(hx.tolist(), hy.tolist()))
    stops = np.cumsum(n).tolist()
    return [tuple(vertices[stop - count:stop]) if count else None
            for stop, count in zip(stops, n.tolist())]


class _Frames:
    """Anchors and sector tables of the hulls of a block, as (H, V) arrays.

    The hulls are given as `_hull_vertices` returns them: the flat vertex
    coordinates hx, hy and the vertex counts n of the B rows of a block.
    The H rows with a hull keep their block order: `row` maps block row b to
    its table row, or to -1 when it has no hull, and table row h holds the
    counterclockwise vertices of its hull, padded past them. The vertex and
    edge tables repeat the row's vertices cyclically, so testing a point
    against every column tests it against every edge of its hull. `deltas`
    (vertex angles from vertex 0) and `cum` (the area of the sectors before
    each sector) are padded with +inf, so the count of a row's entries <= a
    value is its sorted lookup, and at most its vertex count.

    interior, when given, is the prefilter's certified interior: the (B, N)
    mask of the block's own points that lie strictly inside their row's
    hull, which `rotate` moves without an edge test.
    """

    def __init__(self, hx: np.ndarray, hy: np.ndarray, n: np.ndarray, interior=None):
        self.interior = interior
        self.row = np.where(n > 0, np.cumsum(n > 0) - 1, -1)
        start = (np.cumsum(n) - n)[n > 0, None]
        n = n[n > 0]
        h = np.arange(len(n))
        # a block without a hull has (0, 0) tables, and rotate moves nothing
        slot = np.arange(n.max(initial=0))
        valid = slot < n[:, None]
        at = start + slot % n[:, None]
        # edge i runs from vertex i to vertex i + 1
        following = start + (slot + 1) % n[:, None]
        self.vx, self.vy = hx[at], hy[at]
        fx, fy = hx[following], hy[following]
        # the vertex centroid, summed in vertex order
        ax = np.cumsum(self.vx, axis=1)[h, n - 1] / n
        ay = np.cumsum(self.vy, axis=1)[h, n - 1] / n
        self.anchor = np.stack((ax, ay), axis=1)
        self.ex, self.ey = fx - self.vx, fy - self.vy
        self.relx, self.rely = self.vx - ax[:, None], self.vy - ay[:, None]
        angles = np.arctan2(self.rely, self.relx)
        self.theta0 = angles[:, :1]
        # angle of each vertex counterclockwise from vertex 0, increasing
        self.deltas = np.where(valid, (angles - self.theta0) % _TWO_PI, np.inf)
        # area of sector i: the triangle (anchor, vertex i, vertex i + 1)
        tri = 0.5 * (self.relx * (fy - ay[:, None]) - self.rely * (fx - ax[:, None]))
        if not np.all(tri[valid] > 0.0):
            raise ValueError("degenerate hull sector")
        self.tri = np.where(valid, tri, 0.0)
        area = np.cumsum(self.tri, axis=1)
        self.total = area[h, n - 1]
        self.cum = np.where(valid, np.pad(area[:, :-1], ((0, 0), (1, 0))), np.inf)

    def rotate(self, offset: float, x: np.ndarray, y: np.ndarray):
        """Star rotation by offset * total area of block row b's hull of
        every point of row b of a (B, N) block, as new (x, y) arrays.

        A point moves when its row has a hull, and it lies in the closed
        unit disk and strictly inside the hull: in the certified interior,
        or strictly left of every counterclockwise edge, a test made only on
        the disk's other points. Points not strictly inside (vertices and
        edges included), points outside the disk and the anchor come back
        unchanged. The ray of a point anchor + r leaves the hull through edge
        i at anchor + lam * r = vertex i + f * edge i, so the point has
        sector area s = cum[i] + f * tri[i] and lies at the fraction 1 / lam
        of the boundary distance R(phi). Its image lies at the same fraction
        of the way to the boundary point of sector area (s + offset * T)
        mod T.
        """
        x, y = np.array((x, y), dtype=float)
        width, columns = x.shape[1], self.ex.shape[1]
        inside = (x * x + y * y <= 1.0) & (self.row >= 0)[:, None]
        at = np.flatnonzero(inside if self.interior is None else inside & ~self.interior)
        h = self.row.take(at // width)
        px, py = x.take(at)[:, None], y.take(at)[:, None]
        left = self.ex[h] * (py - self.vy[h]) - self.ey[h] * (px - self.vx[h]) > 0.0
        inside.put(at[~left.all(axis=1)], False)
        at = np.flatnonzero(inside)
        h = self.row.take(at // width)
        rx = x.take(at) - self.anchor[:, 0].take(h)
        ry = y.take(at) - self.anchor[:, 1].take(h)
        moved = (rx != 0.0) | (ry != 0.0)
        at, h, rx, ry = at[moved], h[moved], rx[moved], ry[moved]
        delta = (np.arctan2(ry, rx) - self.theta0.take(h)) % _TWO_PI
        # flat indices of (h, i) in the (H, V) tables
        i = h * columns + _count_at_most(self.deltas, h, delta) - 1
        ax, ay = self.relx.take(i), self.rely.take(i)
        ex, ey = self.ex.take(i), self.ey.take(i)
        tri = self.tri.take(i)
        cross = rx * ey - ry * ex
        lam = 2.0 * tri / cross
        s = self.cum.take(i) + tri * (ax * ry - ay * rx) / cross
        total = self.total.take(h)
        target = (s + offset * total) % total
        j = h * columns + _count_at_most(self.cum, h, target) - 1
        f = (target - self.cum.take(j)) / self.tri.take(j)
        x.put(at, self.anchor[:, 0].take(h) + (self.relx.take(j) + f * self.ex.take(j)) / lam)
        y.put(at, self.anchor[:, 1].take(h) + (self.rely.take(j) + f * self.ey.take(j)) / lam)
        return x, y


def _count_at_most(table: np.ndarray, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per k, the count of entries <= values[k] in row rows[k] of a table,
    taken a column at a time so that no (len(values), columns) array is
    made."""
    count = np.zeros(len(values), dtype=np.intp)
    for column in table.T:
        count += column[rows] <= values
    return count


class HullFrame:
    """Geometry of one hull: extremal vertices, anchor, area and the star
    rotation, as a block of one `_Frames` row."""

    def __init__(self, extremal_vertices: tuple):
        self.extremal_vertices = tuple(extremal_vertices)
        if len(self.extremal_vertices) < 3:
            raise ValueError("a hull frame needs at least 3 vertices")
        hx, hy = np.array(self.extremal_vertices, dtype=float).T
        self._frames = _Frames(hx, hy, np.array([len(hx)]))
        self.anchor = tuple(self._frames.anchor[0].tolist())
        self.total_area = float(self._frames.total[0])

    def rotate(self, offset: float, points: np.ndarray) -> np.ndarray:
        """Star rotation by offset * total_area of every row of an (N, 2)
        array; see `_Frames.rotate`."""
        x, y = np.asarray(points, dtype=float).reshape(-1, 2).T
        x, y = self._frames.rotate(offset, x[None], y[None])
        return np.stack((x[0], y[0]), axis=1)


def hull_frame(config) -> HullFrame | None:
    """Hull frame of the configuration restricted to the closed unit disk.

    Returns None when fewer than 3 extreme points exist (the transformation
    is then the identity everywhere).
    """
    xs, ys, _ = _batch_of([config])
    hull = _hulls(xs, ys)[0]
    return None if hull is None else HullFrame(hull)


# -- the transformation ---------------------------------------------------------


def _tau(offset: float, xs: np.ndarray, ys: np.ndarray, x: np.ndarray, y: np.ndarray):
    """tau(p, configuration b) for every point p = (x[b, k], y[b, k]) of row
    b, with (xs, ys) the block of the B configurations; new (x, y) arrays
    or the inputs.

    The identity when the offset is 0 (no hull is extracted then) and on rows
    whose configuration has no hull frame; otherwise the star rotation in the
    row's hull frame. When (x, y) are the configurations' own arrays (x is
    xs and y is ys), the prefilter's certified interior is moved without
    the edge test.
    """
    if offset == 0.0:
        return x, y
    hx, hy, n, interior = _hull_vertices(xs, ys)
    frames = _Frames(hx, hy, n, interior if x is xs and y is ys else None)
    return frames.rotate(offset, x, y)


def apply_tau(spec: TransformSpec, point, config) -> tuple:
    """Transform one point given the configuration.

    Identity when the hull frame is empty or the point is not strictly
    inside the hull; otherwise the area-preserving star rotation. The result
    depends on the configuration only through its extremal vertices.
    """
    xs, ys, _ = _batch_of([config])
    x, y = np.array(point, dtype=float).reshape(2, 1, 1)
    x, y = _tau(spec.rotation_offset, xs, ys, x, y)
    return x.item(), y.item()


def push_forward(spec: TransformSpec, config) -> Configuration:
    """Image configuration {tau(x, omega) : x in omega}.

    The star rotation is injective on the hull interior and everything else
    is fixed, so cardinality is preserved; a collision among images (which
    has probability zero in continuous data) raises an error.
    """
    xs, ys, n = _batch_of([config])
    result = _frozensets((*_tau(spec.rotation_offset, xs, ys, xs, ys), n))[0]
    if len(result) != n[0]:
        raise ValueError("push-forward produced coinciding image points")
    return result


# -- condition checker ----------------------------------------------------------


_TEST_BOXES = (
    (-0.6, 0.0, -0.6, 0.0),
    (0.0, 0.6, 0.0, 0.6),
    (-0.3, 0.3, -0.3, 0.3),
)


def verify_transform_condition(
    spec: TransformSpec, config, points: Sequence, tol: float = 1e-9
) -> bool:
    """Check the vanishing-cover condition for the hull transformation.

    Checks the cover condition on kernel families built from tau: both
    coordinate projections of tau(x, omega) in every combination across the
    tuple slots, and indicator compositions 1_B(tau(x, omega)) for a fixed
    family of test boxes. True iff every family passes at tolerance tol.
    This is the one-instance case of `_checked_conditions`.
    """
    return next(_checked_conditions(spec, [(config, points)], tol))[1]


# condition instances checked together: each maps 2^m <= 8 augmented
# configurations, so a chunk is a _tau block of at most _BLOCK rows
_CONDITION_CHUNK = _BLOCK >> MAX_CONDITION_TUPLE


def _checked_conditions(spec: TransformSpec, instances, tol: float):
    """Yield each (config, points) instance of an iterable with the verdict
    of `verify_transform_condition`, in order.

    The instances are taken _CONDITION_CHUNK at a time, and each chunk is
    checked at once by `_conditions_hold`. When a chunk raises a ValueError
    it is checked again one instance at a time, so the instances before the
    failing one come out with their verdicts before the error.
    """
    instances = iter(instances)
    while chunk := [(config, tuple(points))
                    for config, points in islice(instances, _CONDITION_CHUNK)]:
        try:
            verdicts = _conditions_hold(spec.rotation_offset, chunk, tol).tolist()
        except ValueError:
            verdicts = (_conditions_hold(spec.rotation_offset, [instance], tol)[0]
                        for instance in chunk)
        yield from zip(chunk, map(bool, verdicts))


def _conditions_hold(offset: float, instances: list, tol: float) -> np.ndarray:
    """Per (config, points) instance, whether the cover condition holds, as
    `verify_transform_condition` states it.

    One `_tau` call maps every instance's tuple points over its 2^m
    augmented configurations config u {x_i : bit i of eta}, NaN-padded to
    MAX_CONDITION_TUPLE columns. The cover evaluation takes the instances of
    each tuple length m together.
    """
    rows, mapped = [], []
    for config, pts in instances:
        m = len(pts)
        if not (1 <= m <= MAX_CONDITION_TUPLE):
            raise ValueError(f"tuple length must satisfy 1 <= m <= {MAX_CONDITION_TUPLE}")
        config = np.array(list(config), dtype=float).reshape(-1, 2)
        pts = np.array(pts, dtype=float)
        rows += [np.concatenate((config, pts[[i for i in range(m) if eta >> i & 1]]))
                 for eta in range(1 << m)]
        mapped += [np.pad(pts, ((0, MAX_CONDITION_TUPLE - m), (0, 0)),
                          constant_values=np.nan)] * (1 << m)
    xs, ys, _ = _batch(rows)
    x, y = np.moveaxis(np.array(mapped), 2, 0)
    x, y = _tau(offset, xs, ys, x, y)
    lengths = np.array([len(pts) for _, pts in instances])
    first = np.cumsum(1 << lengths) - (1 << lengths)
    holds = np.ones(len(instances), dtype=bool)
    for m in range(1, MAX_CONDITION_TUPLE + 1):
        if not (lengths == m).any():
            continue
        # rows of the instances of length m: (I, 2^m), then their images as
        # (I, m, 2^m) tables tau(x_j, config u {x_i : bit i of eta})
        at = first[lengths == m, None] + np.arange(1 << m)
        tx, ty = x[at, :m].transpose(0, 2, 1), y[at, :m].transpose(0, 2, 1)
        # table[I, column, j, eta]: both coordinates, then the indicator of
        # each test box
        table = np.stack([tx, ty, *(Box(*box).contains(tx, ty) for box in _TEST_BOXES)],
                         axis=1)
        # one value table per assignment of a coordinate column, or of a
        # box column, to each tuple slot
        assignments = np.array(list(_iter_product(range(2), repeat=m))
                               + list(_iter_product(range(2, 2 + len(_TEST_BOXES)), repeat=m)))
        tables = table[:, assignments, np.arange(m)]
        holds[lengths == m] = _covers_vanish(tables, tol).all(axis=1)
    return holds


# -- fixed planar regions --------------------------------------------------------


# a closed box region is a rectangle, the same class as a sampling window
Box = Window


@dataclass(frozen=True)
class Disk:
    cx: float
    cy: float
    radius: float

    def __post_init__(self):
        if not self.radius > 0.0:
            raise ValueError("disk radius must be positive")

    @property
    def area(self) -> float:
        return math.pi * self.radius * self.radius

    def contains(self, x, y):
        """Closed-disk membership of the points (x, y), elementwise."""
        dx = x - self.cx
        dy = y - self.cy
        return dx * dx + dy * dy <= self.radius * self.radius

    def max_norm(self) -> float:
        return math.hypot(self.cx, self.cy) + self.radius


Region = Box | Disk


def region_from_config(config: dict) -> Region:
    """Parse {"type": "box", ...} or {"type": "disk", ...} region entries."""
    kind = config.get("type") if isinstance(config, dict) else None
    if kind == "box":
        return Box(*config_floats(config, ("x_min", "x_max", "y_min", "y_max"), "region"))
    if kind == "disk":
        return Disk(*config_floats(config, ("cx", "cy", "radius"), "region"))
    raise ValueError(f"unknown region type {kind!r}")


def regions_disjoint(a: Region, b: Region) -> bool:
    if isinstance(a, Box) and isinstance(b, Box):
        return (
            a.x_max <= b.x_min
            or b.x_max <= a.x_min
            or a.y_max <= b.y_min
            or b.y_max <= a.y_min
        )
    if isinstance(a, Disk) and isinstance(b, Disk):
        return math.hypot(a.cx - b.cx, a.cy - b.cy) >= a.radius + b.radius
    if isinstance(a, Disk):
        a, b = b, a
    # a is a box, b a disk: compare the disk center's distance to the box
    nx = min(max(b.cx, a.x_min), a.x_max)
    ny = min(max(b.cy, a.y_min), a.y_max)
    return math.hypot(b.cx - nx, b.cy - ny) >= b.radius


# -- statistical reports ----------------------------------------------------------


def poisson_count_gof(counts: np.ndarray, mean: float) -> tuple[float, int, float]:
    """Chi-square goodness of fit of integer counts to a Poisson law.

    Cells with expected count below 5 are pooled into their left neighbor,
    starting from the upper tail. Returns (statistic, dof, p_value).
    """
    # the only scipy use: imported here, so that importing ppmoments does not
    # pay for scipy.stats
    from scipy import stats as _scipy_stats

    n = counts.size
    top = int(counts.max())
    observed = np.bincount(counts, minlength=top + 2).astype(float)
    probs = np.append(_scipy_stats.poisson.pmf(np.arange(top + 1), mean),
                      _scipy_stats.poisson.sf(top, mean))
    obs_cells = observed.tolist()
    exp_cells = (n * probs).tolist()
    # pool from the right until every cell expects at least 5
    i = len(exp_cells) - 1
    while i > 0:
        if exp_cells[i] < 5.0:
            exp_cells[i - 1] += exp_cells[i]
            obs_cells[i - 1] += obs_cells[i]
            del exp_cells[i], obs_cells[i]
        i -= 1
    if len(exp_cells) < 2:
        return 0.0, 0, 1.0
    stat = float(
        sum((o - e) ** 2 / e for o, e in zip(obs_cells, exp_cells) if e > 0.0)
    )
    dof = len(exp_cells) - 1
    p = float(_scipy_stats.chi2.sf(stat, dof))
    return stat, dof, p


def invariance_suite(
    spec: TransformSpec,
    window: Window,
    intensity: float,
    regions: Sequence[Region],
    n_replicates: int,
    seed: int,
) -> dict:
    """Distribution test of the transformed Poisson process on fixed regions.

    Samples omega ~ Poisson(intensity) on the window, pushes it through the
    transformation and counts points in each region. Returns the rows of the
    test, without verdicts, keyed by record kind in report order: "gof", the
    chi-square goodness of fit of every region's count against
    Poisson(intensity * area), with its p_value; "covariance", all pairwise
    count covariances with standard errors and z; "moment", the factorial
    moments of orders 1..3 against (intensity * area)^n, with z.
    """
    if not regions:
        raise ValueError("regions must not be empty")
    _validate_geometry(window, regions)
    counts = _transformed_counts(spec, window, intensity, regions, n_replicates, seed)
    rows = {"gof": [], "covariance": [], "moment": []}
    for index, region in enumerate(regions):
        mean = intensity * region.area
        stat, dof, p = poisson_count_gof(counts[:, index], mean)
        rows["gof"].append(
            {
                "region": index,
                "area": region.area,
                "target_mean": mean,
                "sample_mean": float(counts[:, index].mean()),
                "chi2": stat,
                "dof": dof,
                "p_value": p,
            }
        )
        for order in (1, 2, 3):
            rows["moment"].append(
                {"region": index, "order": order,
                 **target_check(falling_factorial(counts[:, index], order), mean**order)}
            )
    centered = counts - counts.mean(axis=0, keepdims=True)
    for i, j in combinations(range(len(regions)), 2):
        products = centered[:, i] * centered[:, j]
        _, se = mean_and_se(products)
        cov = float(products.sum() / (n_replicates - 1))
        rows["covariance"].append(
            {"regions": [i, j], "covariance": cov, "se": se, "z": z_value(cov, 0.0, se)}
        )
    return rows


def rho_tau_check(
    spec: TransformSpec,
    window: Window,
    intensity: float,
    n_replicates: int,
    seed: int,
    grid_size: int = 3,
) -> dict:
    """Check that the transformed Poisson process keeps constant correlation.

    For a Poisson base process the transformed process has correlation
    function identically 1: mean counts of disjoint boxes must match
    intensity * area and product moments of box pairs must match the product
    of intensities. Boxes form a grid_size x grid_size grid on the square
    [-_GRID_EXTENT, _GRID_EXTENT]^2 inside the disk, with grid_size from 1
    to MAX_GRID_SIZE. Returns the rows with z,
    without verdicts, keyed by record name: "rho-tau-first" per box and
    "rho-tau-second" per pair of boxes.
    """
    if not 1 <= grid_size <= MAX_GRID_SIZE:
        raise ValueError(f"grid_size must be between 1 and {MAX_GRID_SIZE}, got {grid_size}")
    step = 2.0 * _GRID_EXTENT / grid_size
    boxes = [
        Box(
            -_GRID_EXTENT + i * step,
            -_GRID_EXTENT + (i + 1) * step,
            -_GRID_EXTENT + j * step,
            -_GRID_EXTENT + (j + 1) * step,
        )
        for i in range(grid_size)
        for j in range(grid_size)
    ]
    _validate_geometry(window, boxes)
    counts = _transformed_counts(spec, window, intensity, boxes, n_replicates, seed)
    rows = {"rho-tau-first": [], "rho-tau-second": []}
    for index, box in enumerate(boxes):
        rows["rho-tau-first"].append(
            {"box": index, **target_check(counts[:, index], intensity * box.area)}
        )
    for i, j in combinations(range(len(boxes)), 2):
        target = intensity**2 * boxes[i].area * boxes[j].area
        rows["rho-tau-second"].append(
            {"boxes": [i, j], **target_check(counts[:, i] * counts[:, j], target)}
        )
    return rows


def _validate_geometry(window: Window, regions: Sequence[Region]):
    # a closed rectangle holds the unit disk iff it holds (-1, -1) and (1, 1)
    if not (window.contains(-1.0, -1.0) and window.contains(1.0, 1.0)):
        raise ValueError("window must contain the unit disk")
    for region in regions:
        if region.max_norm() > 1.0 + 1e-12:
            raise ValueError("regions must lie inside the unit disk")
    for i in range(len(regions)):
        for j in range(i + 1, len(regions)):
            if not regions_disjoint(regions[i], regions[j]):
                raise ValueError(f"regions {i} and {j} overlap")


def _transformed_counts(spec, window, intensity, regions, n_replicates, seed):
    """Counts of the pushed-forward Poisson sample in each region.

    The replicates are those of `montecarlo.sample_batch`: each block stream
    of seed (`montecarlo._block_streams`) is drawn as one batch, and its rows
    are mapped and counted _BLOCK at a time; the counts do not depend on that
    grouping. `parallel._map` shares the row blocks of a batch, and its
    children inherit the batch.
    """

    def block_counts(rows):
        # without the batch's padding beyond the block's longest row, and
        # as a batch, at least one column wide
        width = n[rows].max(initial=1)
        bx, by = xs[rows, :width], ys[rows, :width]
        x, y = _tau(spec.rotation_offset, bx, by, bx, by)
        return np.stack(
            [np.count_nonzero(region.contains(x, y), axis=1) for region in regions], axis=1
        )

    # the empty first entry keeps a call without replicates valid
    counts = [np.zeros((0, len(regions)), np.int64)]
    for stream in _block_streams(seed, n_replicates):
        xs, ys, n = _poisson_batch(window, intensity, [stream])
        counts += _map(block_counts, [slice(first, first + _BLOCK)
                                      for first in range(0, len(xs), _BLOCK)])
        # one stream block's batch at a time: drop it before the next is drawn
        del xs, ys, n
    return np.concatenate(counts)
