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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from itertools import product as _iter_product
from typing import Sequence

import numpy as np

from .combinatorics import falling_factorial
from .difference_ops import _covers_vanish
from .montecarlo import (
    P_GATE,
    Z_GATE,
    Window,
    _batch_of,
    _frozensets,
    _poisson_batch,
    config_floats,
    mean_and_se,
    target_check,
    z_value,
)

Configuration = frozenset

_TWO_PI = 2.0 * math.pi
_ORIENT_FILTER = 1e-12
MAX_CONDITION_TUPLE = 3
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

# replicates per block of _transformed_counts
_BLOCK = 32
# the extreme-point prefilter's directions, counterclockwise
_PREFILTER_DIRECTIONS = (
    (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (-1.0, 1.0),
    (-1.0, 0.0), (-1.0, -1.0), (0.0, -1.0), (1.0, -1.0),
)


def _hull_candidates(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mask of the points of a (B, N) block that may be extreme points of the
    hull of their row's points in the closed unit disk.

    Keeps the points in the disk, then drops those strictly inside the
    polygon of the row's arg-max points in eight directions (Akl & Toussaint
    1978). That polygon is made of input points, so a point strictly inside
    it is strictly inside the hull and is no extreme point. "Strictly inside"
    is the float filter of `orientation` certifying a left turn on every edge
    of nonzero length. (When every edge has zero length, all the row's
    points coincide and there is no hull either way.)
    """
    keep = x * x + y * y <= 1.0
    if not keep.any():
        return keep
    corners = np.stack(
        [np.argmax(np.where(keep, dx * x + dy * y, -np.inf), axis=1)
         for dx, dy in _PREFILTER_DIRECTIONS],
        axis=1,
    )
    cx = np.take_along_axis(x, corners, axis=1)
    cy = np.take_along_axis(y, corners, axis=1)
    ex = np.roll(cx, -1, axis=1) - cx
    ey = np.roll(cy, -1, axis=1) - cy
    inside = np.ones_like(keep)
    for k in range(len(_PREFILTER_DIRECTIONS)):
        t1 = ex[:, k, None] * (y - cy[:, k, None])
        t2 = ey[:, k, None] * (x - cx[:, k, None])
        certified = t1 - t2 > _ORIENT_FILTER * (np.abs(t1) + np.abs(t2))
        inside &= certified | ((ex[:, k, None] == 0.0) & (ey[:, k, None] == 0.0))
    return keep & ~inside


def _hulls(x: np.ndarray, y: np.ndarray) -> list:
    """Per row of a (B, N) block, the extreme points of the hull of its
    points in the closed unit disk (as `convex_hull`), or None when there
    are fewer than 3."""
    hulls = []
    for row_x, row_y, mask in zip(x, y, _hull_candidates(x, y)):
        hull = convex_hull(zip(row_x[mask].tolist(), row_y[mask].tolist()))
        hulls.append(tuple(hull) if len(hull) >= 3 else None)
    return hulls


class _Frames:
    """Anchors and sector tables of B hulls, as (B, V) arrays.

    Row b holds the n[b] counterclockwise vertices of hull b and is padded
    past them. The vertex and edge tables repeat the row's vertices
    cyclically, so testing a point against every column tests it against
    every edge of its hull. `deltas` (vertex angles from vertex 0) and `cum`
    (cumulative sector areas, (B, V + 1)) are padded with +inf, so the count
    of a row's entries <= a value is its sorted lookup.
    """

    def __init__(self, hulls: Sequence[tuple]):
        n = np.array([len(hull) for hull in hulls])
        if n.min() < 3:
            raise ValueError("a hull frame needs at least 3 vertices")
        rows = np.arange(len(hulls))
        slot = np.arange(n.max())
        valid = slot < n[:, None]
        flat = np.array([vertex for hull in hulls for vertex in hull], dtype=float)
        start = (np.cumsum(n) - n)[:, None]
        verts = flat[start + slot % n[:, None]]
        # edge i runs from vertex i to vertex i + 1
        following = flat[start + (slot + 1) % n[:, None]]
        # the vertex centroid, summed in vertex order
        self.anchor = np.cumsum(verts, axis=1)[rows, n - 1] / n[:, None]
        self.vx, self.vy = verts[..., 0], verts[..., 1]
        edges = following - verts
        self.ex, self.ey = edges[..., 0], edges[..., 1]
        rel = verts - self.anchor[:, None, :]
        self.relx, self.rely = rel[..., 0], rel[..., 1]
        angles = np.arctan2(self.rely, self.relx)
        self.theta0 = angles[:, 0]
        # angle of each vertex counterclockwise from vertex 0, increasing
        self.deltas = np.where(valid, (angles - self.theta0[:, None]) % _TWO_PI, np.inf)
        # area of sector i: the triangle (anchor, vertex i, vertex i + 1)
        nrel = following - self.anchor[:, None, :]
        tri = 0.5 * (self.relx * nrel[..., 1] - self.rely * nrel[..., 0])
        if not np.all(tri[valid] > 0.0):
            raise ValueError("degenerate hull sector")
        self.tri = np.where(valid, tri, 0.0)
        self.cum = np.concatenate((np.zeros((len(n), 1)), np.cumsum(self.tri, axis=1)), axis=1)
        self.total = self.cum[rows, n]
        self.cum[:, 1:][~valid] = np.inf
        self.last = n - 1

    def rotate(self, offset: float, x: np.ndarray, y: np.ndarray):
        """Star rotation by offset * total area of row b's hull of every point
        of row b of a (B, N) block, as new (x, y) arrays.

        Points not strictly inside their hull (vertices and edges included)
        and the anchor come back unchanged. The ray of a point anchor + r
        leaves the hull through edge i at anchor + lam * r = vertex i + f *
        edge i, so the point has sector area s = cum[i] + f * tri[i] and lies
        at the fraction 1 / lam of the boundary distance R(phi). Its image
        lies at the same fraction of the way to the boundary point of sector
        area (s + offset * T) mod T.
        """
        x, y = np.array((x, y), dtype=float)
        # strictly left of every counterclockwise edge
        inside = np.ones(x.shape, dtype=bool)
        for ex, ey, vx, vy in zip(self.ex.T, self.ey.T, self.vx.T, self.vy.T):
            inside &= ex[:, None] * (y - vy[:, None]) - ey[:, None] * (x - vx[:, None]) > 0.0
        b, k = np.nonzero(inside)
        rx = x[b, k] - self.anchor[b, 0]
        ry = y[b, k] - self.anchor[b, 1]
        moved = (rx != 0.0) | (ry != 0.0)
        b, k, rx, ry = b[moved], k[moved], rx[moved], ry[moved]
        last = self.last[b]
        delta = (np.arctan2(ry, rx) - self.theta0[b]) % _TWO_PI
        i = np.minimum(_count_at_most(self.deltas, b, delta) - 1, last)
        ax, ay = self.relx[b, i], self.rely[b, i]
        ex, ey = self.ex[b, i], self.ey[b, i]
        tri = self.tri[b, i]
        cross = rx * ey - ry * ex
        lam = 2.0 * tri / cross
        s = self.cum[b, i] + tri * (ax * ry - ay * rx) / cross
        total = self.total[b]
        target = (s + offset * total) % total
        j = np.minimum(_count_at_most(self.cum, b, target) - 1, last)
        f = (target - self.cum[b, j]) / self.tri[b, j]
        x[b, k] = self.anchor[b, 0] + (self.relx[b, j] + f * self.ex[b, j]) / lam
        y[b, k] = self.anchor[b, 1] + (self.rely[b, j] + f * self.ey[b, j]) / lam
        return x, y


def _count_at_most(table: np.ndarray, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per k, the count of entries <= values[k] in row rows[k] of a table,
    taken a column at a time so that no (len(values), columns) array is made."""
    count = np.zeros(len(values), dtype=np.intp)
    for column in table.T:
        count += column[rows] <= values
    return count


class HullFrame:
    """Geometry of one hull: extremal vertices, anchor, area and the star
    rotation, as a block of one `_Frames` row."""

    def __init__(self, extremal_vertices: tuple):
        self.extremal_vertices = tuple(extremal_vertices)
        self._frames = _Frames([self.extremal_vertices])
        self.anchor = tuple(self._frames.anchor[0].tolist())
        self.total_area = float(self._frames.total[0])

    @property
    def n_vertices(self) -> int:
        return len(self.extremal_vertices)

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
    row's hull frame.
    """
    if offset == 0.0:
        return x, y
    hulls = _hulls(xs, ys)
    rows = [b for b, hull in enumerate(hulls) if hull is not None]
    if not rows:
        return x, y
    x, y = np.array((x, y), dtype=float)
    x[rows], y[rows] = _Frames([hulls[b] for b in rows]).rotate(offset, x[rows], y[rows])
    return x, y


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
    """
    pts = tuple(points)
    m = len(pts)
    if not (1 <= m <= MAX_CONDITION_TUPLE):
        raise ValueError(f"tuple length must satisfy 1 <= m <= {MAX_CONDITION_TUPLE}")

    xs, ys, _ = _batch_of(
        config | frozenset(pts[i] for i in range(m) if eta >> i & 1)
        for eta in range(1 << m)
    )
    x, y = np.broadcast_to(np.array(pts, dtype=float).T[:, None], (2, 1 << m, m))
    x, y = _tau(spec.rotation_offset, xs, ys, x, y)
    # table[column, j, eta]: tau(x_j, config u {x_i : bit i of eta}), then its
    # indicator in each test box
    table = np.stack([x.T, y.T, *(Box(*box).contains(x.T, y.T) for box in _TEST_BOXES)])
    # one value table per assignment of a column to each tuple slot
    for columns in (range(2), range(2, 2 + len(_TEST_BOXES))):
        assignments = np.array(list(_iter_product(columns, repeat=m)))
        if not _covers_vanish(table[assignments, np.arange(m)], tol).all():
            return False
    return True


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


@dataclass
class InvarianceReport:
    """Counts of the transformed process against the Poisson prediction."""

    offset: float
    intensity: float
    n_replicates: int
    seed: int
    gof: list = field(default_factory=list)
    covariances: list = field(default_factory=list)
    moments: list = field(default_factory=list)

    def passed(self) -> bool:
        return (
            all(row["p_value"] >= P_GATE for row in self.gof)
            and all(abs(row["z"]) <= Z_GATE for row in self.covariances)
            and all(abs(row["z"]) <= Z_GATE for row in self.moments)
        )

    def to_dict(self) -> dict:
        return {
            "offset": self.offset,
            "intensity": self.intensity,
            "n_replicates": self.n_replicates,
            "seed": self.seed,
            "gof": self.gof,
            "covariances": self.covariances,
            "moments": self.moments,
        }


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
    probs = np.array(
        [_scipy_stats.poisson.pmf(k, mean) for k in range(top + 1)]
        + [float(_scipy_stats.poisson.sf(top, mean))]
    )
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
) -> InvarianceReport:
    """Distribution test of the transformed Poisson process on fixed regions.

    Samples omega ~ Poisson(intensity) on the window, pushes it through the
    transformation and counts points in each region. Reports a chi-square
    goodness-of-fit of every region's count against Poisson(intensity *
    area), all pairwise count covariances with standard errors, and the
    factorial moments of orders 1..3 against (intensity * area)^n.
    """
    if not regions:
        raise ValueError("regions must not be empty")
    _validate_geometry(window, regions)
    counts = _transformed_counts(spec, window, intensity, regions, n_replicates, seed)
    report = InvarianceReport(
        spec.rotation_offset, intensity, n_replicates, seed
    )
    for index, region in enumerate(regions):
        mean = intensity * region.area
        stat, dof, p = poisson_count_gof(counts[:, index], mean)
        report.gof.append(
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
    centered = counts - counts.mean(axis=0, keepdims=True)
    for i, j in combinations(range(len(regions)), 2):
        products = centered[:, i] * centered[:, j]
        _, se = mean_and_se(products)
        cov = float(products.sum() / (n_replicates - 1))
        report.covariances.append(
            {"regions": [i, j], "covariance": cov, "se": se, "z": z_value(cov, 0.0, se)}
        )
    for index, region in enumerate(regions):
        mean = intensity * region.area
        for order in (1, 2, 3):
            report.moments.append(
                {"region": index, "order": order,
                 **target_check(falling_factorial(counts[:, index], order), mean**order)}
            )
    return report


@dataclass
class RhoTauReport:
    """First and second factorial moment measures of the transformed process
    on a grid of boxes, against the constant-correlation prediction."""

    offset: float
    intensity: float
    n_replicates: int
    seed: int
    first_moments: list = field(default_factory=list)
    second_moments: list = field(default_factory=list)

    def passed(self) -> bool:
        return all(
            abs(row["z"]) <= Z_GATE
            for row in self.first_moments + self.second_moments
        )

    def to_dict(self) -> dict:
        return {
            "offset": self.offset,
            "intensity": self.intensity,
            "n_replicates": self.n_replicates,
            "seed": self.seed,
            "first_moments": self.first_moments,
            "second_moments": self.second_moments,
        }


def rho_tau_check(
    spec: TransformSpec,
    window: Window,
    intensity: float,
    n_replicates: int,
    seed: int,
    grid_size: int = 3,
) -> RhoTauReport:
    """Check that the transformed Poisson process keeps constant correlation.

    For a Poisson base process the transformed process has correlation
    function identically 1: mean counts of disjoint boxes must match
    intensity * area and product moments of box pairs must match the product
    of intensities. Boxes form a grid_size x grid_size grid on the square
    [-_GRID_EXTENT, _GRID_EXTENT]^2 inside the disk.
    """
    if grid_size < 1:
        raise ValueError("grid_size must be positive")
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
    report = RhoTauReport(spec.rotation_offset, intensity, n_replicates, seed)
    for index, box in enumerate(boxes):
        report.first_moments.append(
            {"box": index, **target_check(counts[:, index], intensity * box.area)}
        )
    for i, j in combinations(range(len(boxes)), 2):
        target = intensity**2 * boxes[i].area * boxes[j].area
        report.second_moments.append(
            {"boxes": [i, j], **target_check(counts[:, i] * counts[:, j], target)}
        )
    return report


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

    Replicates are drawn one after another from one stream, each as a block
    of one (`montecarlo._poisson_batch`), and mapped and counted _BLOCK at a
    time; the counts do not depend on the grouping.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    counts = np.zeros((n_replicates, len(regions)), dtype=np.int64)
    for start in range(0, n_replicates, _BLOCK):
        size = min(_BLOCK, n_replicates - start)
        xs, ys, _ = _poisson_batch(window, intensity, [(rng, 1)] * size)
        x, y = _tau(spec.rotation_offset, xs, ys, xs, ys)
        for index, region in enumerate(regions):
            counts[start : start + size, index] = np.count_nonzero(region.contains(x, y), axis=1)
    return counts
