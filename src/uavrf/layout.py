"""Integer fleet sizing and explicit 3D positions inside a subregion.

The disk-cover side of the problem is deliberately heuristic: the fleet
size is the ceiling of area over disk area, and positions come from a
small deterministic search over row-based lattices (aligned, quarter-pitch
staggered, and hexagonal rows; Kershner 1939 for why hexagonal rows are
the ones worth scoring).  A candidate's score is its sampled covering
radius: the largest distance from the points of a regular ``res x res``
grid over the rectangle to their nearest UAV ground projection.

The score is computed from the candidate's rows, not from a point cloud.
Most rows share their xs (an aligned or staggered lattice has at most two
row counts, each with its shift; a hexagonal one a long and a short row),
so the candidate builders return each distinct row's xs once and, for
every row, which of them it uses.  For a distinct row,
``dx2[a] = min_j (gx[a] - x_j)^2`` over its UAVs, and ``dy2[b]`` is the
smallest ``(gy[b] - y_i)^2`` over the heights y_i of the rows that use it;
the distinct rows fold into one (res, res) array of squared distances by
an elementwise minimum of ``dx2[None, :] + dy2[:, None]``, and the score
is the square root of its maximum.  Its bits equal those of a
nearest-point query that evaluates ``sqrt(dx^2 + dy^2)`` for every point:
rounding is monotone, so the minimum over a row of ``fl(fl(dx^2) + dy^2)``
is ``fl(min fl(dx^2) + dy^2)``, and the minimum over the rows sharing
those xs of ``fl(dx2 + dy2_i)`` is ``fl(dx2 + min_i dy2_i)``; the square
root is monotone, so one root of the maximum is the maximum of the roots.
No k-d tree is built; time is O(res * m + rows * res + distinct rows *
res^2) and memory O(res^2) per candidate.

The depot (recall-and-supplement center, RSC) absorbs fleet-size
differences between consecutive deployments by padding the shorter
position list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Tuple

import numpy as np

from .channel import check_positive
from .patterns import Rect

Point3 = Tuple[float, float, float]


def num_uavs(area: float, radius: float) -> int:
    """Fleet size covering ``area`` with disks of ``radius``: ceil(S / (pi R^2)), at least 1."""
    check_positive("area", area)
    check_positive("radius", radius)
    return max(1, math.ceil(area / (math.pi * radius * radius)))


def _row_counts(count: int, rows: int) -> list[int]:
    """Split ``count`` into ``rows`` balanced parts, extras to central rows."""
    base, extra = divmod(count, rows)
    counts = [base] * rows
    # hand out extras from the middle outward, deterministically
    order = sorted(range(rows), key=lambda i: (abs(i - (rows - 1) / 2.0), i))
    for i in order[:extra]:
        counts[i] += 1
    return counts


def _alternating_counts(count: int, rows: int, start: int) -> list[int] | None:
    """Row counts alternating m, m-1 (or m-1, m) summing to ``count``."""
    if rows < 2:
        return None
    n_long = (rows + 1) // 2 if start == 0 else rows // 2
    n_short = rows - n_long
    # n_long * m + n_short * (m - 1) == count
    m, rem = divmod(count + n_short, rows)
    if rem != 0 or m < 2:
        return None
    return [m if (i % 2 == start % 2) else m - 1 for i in range(rows)]


def _axis_positions(extent: float, m: int, margin: float) -> np.ndarray:
    """m coordinates across ``extent`` with edge margins of ``margin`` pitches."""
    if m == 1:
        return np.array([extent / 2.0])
    return extent * (np.arange(m) + margin) / (m - 1.0 + 2.0 * margin)


def _candidate(
    rect_w: float,
    rect_h: float,
    counts: Sequence[int],
    staggered: bool,
    margin: float,
) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """Row lattice as (row ys, the distinct rows' ascending xs, the index of row i's xs).

    Rows of one count and one shift share their xs, built once.
    """
    ys = _axis_positions(rect_h, len(counts), margin)
    xs, entry, row_xs = [], {}, []
    for i, m in enumerate(counts):
        # alternate quarter-pitch shifts; stays inside for margin >= 0.25
        shift = (0.25 if i % 2 else -0.25) if staggered and m > 1 else 0.0
        if (m, shift) not in entry:
            entry[m, shift] = len(xs)
            row = _axis_positions(rect_w, m, margin)
            if shift:
                row = row + shift * (rect_w / (m - 1.0 + 2.0 * margin))
            xs.append(row)
        row_xs.append(entry[m, shift])
    return ys, xs, np.array(row_xs)


def _hex_candidate(
    rect_w: float, rect_h: float, counts: Sequence[int], margin: float
) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """Half-pitch staggered rows sharing one pitch (rows alternate m, m-1).

    The genuine hexagonal covering lattice; only well formed when
    consecutive row counts differ by exactly one.  Returned as
    :func:`_candidate` returns its lattice.
    """
    ys = _axis_positions(rect_h, len(counts), margin)
    lengths = sorted(set(counts), reverse=True)
    m_long = lengths[0]
    xs_long = _axis_positions(rect_w, m_long, margin)
    pitch = rect_w / (m_long - 1.0 + 2.0 * margin) if m_long > 1 else rect_w
    xs = [xs_long] + [xs_long[:m] + 0.5 * pitch for m in lengths[1:]]
    return ys, xs, np.array([lengths.index(m) for m in counts])


def _points(ys: np.ndarray, xs: Sequence[np.ndarray], row_xs: np.ndarray) -> np.ndarray:
    """The lattice's (m, 2) points, row by row."""
    rows = [xs[k] for k in row_xs]
    return np.column_stack((np.concatenate(rows), np.repeat(ys, [len(row) for row in rows])))


def _grid(rect_w: float, rect_h: float, res: int) -> tuple[np.ndarray, np.ndarray]:
    """The res x res sample grid of the rectangle, as its xs and its ys."""
    return np.linspace(0.0, rect_w, res), np.linspace(0.0, rect_h, res)


def _worst_cover_distance(
    grid: tuple[np.ndarray, np.ndarray],
    ys: np.ndarray,
    xs: Sequence[np.ndarray],
    row_xs: np.ndarray,
) -> float:
    """Largest distance from a grid point to its nearest lattice point."""
    gx, gy = grid
    dy2 = (gy[None, :] - ys[:, None]) ** 2
    best = np.full((len(gy), len(gx)), np.inf)
    for k, row in enumerate(xs):
        dx2 = ((gx[None, :] - row[:, None]) ** 2).min(axis=0)
        row_dy2 = dy2[row_xs == k].min(axis=0)
        np.minimum(best, dx2[None, :] + row_dy2[:, None], out=best)
    return math.sqrt(best.max())


@lru_cache(maxsize=4096)
def _unit_layout(rect_w: float, rect_h: float, count: int) -> np.ndarray:
    """Best row lattice for ``count`` points in a w x h rectangle at origin (shared, read-only)."""
    # ideal hex row count, searched in a window around it; a rectangle too
    # tall for ``count`` rows falls back to one UAV per row
    dx0 = math.sqrt(2.0 * rect_w * rect_h / (math.sqrt(3) * count))
    r0 = max(1, round(rect_h / (math.sqrt(3) / 2.0 * dx0)))
    lo = min(max(1, r0 - 8), count)
    hi = min(count, r0 + 8)
    margins = (0.5, 0.42, 0.34, 0.27)
    coarse = _grid(rect_w, rect_h, 36)
    candidates = []
    for rows in range(lo, hi + 1):
        counts = _row_counts(count, rows)
        variants = [(0, m) for m in margins]
        if rows >= 3 and len(set(counts)) == 1:
            variants += [(1, m) for m in margins]
        for kind, margin in variants:
            lattice = _candidate(rect_w, rect_h, counts, kind == 1, margin)
            score = _worst_cover_distance(coarse, *lattice)
            candidates.append((score, rows, kind, margin, lattice))
        # alternating m/m-1 rows admit the true hexagonal lattice
        for start in (0, 1):
            alt = _alternating_counts(count, rows, start)
            if alt is None:
                continue
            for margin in margins:
                lattice = _hex_candidate(rect_w, rect_h, alt, margin)
                score = _worst_cover_distance(coarse, *lattice)
                candidates.append((score, rows, 2 + start, margin, lattice))
    # coarse shortlist, then a fine pass: the coarse grid can misrank
    # near-tied lattices by a few percent
    candidates.sort(key=lambda c: c[:4])
    fine_grid = _grid(rect_w, rect_h, 120 if count <= 256 else 72)
    best = None
    for score, rows, staggered, margin, lattice in candidates[:8]:
        fine = _worst_cover_distance(fine_grid, *lattice)
        key = (fine, rows, staggered, margin)
        if best is None or key < best[0]:
            best = (key, lattice)
    points = _points(*best[1])
    points.flags.writeable = False
    return points


def layout_positions(rect: Rect, count: int, altitude: float) -> np.ndarray:
    """Deterministic positions for ``count`` UAVs hovering over ``rect``.

    Returns an array of shape (count, 3); all altitudes equal
    ``altitude`` and all ground projections lie inside the rectangle.
    The lattice depends on the rectangle and the count alone: it is the
    candidate with the smallest worst uncovered distance for this count.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    check_positive("altitude", altitude, zero_ok=True)
    base = _unit_layout(rect.width, rect.height, count)
    out = np.empty((count, 3))
    out[:, 0] = base[:, 0] + rect.x
    out[:, 1] = base[:, 1] + rect.y
    out[:, 2] = altitude
    return out


def pad_with_rsc(
    positions_before: np.ndarray,
    positions_after: np.ndarray,
    rsc_position: Point3,
) -> tuple[np.ndarray, np.ndarray]:
    """Equalize two position lists by padding the shorter with RSC copies.

    Recalled UAVs fly to the depot; supplemented ones launch from it.
    Equal lengths come back unchanged, and (n, 3) float arrays are not
    copied.
    """
    before = _as_points(positions_before)
    after = _as_points(positions_after)
    missing = len(after) - len(before)
    if missing == 0:
        return before, after
    rsc = np.broadcast_to(np.asarray(rsc_position, dtype=float), (abs(missing), 3))
    if missing > 0:
        return np.concatenate((before, rsc)), after
    return before, np.concatenate((after, rsc))


def _as_points(positions) -> np.ndarray:
    """``positions`` as an (n, 3) float array; no copy if it already is one."""
    if type(positions) is np.ndarray and positions.dtype == float and positions.ndim == 2:
        return positions
    points = np.atleast_2d(np.asarray(positions, dtype=float))
    return points.reshape(0, 3) if points.size == 0 else points


@dataclass(frozen=True)
class SubregionDeployment:
    """One subregion's share of a deployment."""

    label: str
    radius: float
    altitude: float
    positions: np.ndarray  # (count, 3)

    def __post_init__(self):
        check_positive("radius", self.radius)
        if self.positions.ndim != 2 or self.positions.shape[1] != 3:
            raise ValueError("positions must have shape (count, 3)")

    @property
    def count(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class Deployment:
    """Explicit fleet placement across all subregions plus the depot."""

    entries: Tuple[SubregionDeployment, ...]
    rsc_position: Point3

    def __post_init__(self):
        # stacked once: every move energy out of or into it reads them
        positions = (
            np.vstack([e.positions for e in self.entries]) if self.entries else np.empty((0, 3))
        )
        positions.flags.writeable = False
        object.__setattr__(self, "_positions", positions)

    def all_positions(self) -> np.ndarray:
        """Every UAV position (total_count, 3), subregion by subregion; read-only."""
        return self._positions

    def radii(self) -> Tuple[float, ...]:
        return tuple(e.radius for e in self.entries)

    @property
    def total_count(self) -> int:
        return sum(e.count for e in self.entries)


def build_deployment(
    subregions,
    radii: Sequence[float],
    altitudes: Sequence[float],
    rsc_position: Point3,
) -> Deployment:
    """Assemble a :class:`Deployment` from per-subregion radii/altitudes."""
    if not (len(subregions) == len(radii) == len(altitudes)):
        raise ValueError("subregions, radii and altitudes must align")
    entries = []
    for sub, radius, altitude in zip(subregions, radii, altitudes):
        count = num_uavs(sub.area, radius)
        entries.append(
            SubregionDeployment(
                label=sub.label,
                radius=radius,
                altitude=altitude,
                positions=layout_positions(sub.rect, count, altitude),
            )
        )
    return Deployment(entries=tuple(entries), rsc_position=tuple(rsc_position))
