"""Planar polygonal geometry: oriented squares, partitions, interface extraction.

Polygons are counterclockwise vertex loops.  A partition is a finite list of
polygonal cells covering a convex domain; the interfaces between cells are
recovered by matching collinear, opposite-orientation edge overlaps, so cells
may be authored with unequal edge subdivisions (T-junctions are fine).  They
are arrays (`Interfaces`) from one arithmetic, `edge_pair_interfaces`.

Coordinates are plain float64; two points coincide when their distance is
below 1e-9 times the domain diameter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .report import Report

MATCH_TOL = 1e-9  # relative vertex-matching tolerance (times domain diameter)


class GeometryError(ValueError):
    """Degenerate or inconsistent geometric input."""


def _as_point(p) -> np.ndarray:
    a = np.asarray(p, dtype=float)
    if a.shape != (2,) or not np.all(np.isfinite(a)):
        raise GeometryError(f"expected a finite planar point, got {p!r}")
    return a


def _as_points(p) -> np.ndarray:
    """Finite planar points as an (..., 2) array; one point is a batch of one."""
    a = np.asarray(p, dtype=float)
    if a.ndim == 0 or a.shape[-1] != 2 or not np.all(np.isfinite(a)):
        raise GeometryError(f"expected finite planar points, got {p!r}")
    return a


def unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    n = float(np.linalg.norm(v))
    if n == 0.0:
        raise GeometryError("cannot normalize the zero vector")
    return v / n


def frame_from_normal(nu) -> np.ndarray:
    """Rotation matrix sending e2 to the unit vector nu (columns: nu^perp, nu)."""
    nu = _as_point(nu)
    if abs(np.linalg.norm(nu) - 1.0) > 1e-12:
        raise GeometryError(f"normal must be a unit vector, got |nu|={np.linalg.norm(nu)}")
    return np.array([[nu[1], nu[0]], [-nu[0], nu[1]]])


def _segments_distance(x, a, d) -> np.ndarray:
    """Distances from the points x (..., 2) to the segments a + t d, t in
    [0, 1], given as (m, 2) arrays: (..., m)."""
    x = x[..., None, :]
    t = np.clip(np.einsum("...ij,ij->...i", x - a, d) / np.einsum("ij,ij->i", d, d), 0.0, 1.0)
    return np.linalg.norm(a + t[..., None] * d - x, axis=-1)


def signed_area(vertices, rolled=None) -> float:
    """Shoelace area of a vertex loop; rolled is the loop rolled by one row, if at hand."""
    v = np.asarray(vertices, dtype=float)
    w = np.roll(v, -1, axis=0) if rolled is None else rolled
    return 0.5 * float(np.dot(v[:, 0], w[:, 1]) - np.dot(v[:, 1], w[:, 0]))


class Polygon:
    """Simple counterclockwise polygon with at least three vertices."""

    __slots__ = ("vertices",)

    def __init__(self, vertices):
        v = np.array(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise GeometryError("a polygon needs at least three planar vertices")
        if not np.all(np.isfinite(v)):
            raise GeometryError("polygon vertices must be finite")
        ext = float(np.max(np.ptp(v, axis=0)))
        if ext == 0.0:
            raise GeometryError("polygon has zero extent")
        w = np.roll(v, -1, axis=0)
        gaps = np.linalg.norm(v - w, axis=1)
        if np.any(gaps < MATCH_TOL * ext):
            raise GeometryError("repeated consecutive vertices")
        if signed_area(v, w) <= 0.0:
            raise GeometryError("polygon must be counterclockwise with positive area")
        v.setflags(write=False)
        self.vertices = v

    def __len__(self) -> int:
        return self.vertices.shape[0]

    def __repr__(self) -> str:
        return f"Polygon({self.vertices.tolist()})"

    @property
    def area(self) -> float:
        return signed_area(self.vertices)

    @property
    def diameter(self) -> float:
        lo = self.vertices.min(axis=0)
        hi = self.vertices.max(axis=0)
        return float(np.linalg.norm(hi - lo))

    @property
    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    @property
    def centroid(self) -> np.ndarray:
        v = self.vertices
        w = np.roll(v, -1, axis=0)
        cross = v[:, 0] * w[:, 1] - v[:, 1] * w[:, 0]
        return (v + w).T @ cross / (6.0 * self.area)

    def boundary_distance(self, x):
        """Distance from each point of x (..., 2) to the boundary: (...)."""
        v = self.vertices
        return np.min(_segments_distance(_as_points(x), v, np.roll(v, -1, axis=0) - v), axis=-1)

    def contains(self, x, tol: float | None = None):
        """For each point of x (..., 2): +1 strictly inside, 0 on the boundary
        (within tol), -1 outside, as an int array of shape (...)."""
        x = _as_points(x)
        if tol is None:
            tol = MATCH_TOL * self.diameter
        v = self.vertices
        w = np.roll(v, -1, axis=0)
        # even-odd crossing count of the ray from each point running right (+x)
        px, py = x[..., :1], x[..., 1:]
        cond = (v[:, 1] <= py) != (w[:, 1] <= py)
        with np.errstate(divide="ignore", invalid="ignore"):
            xs = v[:, 0] + (py - v[:, 1]) * (w[:, 0] - v[:, 0]) / (w[:, 1] - v[:, 1])
        inside = np.count_nonzero(cond & (xs > px), axis=-1) % 2 == 1
        return np.where(self.boundary_distance(x) <= tol, 0, np.where(inside, 1, -1))

    def to_json(self) -> list:
        return [[float(x), float(y)] for x, y in self.vertices]

    @staticmethod
    def from_json(data) -> "Polygon":
        return Polygon(np.asarray(data, dtype=float))


def triangulate(poly: Polygon) -> list[np.ndarray]:
    """Ear-clipping triangulation of a simple polygon.

    Returns (3, 2) vertex arrays whose areas sum to the polygon area.
    """
    verts = np.array(poly.vertices)
    idx = list(range(len(verts)))
    scale = poly.diameter
    area_tol = 1e-14 * scale * scale
    tris: list[np.ndarray] = []

    def tri_area(a, b, c):
        return 0.5 * ((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))

    def point_in_tri(p, a, b, c, eps):
        # closed-triangle test: boundary-touching vertices block an ear too,
        # otherwise a reflex vertex sitting on the ear diagonal slips through
        d1 = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
        d2 = (c[0] - b[0]) * (p[1] - b[1]) - (c[1] - b[1]) * (p[0] - b[0])
        d3 = (a[0] - c[0]) * (p[1] - c[1]) - (a[1] - c[1]) * (p[0] - c[0])
        return d1 >= -eps and d2 >= -eps and d3 >= -eps

    guard = 0
    while len(idx) > 3:
        guard += 1
        if guard > 10 * len(verts) ** 2:
            raise GeometryError("triangulation failed (polygon may be non-simple)")
        n = len(idx)
        clipped = False
        for k in range(n):
            i0, i1, i2 = idx[(k - 1) % n], idx[k], idx[(k + 1) % n]
            a, b, c = verts[i0], verts[i1], verts[i2]
            A = tri_area(a, b, c)
            if abs(A) <= area_tol:
                # collinear vertex: drop it without emitting a triangle
                idx.pop(k)
                clipped = True
                break
            if A < 0.0:
                continue  # reflex corner, not an ear
            eps = 1e-12 * scale * scale
            if any(point_in_tri(verts[j], a, b, c, eps) for j in idx if j not in (i0, i1, i2)):
                continue
            tris.append(np.array([a, b, c]))
            idx.pop(k)
            clipped = True
            break
        if not clipped:
            raise GeometryError("no ear found (polygon may be non-simple)")
    a, b, c = (verts[i] for i in idx)
    if abs(tri_area(a, b, c)) > area_tol:
        tris.append(np.array([a, b, c]))

    total = sum(tri_area(*t) for t in tris)
    if abs(total - poly.area) > 1e-12 * max(poly.area, 1.0):
        raise GeometryError("triangulation does not preserve area")
    return tris


@dataclass(frozen=True)
class OrientedSquare:
    """Square of side `side` centered at `center` with two faces orthogonal to `normal`."""

    normal: np.ndarray
    side: float
    center: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "normal", _as_point(self.normal))
        object.__setattr__(self, "center", _as_point(self.center))
        if abs(np.linalg.norm(self.normal) - 1.0) > 1e-12:
            raise GeometryError("square normal must be a unit vector")
        if not self.side > 0.0:
            raise GeometryError("square side must be positive")


def make_oriented_square(nu, rho: float, center=(0.0, 0.0)) -> Polygon:
    """Counterclockwise square of side rho, centered, with two sides orthogonal to nu."""
    if not rho > 0.0:
        raise GeometryError("square side must be positive")
    R = frame_from_normal(nu)
    c = _as_point(center)
    h = 0.5 * rho
    base = np.array([[-h, -h], [h, -h], [h, h], [-h, h]])
    return Polygon(base @ R.T + c)


def _merge_intervals(intervals, tol):
    if not intervals:
        return []
    intervals = sorted(intervals)
    out = [list(intervals[0])]
    for lo, hi in intervals[1:]:
        if lo <= out[-1][1] + tol:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return [(lo, hi) for lo, hi in out]


def _bbox_disjoint(cells1, cells2, tol: float) -> np.ndarray:
    """(len(cells1), len(cells2)): whether the bounding boxes of two cells
    are more than tol apart along some axis."""
    lo1, hi1 = np.array([c.bbox for c in cells1]).transpose(1, 0, 2)[:, :, None]
    lo2, hi2 = np.array([c.bbox for c in cells2]).transpose(1, 0, 2)[:, None]
    return ((lo1 > hi2 + tol) | (lo2 > hi1 + tol)).any(axis=-1)


def _overlap_span(off, Ua, La, dot_dir):
    """Arclength interval [lo, hi] of an edge (unit direction Ua, length La)
    covered by a collinear edge starting at offset `off` from its start,
    whose direction vector has the projection dot_dir on Ua; off and Ua are
    (x, y) pairs of arrays that broadcast."""
    s = off[0] * Ua[0] + off[1] * Ua[1]
    e = s + dot_dir
    return np.maximum(0.0, np.minimum(s, e)), np.minimum(La, np.maximum(s, e))


def _edge_lengths(vertices, counts):
    """(first, d, L): the first row of each vertex loop stacked in vertices
    with the integer array of counts, and the direction vectors and lengths
    of all edges (edge k of a loop runs from its vertex k to k + 1)."""
    first = np.cumsum(counts) - counts
    following = np.arange(1, len(vertices) + 1)
    following[first + counts - 1] = first
    d = vertices[following] - vertices
    return first, d, np.linalg.norm(d, axis=1)


def _match_edges(vertices, counts, pairs, tol: float):
    """Collinear antiparallel edge overlaps between pairs (ia, ib) of index
    arrays into the vertex loops stacked in vertices with the integer array
    of counts.  Every candidate (edge k of ia, edge l of ib) is listed in
    (pair, k, l) order and tested at once.  Returns arrays ia, k, ib, l, lo,
    hi, one entry per overlap longer than tol in that order: edge l of ib
    runs the other way along the arclength interval [lo, hi] of edge k of
    ia."""
    first, d, L = _edge_lengths(vertices, counts)
    u = d / L[:, None]
    ia, ib = pairs
    size = counts[ia] * counts[ib]
    pair = np.repeat(np.arange(len(ia)), size)
    ia, ib = ia[pair], ib[pair]
    k, l = np.divmod(np.arange(len(pair)) - np.repeat(np.cumsum(size) - size, size), counts[ib])
    ea, eb = first[ia] + k, first[ib] + l
    (ux, uy), (dx, dy) = u[ea].T, d[eb].T
    ox, oy = (vertices[eb] - vertices[ea]).T
    # direction, collinearity and overlap tests
    dot_dir = ux * dx + uy * dy
    lo, hi = _overlap_span((ox, oy), (ux, uy), L[ea], dot_dir)
    kept = ((np.abs(ux * dy - uy * dx) <= tol) & (dot_dir < 0.0)
            & (np.abs(ux * oy - uy * ox) <= tol) & (hi - lo > tol))
    return ia[kept], k[kept], ib[kept], l[kept], lo[kept], hi[kept]


def edge_vertices(counts, cell, k):
    """(start, end): the indices of edge k of each given cell in the stacked
    vertices of cells with the given vertex counts; broadcasts."""
    counts = np.asarray(counts)
    start = np.cumsum(counts)[cell] - counts[cell]
    return start + k % counts[cell], start + (k + 1) % counts[cell]


def edge_pair_interfaces(vertices, a_start, a_end, b_start, b_end):
    """(a, b, normal) arrays of the interfaces of given edge pairs: the one
    interface arithmetic, of partitions and compiled topologies alike.

    Edge pair n runs from vertices[a_start[n]] to vertices[a_end[n]] on the
    right side and from vertices[b_start[n]] to vertices[b_end[n]] on the
    left; the edges must be collinear and antiparallel.  The interface is
    the part of the right edge that the left edge covers; its normal, the
    right edge's direction turned by -90 degrees, points out of the right
    cell, as counterclockwise cells keep their interior on their left.
    The arithmetic runs on x and y columns, elementwise that of the rows
    (the norm of two components is sqrt(x * x + y * y)).
    """
    X, Y = vertices.T
    px, py, qx, qy = X[a_start], Y[a_start], X[a_end], Y[a_end]
    bx, by, ex, ey = X[b_start], Y[b_start], X[b_end], Y[b_end]
    dx, dy = qx - px, qy - py
    La = np.sqrt(dx * dx + dy * dy)
    ux, uy = dx / La, dy / La
    dot_dir = ux * (ex - bx) + uy * (ey - by)
    lo, hi = _overlap_span((bx - px, by - py), (ux, uy), La, dot_dir)
    return (np.stack([px + lo * ux, py + lo * uy], axis=1),
            np.stack([px + hi * ux, py + hi * uy], axis=1), np.stack([uy, -ux], axis=1))


@dataclass(frozen=True)
class Interfaces:
    """The interfaces of a partition as arrays: interface n runs from a[n] to
    b[n] where edge left_edge[n] of cell left[n] overlaps edge right_edge[n]
    of cell right[n] (edge k runs from vertex k to vertex k + 1), and its
    unit normal[n] points from right into left."""

    a: np.ndarray
    b: np.ndarray
    normal: np.ndarray
    left: np.ndarray
    right: np.ndarray
    left_edge: np.ndarray
    right_edge: np.ndarray

    def __len__(self) -> int:
        return len(self.left)

    def flipped(self) -> "Interfaces":
        """The same interfaces with every orientation reversed."""
        return Interfaces(self.b, self.a, -self.normal, self.right, self.left,
                          self.right_edge, self.left_edge)


def extract_interfaces(cells: list[Polygon], tol: float) -> Interfaces:
    """Match collinear opposite-orientation edge overlaps between distinct
    cells, over the pairs ia < ib whose bounding boxes come within tol."""
    counts = np.array([len(c) for c in cells])
    vertices = np.concatenate([c.vertices for c in cells])
    near = np.nonzero(np.triu(~_bbox_disjoint(cells, cells, tol), k=1))
    ia, k, ib, l, _, _ = _match_edges(vertices, counts, near, tol)
    ends = edge_vertices(counts, ia, k) + edge_vertices(counts, ib, l)
    a, b, normal = edge_pair_interfaces(vertices, *ends)
    return Interfaces(a, b, normal, left=ib, right=ia, left_edge=l, right_edge=k)


class PolygonalPartition:
    """Finite polygonal partition of a convex planar domain."""

    __slots__ = ("cells", "domain", "interfaces", "tol")

    def __init__(self, cells, domain: Polygon, tol: float | None = None):
        self.cells = tuple(cells)
        if not self.cells:
            raise GeometryError("partition needs at least one cell")
        self.domain = domain
        self.tol = MATCH_TOL * domain.diameter if tol is None else tol
        self.interfaces = extract_interfaces(list(self.cells), self.tol)

    def __len__(self) -> int:
        return len(self.cells)

    @property
    def area_defect(self) -> float:
        return abs(sum(c.area for c in self.cells) - self.domain.area)

    def locate(self, x) -> tuple[int, bool]:
        """(cell index, on-interface flag) for a point of the domain.

        Raises GeometryError for points outside the domain.  The flag is set
        when the point lies within the matching tolerance of an interface.
        """
        x = _as_point(x)
        itf = self.interfaces
        on_interface = bool(np.any(_segments_distance(x, itf.a, itf.b - itf.a) <= self.tol))
        for k, cell in enumerate(self.cells):
            if cell.contains(x, self.tol) >= 0:
                return k, on_interface
        raise GeometryError(f"point {x.tolist()} lies outside the domain")

    def flipped(self) -> "PolygonalPartition":
        """Same cells with every interface orientation reversed."""
        part = PolygonalPartition.__new__(PolygonalPartition)
        part.cells = self.cells
        part.domain = self.domain
        part.tol = self.tol
        part.interfaces = self.interfaces.flipped()
        return part

    def to_json(self) -> dict:
        return {
            "cells": [c.to_json() for c in self.cells],
            "domain": self.domain.to_json(),
        }

    @staticmethod
    def from_json(data) -> "PolygonalPartition":
        cells = [Polygon.from_json(c) for c in data["cells"]]
        return PolygonalPartition(cells, Polygon.from_json(data["domain"]))


def _convex_clip(subject: np.ndarray, clip: np.ndarray, tol: float) -> np.ndarray:
    """Sutherland-Hodgman clip of `subject` against convex counterclockwise `clip`."""
    out = [np.array(p) for p in subject]
    m = len(clip)
    for k in range(m):
        if not out:
            break
        A, B = clip[k], clip[(k + 1) % m]
        e = B - A
        inp = out
        out = []
        prev = inp[-1]
        prev_in = (e[0] * (prev[1] - A[1]) - e[1] * (prev[0] - A[0])) >= -tol
        for cur in inp:
            cur_in = (e[0] * (cur[1] - A[1]) - e[1] * (cur[0] - A[0])) >= -tol
            if cur_in != prev_in:
                d = cur - prev
                denom = e[0] * d[1] - e[1] * d[0]
                if denom != 0.0:
                    t = (e[0] * (A[1] - prev[1]) - e[1] * (A[0] - prev[0])) / denom
                    out.append(prev + np.clip(t, 0.0, 1.0) * d)
            if cur_in:
                out.append(cur)
            prev, prev_in = cur, cur_in
    return np.array(out) if out else np.zeros((0, 2))


def clip_polygon(cell: Polygon, region: Polygon) -> Polygon | None:
    """Cell clipped to a convex region (None if the overlap is negligible)."""
    tol = 1e-12 * max(cell.diameter, region.diameter)
    pts = _convex_clip(cell.vertices, region.vertices, tol)
    if len(pts) < 3 or abs(signed_area(pts)) < 1e-14 * region.area:
        return None
    # drop duplicate consecutive points produced by clipping
    keep = [pts[0]]
    for p in pts[1:]:
        if np.linalg.norm(p - keep[-1]) > 1e-12 * region.diameter:
            keep.append(p)
    if np.linalg.norm(keep[0] - keep[-1]) <= 1e-12 * region.diameter:
        keep.pop()
    if len(keep) < 3:
        return None
    return Polygon(np.array(keep))


def polygon_overlap_area(p1: Polygon, p2: Polygon, tol: float | None = None) -> float:
    """Area of the intersection, via pairwise triangle clipping."""
    if tol is None:
        tol = MATCH_TOL * max(p1.diameter, p2.diameter)
    if _bbox_disjoint([p1], [p2], tol)[0, 0]:
        return 0.0
    total = 0.0
    tris2 = triangulate(p2)
    for t1 in triangulate(p1):
        for t2 in tris2:
            clipped = _convex_clip(t1, t2, tol)
            if len(clipped) >= 3:
                total += abs(signed_area(clipped))
    return total


@dataclass
class PartitionReport(Report):
    """Diagnostics from validate_partition."""

    area_defect: float
    unmatched_edges: list  # (cell, edge, uncovered length)
    overlapping_pairs: list  # (cell, cell, overlap area)
    passed: bool


def validate_partition(part: PolygonalPartition) -> PartitionReport:
    """Report area defect, unmatched edge portions, and overlapping cell pairs."""
    tol = part.tol
    n = len(part.cells)
    counts = np.array([len(c) for c in part.cells] + [len(part.domain)])
    # the domain loop reversed runs the other way along every cell edge on
    # the boundary, as a neighbouring cell's edge does inside
    vertices = np.concatenate([c.vertices for c in part.cells] + [part.domain.vertices[::-1]])
    pairs = np.nonzero(np.arange(n)[:, None] != np.arange(n + 1))
    ia, k, _, _, lo, hi = _match_edges(vertices, counts, pairs, tol)
    first, _, L = _edge_lengths(vertices, counts)
    covered = [[] for _ in range(first[n])]
    for e, s, t in zip((first[ia] + k).tolist(), lo.tolist(), hi.tolist()):
        covered[e].append((s, t))
    unmatched = []
    for ci in range(n):
        for ei in range(counts[ci]):
            e = first[ci] + ei
            gap = float(L[e] - sum(hi - lo for lo, hi in _merge_intervals(covered[e], tol)))
            if gap > 10 * tol:
                unmatched.append((ci, ei, gap))

    overlaps = []
    area_tol = max(tol * part.domain.diameter, 1e-12 * part.domain.area)
    for ci in range(len(part.cells)):
        for cj in range(ci + 1, len(part.cells)):
            a = polygon_overlap_area(part.cells[ci], part.cells[cj], tol)
            if a > area_tol:
                overlaps.append((ci, cj, a))

    defect = part.area_defect
    passed = (
        defect <= 1e-9 * part.domain.area and not unmatched and not overlaps
    )
    return PartitionReport(defect, unmatched, overlaps, passed)


def row_norms(v) -> np.ndarray:
    """np.linalg.norm of each row of v, bit for bit: the norm of one vector
    is a dot product, and a stacked matmul keeps it."""
    return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])


def clip_segment_params(starts, ends, poly: Polygon, tol: float | None = None):
    """The pieces inside poly of the segments starts[k] -> ends[k], (n, 2)
    arrays: (rows, t0, t1, on_boundary), where piece n covers [t0[n], t1[n]]
    of the parameter in [0, 1] of segment rows[n], row after row in
    increasing t.  Segments are cut where they meet an edge within tol;
    pieces no longer than tol, or with their midpoint outside poly, are
    dropped.  on_boundary marks pieces along the boundary of poly."""
    a = _as_points(starts).reshape(-1, 2)
    d = _as_points(ends).reshape(-1, 2) - a
    if tol is None:
        tol = MATCH_TOL * poly.diameter
    L = row_norms(d)
    P = poly.vertices
    e = np.roll(P, -1, axis=0) - P
    e_len = row_norms(e)
    # (rows, edges): segment k's line meets edge l's line at a + t d = P + s e
    ox, oy = P[:, 0] - a[:, :1], P[:, 1] - a[:, 1:]
    dx, dy = d[:, :1], d[:, 1:]
    denom = dx * e[:, 1] - dy * e[:, 0]
    # parallel lines divide by zero and near-parallel ones may overflow, both
    # rejected by the hit tests; the inf that pads the cuts gives inf - inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = (ox * e[:, 1] - oy * e[:, 0]) / denom
        s = (ox * dy - oy * dx) / denom
        slack = (tol / L)[:, None]
        hit = ((denom != 0.0) & (-slack <= t) & (t <= 1 + slack)
               & (-tol <= s * e_len) & (s * e_len <= e_len + tol))
        # the cuts of each row: 0, 1 and the hits clipped to [0, 1] (+ 0.0
        # makes -0.0 the 0.0 it equals), sorted, each value once
        cuts = np.where(hit, np.clip(t, 0.0, 1.0) + 0.0, np.inf)
        cuts = np.concatenate([np.broadcast_to([0.0, 1.0], (len(a), 2)), cuts], axis=1)
        cuts.sort(axis=1)
        cuts[:, 1:][cuts[:, 1:] == cuts[:, :-1]] = np.inf
        cuts.sort(axis=1)
        t0, t1 = cuts[:, :-1], cuts[:, 1:]
        long = np.isfinite(t1) & ((t1 - t0) * L[:, None] > tol)
    rows, k = np.nonzero(long)
    t0, t1 = t0[rows, k], t1[rows, k]
    side = poly.contains(a[rows] + (0.5 * (t0 + t1))[:, None] * d[rows], tol)
    kept = side >= 0
    return rows[kept], t0[kept], t1[kept], side[kept] == 0
