"""Planar polygonal geometry: oriented squares, partitions, interface extraction.

Polygons are counterclockwise vertex loops.  A partition is a finite list of
polygonal cells covering a convex domain; the interfaces between cells are
recovered by matching collinear, opposite-orientation edge overlaps, so cells
may be authored with unequal edge subdivisions (T-junctions are fine).

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
    """Distances from the point x to the segments a + t d, t in [0, 1]."""
    t = np.clip(np.einsum("ij,ij->i", x - a, d) / np.einsum("ij,ij->i", d, d), 0.0, 1.0)
    return np.linalg.norm(a + t[:, None] * d - x, axis=1)


def signed_area(vertices) -> float:
    v = np.asarray(vertices, dtype=float)
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


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
        gaps = np.linalg.norm(v - np.roll(v, -1, axis=0), axis=1)
        if np.any(gaps < MATCH_TOL * ext):
            raise GeometryError("repeated consecutive vertices")
        if signed_area(v) <= 0.0:
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

    def edges(self):
        """Directed edges (p, q) in counterclockwise order."""
        v = self.vertices
        w = np.roll(v, -1, axis=0)
        return list(zip(v, w))

    def boundary_distance(self, x) -> float:
        v = self.vertices
        return float(np.min(_segments_distance(_as_point(x), v, np.roll(v, -1, axis=0) - v)))

    def contains(self, x, tol: float | None = None) -> int:
        """+1 strictly inside, 0 on the boundary (within tol), -1 outside."""
        x = _as_point(x)
        if tol is None:
            tol = MATCH_TOL * self.diameter
        if self.boundary_distance(x) <= tol:
            return 0
        v = self.vertices
        w = np.roll(v, -1, axis=0)
        # even-odd crossing count of the ray from x running right (+x)
        cond = (v[:, 1] <= x[1]) != (w[:, 1] <= x[1])
        with np.errstate(divide="ignore", invalid="ignore"):
            xs = v[:, 0] + (x[1] - v[:, 1]) * (w[:, 0] - v[:, 0]) / (w[:, 1] - v[:, 1])
        crossings = int(np.sum(cond & (xs > x[0])))
        return 1 if crossings % 2 == 1 else -1

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


@dataclass(frozen=True)
class Interface:
    """Shared straight piece between two cells.

    The normal is the unit vector orthogonal to the segment pointing from
    `right` into `left`.
    """

    a: np.ndarray
    b: np.ndarray
    left: int
    right: int
    normal: np.ndarray

    @property
    def length(self) -> float:
        return float(np.linalg.norm(self.b - self.a))

    @property
    def direction(self) -> np.ndarray:
        return unit(self.b - self.a)

    def flipped(self) -> "Interface":
        return Interface(self.b, self.a, self.right, self.left, -self.normal)


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


def _bbox_disjoint(c1: Polygon, c2: Polygon, tol: float) -> bool:
    lo1, hi1 = c1.bbox
    lo2, hi2 = c2.bbox
    return bool(np.any(lo1 > hi2 + tol) or np.any(lo2 > hi1 + tol))


def _edge_arrays(vertices):
    """(starts, directions, unit directions, lengths) of a vertex loop's edges."""
    d = np.roll(vertices, -1, axis=0) - vertices
    L = np.linalg.norm(d, axis=1)
    return vertices, d, d / L[:, None], L


def _edge_overlaps(a, b, tol: float, antiparallel: bool = True):
    """Collinear overlaps between the edges of two `_edge_arrays` tuples.

    Returns arrays k, lo, hi: an edge of `b` covers the arclength interval
    [lo, hi] of edge k of `a`, an overlap longer than tol.  The two edges run
    opposite ways when antiparallel is True, the same way otherwise.
    """
    Pa, _, Ua, La = a
    Pb, Db, _, _ = b
    # (na, nb) pairwise tests: direction, collinearity, overlap
    cross_dir = Ua[:, None, 0] * Db[None, :, 1] - Ua[:, None, 1] * Db[None, :, 0]
    dot_dir = Ua[:, None, 0] * Db[None, :, 0] + Ua[:, None, 1] * Db[None, :, 1]
    off = Pb[None, :, :] - Pa[:, None, :]
    cross_off = Ua[:, None, 0] * off[..., 1] - Ua[:, None, 1] * off[..., 0]
    oriented = dot_dir < 0.0 if antiparallel else dot_dir > 0.0
    mask = (np.abs(cross_dir) <= tol) & oriented & (np.abs(cross_off) <= tol)
    if not mask.any():
        return (), (), ()
    s = off[..., 0] * Ua[:, None, 0] + off[..., 1] * Ua[:, None, 1]
    e = s + dot_dir
    lo = np.maximum(0.0, np.minimum(s, e))
    hi = np.minimum(La[:, None], np.maximum(s, e))
    k, l = np.nonzero(mask & ((hi - lo) > tol))
    return k, lo[k, l], hi[k, l]


def extract_interfaces(cells: list[Polygon], tol: float) -> list[Interface]:
    """Match collinear opposite-orientation edge overlaps between distinct cells."""
    interfaces: list[Interface] = []
    edges = [_edge_arrays(c.vertices) for c in cells]
    for ia in range(len(cells)):
        Pa, _, Ua, _ = edges[ia]
        for ib in range(ia + 1, len(cells)):
            if _bbox_disjoint(cells[ia], cells[ib], tol):
                continue
            for k, lo, hi in zip(*_edge_overlaps(edges[ia], edges[ib], tol)):
                u1 = Ua[k]
                # counterclockwise cells keep their interior on the left of
                # each directed edge, so the outward normal of cell ia is
                # the direction rotated by -90 degrees
                n = np.array([u1[1], -u1[0]])
                interfaces.append(
                    Interface(Pa[k] + lo * u1, Pa[k] + hi * u1, left=ib, right=ia, normal=n)
                )
    return interfaces


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
        a = np.array([itf.a for itf in self.interfaces]).reshape(-1, 2)
        b = np.array([itf.b for itf in self.interfaces]).reshape(-1, 2)
        on_interface = bool(np.any(_segments_distance(x, a, b - a) <= self.tol))
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
        part.interfaces = [i.flipped() for i in self.interfaces]
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
    if _bbox_disjoint(p1, p2, tol):
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
    edges = [_edge_arrays(c.vertices) for c in part.cells]
    domain_edges = _edge_arrays(part.domain.vertices)

    unmatched = []
    for ci, own in enumerate(edges):
        covered = [[] for _ in own[3]]
        # antiparallel against the other cells, parallel along the domain
        against = [(e, True) for cj, e in enumerate(edges) if cj != ci]
        for other, antiparallel in against + [(domain_edges, False)]:
            for k, lo, hi in zip(*_edge_overlaps(own, other, tol, antiparallel)):
                covered[k].append((lo, hi))
        for ei, (L, intervals) in enumerate(zip(own[3], covered)):
            gap = float(L - sum(hi - lo for lo, hi in _merge_intervals(intervals, tol)))
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


def clip_segment_params(a, b, poly: Polygon, tol: float | None = None):
    """Sub-intervals of the segment a->b (parameters in [0,1]) lying inside poly.

    Each piece is tagged: (t0, t1, on_boundary) where on_boundary marks pieces
    collinear with the polygon boundary.
    """
    a = _as_point(a)
    b = _as_point(b)
    if tol is None:
        tol = MATCH_TOL * poly.diameter
    d = b - a
    L = float(np.linalg.norm(d))
    if L == 0.0:
        return []
    cuts = {0.0, 1.0}
    for P, Q in poly.edges():
        e = Q - P
        denom = d[0] * e[1] - d[1] * e[0]
        if denom == 0.0:
            continue
        t = ((P[0] - a[0]) * e[1] - (P[1] - a[1]) * e[0]) / denom
        s = ((P[0] - a[0]) * d[1] - (P[1] - a[1]) * d[0]) / denom
        if -tol / L <= t <= 1 + tol / L and -tol <= s * np.linalg.norm(e) <= np.linalg.norm(e) + tol:
            cuts.add(float(np.clip(t, 0.0, 1.0)))
    ts = sorted(cuts)
    pieces = []
    for t0, t1 in zip(ts[:-1], ts[1:]):
        if (t1 - t0) * L <= tol:
            continue
        mid = a + 0.5 * (t0 + t1) * d
        side = poly.contains(mid, tol)
        if side < 0:
            continue
        on_boundary = side == 0
        pieces.append((t0, t1, on_boundary))
    return pieces
