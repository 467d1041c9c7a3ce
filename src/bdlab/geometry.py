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
    """v / np.linalg.norm(v) for a finite nonzero v; where that norm
    underflows to 0 or overflows to inf, v is first scaled by the power of
    two that brings its largest entry into [0.5, 1)."""
    v = np.asarray(v, dtype=float)
    if not np.isfinite(v).all():
        raise GeometryError(f"cannot normalize a non-finite vector, got {v}")
    with np.errstate(over="ignore"):
        n = float(np.linalg.norm(v))
    if n == 0.0 or n == np.inf:
        if not v.any():
            raise GeometryError("cannot normalize the zero vector")
        v = np.ldexp(v, -np.frexp(np.abs(v).max())[1])
        n = float(np.linalg.norm(v))
    return v / n


def frame_from_normal(nu) -> np.ndarray:
    """Rotation matrix sending e2 to the unit vector nu (columns: nu^perp, nu)."""
    nu = _as_point(nu)
    if abs(np.linalg.norm(nu) - 1.0) > 1e-12:
        raise GeometryError(f"normal must be a unit vector, got |nu|={np.linalg.norm(nu)}")
    return np.array([[nu[1], nu[0]], [-nu[0], nu[1]]])


def _segments_distance(x, a, d) -> np.ndarray:
    """Distances from the points x (..., 2) to the segments a + t d, t in
    [0, 1], given as (..., m, 2) arrays that broadcast against x: (..., m)."""
    x = x[..., None, :]
    t = np.clip(np.einsum("...ij,...ij->...i", x - a, d) / np.einsum("...ij,...ij->...i", d, d),
                0.0, 1.0)
    return np.linalg.norm(a + t[..., None] * d - x, axis=-1)


def _loop_sides(x, v, w, tol, own=None):
    """For each point of x (..., 2): +1 inside the loop of the edges v[k] ->
    w[k], 0 within tol of one of them, -1 outside, as an int array of shape
    (...).  v and w are (..., m, 2) arrays that broadcast against x, so each
    point may have its own loop; own, a boolean (..., m) array, marks the
    edges that make it up, the others being padding."""
    # even-odd crossing count of the ray from each point running right (+x)
    px, py = x[..., :1], x[..., 1:]
    cond = (v[..., 1] <= py) != (w[..., 1] <= py)
    with np.errstate(divide="ignore", invalid="ignore"):
        xs = v[..., 0] + (py - v[..., 1]) * (w[..., 0] - v[..., 0]) / (w[..., 1] - v[..., 1])
    dist = _segments_distance(x, v, w - v)
    if own is not None:
        cond, dist = cond & own, np.where(own, dist, np.inf)
    inside = np.count_nonzero(cond & (xs > px), axis=-1) % 2 == 1
    return np.where(np.min(dist, axis=-1) <= tol, 0, np.where(inside, 1, -1))


def signed_area(vertices, rolled=None) -> float:
    """Shoelace area of a vertex loop; rolled is the loop rolled by one row, if at hand."""
    v = np.asarray(vertices, dtype=float)
    w = np.roll(v, -1, axis=0) if rolled is None else rolled
    return 0.5 * float(np.dot(v[:, 0], w[:, 1]) - np.dot(v[:, 1], w[:, 0]))


def _checked_loops(v) -> np.ndarray:
    """Polygon's checks on every loop of v, a (k, V, 2) float array, at once:
    GeometryError unless each is a Polygon's vertex loop.  Returns the loops
    rolled by one row along V; it and v are made read-only.  Each loop's
    shoelace sum is a stacked matmul of its columns, the dot products of
    signed_area bit for bit."""
    if v.ndim != 3 or v.shape[2] != 2 or v.shape[1] < 3:
        raise GeometryError("a polygon needs at least three planar vertices")
    if not np.isfinite(v).all():
        raise GeometryError("polygon vertices must be finite")
    ext = (v.max(axis=1) - v.min(axis=1)).max(axis=1)
    if (ext == 0.0).any():
        raise GeometryError("polygon has zero extent")
    w = np.concatenate([v[:, 1:], v[:, :1]], axis=1)
    d = v - w
    # the gaps as np.linalg.norm takes them, without its Python overhead
    if (np.sqrt((d * d).sum(axis=2)) < MATCH_TOL * ext[:, None]).any():
        raise GeometryError("repeated consecutive vertices")
    xy = (v[:, None, :, 0] @ w[:, :, 1, None])[:, 0, 0]
    yx = (v[:, None, :, 1] @ w[:, :, 0, None])[:, 0, 0]
    if (0.5 * (xy - yx) <= 0.0).any():
        raise GeometryError("polygon must be counterclockwise with positive area")
    v.setflags(write=False)
    w.setflags(write=False)
    return w


class Polygon:
    """Simple counterclockwise polygon with at least three vertices; rolled
    is the vertex loop rolled by one row (vertex k + 1 in row k)."""

    __slots__ = ("vertices", "rolled")

    def __init__(self, vertices):
        v = np.array(vertices, dtype=float)[None]
        w = _checked_loops(v)
        self.vertices = v[0]
        self.rolled = w[0]

    @staticmethod
    def stack(loops) -> list["Polygon"]:
        """One Polygon per loop of loops, (k, V, 2), all checked at once as
        Polygon checks one."""
        v = np.array(loops, dtype=float)
        w = _checked_loops(v)
        polys = []
        for vk, wk in zip(v, w):
            p = object.__new__(Polygon)
            p.vertices, p.rolled = vk, wk
            polys.append(p)
        return polys

    def __len__(self) -> int:
        return self.vertices.shape[0]

    def __repr__(self) -> str:
        return f"Polygon({self.vertices.tolist()})"

    @property
    def area(self) -> float:
        return signed_area(self.vertices, self.rolled)

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
        v, w = self.vertices, self.rolled
        cross = v[:, 0] * w[:, 1] - v[:, 1] * w[:, 0]
        return (v + w).T @ cross / (6.0 * self.area)

    def boundary_distance(self, x):
        """Distance from each point of x (..., 2) to the boundary: (...)."""
        v = self.vertices
        return np.min(_segments_distance(_as_points(x), v, self.rolled - v), axis=-1)

    def contains(self, x, tol: float | None = None):
        """For each point of x (..., 2): +1 strictly inside, 0 on the boundary
        (within tol), -1 outside, as an int array of shape (...)."""
        if tol is None:
            tol = MATCH_TOL * self.diameter
        return _loop_sides(_as_points(x), self.vertices, self.rolled, tol)

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
    interface arithmetic, of partitions and compiled search rounds alike.

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


def _loops(polys):
    """(vertices, counts, lo, hi): the vertex loops of the Polygons stacked
    end to end, their lengths, and their bounding box corners, (k, 2), from
    one reduction each; row_norms(hi - lo) is Polygon.diameter bit for bit."""
    counts = np.array([len(p) for p in polys])
    vertices = np.concatenate([p.vertices for p in polys])
    first = np.cumsum(counts) - counts
    lo, hi = np.minimum.reduceat(vertices, first), np.maximum.reduceat(vertices, first)
    return vertices, counts, lo, hi


def extract_interfaces(cells: list[Polygon], tol: float) -> Interfaces:
    """Match collinear opposite-orientation edge overlaps between distinct
    cells, over the pairs ia < ib whose bounding boxes come within tol."""
    vertices, counts, lo, hi = _loops(cells)
    far = ((lo[:, None] > hi + tol) | (lo > hi[:, None] + tol)).any(axis=-1)
    near = np.nonzero(np.triu(~far, k=1))
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


def _stack(loops):
    """(stacked, counts): vertex loops, (k, 2) arrays, each padded with
    copies of its last vertex to the longest: (len(loops), max k, 2), and
    the integer array of the k."""
    counts = np.array([len(v) for v in loops])
    col = np.minimum(np.arange(counts.max()), counts[:, None] - 1)
    return np.concatenate(loops)[np.cumsum(counts)[:, None] - counts[:, None] + col], counts


def _clip_convex(subject, n, clip, m, tol):
    """Sutherland-Hodgman clip of every subject loop (the first n[r] rows of
    subject[r], padded as `_stack` pads) against its convex counterclockwise
    clip loop (the first m[r] rows of clip[r]), all rows at once: (out,
    counts), padded the same way.  A point is inside an edge's half plane
    when its cross product with the edge is at least -tol[r]; each row is
    the arithmetic of clipping that pair alone, vertex by vertex."""
    rows = np.arange(len(subject))[:, None]
    e = clip[rows, (np.arange(clip.shape[1]) + 1) % m[:, None]] - clip
    skip = np.arange(clip.shape[1]) >= m[:, None]  # no edge k: keep every vertex
    lo = -tol[:, None]
    # a near-parallel edge may overflow t, which the clip to [0, 1] settles
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for k in range(clip.shape[1]):
            A, ex, ey = clip[:, k, None], e[:, k, None, 0], e[:, k, None, 1]
            off = subject - A
            inside = (ex * off[..., 1] - ey * off[..., 0] >= lo) | skip[:, k, None]
            valid = np.arange(subject.shape[1]) < n[:, None]
            if np.all(inside | ~valid):
                continue  # every loop keeps every vertex
            # column 0's predecessor is the last vertex, which the last column holds
            prev = np.concatenate([subject[:, -1:], subject[:, :-1]], axis=1)
            was_in = np.concatenate([inside[:, -1:], inside[:, :-1]], axis=1)
            d = subject - prev
            denom = ex * d[..., 1] - ey * d[..., 0]
            back = A - prev
            t = np.clip((ex * back[..., 1] - ey * back[..., 0]) / denom, 0.0, 1.0)
            # each vertex emits its edge's crossing point, then itself if inside
            emit = np.empty(inside.shape + (2,), dtype=bool)
            emit[..., 0] = valid & (inside != was_in) & (denom != 0.0)
            emit[..., 1] = valid & inside
            cand = np.empty(subject.shape[:2] + (2, 2))
            cand[:, :, 0] = prev + t[..., None] * d
            cand[:, :, 1] = subject
            emit, cand = emit.reshape(len(rows), -1), cand.reshape(len(rows), -1, 2)
            n = np.count_nonzero(emit, axis=1)
            order = np.argsort(~emit, axis=1, kind="stable")
            subject = cand[rows, order[rows, np.minimum(np.arange(n.max()), n[:, None] - 1)]]
    return subject, n


def _loop_areas(v, n) -> np.ndarray:
    """Shoelace areas of the loops (the first n[r] rows of v[r]), each
    summed vertex after vertex, so that padding does not change it."""
    if not v.shape[1]:
        return np.zeros(len(v))
    col = np.arange(v.shape[1])
    valid = col < n[:, None]
    # the vertex after the last is the first
    w = np.where((col + 1 < n[:, None])[..., None], np.concatenate([v[:, 1:], v[:, :1]], axis=1),
                 v[:, :1])
    a = np.cumsum(np.where(valid, v[..., 0] * w[..., 1], 0.0), axis=1)[:, -1]
    b = np.cumsum(np.where(valid, v[..., 1] * w[..., 0], 0.0), axis=1)[:, -1]
    return 0.5 * (a - b)


def _convex_pieces(poly: Polygon) -> list[np.ndarray]:
    """The polygon's vertex loop if it turns left at every vertex, otherwise
    its triangulate triangles."""
    d = poly.rolled - poly.vertices
    dn = np.roll(d, -1, axis=0)
    if np.all(d[:, 0] * dn[:, 1] - d[:, 1] * dn[:, 0] >= 0.0):
        return [poly.vertices]
    return triangulate(poly)


def overlap_areas(subjects, others, pairs, tol=None) -> np.ndarray:
    """Intersection areas of subjects[ia] and others[ib] for the pairs (ia,
    ib) of index arrays.  Each subject is clipped against the convex pieces
    of the other (see `_convex_pieces`), every (pair, piece) at once, and a
    pair's areas add up in piece order.  tol, one number or one per pair
    (MATCH_TOL times the larger diameter by default), is the clip's inside
    tolerance; bounding boxes more than tol apart give 0.0."""
    ia, ib = (np.asarray(x, dtype=int) for x in pairs)
    _, _, lo1, hi1 = _loops(subjects)
    _, _, lo2, hi2 = _loops(others)
    if tol is None:
        tol = MATCH_TOL * np.maximum(row_norms(hi1 - lo1)[ia], row_norms(hi2 - lo2)[ib])
    tol = np.broadcast_to(np.asarray(tol, dtype=float), ia.shape)
    gap = tol[:, None]
    far = (lo1[ia] > hi2[ib] + gap) | (lo2[ib] > hi1[ia] + gap)
    near = np.nonzero(~far.any(axis=1))[0]
    if not len(near):
        return np.zeros(len(ia))
    # one row per (near pair, convex piece of its other cell)
    met = ib[near].tolist()
    pieces = {b: _convex_pieces(others[b]) for b in set(met)}
    pair = np.repeat(near, [len(pieces[b]) for b in met])
    S, ns = _stack([subjects[a].vertices for a in ia[pair].tolist()])
    C, mc = _stack([loop for b in met for loop in pieces[b]])
    out, n = _clip_convex(S, ns, C, mc, tol[pair])
    area = np.where(n >= 3, np.abs(_loop_areas(out, n)), 0.0)
    return np.bincount(pair, weights=area, minlength=len(ia))


def _drop_repeats(pts, eps) -> np.ndarray:
    """The loop pts, (n, 2), without each point within eps of the last point
    kept before it, then without the last point kept if it lies within eps
    of the first: the duplicate points that clipping produces."""
    keep = pts
    # while every gap exceeds eps, the last point kept is the previous one
    if not np.all(row_norms(pts[1:] - pts[:-1]) > eps):
        kept = [pts[0]]
        for p in pts[1:]:
            if np.linalg.norm(p - kept[-1]) > eps:
                kept.append(p)
        keep = np.array(kept)
    if np.linalg.norm(keep[0] - keep[-1]) <= eps:
        keep = keep[:-1]
    return keep


def clip_polygon(cell: Polygon, region: Polygon) -> Polygon | None:
    """Cell clipped to a convex region (None if the overlap is negligible)."""
    tol = 1e-12 * max(cell.diameter, region.diameter)
    out, n = _clip_convex(cell.vertices[None], np.array([len(cell)]),
                          region.vertices[None], np.array([len(region)]), np.array([tol]))
    pts = out[0, :n[0]]
    if len(pts) < 3 or abs(signed_area(pts)) < 1e-14 * region.area:
        return None
    keep = _drop_repeats(pts, 1e-12 * region.diameter)
    if len(keep) < 3:
        return None
    return Polygon(keep)


def polygon_overlap_area(p1: Polygon, p2: Polygon, tol: float | None = None) -> float:
    """Area of the intersection: p1 clipped against the convex pieces of p2."""
    return float(overlap_areas([p1], [p2], ([0], [0]), tol)[0])


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

    area_tol = max(tol * part.domain.diameter, 1e-12 * part.domain.area)
    ci, cj = np.nonzero(np.triu(np.ones((n, n), dtype=bool), k=1))
    area = overlap_areas(part.cells, part.cells, (ci, cj), tol)
    hit = area > area_tol
    overlaps = list(zip(ci[hit].tolist(), cj[hit].tolist(), area[hit].tolist()))

    defect = part.area_defect
    passed = (
        defect <= 1e-9 * part.domain.area and not unmatched and not overlaps
    )
    return PartitionReport(defect, unmatched, overlaps, passed)


def row_norms(v) -> np.ndarray:
    """np.linalg.norm of each row of v, bit for bit: the norm of one vector
    is a dot product, and a stacked matmul keeps it."""
    return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])


def clip_segment_params(starts, ends, regions):
    """The pieces inside each of the regions (Polygons) of the segments
    starts[k] -> ends[k], (n, 2) arrays: (owner, rows, t0, t1, on_boundary),
    where piece m covers [t0[m], t1[m]] of the parameter in [0, 1] of
    segment rows[m] inside regions[owner[m]], region after region, row after
    row in increasing t.  Segments are cut where they meet a region's edge
    within tol, MATCH_TOL times the region's diameter; pieces no longer
    than tol, or with their midpoint outside the region, are dropped.
    on_boundary marks pieces along the region's boundary.  Every region
    gives the pieces of clipping against it alone, bit for bit."""
    a = _as_points(starts).reshape(-1, 2)
    b = _as_points(ends).reshape(-1, 2)
    d = b - a
    G = len(regions)
    _, _, lo, hi = _loops(regions)
    tol = MATCH_TOL * row_norms(hi - lo)
    L = row_norms(d)
    # every region's edges, padded by repeating its last one, which the
    # mask `edge` drops
    P, counts = _stack([r.vertices for r in regions])
    Q = _stack([r.rolled for r in regions])[0]
    E = P.shape[1]
    edge = np.arange(E) < counts[:, None]
    e_len = row_norms((Q - P).reshape(-1, 2)).reshape(G, E)
    # the (region, row) pairs whose bounding boxes come within tol: a segment
    # farther from a region has no piece in it
    gap = tol[:, None, None]
    far = (np.minimum(a, b) > hi[:, None] + gap) | (lo[:, None] > np.maximum(a, b) + gap)
    owner, rows = np.nonzero(~far.any(axis=2))
    P, Q, edge, e_len, tol = P[owner], Q[owner], edge[owner], e_len[owner], tol[owner, None]
    e = Q - P
    a, d, L = a[rows], d[rows], L[rows, None]
    # (pairs, edges): the segment's line meets the edge's line at a + t d = P + s e
    ox, oy = P[..., 0] - a[:, :1], P[..., 1] - a[:, 1:]
    dx, dy = d[:, :1], d[:, 1:]
    denom = dx * e[..., 1] - dy * e[..., 0]
    # parallel lines divide by zero and near-parallel ones may overflow, both
    # rejected by the hit tests; the inf that pads the cuts gives inf - inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = (ox * e[..., 1] - oy * e[..., 0]) / denom
        s = (ox * dy - oy * dx) / denom
        slack = tol / L
        hit = (edge & (denom != 0.0) & (-slack <= t) & (t <= 1 + slack)
               & (-tol <= s * e_len) & (s * e_len <= e_len + tol))
        # the cuts of each pair: 0, 1 and the hits clipped to [0, 1] (+ 0.0
        # makes -0.0 the 0.0 it equals), sorted, each value once
        cuts = np.where(hit, np.clip(t, 0.0, 1.0) + 0.0, np.inf)
        cuts = np.concatenate([np.broadcast_to([0.0, 1.0], (len(a), 2)), cuts], axis=1)
        cuts.sort(axis=1)
        cuts[:, 1:][cuts[:, 1:] == cuts[:, :-1]] = np.inf
        cuts.sort(axis=1)
        t0, t1 = cuts[:, :-1], cuts[:, 1:]
        long = np.isfinite(t1) & ((t1 - t0) * L > tol)
    pair, k = np.nonzero(long)
    t0, t1 = t0[pair, k], t1[pair, k]
    mid = a[pair] + (0.5 * (t0 + t1))[:, None] * d[pair]
    side = _loop_sides(mid, P[pair], Q[pair], tol[pair, 0], edge[pair])
    kept = side >= 0
    return owner[pair][kept], rows[pair][kept], t0[kept], t1[kept], side[kept] == 0
