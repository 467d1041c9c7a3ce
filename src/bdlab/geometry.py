"""Planar polygonal geometry: oriented squares, partitions, interface extraction.

Polygons are counterclockwise vertex loops.  A partition's polygonal cells
cover a convex domain as one ragged stack of loops, (vertices, counts): the
loops end to end, (sum of counts, 2), and their vertex counts.  The kernels
take a stack of loops as such a pair or as a sequence of Polygons.  The
interfaces between cells are recovered by matching collinear,
opposite-orientation edge overlaps, so cells may be authored with unequal
edge subdivisions (T-junctions are fine).  They are arrays (`Interfaces`)
from one arithmetic, `edge_pair_interfaces`.  Clipping gives intersection
areas (`overlap_areas`) and segments cut to regions (`clip_segment_params`).

Coordinates are plain float64; two points coincide when their distance is
below 1e-9 times the domain diameter.
"""

from __future__ import annotations

import copy
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


def _following(counts) -> np.ndarray:
    """The row of the vertex after each vertex in a ragged stack of loops
    with the integer vertex counts: the next, or the first after the last."""
    stop = np.cumsum(counts)
    following = np.arange(1, counts.sum() + 1)
    following[stop - 1] = stop - counts
    return following


def _boxes(vertices, counts):
    """(lo, hi): the bounding box corners, (k, 2), of the loops of a ragged
    stack; row_norms(hi - lo) is Polygon.diameter bit for bit."""
    first = np.cumsum(counts) - counts
    return np.minimum.reduceat(vertices, first), np.maximum.reduceat(vertices, first)


def _checked_loops(v, counts) -> np.ndarray:
    """Polygon's checks on each loop of the ragged stack (v, counts): the
    GeometryError of the first check some loop fails, if any.  Returns the
    loops rolled by one row; it, v and counts are made read-only.  The
    shoelace sums are a stacked matmul per loop length, signed_area's dot
    products.  Last, a loop's turns (each in (-pi, pi]) must add up to once
    around: a self-intersecting loop such as a pentagram winds twice."""
    if v.ndim != 2 or v.shape[1] != 2 or (counts < 3).any() or counts.sum() != len(v):
        raise GeometryError("a polygon needs at least three planar vertices")
    if not np.isfinite(v).all():
        raise GeometryError("polygon vertices must be finite")
    lo, hi = _boxes(v, counts)
    ext = (hi - lo).max(axis=1)
    if (ext == 0.0).any():
        raise GeometryError("polygon has zero extent")
    following = _following(counts)
    w = v[following]
    d = v - w
    # the gaps as np.linalg.norm takes them, without its Python overhead
    if (np.sqrt((d * d).sum(axis=1)) < MATCH_TOL * np.repeat(ext, counts)).any():
        raise GeometryError("repeated consecutive vertices")
    first = np.cumsum(counts) - counts
    for n in set(counts.tolist()):
        rows = first[counts == n, None] + np.arange(n)
        a, b = v[rows], w[rows]
        xy = (a[:, None, :, 0] @ b[:, :, 1, None])[:, 0, 0]
        yx = (a[:, None, :, 1] @ b[:, :, 0, None])[:, 0, 0]
        if (0.5 * (xy - yx) <= 0.0).any():
            raise GeometryError("polygon must be counterclockwise with positive area")
    # the turn from each edge to the next, the argument of their quotient as
    # complex numbers; a loop's turns add up to 2 pi times its winding
    # number, so any bound strictly between the multiples tells once around
    z = d.view(complex)[:, 0]
    q = z[following] * z.conj()
    turned = np.add.reduceat(np.arctan2(q.imag, q.real), first).tolist()
    if any(abs(t - 2.0 * np.pi) > np.pi for t in turned):
        raise GeometryError("polygon must be simple: its vertex loop winds more than once")
    for x in (v, w, counts):
        x.setflags(write=False)
    return w


def _views(vertices, counts) -> list["Polygon"]:
    """Unchecked Polygons viewing the loops of a ragged stack."""
    rolled = vertices[_following(counts)]
    rolled.setflags(write=False)
    stops = np.cumsum(counts)[:-1]
    polys = [object.__new__(Polygon) for _ in counts]
    for p, v, w in zip(polys, np.split(vertices, stops), np.split(rolled, stops)):
        p.vertices, p.rolled = v, w
    return polys


def _ragged(loops):
    """(vertices, counts): a stack of loops, given as that ragged stack or
    as a sequence of Polygons, whose loops it stacks end to end."""
    if isinstance(loops, tuple) and len(loops) == 2 and not isinstance(loops[0], Polygon):
        return np.asarray(loops[0], dtype=float), np.asarray(loops[1], dtype=int)
    loops = list(loops)
    return (np.concatenate([p.vertices for p in loops] or [np.zeros((0, 2))]),
            np.array([len(p) for p in loops], dtype=int))


def _padded(vertices, counts, rows=slice(None)):
    """(loops, their counts): the given loops of a ragged stack (all by
    default), each padded with copies of its last vertex to the longest."""
    first, n = (np.cumsum(counts) - counts)[rows], counts[rows]
    return vertices[first[:, None] + np.minimum(np.arange(n.max()), n[:, None] - 1)], n


class Polygon:
    """Simple counterclockwise polygon with at least three vertices; rolled
    is the vertex loop rolled by one row (vertex k + 1 in row k)."""

    __slots__ = ("vertices", "rolled")

    def __init__(self, vertices):
        self.vertices = np.array(vertices, dtype=float)
        self.rolled = _checked_loops(self.vertices, np.array(self.vertices.shape[:1]))

    def __len__(self) -> int:
        return self.vertices.shape[0]

    def __repr__(self) -> str:
        return f"Polygon({self.vertices.tolist()})"

    @property
    def area(self) -> float:
        return signed_area(self.vertices, self.rolled)

    @property
    def diameter(self) -> float:
        lo, hi = self.bbox
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
    area_tol, eps = 1e-14 * scale * scale, 1e-12 * scale * scale
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
        for k in range(n):
            i0, i1, i2 = idx[(k - 1) % n], idx[k], idx[(k + 1) % n]
            a, b, c = verts[i0], verts[i1], verts[i2]
            A = tri_area(a, b, c)
            # a collinear vertex goes without a triangle; a reflex corner is no ear
            if not abs(A) <= area_tol:
                if A < 0.0 or any(point_in_tri(verts[j], a, b, c, eps)
                                  for j in idx if j not in (i0, i1, i2)):
                    continue
                tris.append(np.array([a, b, c]))
            idx.pop(k)
            break
        else:
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
    """The union of the intervals (lo, hi), gaps up to tol closed, in order."""
    out = []
    for lo, hi in sorted(intervals):
        if out and lo <= out[-1][1] + tol:
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
    d = vertices[_following(counts)] - vertices
    return np.cumsum(counts) - counts, d, np.linalg.norm(d, axis=1)


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


def extract_interfaces(vertices, counts, tol: float) -> Interfaces:
    """Match collinear opposite-orientation edge overlaps between distinct
    loops of the ragged stack (vertices, counts), over the pairs ia < ib
    whose bounding boxes come within tol."""
    lo, hi = _boxes(vertices, counts)
    far = ((lo[:, None] > hi + tol) | (lo > hi[:, None] + tol)).any(axis=-1)
    near = np.nonzero(np.triu(~far, k=1))
    ia, k, ib, l, _, _ = _match_edges(vertices, counts, near, tol)
    ends = edge_vertices(counts, ia, k) + edge_vertices(counts, ib, l)
    a, b, normal = edge_pair_interfaces(vertices, *ends)
    return Interfaces(a, b, normal, left=ib, right=ia, left_edge=l, right_edge=k)


class PolygonalPartition:
    """Finite polygonal partition of a convex planar domain.  Its cells are
    one read-only ragged stack, `vertices` and `counts`, given as such a
    stack or as Polygons, and checked loop by loop as Polygon checks one."""

    __slots__ = ("vertices", "counts", "domain", "interfaces", "tol")

    def __init__(self, cells, domain: Polygon):
        vertices, counts = _ragged(cells)
        if not len(counts):
            raise GeometryError("partition needs at least one cell")
        self.vertices = np.array(vertices, dtype=float)
        self.counts = np.array(counts, dtype=int)
        _checked_loops(self.vertices, self.counts)
        self.domain = domain
        self.tol = MATCH_TOL * domain.diameter
        self.interfaces = extract_interfaces(self.vertices, self.counts, self.tol)

    def __len__(self) -> int:
        return len(self.counts)

    @property
    def cells(self) -> tuple[Polygon, ...]:
        """The cells as Polygons viewing the stack, built on each call."""
        return tuple(_views(self.vertices, self.counts))

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
        part = copy.copy(self)
        part.interfaces = self.interfaces.flipped()
        return part

    def to_json(self) -> dict:
        return {"cells": [c.to_json() for c in self.cells], "domain": self.domain.to_json()}

    @staticmethod
    def from_json(data) -> "PolygonalPartition":
        loops = [np.asarray(c, dtype=float) for c in data["cells"]]
        return PolygonalPartition((np.concatenate(loops), np.array([len(c) for c in loops])),
                                  Polygon.from_json(data["domain"]))


def _clip_convex(subject, n, clip, m, tol):
    """Sutherland-Hodgman clip of every subject loop (the first n[r] rows of
    subject[r], padded as `_padded` pads) against its convex counterclockwise
    clip loop (the first m[r] rows of clip[r]), all rows at once: (out,
    counts), padded the same way.  A point is inside an edge's half plane
    when its cross product with the edge is at least -tol[r]; each row is
    the arithmetic of clipping that pair alone, vertex by vertex.  Duplicate
    points that clipping makes stay: `overlap_areas` reads only areas."""
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
    """Intersection areas of subjects[ia] and others[ib], two stacks of loops,
    for the pairs (ia, ib) of index arrays.  Each subject is clipped against
    the convex pieces of the other (see `_convex_pieces`), every (pair,
    piece) at once, and a pair's areas add up in piece order.  tol, one
    number or one per pair (MATCH_TOL times the larger diameter by default),
    is the clip's inside tolerance; bounding boxes more than tol apart give
    0.0."""
    ia, ib = (np.asarray(x, dtype=int) for x in pairs)
    (v1, n1), (v2, n2) = _ragged(subjects), _ragged(others)
    (lo1, hi1), (lo2, hi2) = _boxes(v1, n1), _boxes(v2, n2)
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
    cells = _views(v2, n2)
    pieces = {b: _convex_pieces(cells[b]) for b in set(met)}
    pair = np.repeat(near, [len(pieces[b]) for b in met])
    loops = [loop for b in met for loop in pieces[b]]
    C, mc = _padded(np.concatenate(loops), np.array([len(c) for c in loops]))
    out, n = _clip_convex(*_padded(v1, n1, ia[pair]), C, mc, tol[pair])
    area = np.where(n >= 3, np.abs(_loop_areas(out, n)), 0.0)
    return np.bincount(pair, weights=area, minlength=len(ia))


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
    n = len(part)
    counts = np.append(part.counts, len(part.domain))
    # the domain loop reversed runs the other way along every cell edge on
    # the boundary, as a neighbouring cell's edge does inside
    vertices = np.concatenate([part.vertices, part.domain.vertices[::-1]])
    pairs = np.nonzero(np.arange(n)[:, None] != np.arange(n + 1))
    ia, k, _, _, lo, hi = _match_edges(vertices, counts, pairs, tol)
    first, _, L = _edge_lengths(vertices, counts)
    covered = [[] for _ in range(first[n])]
    for e, s, t in zip((first[ia] + k).tolist(), lo.tolist(), hi.tolist()):
        covered[e].append((s, t))
    gaps = [float(L[e] - sum(hi - lo for lo, hi in _merge_intervals(c, tol)))
            for e, c in enumerate(covered)]
    unmatched = [(ci, ei, gap) for ci in range(n)
                 for ei, gap in enumerate(gaps[first[ci]:first[ci + 1]]) if gap > 10 * tol]

    area_tol = max(tol * part.domain.diameter, 1e-12 * part.domain.area)
    ci, cj = np.nonzero(np.triu(np.ones((n, n), dtype=bool), k=1))
    cells = (part.vertices, part.counts)
    area = overlap_areas(cells, cells, (ci, cj), tol)
    hit = area > area_tol
    overlaps = list(zip(ci[hit].tolist(), cj[hit].tolist(), area[hit].tolist()))

    defect = part.area_defect
    passed = defect <= 1e-9 * part.domain.area and not unmatched and not overlaps
    return PartitionReport(defect, unmatched, overlaps, passed)


def row_norms(v) -> np.ndarray:
    """np.linalg.norm of each row of v, bit for bit: the norm of one vector
    is a dot product, and a stacked matmul keeps it."""
    return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])


def clip_segment_params(starts, ends, regions):
    """The pieces inside each of the regions (a stack of loops) of the
    segments starts[k] -> ends[k], (n, 2) arrays: (owner, rows, t0, t1,
    on_boundary), where piece m covers [t0[m], t1[m]] of the parameter in
    [0, 1] of segment rows[m] inside regions[owner[m]], region after
    region, row after row in increasing t.  Segments are cut where they
    meet a region's edge within tol, MATCH_TOL times the region's diameter;
    pieces no longer than tol, or with their midpoint outside the region,
    are dropped.  on_boundary marks pieces along the region's boundary.
    Every region gives the pieces of clipping against it alone, bit for bit."""
    a = _as_points(starts).reshape(-1, 2)
    b = _as_points(ends).reshape(-1, 2)
    d = b - a
    vertices, counts = _ragged(regions)
    lo, hi = _boxes(vertices, counts)
    tol = MATCH_TOL * row_norms(hi - lo)
    L = row_norms(d)
    # every region's edges, padded by repeating its last one, which the
    # mask `edge` drops
    P, Q = (_padded(x, counts)[0] for x in (vertices, vertices[_following(counts)]))
    edge = np.arange(P.shape[1]) < counts[:, None]
    e_len = row_norms((Q - P).reshape(-1, 2)).reshape(P.shape[:2])
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
