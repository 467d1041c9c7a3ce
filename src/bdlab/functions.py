"""Piecewise rigid and piecewise affine functions on polygonal partitions.

Each cell carries an affine map x -> Ax + b; rigid pieces have antisymmetric
A (an infinitesimal rigid motion), so their symmetrized gradient vanishes
exactly.  Jump segments along interfaces carry the one-sided traces as affine
maps of arclength, which keeps surface integrals in closed or near-closed
form.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .geometry import (
    Interfaces,
    OrientedSquare,
    Polygon,
    PolygonalPartition,
    frame_from_normal,
    make_oriented_square,
    overlap_areas,
    unit,
)


class FunctionError(ValueError):
    """Invalid piecewise-function input."""


def skew2(omega: float) -> np.ndarray:
    """The planar antisymmetric matrix omega * (e1 x e2 - e2 x e1)."""
    w = float(omega)
    return np.array([[0.0, w], [-w, 0.0]])


def is_skew(A: np.ndarray) -> bool:
    A = np.asarray(A, dtype=float)
    return bool(np.array_equal(A.T, -A))


@dataclass(frozen=True)
class AffinePiece:
    """One affine map x -> Ax + b."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if A.shape != (2, 2) or b.shape != (2,):
            raise FunctionError("piece needs a 2 x 2 matrix and a 2-vector")
        if not (np.isfinite(A).all() and np.isfinite(b).all()):
            raise FunctionError("piece entries must be finite")
        A.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def rigid(self) -> bool:
        return is_skew(self.A)

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return x @ self.A.T + self.b

    def to_json(self) -> dict:
        if self.rigid:
            return {"omega": float(self.A[0, 1]), "b": self.b.tolist()}
        return {"A": self.A.tolist(), "b": self.b.tolist()}

    @staticmethod
    def from_json(data) -> "AffinePiece":
        if "omega" in data:
            return AffinePiece(skew2(data["omega"]), np.asarray(data["b"], dtype=float))
        return AffinePiece(np.asarray(data["A"], dtype=float), np.asarray(data["b"], dtype=float))


def constant_piece(value) -> AffinePiece:
    return AffinePiece(np.zeros((2, 2)), np.asarray(value, dtype=float))


@dataclass(frozen=True)
class JumpArrays:
    """The jump set of a piecewise affine function as arrays, one row per piece.

    Piece k covers the arclength interval [t0[k], t1[k]] of the straight
    segment from a[k] to b[k], which runs along the unit vector direction[k];
    normal[k] points into the plus side, and the traces are value0 + t * slope
    in the same arclength t.
    """

    a: np.ndarray
    b: np.ndarray
    direction: np.ndarray
    normal: np.ndarray
    plus_value0: np.ndarray
    plus_slope: np.ndarray
    minus_value0: np.ndarray
    minus_slope: np.ndarray
    t0: np.ndarray
    t1: np.ndarray

    def __len__(self) -> int:
        return len(self.t0)

    def take(self, rows, t0=None, t1=None) -> "JumpArrays":
        """The given rows, over the arclength intervals t0, t1 where given."""
        rows = np.asarray(rows, dtype=int)
        kept = {f.name: getattr(self, f.name)[rows] for f in fields(self)}
        for name, t in (("t0", t0), ("t1", t1)):
            if t is not None:
                kept[name] = np.asarray(t, dtype=float)
        return JumpArrays(**kept)

    @staticmethod
    def concatenate(parts) -> "JumpArrays":
        """The rows of every part, part after part."""
        return JumpArrays(
            **{f.name: np.concatenate([getattr(p, f.name) for p in parts]) for f in fields(JumpArrays)}
        )


def jump_arrays(a, b, normal, left, right):
    """The jump set across straight planar interfaces, one row per kept
    interface with t0 = 0 and t1 its length, and the indices of the kept
    interfaces.

    Interface n runs from a[n] to b[n] with the normal pointing into its
    left side; left = (A, c) and right stack the affine maps x -> A x + c on
    either side.  An interface is kept exactly when its two affine traces
    differ (!=) at its start, midpoint or end, so a NaN row is kept.  Equal
    maps give equal traces bit for bit (-0.0 == 0.0), and distinct rigid
    motions agree at one point at most along a line; distinct non-rigid maps
    that agree only up to rounding leave a rounding-size jump, which a
    1-homogeneous density charges about 1e-16 relative and isotropic:const,
    normal:polytopeK and mild:g charge in full.

    The arithmetic runs on x and y columns, element-wise, so a row's values
    do not depend on its batch: L = sqrt(vx * vx + vy * vy) for v = b - a,
    direction d = v / L, trace component r (A_r0 * ax + A_r1 * ay) + c_r and
    slope component r A_r0 * dx + A_r1 * dy.  Stacked BLAS products, which
    may round a row as fma(A_r0, ax, A_r1 * ay), give other last bits: a
    trace component within 4 eps (|A_r0 ax| + |A_r1 ay| + |c_r|), a slope
    component within 4 eps (|A_r0 dx| + |A_r1 dy|), L within 2 eps L and d
    within 2 eps of this form's, and the same kept rows wherever the two
    maps are equal or both rigid.
    """
    # the columns of the jump set, one row of cols each: a, b, direction,
    # normal, the plus value0 and slope, the minus value0 and slope (x and y
    # each), then L
    cols = np.empty((17, len(a)))
    cols[0:2], cols[2:4], cols[6:8] = a.T, b.T, normal.T
    ax, ay, bx, by = cols[0:4]
    vx, vy = bx - ax, by - ay
    L = np.sqrt(vx * vx + vy * vy, out=cols[16])
    dx, dy = np.divide(vx, L, out=cols[4]), np.divide(vy, L, out=cols[5])
    for k, (A, c) in ((8, left), (12, right)):
        A00, A01, A10, A11 = A.reshape(-1, 4).T
        cols[k] = (A00 * ax + A01 * ay) + c[:, 0]
        cols[k + 1] = (A10 * ax + A11 * ay) + c[:, 1]
        cols[k + 2] = A00 * dx + A01 * dy
        cols[k + 3] = A10 * dx + A11 * dy
    # the traces at the start, the midpoint and the end, component-major (2, n)
    P0, PS, M0, MS = cols[8:10], cols[10:12], cols[12:14], cols[14:16]
    differ = P0 != M0
    for t in (0.5 * L, L):
        differ |= P0 + t * PS != M0 + t * MS
    keep = np.flatnonzero(differ[0] | differ[1])
    kept = cols.T[keep]
    jumps = JumpArrays(*(kept[:, k:k + 2] for k in range(0, 16, 2)), np.zeros(keep.size),
                       kept[:, 16])
    return jumps, keep


def _stacked(pieces) -> tuple[np.ndarray, np.ndarray]:
    return (np.array([p.A for p in pieces]).reshape(-1, 2, 2),
            np.array([p.b for p in pieces]).reshape(-1, 2))


@dataclass(frozen=True, eq=False)
class PiecewiseAffine:
    """Function equal to one affine map on each cell of a polygonal partition.
    It is read-only, so its jump set is built once, on first use."""

    partition: PolygonalPartition
    pieces: tuple
    rigid_only = False

    def __post_init__(self):
        pieces = tuple(self.pieces)
        if len(pieces) != len(self.partition):
            raise FunctionError(f"{len(pieces)} pieces for {len(self.partition)} cells")
        if self.rigid_only and not all(p.rigid for p in pieces):
            raise FunctionError("all pieces of a piecewise rigid function must be skew")
        object.__setattr__(self, "pieces", pieces)

    def eval(self, x) -> np.ndarray:
        """Value at x (first containing cell). Raises outside the domain."""
        cell, _ = self.partition.locate(x)
        return self.pieces[cell](np.asarray(x, dtype=float))

    __call__ = eval

    def symmetrized_gradient(self, cell: int) -> np.ndarray:
        A = self.pieces[cell].A
        return 0.5 * (A + A.T)

    def jump_segments(self) -> JumpArrays:
        """One row per interface whose adjacent traces differ, by
        jump_arrays' exact rule, which takes no tolerance: distinct non-rigid
        pieces equal along an interface only up to rounding leave a
        rounding-size jump, which isotropic:const, normal:polytopeK and mild:g
        charge in full.  Every call returns the one read-only JumpArrays."""
        return self._jumps

    @cached_property
    def _jumps(self) -> JumpArrays:
        itf = self.partition.interfaces
        A, c = _stacked(self.pieces)
        jumps, _ = jump_arrays(itf.a, itf.b, itf.normal, (A[itf.left], c[itf.left]),
                               (A[itf.right], c[itf.right]))
        for x in vars(jumps).values():
            x.setflags(write=False)
        return jumps

    def flipped(self) -> "PiecewiseAffine":
        return type(self)(self.partition.flipped(), self.pieces)

    def scaled(self, s: float) -> "PiecewiseAffine":
        """Rescale the geometry by s > 0 keeping all trace values.

        Pieces (A, b) become (A / s, b): the new function at s*x takes the old
        value at x, so jump values are preserved and lengths scale by s.
        """
        if not s > 0:
            raise FunctionError("scale factor must be positive")
        p = self.partition
        part = PolygonalPartition((p.vertices * s, p.counts), Polygon(p.domain.vertices * s))
        return type(self)(part, [AffinePiece(q.A / s, q.b) for q in self.pieces])

    def to_json(self) -> dict:
        return {"partition": self.partition.to_json(), "pieces": [p.to_json() for p in self.pieces]}

    @classmethod
    def from_json(cls, data) -> "PiecewiseAffine":
        return cls(PolygonalPartition.from_json(data["partition"]),
                   [AffinePiece.from_json(p) for p in data["pieces"]])


@dataclass(frozen=True, eq=False)  # so that every attribute is frozen, not only the fields
class PiecewiseRigid(PiecewiseAffine):
    """Piecewise affine function whose every piece is an infinitesimal rigid motion."""

    rigid_only = True


def jump_square(
    i, j, nu, side: float, center=None, hole=None, cells=(), pieces=(),
) -> PiecewiseRigid:
    """The two-valued jump across the mid-chord of the side-`side` square
    oriented by the unit normal nu, changed only on a rectangular hole: i
    below the chord and j on the side nu points into, so a density f
    charges the chord f(j, i, nu) per unit length.

    In frame coordinates (nu = e2) the two halves are {y < 0} and {y > 0};
    hole=(half_width, low, high) notches {|x| < half_width, low < y < high}
    out of them, and `cells` with `pieces` fill it: vertex arrays in frame
    coordinates, each turned into place on its own, or one ragged stack
    (vertices, counts) already in place.  center=None keeps the square at
    the origin.
    """
    i = np.asarray(i, dtype=float)
    j = np.asarray(j, dtype=float)
    if np.array_equal(i, j):
        raise FunctionError("elementary jump needs two distinct values")
    R = frame_from_normal(nu)

    def place(vertices):
        v = np.asarray(vertices, dtype=float) @ R.T
        # no zero shift at the origin: it would turn -0.0 coordinates into 0.0
        return v if center is None else v + center

    if not (isinstance(cells, tuple) and len(cells) == 2 and np.ndim(cells[1]) == 1):
        cells = [place(c) for c in cells]
        cells = np.concatenate(cells or [np.zeros((0, 2))]), [len(c) for c in cells]
    outer = [place(c) for c in _outer_cells(side, hole)]
    stack = np.concatenate([*outer, cells[0]]), np.array([*map(len, outer), *cells[1]])
    domain = make_oriented_square(nu, side, (0.0, 0.0) if center is None else center)
    part = PolygonalPartition(stack, domain)
    outer = [constant_piece(i), constant_piece(j)]
    return PiecewiseRigid(part, outer + list(pieces))


def _outer_cells(side: float, hole):
    """jump_square's lower and upper halves in frame coordinates."""
    s = 0.5 * side
    hw, low, high = (0.0, 0.0, 0.0) if hole is None else hole
    lower_notch = [[hw, 0], [hw, low], [-hw, low], [-hw, 0]] if low < 0 else []
    upper_notch = [[-hw, 0], [-hw, high], [hw, high], [hw, 0]] if high > 0 else []
    lower = [[-s, -s], [s, -s], [s, 0]] + lower_notch + [[-s, 0]]
    upper = [[-s, 0]] + upper_notch + [[s, 0], [s, s], [-s, s]]
    return lower, upper


# _outer_cells(side, (hw, -hh, hh)), two cells of 8 vertices, as indices into
# (0, s, -s, hw, -hw, hh, -hh), s = side / 2, read off where those all differ
OUTER_CELLS = np.array([[(0.0, 1.0, -1.0, 3.0, -3.0, 5.0, -5.0).index(x) for x in vertex]
                        for vertex in sum(_outer_cells(2.0, (3.0, -5.0, 5.0)), [])])


class InsertLayout:
    """An insert layout declared as gathers: each parameter row (n, dim) at
    the side of the square has the table 0, 1, half and a sixth of the side,
    the two values below and the two above the chord (0 here; a search
    round's table holds its family's), its parameters named by `columns`,
    the `derived` columns (name -> (x, y): 0.5 * (x * y)), then the negation
    of each ("-name"; "-0" is 0).  Every cell vertex in frame coordinates,
    every entry of the rigid pieces (omega, c1, c2): x -> [[0, omega],
    [-omega, 0]] x + (c1, c2), of jump_square's outer halves and then of
    the insert's `cells` and `pieces`, and its half width `hw` and height
    `hh` is an entry of it.  `ranges` holds the checked columns (column,
    low, high, size): a row whose values there lie in [low, high], times
    the side for a size, builds cells that Polygon accepts, no edge shorter
    than 5e-6 of the side, and an insert 0.01 of the side inside the square,
    whatever its other (finite) columns.  `counts` holds the vertex counts
    of the halves and the insert cells, and `interfaces` the cell topology
    that every such row shares at every side, normal and value."""

    def __init__(self, columns, derived, cells, pieces, hw, hh, ranges):
        names = ["0", "1", "half", "sixth", "below1", "below2", "above1", "above2",
                 *columns.split(), *derived]
        index = {name: k for k, name in enumerate(names)}
        index |= {"-" + name: k + len(names) for name, k in index.items()} | {"-0": 0}
        outer = [[("0", "half", "-half", hw, "-" + hw, hh, "-" + hh)[k] for k in vertex]
                 for vertex in OUTER_CELLS]
        self.dim, self.ranges = len(columns.split()), ranges
        self.counts = (8, 8, *map(len, cells))
        self.dx, self.dy = np.array([[index[x] for x in pair] for pair in derived.values()],
                                    dtype=int).reshape(-1, 2).T
        self.vertices = np.array([[index[x] for x in vertex]
                                  for vertex in outer + [v for cell in cells for v in cell]])
        pieces = [("0", "below1", "below2"), ("0", "above1", "above2"), *pieces]
        self.A = np.array([[[0, index[omega]], [index["-" + omega], 0]] for omega, _, _ in pieces])
        self.c = np.array([[index[c1], index[c2]] for _, c1, c2 in pieces])
        self.hw, self.hh = index[hw], index[hh]

    def __call__(self, P, side):
        """The rows P (n, dim) at the side -> the vertices of every cell (n,
        V, 2), A (n, C, 2, 2) and c (n, C, 2) of its piece, hw and hh (n,)."""
        P = np.asarray(P, dtype=float)
        if P.ndim != 2 or P.shape[1] != self.dim:
            raise FunctionError(f"a layout row has {self.dim} parameters")
        head = np.broadcast_to([0.0, 1.0, 0.5 * side, side / 6.0] + [0.0] * 4, (len(P), 8))
        base = np.concatenate([head, P], axis=1)
        table = np.concatenate([base, 0.5 * (base[:, self.dx] * base[:, self.dy])], axis=1)
        table = np.concatenate([table, -table], axis=1)
        return tuple(table[:, k] for k in (self.vertices, self.A, self.c, self.hw, self.hh))

    @cached_property
    def interfaces(self) -> Interfaces:
        """The Interfaces of jump_square at the layout's row of halves (side
        6, nu = e2, i = 0, j = 1), built on first use."""
        cells, pieces, hw, hh = self.insert_args([0.5] * self.dim)
        u = jump_square(np.zeros(2), np.ones(2), (0.0, 1.0), 6.0,
                        hole=(hw, -hh, hh), cells=cells, pieces=pieces)
        return u.partition.interfaces

    def insert_args(self, params, side=6.0):
        """The insert's cells in frame coordinates, pieces, half width and
        half height from row 0 of a batch of one, as jump_square's hole,
        cells and pieces take them; each cell has V_in / C vertices."""
        vertices, A, c, hw, hh = self(np.array([params], dtype=float), side)
        pieces = [AffinePiece(a, b) for a, b in zip(A[0, 2:], c[0, 2:])]
        inner = vertices[0, len(OUTER_CELLS):]
        return list(inner.reshape(len(pieces), -1, 2)), pieces, hw[0], hh[0]


def make_elementary(i, j, nu, square: OrientedSquare) -> PiecewiseRigid:
    """Two-valued jump across the mid-chord of an oriented square, i on the
    {<x-c, nu> < 0} half and j on the other; nu must be the square's normal
    (FunctionError otherwise)."""
    sq = square if isinstance(square, OrientedSquare) else OrientedSquare(*square)
    if np.linalg.norm(unit(nu) - sq.normal) > 1e-12:
        raise FunctionError("nu must be the square's normal")
    return jump_square(i, j, sq.normal, sq.side, center=sq.center)


def same_domain(dom_v: Polygon, dom_u: Polygon) -> bool:
    """Whether two domains have the same vertex mean and, to 1e-9 relative,
    the same area: compact_deviation's test that they are one domain."""
    return bool(np.allclose(dom_v.vertices.mean(axis=0), dom_u.vertices.mean(axis=0))
                and abs(dom_v.area - dom_u.area) <= 1e-9 * dom_u.area)


def compact_deviation(v: PiecewiseAffine, u: PiecewiseAffine, margin: float) -> bool:
    """True iff every cell of v where v differs from u keeps the given
    distance from the domain boundary.

    Deviation is decided exactly: a cell of v deviates iff some cell of u
    overlapping it (in area) carries a different affine map.
    """
    pv, pu = v.partition, u.partition
    if not same_domain(pv.domain, pu.domain):
        raise FunctionError("compared functions must share the same domain")
    area_tol = 1e-12 * pu.domain.area
    # the (cell of v, cell of u) pairs whose maps differ
    Av, bv = _stacked(v.pieces)
    Au, bu = _stacked(u.pieces)
    differ = ~((Av[:, None] == Au).all(axis=(2, 3)) & (bv[:, None] == bu).all(axis=2))
    ia, ib = np.nonzero(differ)
    area = overlap_areas((pv.vertices, pv.counts), (pu.vertices, pu.counts), (ia, ib))
    deviating = np.repeat(np.bincount(ia[area > area_tol], minlength=len(pv)) > 0, pv.counts)
    return not deviating.any() or bool(
        pv.domain.boundary_distance(pv.vertices[deviating]).min() >= margin)
