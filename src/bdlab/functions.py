"""Piecewise rigid and piecewise affine functions on polygonal partitions.

Each cell carries an affine map x -> Ax + b; rigid pieces have antisymmetric
A (an infinitesimal rigid motion), so their symmetrized gradient vanishes
exactly.  Jump segments along interfaces carry the one-sided traces as affine
maps of arclength, which keeps surface integrals in closed or near-closed
form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import (
    OrientedSquare,
    Polygon,
    PolygonalPartition,
    frame_from_normal,
    make_oriented_square,
    polygon_overlap_area,
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
        if A.ndim != 2 or A.shape[0] != A.shape[1] or b.shape != (A.shape[0],):
            raise FunctionError("piece needs a square matrix and a matching vector")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
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

    def same_map(self, other: "AffinePiece") -> bool:
        return np.array_equal(self.A, other.A) and np.array_equal(self.b, other.b)

    def to_json(self) -> dict:
        A = self.A
        if A.shape == (2, 2) and self.rigid:
            return {"omega": float(A[0, 1]), "b": self.b.tolist()}
        return {"A": A.tolist(), "b": self.b.tolist()}

    @staticmethod
    def from_json(data) -> "AffinePiece":
        if "omega" in data:
            return AffinePiece(skew2(data["omega"]), np.asarray(data["b"], dtype=float))
        return AffinePiece(np.asarray(data["A"], dtype=float), np.asarray(data["b"], dtype=float))


def rigid_piece(omega: float, b) -> AffinePiece:
    return AffinePiece(skew2(omega), np.asarray(b, dtype=float))


def constant_piece(value) -> AffinePiece:
    value = np.asarray(value, dtype=float)
    return AffinePiece(np.zeros((value.size, value.size)), value)


@dataclass(frozen=True)
class JumpSegment:
    """One straight jump piece with affine one-sided traces.

    trace(t) = value0 + t * slope for arclength t in [0, length]; the plus
    trace is taken on the side the normal points into.
    """

    a: np.ndarray
    b: np.ndarray
    normal: np.ndarray
    plus_value0: np.ndarray
    plus_slope: np.ndarray
    minus_value0: np.ndarray
    minus_slope: np.ndarray

    @cached_property
    def length(self) -> float:
        return float(np.linalg.norm(self.b - self.a))

    @cached_property
    def direction(self) -> np.ndarray:
        return (self.b - self.a) / self.length

    def point(self, t):
        t = np.asarray(t, dtype=float)
        return self.a + t[..., None] * self.direction

    def plus(self, t):
        t = np.asarray(t, dtype=float)
        return self.plus_value0 + t[..., None] * self.plus_slope

    def minus(self, t):
        t = np.asarray(t, dtype=float)
        return self.minus_value0 + t[..., None] * self.minus_slope

    def jump(self, t):
        return self.plus(t) - self.minus(t)

    @property
    def constant_traces(self) -> bool:
        return not (np.any(self.plus_slope) or np.any(self.minus_slope))

    def flipped(self) -> "JumpSegment":
        return JumpSegment(
            self.b,
            self.a,
            -self.normal,
            # reparameterize t -> L - t and swap sides
            self.minus_value0 + self.length * self.minus_slope,
            -self.minus_slope,
            self.plus_value0 + self.length * self.plus_slope,
            -self.plus_slope,
        )


class PiecewiseAffine:
    """Function equal to one affine map on each cell of a polygonal partition."""

    rigid_only = False

    def __init__(self, partition: PolygonalPartition, pieces):
        pieces = tuple(pieces)
        if len(pieces) != len(partition.cells):
            raise FunctionError(
                f"{len(pieces)} pieces for {len(partition.cells)} cells"
            )
        if self.rigid_only and not all(p.rigid for p in pieces):
            raise FunctionError("all pieces of a piecewise rigid function must be skew")
        self.partition = partition
        self.pieces = pieces

    @property
    def dim(self) -> int:
        return self.pieces[0].b.shape[0]

    def locate(self, x) -> tuple[int, bool]:
        return self.partition.locate(x)

    def eval(self, x) -> np.ndarray:
        """Value at x (first containing cell). Raises outside the domain."""
        cell, _ = self.partition.locate(x)
        return self.pieces[cell](np.asarray(x, dtype=float))

    __call__ = eval

    def symmetrized_gradient(self, cell: int) -> np.ndarray:
        A = self.pieces[cell].A
        return 0.5 * (A + A.T)

    def jump_segments(self) -> list[JumpSegment]:
        """One segment per interface whose adjacent pieces differ as maps.

        Pieces with identical parameters are dropped; distinct pieces that
        happen to coincide along the interface line are detected by trace
        agreement at both endpoints and the midpoint (exact for affine
        traces).
        """
        segs: list[JumpSegment] = []
        for itf in self.partition.interfaces:
            left = self.pieces[itf.left]
            right = self.pieces[itf.right]
            if left.same_map(right):
                continue
            d = itf.direction
            pv0 = left(itf.a)
            mv0 = right(itf.a)
            ps = left.A @ d
            ms = right.A @ d
            L = itf.length
            probes = np.array([0.0, 0.5 * L, L])
            plus = pv0 + probes[:, None] * ps
            minus = mv0 + probes[:, None] * ms
            scale = 1.0 + float(np.max(np.abs(plus)) + np.max(np.abs(minus)))
            if np.max(np.linalg.norm(plus - minus, axis=1)) <= 1e-12 * scale:
                continue
            segs.append(JumpSegment(itf.a, itf.b, itf.normal, pv0, ps, mv0, ms))
        return segs

    def flipped(self) -> "PiecewiseAffine":
        out = type(self).__new__(type(self))
        out.partition = self.partition.flipped()
        out.pieces = self.pieces
        return out

    def scaled(self, s: float) -> "PiecewiseAffine":
        """Rescale the geometry by s > 0 keeping all trace values.

        Pieces (A, b) become (A / s, b): the new function at s*x takes the old
        value at x, so jump values are preserved and lengths scale by s.
        """
        if not s > 0:
            raise FunctionError("scale factor must be positive")
        cells = [Polygon(c.vertices * s) for c in self.partition.cells]
        domain = Polygon(self.partition.domain.vertices * s)
        part = PolygonalPartition(cells, domain)
        pieces = [AffinePiece(p.A / s, p.b) for p in self.pieces]
        return type(self)(part, pieces)

    def to_json(self) -> dict:
        return {
            "partition": self.partition.to_json(),
            "pieces": [p.to_json() for p in self.pieces],
        }

    @classmethod
    def from_json(cls, data) -> "PiecewiseAffine":
        part = PolygonalPartition.from_json(data["partition"])
        pieces = [AffinePiece.from_json(p) for p in data["pieces"]]
        return cls(part, pieces)


class PiecewiseRigid(PiecewiseAffine):
    """Piecewise affine function whose every piece is an infinitesimal rigid motion."""

    rigid_only = True


def total_jump_length(u: PiecewiseAffine) -> float:
    return sum(s.length for s in u.jump_segments())


def jump_sides(i, j, i_side: str):
    """(plus value, minus value): i_side="plus" puts i on the side the normal
    points into, i_side="minus" on the other."""
    if i_side not in ("plus", "minus"):
        raise FunctionError("i_side must be 'plus' or 'minus'")
    return (i, j) if i_side == "plus" else (j, i)


def jump_square(
    i, j, nu, side: float, center=None, i_side: str = "plus",
    hole=None, cells=(), pieces=(),
) -> PiecewiseRigid:
    """The two-valued jump across the mid-chord of the side-`side` square
    oriented by the unit normal nu, changed only on a rectangular hole.

    In frame coordinates (nu = e2) the two halves are {y < 0} and {y > 0};
    hole=(half_width, low, high) notches {|x| < half_width, low < y < high}
    out of them, and `cells` with `pieces` fill it: vertex arrays in frame
    coordinates, or Polygons already in place.  center=None keeps the square
    at the origin.
    """
    i = np.asarray(i, dtype=float)
    j = np.asarray(j, dtype=float)
    if np.array_equal(i, j):
        raise FunctionError("elementary jump needs two distinct values")
    plus_val, minus_val = jump_sides(i, j, i_side)
    R = frame_from_normal(nu)

    def place(vertices):
        v = np.asarray(vertices, dtype=float) @ R.T
        # no zero shift at the origin: it would turn -0.0 coordinates into 0.0
        return Polygon(v if center is None else v + center)

    s = 0.5 * side
    hw, low, high = (0.0, 0.0, 0.0) if hole is None else hole
    lower_notch = [[hw, 0], [hw, low], [-hw, low], [-hw, 0]] if low < 0 else []
    upper_notch = [[-hw, 0], [-hw, high], [hw, high], [hw, 0]] if high > 0 else []
    lower = place([[-s, -s], [s, -s], [s, 0]] + lower_notch + [[-s, 0]])
    upper = place([[-s, 0]] + upper_notch + [[s, 0], [s, s], [-s, s]])
    inner = [c if isinstance(c, Polygon) else place(c) for c in cells]
    domain = make_oriented_square(nu, side, (0.0, 0.0) if center is None else center)
    part = PolygonalPartition([lower, upper] + inner, domain)
    outer = [constant_piece(minus_val), constant_piece(plus_val)]
    return PiecewiseRigid(part, outer + list(pieces))


def make_elementary(
    i, j, nu, square: OrientedSquare, i_side: str = "plus"
) -> PiecewiseRigid:
    """Two-valued jump across the mid-chord of an oriented square; nu must be
    the square's normal (FunctionError otherwise).

    With i_side="plus" the value i sits on the {<x-c, nu> > 0} half; the
    counterexample constructions use i_side="minus".
    """
    sq = square if isinstance(square, OrientedSquare) else OrientedSquare(*square)
    if np.linalg.norm(unit(nu) - sq.normal) > 1e-12:
        raise FunctionError("nu must be the square's normal")
    return jump_square(i, j, sq.normal, sq.side, center=sq.center, i_side=i_side)


def compact_deviation(v: PiecewiseAffine, u: PiecewiseAffine, margin: float) -> bool:
    """True iff every cell of v where v differs from u keeps the given
    distance from the domain boundary.

    Deviation is decided exactly: a cell of v deviates iff some cell of u
    overlapping it (in area) carries a different affine map.
    """
    dom_v = v.partition.domain
    dom_u = u.partition.domain
    if not np.allclose(dom_v.vertices.mean(axis=0), dom_u.vertices.mean(axis=0)) or (
        abs(dom_v.area - dom_u.area) > 1e-9 * dom_u.area
    ):
        raise FunctionError("compared functions must share the same domain")
    area_tol = 1e-12 * dom_u.area
    for cell, piece in zip(v.partition.cells, v.pieces):
        deviates = False
        for ucell, upiece in zip(u.partition.cells, u.pieces):
            if piece.same_map(upiece):
                continue
            if polygon_overlap_area(cell, ucell) > area_tol:
                deviates = True
                break
        if not deviates:
            continue
        dist = min(dom_v.boundary_distance(p) for p in cell.vertices)
        if dist < margin:
            return False
    return True
