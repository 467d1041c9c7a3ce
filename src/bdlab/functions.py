"""Piecewise rigid and piecewise affine functions on polygonal partitions.

Each cell carries an affine map x -> Ax + b; rigid pieces have antisymmetric
A (an infinitesimal rigid motion), so their symmetrized gradient vanishes
exactly.  Jump segments along interfaces carry the one-sided traces as affine
maps of arclength, which keeps surface integrals in closed or near-closed
form.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .geometry import (
    MATCH_TOL,
    OrientedSquare,
    Polygon,
    PolygonalPartition,
    edge_pair_interfaces,
    frame_from_normal,
    interface_edges,
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
    """The jump set across straight interfaces, one row per kept interface
    with t0 = 0 and t1 its length, and the indices of the kept interfaces.

    Interface n runs from a[n] to b[n] with the normal pointing into its
    left side; left = (A, c) and right stack the affine maps x -> A x + c on
    either side.  An interface is dropped when its two maps are equal, or
    when their traces agree at both ends and the midpoint (exact for affine
    traces).  Row by row, the arithmetic is that of one interface at a time.
    """
    (Al, cl), (Ar, cr) = left, right
    v = b - a
    # np.linalg.norm of one vector is a dot product; stacked matmul keeps it
    L = np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])
    d = v / L[:, None]
    pv0 = (a[:, None, :] @ np.swapaxes(Al, 1, 2))[:, 0] + cl
    mv0 = (a[:, None, :] @ np.swapaxes(Ar, 1, 2))[:, 0] + cr
    ps = (Al @ d[:, :, None])[..., 0]
    ms = (Ar @ d[:, :, None])[..., 0]
    probes = np.stack([np.zeros_like(L), 0.5 * L, L], axis=1)[..., None]
    plus = pv0[:, None, :] + probes * ps[:, None, :]
    minus = mv0[:, None, :] + probes * ms[:, None, :]
    scale = 1.0 + (np.max(np.abs(plus), axis=(1, 2)) + np.max(np.abs(minus), axis=(1, 2)))
    agree = np.max(np.linalg.norm(plus - minus, axis=2), axis=1) <= 1e-12 * scale
    same = np.all(Al == Ar, axis=(1, 2)) & np.all(cl == cr, axis=1)
    keep = np.flatnonzero(~(same | agree))
    jumps = JumpArrays(
        a[keep], b[keep], d[keep], normal[keep], pv0[keep], ps[keep], mv0[keep], ms[keep],
        np.zeros(keep.size), L[keep],
    )
    return jumps, keep


def _stacked(pieces, d: int) -> tuple[np.ndarray, np.ndarray]:
    A = np.array([p.A for p in pieces]).reshape(-1, d, d)
    return A, np.array([p.b for p in pieces]).reshape(-1, d)


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

    def jump_segments(self) -> JumpArrays:
        """One row per interface whose adjacent pieces differ as maps.

        Pieces with identical parameters are dropped; distinct pieces that
        happen to coincide along the interface line are detected by trace
        agreement at both endpoints and the midpoint (exact for affine
        traces).
        """
        itfs = self.partition.interfaces
        a, b, normal = (
            np.array([getattr(itf, name) for itf in itfs]).reshape(-1, 2)
            for name in ("a", "b", "normal")
        )
        jumps, _ = jump_arrays(
            a, b, normal,
            _stacked([self.pieces[itf.left] for itf in itfs], self.dim),
            _stacked([self.pieces[itf.right] for itf in itfs], self.dim),
        )
        return jumps

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
    return sum(u.jump_segments().t1.tolist())


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

    lower, upper = _outer_cells(side, hole)
    inner = [c if isinstance(c, Polygon) else place(c) for c in cells]
    domain = make_oriented_square(nu, side, (0.0, 0.0) if center is None else center)
    part = PolygonalPartition([place(lower), place(upper)] + inner, domain)
    outer = [constant_piece(minus_val), constant_piece(plus_val)]
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


class JumpSquareTopology:
    """The jump sets of jump_square at the origin, as JumpArrays straight
    from holes, cells and pieces, for inputs that keep one cell topology.

    It is compiled from example inputs built by jump_square: every interface
    of the partition is where an edge of one cell overlaps an edge of
    another, and those edge pairs (`edge_map`) must be the same for all
    examples, or FunctionError is raised.  `jumps` evaluates the pairs with
    the arithmetic of extract_interfaces and jump_segments, without building
    a Polygon or a partition, so its arrays equal the general path's bit for
    bit.  The caller keeps the inputs within the range the examples stand
    for (one topology); inputs a Polygon might reject are handed back, and
    belong to jump_square.
    """

    def __init__(self, i, j, nu, side: float, examples, i_side: str = "plus"):
        maps = []
        for hole, cells, pieces in examples:
            u = jump_square(i, j, nu, side, i_side=i_side, hole=hole, cells=cells, pieces=pieces)
            counts = tuple(len(c) for c in u.partition.cells)
            maps.append((counts, tuple(interface_edges(list(u.partition.cells), u.partition.tol))))
        if any(m != maps[0] for m in maps[1:]):
            raise FunctionError("the examples do not share one cell topology")
        self.counts, self.edge_map = maps[0]
        self.side = float(side)
        self.frame = frame_from_normal(nu)
        self.outer = list(u.pieces[:2])
        counts = np.array(self.counts)
        self.starts = np.cumsum(counts) - counts
        self.cell_of = np.repeat(np.arange(counts.size), counts)

        def vertex(cell, k):
            return self.starts[cell] + k % counts[cell]

        self.next = vertex(self.cell_of, np.arange(self.cell_of.size) - self.starts[self.cell_of] + 1)
        ia, k, ib, l = (np.array(col) for col in zip(*self.edge_map))
        self.edges = (vertex(ia, k), vertex(ia, k + 1), vertex(ib, l), vertex(ib, l + 1))
        self.right, self.left = ia, ib

    def jumps(self, batch) -> tuple[JumpArrays, np.ndarray, list[int]]:
        """The jump sets of jump_square(..., hole=hole, cells=cells,
        pieces=pieces) for every (hole, cells, pieces) of the batch, as
        (jumps, owner, rejected): one JumpArrays holding the rows of each
        input in batch order, the batch index of each row, and the indices
        of the inputs left out because a cell might fail a Polygon check."""
        frames, kept, rejected = [], [], []
        for n, (hole, cells, _) in enumerate(batch):
            frame = list(_outer_cells(self.side, hole)) + list(cells)
            if tuple(len(c) for c in frame) != self.counts:
                rejected.append(n)
                continue
            frames.append(np.concatenate([np.asarray(c, dtype=float) @ self.frame.T for c in frame]))
            kept.append(n)
        V = self.cell_of.size
        W = np.array(frames).reshape(-1, V, 2)
        ok = np.all(np.isfinite(W), axis=(1, 2))
        ok[ok] = self._cells_valid(W[ok])
        rejected = sorted(rejected + [n for n, good in zip(kept, ok.tolist()) if not good])
        kept = [n for n, good in zip(kept, ok.tolist()) if good]
        W = W[ok]

        def offset(index, size):
            # index into each kept input's block of `size` rows, input after input
            return (np.arange(len(kept))[:, None] * size + index).ravel()

        a, b, normal = edge_pair_interfaces(W.reshape(-1, 2), *(offset(e, V) for e in self.edges))
        P = len(self.counts)
        d = self.outer[0].b.size
        A, c = _stacked([p for n in kept for p in self.outer + list(batch[n][2])], d)
        left, right = offset(self.left, P), offset(self.right, P)
        jumps, rows = jump_arrays(a, b, normal, (A[left], c[left]), (A[right], c[right]))
        owner = np.repeat(np.array(kept, dtype=int), len(self.edge_map))[rows]
        return jumps, owner, rejected

    def _cells_valid(self, W) -> np.ndarray:
        """Polygon's checks on every cell of each input (vertices W[k]):
        nonzero extent, no repeated consecutive vertices, positive area, the
        last with a margin far above rounding so that no cell Polygon
        rejects passes.  One flag per input."""
        m, V, _ = W.shape
        C = len(self.counts)
        base = np.arange(m)[:, None]
        starts = (base * V + self.starts).ravel()
        nxt = (base * V + self.next).ravel()
        W = W.reshape(-1, 2)
        ext = np.max(
            np.maximum.reduceat(W, starts, axis=0) - np.minimum.reduceat(W, starts, axis=0),
            axis=1,
        )
        gaps = np.linalg.norm(W - W[nxt], axis=1)
        cross = W[:, 0] * W[nxt, 1] - W[:, 1] * W[nxt, 0]
        area = 0.5 * np.add.reduceat(cross, starts)
        cell_ok = (ext > 0.0) & (area > 1e-9 * ext * ext)
        gap_ok = gaps >= MATCH_TOL * ext[(base * C + self.cell_of).ravel()]
        return cell_ok.reshape(m, C).all(axis=1) & gap_ok.reshape(m, V).all(axis=1)


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
