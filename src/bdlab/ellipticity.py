"""Ellipticity falsification by competitor search.

A density f is tested against the reference energy f(j,i,nu) * L of the
straight interface, i below it and j on the side nu points into:
competitors are piecewise rigid functions agreeing with the two-valued
jump near the boundary of an oriented square.  Finding one
with lower energy certifies that f is not elliptic for rigid competitors;
not finding one within budget is evidence, never proof.

Competitor families are authored on a side-6 square (the scale of the
reference constructions) and rescaled to the side: sizes by side / 6,
rotations by its inverse.  Energies are normalized per unit interface
length, which is invariant under rescaling.  The built-in families are
insert layouts, declared as gathers from a table per parameter row, with
one cell topology each and bounds in which every row builds valid cells.
`falsify` plans its runs, advances them in lockstep, a round gathering its
geometry from one flat table, and certifies the best competitor on the
general path, a partition built from the same gathers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .densities import Density, sampled_violations
from .energy import (
    integrate_jump_arrays,
    jump_set_integrals,
    surface_energy,
)
from .functions import (
    FunctionError,
    InsertLayout,
    JumpArrays,
    PiecewiseRigid,
    compact_deviation,
    jump_arrays,
    jump_square,
    make_elementary,
    same_domain,
)
from .geometry import (
    GeometryError,
    OrientedSquare,
    clip_segment_params,
    edge_pair_interfaces,
    edge_vertices,
    frame_from_normal,
    make_oriented_square,
    unit,
)
from .report import Report

E2 = np.array([0.0, 1.0])
# the side of the square a strip tiling fills outside its strip
AMBIENT_SIDE = 3.0
# the largest sampled violation of each necessary check that still passes
NECESSARY_TOL = 1e-10


class EllipticityError(ValueError):
    """Invalid falsification input."""


# the errors of an infeasible competitor: the search gives it the sentinel
_REJECTED = (GeometryError, FunctionError, EllipticityError)


def insert_competitor(
    i,
    j,
    nu,
    inner_cells_frame,
    inner_pieces,
    half_width: float,
    half_height: float,
    side: float = 6.0,
) -> PiecewiseRigid:
    """Piecewise rigid competitor: two-valued jump outside a rectangular
    insert carrying the given cells and pieces (frame coordinates)."""
    if not (0 < half_width < 0.5 * side and 0 < half_height < 0.5 * side):
        raise EllipticityError("insert must sit strictly inside the square")
    return jump_square(
        i, j, unit(nu), side,
        hole=(half_width, -half_height, half_height),
        cells=inner_cells_frame, pieces=inner_pieces,
    )


def _box(w, h):
    """The rectangle [-w, w] x [-h, h], counterclockwise from (-w, -h)."""
    return [("-" + w, "-" + h), (w, "-" + h), (w, h), ("-" + w, h)]


_SIZE = (0, 1e-3, 0.98, True)  # a side-s square insert, s in [0.001, 0.98] x side
# Rows (s, omega, b1, b2): a side-s square with the rigid motion (omega, (b1, b2)).
_SQUARE = InsertLayout("s omega b1 b2", {"h": ("s", "1")}, [_box("h", "h")],
                       [("omega", "b1", "b2")], "h", "h", (_SIZE,))
# Rows (delta, omega, b1, b2): a side / 3 x 2 delta rectangle, rigid motion
# (omega, (b1, b2)); its half width is 1 at side 6.
_RECT = InsertLayout("delta omega b1 b2", {}, [_box("sixth", "delta")],
                     [("omega", "b1", "b2")], "sixth", "delta", ((0, 1e-3, 0.49, True),))
# Rows (s, v1, v2, w1, w2): a side-s square in quarters alternating the values
# v, w; quarter (a, b) spans the columns a, a + 1 by b, b + 1 of (-hh, 0, hh).
_CHECKER = InsertLayout(
    "s v1 v2 w1 w2", {"hh": ("s", "1")},
    [[(("-hh", "0", "hh")[a + x], ("-hh", "0", "hh")[b + y])
      for x, y in ((0, 0), (1, 0), (1, 1), (0, 1))] for a in (0, 1) for b in (0, 1)],
    [("0", *(("v1", "v2"), ("w1", "w2"))[(a + b) % 2]) for a in (0, 1) for b in (0, 1)],
    "hh", "hh", (_SIZE,))
# Rows (s1, frac, om1, b11, b12, om2, b21, b22): a side-s1 square ring (four
# trapezoids, motion 1) around a centered side-frac*s1 square (motion 2).
_OUTER_SQ, _INNER_SQ = _box("h1", "h1"), _box("h2", "h2")
_NESTED = InsertLayout(
    "s1 frac om1 b11 b12 om2 b21 b22", {"h1": ("s1", "1"), "h2": ("frac", "s1")},
    [_INNER_SQ] + [[_OUTER_SQ[k], _OUTER_SQ[(k + 1) % 4], _INNER_SQ[(k + 1) % 4], _INNER_SQ[k]]
                   for k in range(4)],
    [("om2", "b21", "b22")] + [("om1", "b11", "b12")] * 4, "h1", "h1",
    (_SIZE, (1, 0.01, 0.99, False)))


def _check_side(side) -> None:
    if not 0 < side < np.inf:
        raise EllipticityError(f"side must be finite and positive, got {side!r}")


def _jump_values(i, j):
    """i and j as arrays; EllipticityError unless they are two distinct
    finite planar points."""
    i = np.asarray(i, dtype=float)
    j = np.asarray(j, dtype=float)
    if i.shape != (2,) or j.shape != (2,) or not np.isfinite([i, j]).all():
        raise EllipticityError(f"i and j must be finite planar points, got {i} and {j}")
    if np.array_equal(i, j):
        raise EllipticityError("falsification needs i != j")
    return i, j


def counterexample1_competitor(lam: float) -> PiecewiseRigid:
    """Square-insert competitor on the side-6 square oriented by e2.

    The inner side-2 square carries the rigid motion (omega, b) =
    (lam, (lam, lam)) between the values i = 0 (lower side) and
    j = (2 lam, 2 lam) (upper side); its first component is continuous
    across the lower insert edge, so the parallel jump integrates to
    (8 sqrt(2) + 4) lam while the straight interface costs 12 sqrt(2) lam.
    """
    if not lam > 0:
        raise EllipticityError("lam must be positive")
    layout = _SQUARE.insert_args((2.0, lam, lam, lam))
    return insert_competitor(np.zeros(2), np.full(2, 2.0 * lam), E2, *layout)


def counterexample2_competitor(lam: float, eps: float) -> PiecewiseRigid:
    """Thin-rectangle competitor (half height delta = eps^(1/4)) with the
    rigid motion (lam/delta, (lam, lam/delta)) inside."""
    if not lam > 0:
        raise EllipticityError("lam must be positive")
    if not 0 < eps < 1:
        raise EllipticityError("eps must lie in (0, 1)")
    delta = eps ** 0.25
    layout = _RECT.insert_args((delta, lam / delta, lam, lam / delta))
    return insert_competitor(np.zeros(2), np.full(2, 2.0 * lam), E2, *layout)


def _parallel(jumps) -> np.ndarray:
    return np.abs(np.abs(jumps.normal[:, 1]) - 1.0) <= 1e-9


def _perpendicular(jumps) -> np.ndarray:
    return np.abs(jumps.normal[:, 1]) <= 1e-9


def _parallel_at(y: float):
    return lambda j: _parallel(j) & (np.abs(0.5 * (j.a[:, 1] + j.b[:, 1]) - y) < 1e-9)


def _breakdown(u: PiecewiseRigid, f: Density, groups: dict) -> dict:
    """Energy of each named group of jump pieces, their total and error.

    `groups` maps names to functions giving row masks of the jump set; every
    piece must be in exactly one group, so the groups cover the jump set once.
    """
    jumps = u.jump_segments()
    masks = {name: group(jumps) for name, group in groups.items()}
    if np.any(sum(masks.values()) != 1):
        raise EllipticityError("jump segment outside the breakdown groups")
    owner = np.argmax(np.array(list(masks.values())), axis=0)
    value, error, _, _ = jump_set_integrals(jumps, owner, len(masks), f, 1e-12, 15)
    out = dict(zip(masks, value.tolist()))
    out["total"] = sum(out.values())
    out["error_estimate"] = sum(error.tolist())
    return out


def ce1_energy_breakdown(lam: float = 1.0, eps: float = 0.01) -> dict:
    """Exact energy bookkeeping for the square-insert competitor."""
    from .densities import anisotropic_normal_density

    u = counterexample1_competitor(lam)
    f = anisotropic_normal_density(eps)
    out = _breakdown(u, f, {"parallel": _parallel, "perpendicular": _perpendicular})
    out["straight"] = float(f(np.array([2 * lam, 2 * lam]), np.zeros(2), E2)) * 6.0
    jumps = u.jump_segments()
    out["parallel_length"] = sum(jumps.t1[_parallel(jumps)].tolist())
    out["perpendicular_length"] = sum(jumps.t1[_perpendicular(jumps)].tolist())
    return out


def ce2_energy_breakdown(lam: float = 1.0, eps: float = 1e-4) -> dict:
    """Exact energy bookkeeping for the thin-rectangle competitor."""
    from .densities import anisotropic_trace_density

    delta = eps ** 0.25
    f = anisotropic_trace_density(eps)
    groups = {
        "lower_edge": _parallel_at(-delta),
        "upper_edge": _parallel_at(delta),
        "outer_chord": _parallel_at(0.0),
        "perpendicular": _perpendicular,
    }
    out = _breakdown(counterexample2_competitor(lam, eps), f, groups)
    out["straight"] = float(f(np.array([2 * lam, 2 * lam]), np.zeros(2), E2)) * 6.0
    out["delta"] = delta
    return out


def tile_construction(v: PiecewiseRigid, i, j, nu, h: int) -> PiecewiseRigid:
    """Tile h scaled copies of v into the strip {0 < <x, nu> < 1/h}.

    v must live on the unit square oriented by nu and deviate compactly from
    the elementary (i, j) jump.  Outside the strip the output equals that
    elementary jump on the side-AMBIENT_SIDE square; rigid pieces (Q, b)
    become (hQ, b - hQ x_n) on the copy centered at x_n, so the output is
    again piecewise rigid with the same trace values.
    """
    nu = unit(nu)
    _check_tiling(v, i, j, nu, (h,))
    return _tiled(v, i, j, nu, int(h))


def _check_tiling(v: PiecewiseRigid, i, j, nu, hs) -> None:
    """Raise EllipticityError unless every h of hs is a positive integer and
    v lives on the centered unit square oriented by the unit normal nu,
    deviating compactly from the elementary (i, j) jump there."""
    if any(h < 1 or int(h) != h for h in hs):
        raise EllipticityError("tile count h must be a positive integer")
    dom = v.partition.domain
    if abs(dom.area - 1.0) > 1e-9 or np.linalg.norm(dom.centroid) > 1e-9:
        raise EllipticityError("v must live on the centered unit square")
    ref = make_elementary(i, j, nu, OrientedSquare(nu, 1.0, (0, 0)))
    if not compact_deviation(v, ref, margin=1e-9):
        raise EllipticityError("v must deviate compactly from the elementary jump")


def _tiled(v: PiecewiseRigid, i, j, nu, h: int):
    """tile_construction's output for a unit normal nu and an input that
    passed _check_tiling."""
    R = frame_from_normal(nu)
    inv_h = 1.0 / h
    xs = np.array([R @ np.array([-0.5 + (n + 0.5) * inv_h, 0.5 * inv_h]) for n in range(h)])
    # v's stack of cells copied h times, copy after copy, each shifted by its centre
    cells = ((xs[:, None] + v.partition.vertices * inv_h).reshape(-1, 2),
             np.tile(v.partition.counts, h))
    As = [h * piece.A for piece in v.pieces]
    pieces = [type(piece)(A, piece.b - A @ xn) for xn in xs for piece, A in zip(v.pieces, As)]
    return jump_square(i, j, nu, AMBIENT_SIDE, hole=(0.5, 0.0, inv_h), cells=cells, pieces=pieces)


def tiling_report(
    v: PiecewiseRigid, i, j, nu, f: Density, hs=(1, 2, 4, 8), i_side: str = "minus",
) -> list[dict]:
    """Per-h bookkeeping: tile sum vs F(v), and the boundary mismatch term.
    The input is checked once, as tile_construction checks it, and each
    level's tiles share the one normal unit(nu) with its tiled function.
    i_side="plus" swaps i and j."""
    if i_side not in ("plus", "minus"):
        raise FunctionError("i_side must be 'plus' or 'minus'")
    i = np.asarray(i, dtype=float)
    j = np.asarray(j, dtype=float)
    if i_side == "plus":
        i, j = j, i
    nu = unit(nu)
    R = frame_from_normal(nu)
    base = surface_energy(v, f, tol=1e-12)
    _check_tiling(v, i, j, nu, hs)
    chord_density = float(f(j, i, nu))
    out = []
    for h in hs:
        jumps = _tiled(v, i, j, nu, int(h)).jump_segments()
        # each tile's open part of the one jump set: one clip, one kernel call
        inv_h = 1.0 / h
        corners = np.array([[0.0, 0.0], [inv_h, 0.0], [inv_h, inv_h], [0.0, inv_h]])
        tiles = (np.concatenate([(corners + [-0.5 + n * inv_h, 0.0]) @ R.T for n in range(h)]),
                 np.full(h, 4))
        owner, rows, t0, t1, on_boundary = clip_segment_params(jumps.a, jumps.b, tiles)
        inner = ~on_boundary
        rows = rows[inner]
        L = jumps.t1[rows]
        pieces = jumps.take(rows, t0[inner] * L, t1[inner] * L)
        energies, errors, _, _ = jump_set_integrals(pieces, owner[inner], h, f, 1e-12, 15)
        tiles_sum = sum(energies.tolist())
        tiles_err = sum(errors.tolist())
        total = integrate_jump_arrays(jumps, f, 1e-12, 15)
        chord = chord_density * (AMBIENT_SIDE - 1.0)
        out.append(
            {
                "h": h,
                "tile_energy_sum": tiles_sum,
                "reference_energy": base.value,
                "relative_defect": abs(tiles_sum - base.value) / base.value,
                "total_energy": total.value,
                "outer_chord_energy": chord,
                "boundary_contribution": total.value - tiles_sum - chord,
                "error_estimate": tiles_err + total.error_estimate + base.error_estimate,
            }
        )
    return out


# ---------------------------------------------------------------------------
# competitor families and the search


@dataclass(frozen=True)
class CompetitorFamily:
    """Parametric family of compactly-deviating piecewise rigid competitors,
    with a finite pair of bounds lo <= hi per parameter and suggested
    starts of as many finite entries."""

    name: str
    bounds: tuple
    generator: object  # params -> PiecewiseRigid
    suggestions: tuple = ()

    def __post_init__(self):
        if not (len(self.bounds) and all(-np.inf < lo <= hi < np.inf for lo, hi in self.bounds)):
            raise EllipticityError(
                f"{self.name}: bounds {self.bounds} must be one or more finite pairs lo <= hi")
        if not all(np.shape(s) == (self.dim,) and np.isfinite(s).all() for s in self.suggestions):
            raise EllipticityError(f"{self.name}: each suggestion needs {self.dim} finite entries")

    @property
    def dim(self) -> int:
        return len(self.bounds)


@dataclass(frozen=True)
class LayoutFamily(CompetitorFamily):
    """A family whose generator is insert_competitor over an InsertLayout,
    which holds its cell topology; its bounds, within the layout's ranges
    at its side, are checked here, once.  `head` holds what a search round
    gathers from the family: the head of its layout's row tables, with its
    own values, then its bounds' lows and highs."""

    layout: InsertLayout | None = None
    side: float = 6.0  # of the square, turned by frame = frame_from_normal(nu)
    frame: np.ndarray | None = None
    outer: tuple | None = None  # the pieces (A (2, 2, 2), c (2, 2)) below and above the chord
    head: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_side(self.side)
        super().__post_init__()
        for column, low, high, size in self.layout.ranges:
            unit = self.side if size else 1.0
            if not low * unit <= self.bounds[column][0] <= self.bounds[column][1] <= high * unit:
                raise EllipticityError(f"{self.name}: bounds {self.bounds} may leave the "
                                       f"layout's valid range at side {self.side}")
        object.__setattr__(self, "head", np.concatenate([
            (0.0, 1.0, 0.5 * self.side, self.side / 6.0), *self.outer[1],
            *np.array(self.bounds).T]))


class JumpSquareBatch:
    """The index arrays of a round of layout-family points, which depend on
    its composition alone: point k has the layout layouts[slots[k]], or
    none for a negative slot (such points are left out).  They are compiled
    once, from each layout's `interfaces`, and `jumps` gathers every vertex
    and piece entry from one flat table per round: the head of each slot's
    family, the parameters of the points in order, their derived columns,
    then the negation of all of it.  `groups[s]` lists the points of slot s
    in order; vertices and interfaces run group after group and point
    after point."""

    def __init__(self, layouts, slots):
        slots = np.array(slots, dtype=int)
        self.groups = [np.flatnonzero(slots == s).tolist() for s in range(len(layouts))]
        heads = np.cumsum([0] + [8 + 2 * layout.dim for layout in layouts])
        params = heads[-1] + np.cumsum([0] + [layouts[s].dim if s >= 0 else 0 for s in slots])
        self.size = derived = params[-1]  # of the table before its derived columns
        size = derived + sum(len(g) * len(lay.dx) for lay, g in zip(layouts, self.groups))
        parts, vertex, ends = [], 0, []
        for s, (layout, group) in enumerate(zip(layouts, self.groups)):
            m, h, dim, V = len(group), heads[s], layout.dim, len(layout.vertices)
            top = layout.interfaces
            # each point's row table (InsertLayout) as indices into the table
            p = params[group][:, None] + np.arange(dim)
            d = derived + np.arange(m * len(layout.dx)).reshape(m, -1)
            derived += d.size
            row = np.concatenate([np.broadcast_to(h + np.arange(8), (m, 8)), p, d], axis=1)
            row = np.concatenate([row, row + size], axis=1)
            # each vertex's turned coordinates: the columns of its slot's frame
            turned = 2 * len(layouts) * np.arange(vertex, vertex + m * V) + 2 * s
            parts.append(dict(
                checked=p.ravel(), lo=np.tile(h + 8 + np.arange(dim), m),
                hi=np.tile(h + 8 + dim + np.arange(dim), m), slot=np.full(p.size, s),
                dx=row[:, layout.dx].ravel(), dy=row[:, layout.dy].ravel(),
                vertices=row[:, layout.vertices].reshape(-1, 2),
                turned=turned[:, None] + np.arange(2),
                left_A=row[:, layout.A[top.left]].reshape(-1, 2, 2),
                left_c=row[:, layout.c[top.left]].reshape(-1, 2),
                right_A=row[:, layout.A[top.right]].reshape(-1, 2, 2),
                right_c=row[:, layout.c[top.right]].reshape(-1, 2),
                owner=np.repeat(np.array(group, dtype=int), len(top.left))))
            edges = (edge_vertices(layout.counts, top.right, top.right_edge)
                     + edge_vertices(layout.counts, top.left, top.left_edge))
            ends.append([(vertex + V * np.arange(m)[:, None] + e).ravel() for e in edges])
            vertex += m * V
        for name in parts[0]:
            setattr(self, name, np.concatenate([part[name] for part in parts]))
        self.ends = [np.concatenate(e) for e in zip(*ends)]

    def jumps(self, families, params) -> tuple[JumpArrays, np.ndarray]:
        """The jump sets of the round's points, families[s] the layout family
        of slot s and params the parameter vectors of the points in order
        (flat, in one or more pieces): (jumps, owner), the rows of each point
        in order, group after group, and the index of each row's point.  A
        vector outside its family's bounds raises EllipticityError."""
        base = np.concatenate([*(family.head for family in families), *params])
        if base.size != self.size:
            raise EllipticityError("parameter vectors of the wrong length")
        P = base[self.checked]
        inside = (base[self.lo] <= P) & (P <= base[self.hi])
        if not inside.all():
            name = families[self.slot[np.argmin(inside)]].name
            raise EllipticityError(f"{name}: parameters outside the bounds")
        table = np.concatenate([base, 0.5 * (base[self.dx] * base[self.dy])])
        table = np.concatenate([table, -table])
        # every vertex turned by every frame in one 2-D matmul: columns 2s, 2s + 1
        # are each row's `vertex @ frame.T` of slot s, and it keeps its own slot's
        frames = np.concatenate([family.frame.T for family in families], axis=1)
        W = (table[self.vertices] @ frames).take(self.turned)
        a, b, normal = edge_pair_interfaces(W, *self.ends)
        left = table[self.left_A], table[self.left_c]
        right = table[self.right_A], table[self.right_c]
        jumps, rows = jump_arrays(a, b, normal, left, right)
        return jumps, self.owner[rows]


@lru_cache(maxsize=16)
def _compiled_round(layouts, slots) -> JumpSquareBatch:
    """The JumpSquareBatch of a round's composition: the layouts of its
    layout families in order, and each point's slot among them (-1 for a
    plain family's).  Bounded: live runs change it a few times per call."""
    return JumpSquareBatch(layouts, slots)


def _outer_pieces(i, j):
    """The pieces (A (2, 2, 2), c (2, 2)) below and above the chord."""
    return np.zeros((2, 2, 2)), np.array([i, j])


@dataclass(frozen=True)
class EllipticityVerdict(Report):
    status: str  # "VIOLATION" or "NO-VIOLATION-WITHIN-BUDGET"
    best_energy: float
    reference_energy: float
    margin: float
    normalized_margin: float
    error_estimate: float
    budget_used: int
    best_family: str
    best_params: tuple
    interface_length: float
    cross_check: dict = field(default_factory=dict)
    diagnostics: dict | None = None
    competitor: PiecewiseRigid | None = None


# the least |i - j| whose square, which the closed form takes, is a normal float
_MIN_GAP = np.sqrt(np.finfo(float).tiny)


def default_families(i, j, nu, side: float = 6.0):
    """Built-in families, one insert layout each: square insert, thin
    rectangle, checkerboard, and two nested squares with independent rigid
    motions, authored at side 6 and rescaled by k = side / 6 (sizes times
    k, rotations over k) as PiecewiseAffine.scaled(k) rescales competitors.
    The families carry this call's values, whose |i - j| must square to a
    normal float; their cell topologies are their layouts', which depend
    on none of them."""
    _check_side(side)
    k = side / 6.0
    i, j = _jump_values(i, j)
    nu = np.array(nu, dtype=float)
    with np.errstate(over="ignore"):
        gap = float(np.linalg.norm(i - j))
    if not _MIN_GAP <= gap < np.inf:
        raise EllipticityError(f"|i - j| = {gap!r} for i = {i} and j = {j} underflows or "
                               "overflows when squared; rescale the values")
    lam = gap / (2.0 * np.sqrt(2.0))
    lo = np.minimum(i, j) - gap
    hi = np.maximum(i, j) + gap
    vec = ((lo[0], hi[0]), (lo[1], hi[1]))  # bounds of a value or a translation
    omega = (-2.0 * gap / k, 2.0 * gap / k)
    mid = 0.5 * (i + j)
    # the frame of the normal unit(nu) of every competitor insert_competitor builds
    R = frame_from_normal(unit(nu))
    outer = _outer_pieces(i, j)

    def family(name, layout, bounds, suggestions):
        def generator(params):
            return insert_competitor(
                i, j, nu, *layout.insert_args(params, side), side=side)

        clipped = tuple(
            tuple(float(np.clip(p, *bound)) for p, bound in zip(start, bounds))
            for start in suggestions
        )
        return LayoutFamily(name, bounds, generator, clipped, layout, side, R, outer)

    size = (0.3 * k, 5.6 * k)
    return [
        family(
            "square-insert", _SQUARE, (size, omega, *vec),
            [(2.0 * k, lam / k, *mid), (2.0 * k, -lam / k, *mid)],
        ),
        family(
            "rect-insert", _RECT,
            ((0.02 * k, 0.95 * k), (-40.0 * gap / k, 40.0 * gap / k), *vec),
            [(d * k, lam / (d * k), *(i + R @ np.array([lam, lam / d])))
             for d in (0.05, 0.1, 0.2, 0.4)],
        ),
        family("checkerboard", _CHECKER, (size, *vec, *vec), [(2.0 * k, *i, *j)]),
        family(
            "nested-squares", _NESTED,
            ((0.5 * k, 5.6 * k), (0.15, 0.85), omega, *vec, omega, *vec),
            [(2.0 * k, 0.5, lam / k, *mid, lam / k, *mid)],
        ),
    ]


# Latin-hypercube starts per family, the quadrature tolerance and order of
# the search, and the evaluations of the shortest search run
_RESTARTS = 8
_SEARCH_TOL = 1e-9
_SEARCH_ORDER = 15
_MIN_RUN = 25
# the search value of an infeasible competitor
_SENTINEL = 1e30


def _search_values(f: Density, families, points) -> tuple[list[float], set[int]]:
    """The search objective at (family index, parameters) points, and the
    indices of the points rejected: the surface energy of each competitor,
    or the sentinel for one of a plain family whose generator raises.  The
    layout families' points, valid by construction, give their jump sets in
    one JumpSquareBatch.jumps call, the others through their generator, and
    one kernel call integrates every jump set."""
    order = dict.fromkeys(fi for fi, _ in points)
    layouts = [fi for fi in order if isinstance(families[fi], LayoutFamily)]
    slot = {fi: s for s, fi in enumerate(layouts)}
    slots = tuple(slot.get(fi, -1) for fi, _ in points)
    sets, owners, rejected = [], [], set()
    if layouts:
        fams = [families[fi] for fi in layouts]
        compiled = _compiled_round(tuple(fam.layout for fam in fams), slots)
        flat = [v for (_, x), s in zip(points, slots) if s >= 0 for v in x]
        jumps, owner = compiled.jumps(fams, [flat])
        sets, owners = [jumps], [owner]
    for k, s in enumerate(slots):
        if s >= 0:
            continue
        try:
            jumps = families[points[k][0]].generator(np.array(points[k][1])).jump_segments()
        except _REJECTED:
            rejected.add(k)
            continue
        sets.append(jumps)
        owners.append(np.full(len(jumps), k, dtype=int))
    if not sets:
        return [_SENTINEL] * len(points), rejected
    jumps = sets[0] if len(sets) == 1 else JumpArrays.concatenate(sets)
    value = jump_set_integrals(jumps, np.concatenate(owners), len(points), f,
                               _SEARCH_TOL, _SEARCH_ORDER)[0].tolist()
    return [_SENTINEL if k in rejected else v for k, v in enumerate(value)], rejected


def _latin_hypercube(seed: int, family_index: int, d: int, n: int) -> np.ndarray:
    """n points of a scrambled Latin hypercube in [0, 1)^d: scipy 1.17's
    `qmc.LatinHypercube(d, seed=default_rng(SeedSequence([seed,
    family_index]))).random(n)`, whose generator is seeded by one spawn."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, family_index]).spawn(1)[0])
    samples = rng.uniform(size=(n, d))
    perms = np.tile(np.arange(1, n + 1), (d, 1))
    for row in perms:
        rng.shuffle(row)
    return (perms.T - samples) / n


def _clipped(x, lower, upper) -> tuple:
    """x clipped to [lower, upper] element by element by np.clip's rule for
    array bounds: a NaN stays, and a bound replaces x unless x is strictly
    inside it, which fixes the sign of a clipped zero."""
    return tuple([t if (t := v if v > lo or v != v else lo) < hi or t != t else hi
                  for v, lo, hi in zip(x, lower, upper)])


def _ordered(sim, fsim):
    """The simplex and its values in the order of NumPy's default argsort."""
    ind = np.array(fsim).argsort().tolist()
    return [sim[k] for k in ind], [fsim[k] for k in ind]


def _nelder_mead(x0, bounds, maxfev: int):
    """Bounded Nelder-Mead as a generator: it yields each point to evaluate,
    a tuple of floats, is sent that point's value, and returns (min(fsim),
    sim[0]), sim[0] an array.

    Step for step this is scipy 1.17's bounded Nelder-Mead with maxfev,
    xatol 1e-9 and fatol 1e-12: the start clipped to the bounds, the
    initial simplex (5 %, or 0.00025 for a zero coordinate) reflected back
    into them, the coefficients 1, 2, 0.5, 0.5, every trial point clipped,
    an argsort after every step, and a step abandoned where it asks for an
    evaluation beyond maxfev.  The caller evaluates the points, so the
    points of many runs can be evaluated together.  The simplex is a list
    of rows and the arithmetic is on Python floats, element by element as
    NumPy takes it (the centroid adds the rows in order from the first), so
    the argsort is a step's one NumPy call.
    """
    lower = [float(lo) for lo, _ in bounds]
    upper = [float(hi) for _, hi in bounds]
    x0 = _clipped(np.asarray(x0, dtype=float).ravel().tolist(), lower, upper)
    N = len(x0)
    sim = [x0]
    for k in range(N):
        y = list(x0)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim.append(y)
    sim = [_clipped([2 * hi - v if v > hi else v for v, hi in zip(y, upper)], lower, upper)
           for y in sim]
    fsim = [np.inf] * (N + 1)
    calls = min(N + 1, maxfev)
    for k in range(calls):
        fsim[k] = yield sim[k]
    sim, fsim = _ordered(sim, fsim)
    sim, fsim = _ordered(sim, fsim)
    while calls < maxfev:
        best, worst, f0 = sim[0], sim[-1], fsim[0]
        # the values first: cheaper, and false at almost every step
        if (all(abs(f0 - f) <= 1e-12 for f in fsim[1:])
                and all(abs(v - b) <= 1e-9 for y in sim[1:] for v, b in zip(y, best))):
            break
        xbar = best
        for y in sim[1:-1]:
            xbar = [a + b for a, b in zip(xbar, y)]
        xbar = [a / N for a in xbar]
        xr = _clipped([2 * a - w for a, w in zip(xbar, worst)], lower, upper)
        calls += 1
        fxr = yield xr
        if fxr < f0:
            if calls < maxfev:  # expansion
                xe = _clipped([3 * a - 2 * w for a, w in zip(xbar, worst)], lower, upper)
                calls += 1
                fxe = yield xe
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif calls < maxfev:
            # outside contraction if xr improves on the worst, else inside
            outside = fxr < fsim[-1]
            xc = _clipped([1.5 * a - 0.5 * w if outside else 0.5 * a + 0.5 * w
                           for a, w in zip(xbar, worst)], lower, upper)
            calls += 1
            fxc = yield xc
            if fxc <= fxr if outside else fxc < fsim[-1]:
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink
                for k in range(1, N + 1):
                    sim[k] = _clipped([b + 0.5 * (v - b) for v, b in zip(sim[k], best)],
                                      lower, upper)
                    if calls == maxfev:
                        break
                    calls += 1
                    fsim[k] = yield sim[k]
        sim, fsim = _ordered(sim, fsim)
    return np.min(fsim), np.array(sim[0])


def _plan(families, budget: int, seed: int):
    """The runs (family index, start), family-major and suggestions first,
    the evaluations per run, and how many runs, from the first, are searched."""
    runs = []
    for fi, family in enumerate(families):
        lo, hi = np.array(family.bounds, dtype=float).T
        starts = lo + (hi - lo) * _latin_hypercube(seed, fi, family.dim, _RESTARTS)
        runs += [(fi, start) for start in (*family.suggestions, *starts)]
    per_run = max(_MIN_RUN, budget // len(runs))
    return runs, per_run, min(len(runs), budget // per_run)


def _lockstep(f: Density, families, runs, per_run: int):
    """Nelder-Mead runs of per_run evaluations, a round evaluating every live
    run's point: the outcomes, each point's family and rejected flag, and
    the rounds."""
    searches = [_nelder_mead(start, families[fi].bounds, per_run) for fi, start in runs]
    pending = {r: next(search) for r, search in enumerate(searches)}
    outcomes, evaluated, rejected, rounds = [None] * len(runs), [], [], 0
    while pending:
        rounds += 1
        live = list(pending)
        points = [(runs[r][0], pending[r]) for r in live]
        values, rejects = _search_values(f, families, points)
        evaluated += [fi for fi, _ in points]
        rejected += [n in rejects for n in range(len(points))]
        for r, value in zip(live, values):
            try:
                pending[r] = searches[r].send(value)
            except StopIteration as stop:
                del pending[r]
                outcomes[r] = stop.value
    return outcomes, np.array(evaluated, int), np.array(rejected, bool), rounds


def _certify(f: Density, competitor, i, j, nu_u, side: float, reference: float):
    """Status, energy, error and cross check of a competitor: its energy (in
    closed form for a quadratic form) against adaptive quadrature at doubled
    order.  VIOLATION needs a margin over ten errors, the two converged and
    within 1e-9 of the reference energy, and a compact deviation.  The
    elementary jump, integrated as the competitor is, must give the
    reference energy to 1e-9 relative (EllipticityError otherwise)."""
    ref = make_elementary(i, j, nu_u, OrientedSquare(nu_u, side, (0, 0)))
    straight = surface_energy(ref, f, tol=1e-11, order=15).value
    if abs(straight - reference) > 1e-9 * abs(reference):
        raise EllipticityError(f"the straight interface integrates to {straight!r}, "
                               f"not to the reference energy {reference!r}")
    e1 = surface_energy(competitor, f, tol=1e-11, order=15)
    closed = isinstance(f, Density) and f.quadratic_form is not None
    adaptive = replace(f, quadratic_form=None) if closed else f
    e2 = surface_energy(competitor, adaptive, tol=1e-13, order=30)
    err = max(e1.error_estimate, e2.error_estimate, abs(e1.value - e2.value))
    cross = {"method_default_order": "closed-form" if closed else "adaptive",
             "value_default_order": e1.value, "value_doubled_order": e2.value,
             "difference": abs(e1.value - e2.value)}
    ok_margin = e1.value < reference - 10.0 * err
    # a certificate rests on converged quadrature only
    ok_cert = abs(e1.value - e2.value) <= 1e-9 * reference and e1.unconverged == e2.unconverged == 0
    ok_compact = compact_deviation(competitor, ref, margin=1e-3 * side)
    status = "VIOLATION" if ok_margin and ok_cert and ok_compact else "NO-VIOLATION-WITHIN-BUDGET"
    return status, e1.value, err, cross


def falsify(
    f: Density,
    i,
    j,
    nu,
    families=None,
    budget: int = 4000,
    seed: int = 0,
    side: float = 6.0,
    keep_competitor: bool = True,
) -> EllipticityVerdict:
    """Derivative-free search for a competitor below the straight-interface
    energy f(j, i, nu) * side, i below the chord and j on the side nu points
    into: _plan the runs, search them in _lockstep, _certify the best.
    The budget caps the evaluations and must cover one run; the side must
    be finite and positive, and i and j distinct finite planar points.
    Before any density evaluation, a layout family must carry this call's
    side, outer pieces and normal, and a plain family's competitor at its
    first start must live on this call's square."""
    if budget < _MIN_RUN:
        raise EllipticityError(f"budget must be at least {_MIN_RUN} evaluations")
    _check_side(side)
    i, j = _jump_values(i, j)
    outer = _outer_pieces(i, j)
    nu_u = unit(nu)
    if families is None:
        families = default_families(i, j, nu, side=side)
    if not families:
        raise EllipticityError("need at least one competitor family")
    runs, per_run, searched = _plan(families, budget, seed)
    for fi, family in enumerate(families):
        if isinstance(family, LayoutFamily):
            # frame column 1 is its normal; unit(unit(nu)) may move a bit
            if (family.side != side or np.linalg.norm(family.frame[:, 1] - nu_u) > 1e-12
                    or not all(map(np.array_equal, family.outer, outer))):
                raise EllipticityError(f"{family.name}: built for another side, normal or jump")
            continue
        # a generator raising here leaves the family to the search
        start = next(x for fk, x in runs if fk == fi)
        try:
            u = family.generator(np.clip(np.asarray(start, float), *np.array(family.bounds).T))
        except _REJECTED:
            continue
        if not same_domain(u.partition.domain, make_oriented_square(nu_u, side)):
            raise EllipticityError(f"{family.name}: its competitors live on another square")

    reference_energy = float(f(j, i, nu_u)) * side
    outcomes, evaluated, rejected, rounds = _lockstep(f, families, runs[:searched], per_run)

    # per family: runs searched, all runs, evaluations, rejections
    run_family = np.array([fi for fi, _ in runs])
    counts = [np.bincount(fis, minlength=len(families)).tolist() for fis in (
        run_family[:searched], run_family, evaluated, evaluated[rejected])]
    values = [float(value) for value, _ in outcomes]
    stats = []
    for fi, (fam, n, total, e, x) in enumerate(zip(families, *counts)):
        low = min(v for v, (fk, _) in zip(values, runs) if fk == fi) if e > x else None
        stats.append({"name": fam.name, "runs": n, "dropped_runs": total - n,
                      "evaluations": e, "rejected": x, "best_value": low})
    dropped = [st["name"] for st in stats if st["runs"] == 0]
    diagnostics = {"families": stats, "dropped_families": dropped, "rounds": rounds}

    best = min(range(searched), key=values.__getitem__)
    best_fi, best_val = runs[best][0], values[best]
    best_params = tuple(outcomes[best][1])
    status, err, cross, competitor = "NO-VIOLATION-WITHIN-BUDGET", 0.0, {}, None
    if stats[best_fi]["best_value"] is not None:
        competitor = families[best_fi].generator(best_params)
        status, best_val, err, cross = _certify(f, competitor, i, j, nu_u, side,
                                                reference_energy)
    margin = reference_energy - best_val
    return EllipticityVerdict(
        status=status, best_energy=best_val, reference_energy=reference_energy, margin=margin,
        normalized_margin=margin / side, error_estimate=err, budget_used=len(evaluated),
        best_family=families[best_fi].name, best_params=best_params, interface_length=side,
        cross_check=cross, diagnostics=diagnostics,
        competitor=competitor if keep_competitor else None)


@dataclass(frozen=True)
class RelaxationEstimate(Report):
    value: float
    density_value: float
    verdict: EllipticityVerdict


def relaxation_estimate(
    f: Density, i, j, nu, families=None, budget: int = 4000, seed: int = 0, **kw
) -> RelaxationEstimate:
    """Upper bound min(f(j,i,nu), best normalized competitor energy) for the
    relaxed density at the triple, i below the chord as in falsify; elliptic
    densities return f(j,i,nu)."""
    verdict = falsify(f, i, j, nu, families=families, budget=budget, seed=seed, **kw)
    nu_u = unit(nu)
    fval = float(f(np.asarray(j, float), np.asarray(i, float), nu_u))
    best_norm = verdict.best_energy / verdict.interface_length
    return RelaxationEstimate(min(fval, best_norm), fval, verdict)


@dataclass(frozen=True)
class NecessaryReport(Report):
    symmetry_violation: float
    subadditivity_violation: float
    convexity_violation: float
    passes_necessary: bool
    label: str
    verdict: EllipticityVerdict | None = None


def bv_necessary_report(
    f: Density,
    samples: int = 10_000,
    seed: int = 0,
    triple=None,
    budget: int = 0,
    extra_subadditivity=(),
) -> NecessaryReport:
    """Bundle the sampled necessary checks, drawn once; it passes when all
    three violations are at most NECESSARY_TOL.  Optionally attach a
    falsification verdict at a triple to expose the necessary-pass/falsified separation."""
    sym, sub, conv = sampled_violations(f, samples, seed, extra_subadditivity)
    passes = all(v <= NECESSARY_TOL for v in (sym, sub, conv))
    verdict = None
    label = "necessary-pass" if passes else "necessary-fail"
    if triple is not None and budget > 0:
        ti, tj, tnu = triple
        verdict = falsify(f, ti, tj, tnu, budget=budget, seed=seed, keep_competitor=False)
        if passes and verdict.status == "VIOLATION":
            label = "BV-type-necessary-pass / BD-falsified"
        elif passes:
            label = "necessary-pass / no violation found"
    return NecessaryReport(sym, sub, conv, passes, label, verdict)
