"""Surface energies along jump sets, and the identities that certify them.

Energy, flux and the integration-by-parts jump term are all integrals over
the jump set and share one kernel, `integrate_jump_arrays`: adaptive
Gauss-Legendre with breakpoints at the roots of the affine jump components
(where norms and truncations kink), refined breadth first so that each
level of the refinement is one integrand call over every live interval;
constant traces short-circuit to closed form.  Volume integrals use tensor
Gauss rules on a triangulation, refined triangle by triangle (`_refine`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .fields import ConservativeField
from .functions import JumpArrays, PiecewiseAffine, compact_deviation
from .geometry import Polygon, clip_polygon, clip_segment_params, triangulate
from .report import Report


class EnergyError(ValueError):
    """Invalid energy computation input."""


@dataclass(frozen=True)
class QuadratureResult(Report):
    """A quadrature value with its error estimate; `unconverged` counts the
    parts accepted only because they reached a cap: the depth cap, or for
    line quadrature the width cap of a refinement level."""

    value: float
    error_estimate: float
    segments_evaluated: int
    unconverged: int = 0

    def __post_init__(self):
        if self.error_estimate < 0:
            raise EnergyError("error estimate must be nonnegative")


@lru_cache(maxsize=16)
def _leggauss(order: int):
    return np.polynomial.legendre.leggauss(order)


# an error estimate within a few ulps of the value is rounding, not truncation
_ROUNDING_FLOOR = 8 * np.finfo(float).eps
_LINE_DEPTH = 48
_VOLUME_DEPTH = 10
# live intervals of one refinement level; wider refinement is chasing
# rounding noise near a singular point and would double every level
_LINE_WIDTH = 4096


def _accepted(coarse, fine, share, depth: int, max_depth: int):
    """(error, accepted, unconverged) of parts whose rule gave `coarse` and
    whose two or more children sum to `fine`: a part is accepted when its
    error is within its share of the tolerance or within the rounding floor
    of its own value, and unconverged when only the cap (depth >= max_depth)
    accepts it."""
    e = np.abs(coarse - fine)
    # a NaN error fails both tests, so it is refined down to max_depth
    ok = (e <= share) | (e <= _ROUNDING_FLOOR * np.abs(fine))
    return e, ok | (depth >= max_depth), ~ok & (depth >= max_depth)


def _refine(rule, split, parts, tol, max_depth, depth=0):
    """Refine-until-agree quadrature over triangles: (value, error estimate,
    unconverged parts) summed over parts.

    Each part gets the share tol / len(parts).  Its estimate is the sum of
    `rule` over `split(part)`, and its error the distance to `rule(part)`;
    see `_accepted` for when a part is refined again.
    """
    share = tol / len(parts)
    total, err, unconverged = 0.0, 0.0, 0
    for part in parts:
        coarse = rule(part)
        children = split(part)
        fine = sum(rule(c) for c in children)
        e, ok, capped = _accepted(coarse, fine, share, depth, max_depth)
        unconverged += int(capped)
        if not ok:
            fine, e, n = _refine(rule, split, children, share, max_depth, depth + 1)
            unconverged += n
        total += fine
        err += float(e)
    return total, err, unconverged


def _finite(vals):
    if not np.all(np.isfinite(vals)):
        raise EnergyError("integrand returned a non-finite value")
    return vals


def _cuts(jumps: JumpArrays, rows, kinks):
    """(lo, hi, intervals): the intervals between consecutive breakpoints of
    the given rows, row after row, and their number per row.  A row's
    breakpoints are t0, the kink candidates inside (t0, t1) in increasing
    order and each once, and t1.  The candidates are the roots of the affine
    jump components, plus the points `kinks(value0, slope)` reports along
    either trace."""
    dv = jumps.plus_value0[rows] - jumps.minus_value0[rows]
    ds = jumps.plus_slope[rows] - jumps.minus_slope[rows]
    pts = np.divide(-dv, ds, out=np.full(ds.shape, np.nan), where=ds != 0)
    if kinks is not None:
        extra = [
            [float(x) for v0, sl in ((jumps.plus_value0[n], jumps.plus_slope[n]),
                                     (jumps.minus_value0[n], jumps.minus_slope[n]))
             for x in kinks(v0, sl)]
            for n in rows.tolist()
        ]
        pad = np.full((rows.size, max(map(len, extra), default=0)), np.nan)
        for k, e in enumerate(extra):
            pad[k, :len(e)] = e
        pts = np.concatenate([pts, pad], axis=1)
    t0, t1 = jumps.t0[rows, None], jumps.t1[rows, None]
    pts = np.where((t0 < pts) & (pts < t1), pts, np.inf)
    pts.sort(axis=1)
    # a candidate found twice counts once
    pts[:, 1:][pts[:, 1:] == pts[:, :-1]] = np.inf
    cuts = np.concatenate([t0, pts, t1], axis=1)
    kept = np.isfinite(cuts)
    # boolean indexing reads row after row: every breakpoint but t1 starts
    # an interval, every one but t0 ends one
    lo, hi = cuts[:, :-1][kept[:, :-1]], cuts[:, 1:][kept[:, 1:]]
    return lo, hi, np.count_nonzero(kept, axis=1) - 1


def integrate_jump_arrays(
    jumps: JumpArrays, integrand, tol: float, order: int, kinks=None, weight=None
) -> QuadratureResult:
    """Integral of integrand(trace+, trace-, normal) * weight(x) over the
    pieces of a jump set: `integrate_jump_sets` with every row in one set."""
    owner = np.zeros(len(jumps), dtype=int)
    return integrate_jump_sets(jumps, owner, 1, integrand, tol, order, kinks, weight)[0]


def integrate_jump_sets(
    jumps: JumpArrays, owner, count: int, integrand, tol: float, order: int,
    kinks=None, weight=None,
) -> list[QuadratureResult]:
    """Integrals of integrand(trace+, trace-, normal) * weight(x) over
    `count` jump sets at once: row k of `jumps` is a piece of set owner[k],
    and the result of each set is what it gives alone, bit for bit.

    The integrand is a density or a field pairing, called on (n, d) arrays;
    `kinks(value0, slope)` adds breakpoints along each trace (a field's
    `trace_kinks`).  Without a weight, constant traces give the closed form
    length * integrand with zero error.  A set's tolerance is split among
    its pieces in proportion to their length, then evenly among a piece's
    intervals between breakpoints, and halved with each halving of an
    interval.  An interval is halved until its coarse and halved Gauss rules
    agree within its share or the rounding floor, down to depth 48; a level
    that would refine more than 4096 intervals of one set is accepted as it
    stands instead.  Parts accepted by either cap count as `unconverged`.
    Each level is one integrand call over the coarse rule and both halves of
    every live interval of every set.  A non-finite integrand value raises
    EnergyError.
    """
    owner = np.asarray(owner, dtype=int)
    lengths = jumps.t1 - jumps.t0
    # each set's length, summed in row order
    total_len = np.zeros(count)
    np.add.at(total_len, owner, lengths)
    live = total_len[owner] != 0.0
    results = [QuadratureResult(0.0, 0.0, 0)] * count
    if not live.any():
        return results
    closed = np.zeros(lengths.size, dtype=bool)
    if weight is None:
        closed = ~(jumps.plus_slope.any(axis=1) | jumps.minus_slope.any(axis=1))
    const_rows = np.flatnonzero(live & closed)
    quad_rows = np.flatnonzero(live & ~closed)
    seg_tol = tol * lengths[quad_rows] / total_len[owner[quad_rows]]
    lo, hi, intervals = _cuts(jumps, quad_rows, kinks)
    seg = top_seg = np.repeat(quad_rows, intervals)
    share = np.repeat(seg_tol, intervals) / np.repeat(intervals, intervals)
    # what the rules read per row: value0 and slope of either trace, normal,
    # and for a weight the start point and direction
    columns = [jumps.plus_value0, jumps.plus_slope, jumps.minus_value0, jumps.minus_slope,
               jumps.normal] + ([] if weight is None else [jumps.a, jumps.direction])
    table = np.concatenate(columns, axis=1)
    d = jumps.plus_value0.shape[1]
    x, w = _leggauss(order)
    w = w[:, None]
    levels = []  # per depth: (fine, error, accepted)
    unconverged = np.zeros(count, dtype=int)
    const_vals = None
    for depth in range(_LINE_DEPTH + 1):
        # the coarse rule and both halves of each interval: (3, n) bounds
        mid = 0.5 * (lo + hi)
        t0 = np.stack([lo, lo, mid])
        t1 = np.stack([hi, mid, hi])
        centre, half = 0.5 * (t0 + t1), 0.5 * (t1 - t0)
        t = centre[..., None] + half[..., None] * x
        # the table's columns, each broadcast along the nodes of its rows
        g = table[seg].T[:, None, :, None]
        # the rows of constant traces take their closed form from level 0
        rows = const_rows if depth == 0 else const_rows[:0]

        def points(value0, slope, width, tail):
            """value0 + t * slope at every node, column by column, then the
            given rows of `tail`: (nodes + rows, width)."""
            out = np.empty((t.size + rows.size, width))
            nodes = out[:t.size].reshape(t.shape + (width,))
            for k in range(width):
                np.add(g[value0 + k], t * g[slope + k], out=nodes[..., k])
            out[t.size:] = tail[rows]
            return out

        i = points(0, d, d, jumps.plus_value0)
        j = points(2 * d, 3 * d, d, jumps.minus_value0)
        nu = np.empty((t.size + rows.size, 2))
        nu[:t.size].reshape(3, -1, 2)[:] = np.repeat(table[seg, 4 * d:4 * d + 2], order, axis=0)
        nu[t.size:] = jumps.normal[rows]
        vals = np.asarray(integrand(i, j, nu), dtype=float)
        if rows.size:
            const_vals = _finite(vals[t.size:])
        vals = vals[:t.size].reshape(t.shape)
        if weight is not None:
            pts = points(4 * d + 2, 4 * d + 4, 2, jumps.a)
            vals = vals * np.asarray(weight(pts), dtype=float).reshape(vals.shape)
        _finite(vals)
        # w @ vals, interval by interval: a stacked matmul keeps the rounding
        # of the per-interval dot product
        r = half * (vals[..., None, :] @ w)[..., 0, 0]
        # 0.0 + ... as sum() adds the halves
        fine = (0.0 + r[1]) + r[2]
        e, ok, capped = _accepted(r[0], fine, share, depth, _LINE_DEPTH)
        # the width cap, set by set: a set refining too wide stops here
        wide = 2 * np.bincount(owner[seg[~ok]], minlength=count) > _LINE_WIDTH
        if wide.any():
            at_cap = np.where(wide[owner[seg]], _LINE_DEPTH, depth)
            e, ok, capped = _accepted(r[0], fine, share, at_cap, _LINE_DEPTH)
        unconverged += np.bincount(owner[seg[capped]], minlength=count)
        levels.append((fine, e, ok))
        if ok.all():
            break
        ref = ~ok
        lo = np.stack([lo[ref], mid[ref]], axis=1).ravel()
        hi = np.stack([mid[ref], hi[ref]], axis=1).ravel()
        share = np.repeat(share[ref] / 2, 2)
        seg = np.repeat(seg[ref], 2)
    val, err = _fold_levels(levels)
    # per row, then per set, adding in row order as the recursion does
    row_val = np.zeros(lengths.size)
    row_err = np.zeros(lengths.size)
    np.add.at(row_val, top_seg, val)
    np.add.at(row_err, top_seg, err)
    if const_vals is not None:
        row_val[const_rows] = lengths[const_rows] * const_vals
    value = np.zeros(count)
    error = np.zeros(count)
    np.add.at(value, owner[live], row_val[live])
    np.add.at(error, owner[live], row_err[live])
    rows = np.bincount(owner, minlength=count)
    for n in np.flatnonzero(total_len != 0.0).tolist():
        results[n] = QuadratureResult(float(value[n]), float(error[n]), int(rows[n]),
                                      int(unconverged[n]))
    return results


def _fold_levels(levels):
    """(values, errors) of the top-level intervals from per-level (fine,
    error, accepted): bottom up, a refined interval gets 0.0 + child0 +
    child1, in the order the depth-first recursion adds them."""
    val = err = None
    for fine, e, ok in reversed(levels):
        fine, e = fine.copy(), e.copy()
        if val is not None:
            fine[~ok] = (0.0 + val[0::2]) + val[1::2]
            e[~ok] = (0.0 + err[0::2]) + err[1::2]
        val, err = fine, e
    return val, err


def jump_pieces(u: PiecewiseAffine, region: Polygon | None, include_boundary: bool) -> JumpArrays:
    """The pieces of the jump set of u inside the region."""
    jumps = u.jump_segments()
    if region is None:
        return jumps
    rows, t0, t1 = [], [], []
    for k, (a, b, L) in enumerate(zip(jumps.a, jumps.b, jumps.t1.tolist())):
        for f0, f1, on_b in clip_segment_params(a, b, region):
            if on_b and not include_boundary:
                continue
            rows.append(k)
            t0.append(f0 * L)
            t1.append(f1 * L)
    return jumps.take(rows, t0, t1)


def surface_energy(
    u: PiecewiseAffine,
    f,
    region: Polygon | None = None,
    tol: float = 1e-10,
    order: int = 15,
    include_boundary: bool = True,
) -> QuadratureResult:
    """Integral of f(trace+, trace-, normal) over the jump set clipped to region.

    Constant traces give the closed form length * f(i, j, nu) with zero error.
    `include_boundary=False` drops jump pieces lying along the region boundary
    (used for open-region bookkeeping, e.g. per-tile energies).
    """
    return integrate_jump_arrays(jump_pieces(u, region, include_boundary), f, tol, order)


def jump_flux(
    u: PiecewiseAffine,
    g: ConservativeField,
    region: Polygon | None = None,
    tol: float = 1e-10,
    order: int = 15,
) -> QuadratureResult:
    """Signed integral of <g(trace+) - g(trace-), normal> over the jump set."""
    jumps = jump_pieces(u, region, include_boundary=True)
    return integrate_jump_arrays(jumps, g.pairing, tol, order, kinks=g.trace_kinks)


def divergence_identity_residual(
    v: PiecewiseAffine,
    u_ref: PiecewiseAffine,
    g: ConservativeField,
    region: Polygon | None = None,
    tol: float = 1e-10,
    margin: float | None = None,
) -> float:
    """|flux(v) - flux(u_ref)| over the shared square.

    For piecewise rigid v deviating compactly from u_ref both fluxes equal the
    trace of the distributional derivative of g composed with the function, so
    the residual is pure quadrature error.
    """
    if margin is None:
        margin = 1e-6 * v.partition.domain.diameter
    if not compact_deviation(v, u_ref, margin):
        raise EnergyError("deviation is not compactly contained in the domain")
    a = jump_flux(v, g, region, tol)
    b = jump_flux(u_ref, g, region, tol)
    return abs(a.value - b.value)


def symmetric_jump_measure(u: PiecewiseAffine, region: Polygon | None = None) -> np.ndarray:
    """Matrix integral of jump (.) normal over the jump set (midpoint-exact)."""
    out = np.zeros((2, 2))
    j = jump_pieces(u, region, include_boundary=True)
    for k, (t0, t1) in enumerate(zip(j.t0.tolist(), j.t1.tolist())):
        t = 0.5 * (t0 + t1)
        jm = (j.plus_value0[k] + t * j.plus_slope[k]) - (j.minus_value0[k] + t * j.minus_slope[k])
        out += (t1 - t0) * 0.5 * (np.outer(jm, j.normal[k]) + np.outer(j.normal[k], jm))
    return out


# ---------------------------------------------------------------------------
# volume quadrature


@lru_cache(maxsize=16)
def _duffy_rule(order: int):
    """Tensor Gauss rule collapsed onto the reference triangle (0,0),(1,0),(0,1)."""
    x, w = _leggauss(order)
    x01 = 0.5 * (x + 1.0)
    w01 = 0.5 * w
    U, V = np.meshgrid(x01, x01, indexing="ij")
    W = np.outer(w01, w01) * (1.0 - U)
    pts = np.stack([U.ravel(), (V * (1.0 - U)).ravel()], axis=1)
    return pts, W.ravel()


def _tri_gauss(fn, tri: np.ndarray, order: int) -> float:
    pts, wts = _duffy_rule(order)
    a, b, c = tri
    phys = a + pts[:, :1] * (b - a) + pts[:, 1:] * (c - a)
    jac = abs((b - a)[0] * (c - a)[1] - (b - a)[1] * (c - a)[0])
    return jac * float(wts @ fn(phys))


def _split_triangle(tri: np.ndarray):
    a, b, c = tri
    ab, bc, ca = 0.5 * (a + b), 0.5 * (b + c), 0.5 * (c + a)
    return (
        np.array([a, ab, ca]),
        np.array([ab, b, bc]),
        np.array([ca, bc, c]),
        np.array([ab, bc, ca]),
    )


def integrate_polygon(fn, poly: Polygon, tol: float = 1e-9, order: int = 8):
    """Adaptive volume integral of fn over a polygon; fn maps (n,2) -> (n,).
    `segments_evaluated` counts the triangles of its triangulation.

    A non-finite integrand value raises EnergyError.
    """
    tris = triangulate(poly)
    value, err, unconverged = _refine(
        lambda tri: _finite(_tri_gauss(fn, tri, order)), _split_triangle,
        tris, tol, max_depth=_VOLUME_DEPTH,
    )
    return QuadratureResult(value, err, len(tris), unconverged)


@dataclass(frozen=True)
class TestFunction:
    """C^1 bump vanishing on the boundary of its polygon."""

    phi: Callable
    grad: Callable
    polygon: Polygon


def bump_from_polygon(poly: Polygon, power: int = 2) -> TestFunction:
    """Polynomial bump: normalized product of edge line functions to a power.

    phi = prod_e ell_e(x)^power with ell_e the inward signed edge offsets;
    requires a convex polygon so that phi > 0 inside and = 0 on the boundary.
    """
    if power < 2:
        raise EnergyError("power >= 2 keeps the bump C^1")
    verts = poly.vertices
    n = verts.shape[0]
    normals = []
    offsets = []
    for k in range(n):
        p, q = verts[k], verts[(k + 1) % n]
        d = q - p
        nin = np.array([-d[1], d[0]]) / np.linalg.norm(d)  # inward for ccw
        normals.append(nin)
        offsets.append(float(nin @ p))
    N = np.array(normals)
    b = np.array(offsets)
    center = poly.centroid
    ells_c = N @ center - b
    if np.any(ells_c <= 0):
        raise EnergyError("bump construction needs a convex polygon")
    norm_const = float(np.prod(ells_c**power))

    def ells(x):
        return x @ N.T - b  # (n_pts, n_edges)

    def phi(x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.prod(ells(x) ** power, axis=1) / norm_const

    def grad(x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        L = ells(x)
        P = L**power
        out = np.zeros_like(x)
        for e in range(n):
            rest = np.prod(np.delete(P, e, axis=1), axis=1)
            out += (power * L[:, e] ** (power - 1) * rest)[:, None] * N[e]
        return out / norm_const

    return TestFunction(phi, grad, poly)


def integration_by_parts_residual(
    u: PiecewiseAffine,
    G: ConservativeField,
    phi: TestFunction,
    region: Polygon | None = None,
    tol: float = 1e-9,
    volume_order: int = 8,
    line_order: int = 15,
) -> float:
    """Residual of the three-term identity

        int_{J_u} <G(u+) - G(u-), nu> phi dH
      + int (grad G(u) : e(u)) phi dx
      + int <G(u), grad phi> dx  =  0

    for a conservative field G with an analytic Jacobian and a bump phi
    vanishing on the boundary of the region, which must lie inside u's
    (convex) domain.  The residual is pure quadrature error.
    """
    if G.jacobian is None:
        raise EnergyError("integration by parts needs a field with a Jacobian")
    domain = u.partition.domain
    region = region if region is not None else domain
    if any(domain.contains(p) < 0 for p in region.vertices):
        raise EnergyError("the region must lie inside the function's domain")
    for p in region.vertices:
        if abs(float(phi.phi(p)[0])) > 1e-12:
            raise EnergyError("test function must vanish on the region boundary")

    jump_term = integrate_jump_arrays(
        jump_pieces(u, region, include_boundary=True),
        G.pairing, tol, line_order, kinks=G.trace_kinks, weight=phi.phi,
    ).value

    # volume terms, cell by cell (clipped to a convex region if given)
    vol_sym = 0.0
    vol_grad = 0.0
    for cell, piece in zip(u.partition.cells, u.pieces):
        sub = clip_polygon(cell, region)
        if sub is None:
            continue
        E = 0.5 * (piece.A + piece.A.T)

        def f_grad(x):
            vals = G(piece(x))
            return np.einsum("nk,nk->n", vals, phi.grad(x))

        vol_grad += integrate_polygon(f_grad, sub, tol=tol, order=volume_order).value
        if np.any(E):

            def f_sym(x):
                J = G.jacobian(piece(x))
                return np.einsum("nij,ij->n", J, E) * phi.phi(x)

            vol_sym += integrate_polygon(f_sym, sub, tol=tol, order=volume_order).value

    return abs(jump_term + vol_sym + vol_grad)

