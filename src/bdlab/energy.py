"""Surface energies along jump sets, and the identities that certify them.

Energy, flux and the integration-by-parts jump term are all integrals over
the jump set and share one kernel with two entries: `jump_set_integrals`,
the array core, integrates many jump sets at once and returns each result
field as an array; `integrate_jump_arrays` integrates one set and returns a
`QuadratureResult`.  The kernel is adaptive Gauss-Legendre with
breakpoints at the roots of the affine jump components (where norms and
truncations kink), refined breadth first so that each level of the
refinement is one integrand call over every live interval; constant traces
short-circuit to closed form.  A density with a quadratic form descriptor,
f = sqrt((i - j)^T Q(nu) (i - j)) (`isotropic:id`, `product:aniso1`,
`aniso2`, `frobenius`, `dalmot:abs`), has an elementary integral on every
jump piece, which the kernel evaluates in closed form, with no density
call, when there is no weight and no kinks.  The jump flux of a field with
an `interval_mean` (an axis field whose profiles all have a
`ScalarProfile.mean`) is closed form as well: between the kernel's own
breakpoints the field's mean along each trace is exact, so `jump_flux`
integrates with `_mean_flux`, with zero error and its `tol` unused.
Volume integrals use tensor Gauss rules on a triangulation, refined breadth
first in the same way: each level is one integrand call over the children
of every live triangle.  Everything integrates over the whole domain:
integration by parts takes the jump set and the cells as they are.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .densities import Density
from .fields import ConservativeField
from .functions import JumpArrays, PiecewiseAffine, compact_deviation
from .geometry import Polygon, row_norms, triangulate
from .report import Report


class EnergyError(ValueError):
    """Invalid energy computation input."""


@dataclass(frozen=True)
class QuadratureResult(Report):
    """A quadrature value with its error estimate; `unconverged` counts the
    parts accepted only because they reached a cap: the depth cap or the
    width cap of a refinement level."""

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
# integrand points of one volume refinement level; a level that would
# evaluate more chases an integrand the rule cannot resolve (a field that
# oscillates faster than the triangles shrink) and would quadruple every level
_VOLUME_WIDTH = 2**18
# live intervals of one refinement level; wider refinement is chasing
# rounding noise near a singular point and would double every level
_LINE_WIDTH = 4096
# the Gauss order of jump_flux
_FLUX_ORDER = 15


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
    either trace, both (n, K) arrays with NaN for no candidate."""
    dv = jumps.plus_value0[rows] - jumps.minus_value0[rows]
    ds = jumps.plus_slope[rows] - jumps.minus_slope[rows]
    pts = np.divide(-dv, ds, out=np.full(ds.shape, np.nan), where=ds != 0)
    if kinks is not None:
        pts = np.concatenate([pts, kinks(jumps.plus_value0[rows], jumps.plus_slope[rows]),
                              kinks(jumps.minus_value0[rows], jumps.minus_slope[rows])], axis=1)
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
    pieces of a jump set: `jump_set_integrals` with every row in one set."""
    owner = np.zeros(len(jumps), dtype=int)
    arrays = jump_set_integrals(jumps, owner, 1, integrand, tol, order, kinks, weight)
    return QuadratureResult(*(x.tolist()[0] for x in arrays))


def jump_set_integrals(
    jumps: JumpArrays, owner, count: int, integrand, tol: float, order: int,
    kinks=None, weight=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Integrals of integrand(trace+, trace-, normal) * weight(x) over
    `count` jump sets at once: row k of `jumps` is a piece of set owner[k],
    and the result of each set is what it gives alone, bit for bit.  Returns
    (value, error, pieces, unconverged), arrays of `count` entries, all 0 for
    a set of zero length: a QuadratureResult's fields, set by set.

    The integrand is a density or a field pairing, called on (n, d) arrays;
    `kinks(value0, slope)` (a field's `trace_kinks`) adds breakpoints along
    the traces: called once per trace side on the (n, d) rows of every
    adaptive piece, it returns (n, K) parameters, NaN for none.  Without a
    weight, constant traces give the closed form length * integrand with
    zero error.  A set's tolerance is split among its pieces in proportion
    to their length, then evenly among a piece's intervals between
    breakpoints, and halved with each halving of an interval.  An interval
    is halved until its coarse and halved Gauss rules agree within its share
    or the rounding floor, down to depth 48; a level that would refine more
    than 4096 intervals of one set is accepted as it stands instead.  Parts
    accepted by either cap count as `unconverged`.  Each level is one
    integrand call over the coarse rule and both halves of every live
    interval of every set.  A non-finite integrand value raises EnergyError.

    A Density with a `quadratic_form` and no weight or kinks skips all of
    that: every row is integrated in closed form (`_root_quadratic`), with
    zero error and no call of the density.
    """
    owner = np.asarray(owner, dtype=int)
    lengths = jumps.t1 - jumps.t0
    # each set's length, summed in row order
    total_len = np.zeros(count)
    np.add.at(total_len, owner, lengths)
    nonzero = total_len != 0.0
    live = nonzero[owner]
    value, error, unconverged = np.zeros(count), np.zeros(count), np.zeros(count, dtype=int)
    pieces = np.where(nonzero, np.bincount(owner, minlength=count), 0)
    if not live.any():
        return value, error, pieces, unconverged
    form = integrand.quadratic_form if isinstance(integrand, Density) else None
    if form is not None and weight is None and kinks is None:
        # np.bincount adds in row order, as a set alone does
        value = np.bincount(owner, weights=_root_quadratic(jumps, form), minlength=count)
        return np.where(nonzero, value, 0.0), error, pieces, unconverged
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
    np.add.at(value, owner[live], row_val[live])
    np.add.at(error, owner[live], row_err[live])
    return value, error, pieces, unconverged


def _root_quadratic(jumps: JumpArrays, form) -> np.ndarray:
    """The integral of sqrt(d^T Q d) over each row, Q = form(normal) and
    d = a + t b the affine jump in arclength t.

    With q(t) = A t^2 + 2 B t + C, t* = -B / A and h^2 = det(Q) (a x b)^2 / A^2
    (not (AC - B^2) / A^2, which cancels), q = A (s^2 + h^2) in s = t - t*,
    and the integral is sqrt(A) times that of sqrt(s^2 + h^2) over
    [t0 - t*, t1 - t*].  The interval is split at s = 0 and its negative
    part reflected, since the integrand is even; one `_same_sign` call
    integrates both parts, stacked.  A = 0 (a constant jump) gives length *
    sqrt(C).  The arithmetic runs element-wise on x and y columns, that of
    `form_pairing` for A, B and C, so a row's value does not depend on its
    batch and is that of the (n, 2) rows bit for bit.
    """
    a0, a1 = (jumps.plus_value0 - jumps.minus_value0).T
    b0, b1 = (jumps.plus_slope - jumps.minus_slope).T
    Q = np.asarray(form(jumps.normal), dtype=float)
    q00, q01, q11 = Q[:, 0, 0], Q[:, 0, 1], Q[:, 1, 1]

    def pairing(x0, x1, y0, y1):
        return q00 * (x0 * y0) + q01 * (x0 * y1 + x1 * y0) + q11 * (x1 * y1)

    A, B, C = pairing(b0, b1, b0, b1), pairing(a0, a1, b0, b1), pairing(a0, a1, a0, a1)
    L = jumps.t1 - jumps.t0
    sloped = A > 0
    t_root = np.divide(-B, A, out=np.zeros_like(A), where=sloped)
    h = np.divide(a0 * b1 - a1 * b0, A, out=np.zeros_like(A), where=sloped)
    h2 = (q00 * q11 - q01 * q01) * (h * h)
    # the parts of [s0, s1] in s >= 0 and, reflected, in s <= 0, stacked:
    # [lo, hi] is [s0, s1] then [-s1, -s0], and a part's length is L where
    # it is the whole interval
    s0, s1 = jumps.t0 - t_root, jumps.t1 - t_root
    lo, hi = np.concatenate([s0, -s1]), np.concatenate([s1, -s0])
    u0, u1 = np.maximum(lo, 0.0), np.maximum(hi, 0.0)
    parts = _same_sign(u0, u1, np.where(lo >= 0.0, np.concatenate([L, L]), u1),
                       np.concatenate([h2, h2]))
    n = len(L)
    return _finite(np.where(sloped, np.sqrt(A) * (parts[:n] + parts[n:]), L * np.sqrt(C)))


def _same_sign(u0, u1, L, h2):
    """The integral of sqrt(u^2 + h^2) over [u0, u1], 0 <= u0 <= u1 and
    L = u1 - u0: (F(u1) - F(u0)) with F(u) = (u r + h^2 asinh(u / h)) / 2,
    r = sqrt(u^2 + h^2), in the rearranged forms
        u1 r1 - u0 r0 = L (u1 + u0) (u1^2 + u0^2 + h^2) / (u1 r1 + u0 r0),
        asinh(u1/h) - asinh(u0/h) = log1p((L + L (u1 + u0) / (r1 + r0)) / (u0 + r0)),
    which add positive terms only and keep full precision on short
    intervals far from u = 0.  h = 0 gives F(u) = u^2 / 2."""
    r0, r1 = np.sqrt(u0 * u0 + h2), np.sqrt(u1 * u1 + h2)
    den = u1 * r1 + u0 * r0  # 0 only where u0 = u1 = 0
    prod = np.divide(L * (u1 + u0) * (u1 * u1 + u0 * u0 + h2), den,
                     out=np.zeros_like(den), where=den > 0.0)
    curved = h2 > 0.0
    grow = np.divide(L * (u1 + u0), r1 + r0, out=np.zeros_like(den), where=curved)
    ratio = np.divide(L + grow, u0 + r0, out=np.zeros_like(den), where=curved)
    return 0.5 * (prod + h2 * np.log1p(ratio))


def _fold_levels(levels, children: int = 2):
    """(values, errors) of the top-level parts from per-level (fine, error,
    accepted): bottom up, a refined part gets the `_sum_children` of its
    children on the next level, as a depth-first recursion adds them."""
    val = err = None
    for fine, e, ok in reversed(levels):
        fine, e = fine.copy(), e.copy()
        if val is not None:
            fine[~ok] = _sum_children(val, children)
            e[~ok] = _sum_children(err, children)
        val, err = fine, e
    return val, err


def _sum_children(x, children: int):
    """0.0 + x[0] + x[1] + ... over each run of `children` entries."""
    out = 0.0
    for c in range(children):
        out = out + x[c::children]
    return out


def surface_energy(
    u: PiecewiseAffine,
    f,
    *,
    tol: float = 1e-10,
    order: int = 15,
) -> QuadratureResult:
    """Integral of f(trace+, trace-, normal) over the jump set.

    Constant traces give the closed form length * f(i, j, nu) with zero error.
    """
    return integrate_jump_arrays(u.jump_segments(), f, tol, order)


def jump_flux(
    u: PiecewiseAffine,
    g: ConservativeField,
    *,
    tol: float = 1e-10,
) -> QuadratureResult:
    """Signed integral of <g(trace+) - g(trace-), normal> over the jump set.

    A field with an `interval_mean` (every field built by `fields._axis_field`
    whose active profiles all have a `mean`: those of eta, tau, abs, sin and
    zero profiles, so every catalog, gbmc, dalmot, biconvex, normal-only,
    prototype and zero field) is integrated in closed form by `_mean_flux`,
    with zero error and `tol` unused.  Any other field goes through the
    adaptive kernel at Gauss order _FLUX_ORDER and tolerance `tol`.
    """
    jumps = u.jump_segments()
    if g.interval_mean is not None:
        return _mean_flux(jumps, g)
    return integrate_jump_arrays(jumps, g.pairing, tol, _FLUX_ORDER, kinks=g.trace_kinks)


def _mean_flux(jumps: JumpArrays, g: ConservativeField) -> QuadratureResult:
    """The flux of g over a jump set from its `interval_mean`: between
    consecutive breakpoints of `_cuts` (the jump roots and the field's
    `trace_kinks`), the integral of <g(trace+) - g(trace-), normal> is the
    interval's length times <mean+ - mean-, normal>, exact.  Both traces'
    means are one call; the intervals are added in row order.  The result
    has zero error and counts the kernel's pieces; a non-finite value
    raises EnergyError."""
    if not (jumps.t1 > jumps.t0).any():
        return QuadratureResult(0.0, 0.0, 0, 0)
    lo, hi, intervals = _cuts(jumps, slice(None), g.trace_kinks)
    seg = np.repeat(np.arange(len(jumps)), intervals)
    # the plus traces' intervals, then the minus traces'
    mean = g.interval_mean(
        np.concatenate([jumps.plus_value0[seg], jumps.minus_value0[seg]]),
        np.concatenate([jumps.plus_slope[seg], jumps.minus_slope[seg]]),
        np.concatenate([lo, lo]), np.concatenate([hi, hi]))
    n = len(lo)
    vals = _finite((hi - lo) * np.einsum("nk,nk->n", mean[:n] - mean[n:], jumps.normal[seg]))
    # onto 0.0 interval after interval, as the kernel adds a set
    value = np.bincount(np.zeros(n, dtype=int), weights=vals)[0]
    return QuadratureResult(float(value), 0.0, len(jumps), 0)


def divergence_identity_residual(
    v: PiecewiseAffine,
    u_ref: PiecewiseAffine,
    g: ConservativeField,
    *,
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
    a = jump_flux(v, g, tol=tol)
    b = jump_flux(u_ref, g, tol=tol)
    return abs(a.value - b.value)


def symmetric_jump_measure(u: PiecewiseAffine) -> np.ndarray:
    """Matrix integral of jump (.) normal over the jump set (midpoint-exact)."""
    j = u.jump_segments()
    t = 0.5 * (j.t0 + j.t1)[:, None]
    jm = (j.plus_value0 + t * j.plus_slope) - (j.minus_value0 + t * j.minus_slope)
    terms = (j.t1 - j.t0)[:, None, None] * 0.5 * (
        jm[:, :, None] * j.normal[:, None, :] + j.normal[:, :, None] * jm[:, None, :])
    # row after row onto 0.0, as `out += term` adds them
    return np.add.reduce(terms, axis=0, initial=0.0)


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


def _tri_gauss(fn, tris: np.ndarray, order: int) -> np.ndarray:
    """The rule on each triangle of tris (k, 3, 2), in one call of fn."""
    pts, wts = _duffy_rule(order)
    # a + u (b - a) + v (c - a) at every node, one coordinate column at a time
    ab, ac = tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]
    phys = np.empty((len(tris), len(pts), 2))
    for k in range(2):
        phys[..., k] = tris[:, 0, k, None] + pts[:, 0] * ab[:, k, None] + pts[:, 1] * ac[:, k, None]
    jac = np.abs(ab[:, 0] * ac[:, 1] - ab[:, 1] * ac[:, 0])
    vals = np.asarray(fn(phys.reshape(-1, 2)), dtype=float).reshape(len(tris), 1, -1)
    # wts @ vals, triangle by triangle: a stacked matmul keeps the rounding
    # of the per-triangle dot product
    return _finite(jac * (vals @ wts[:, None])[:, 0, 0])


def _split_triangle(tris: np.ndarray) -> np.ndarray:
    """The four midpoint children of each triangle of tris (k, 3, 2): (k, 4, 3, 2)."""
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    ab, bc, ca = 0.5 * (a + b), 0.5 * (b + c), 0.5 * (c + a)
    return np.stack([a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca], axis=1).reshape(-1, 4, 3, 2)


def integrate_polygon(fn, poly: Polygon, tol: float = 1e-9, order: int = 8):
    """Adaptive volume integral of fn over a polygon; fn maps (n,2) -> (n,).
    `segments_evaluated` counts the triangles of its triangulation.

    A triangle's share of tol is quartered with each split into its four
    midpoint children, down to depth 10 (see `_accepted`); each level is one
    call of fn.  A level whose rules would take more than 2**18 points is
    not evaluated: the triangles it would refine are accepted as they stand.
    Parts accepted by either cap count as `unconverged`.  A non-finite
    integrand value raises EnergyError.
    """
    parts = np.array(triangulate(poly))
    ntri = len(parts)
    share = np.full(ntri, tol / ntri)
    levels, unconverged = [], 0  # per depth: (fine, error, accepted)
    for depth in range(_VOLUME_DEPTH + 1):
        children = _split_triangle(parts)
        # the first call also takes the rule on the triangulation itself;
        # deeper triangles have theirs from their parents' children
        batch = children.reshape(-1, 3, 2)
        r = _tri_gauss(fn, np.concatenate([parts, batch]) if depth == 0 else batch, order)
        if depth == 0:
            coarse, r = r[:ntri], r[ntri:]
        fine = _sum_children(r, 4)
        r = r.reshape(-1, 4)
        e, ok, capped = _accepted(coarse, fine, share, depth, _VOLUME_DEPTH)
        # the width cap: the next level rules on 16 children of each refined
        # triangle, order**2 points each
        if 16 * np.count_nonzero(~ok) * order**2 > _VOLUME_WIDTH:
            e, ok, capped = _accepted(coarse, fine, share, _VOLUME_DEPTH, _VOLUME_DEPTH)
        unconverged += int(np.count_nonzero(capped))
        levels.append((fine, e, ok))
        if ok.all():
            break
        ref = ~ok
        parts = children[ref].reshape(-1, 3, 2)
        coarse = r[ref].ravel()
        share = np.repeat(share[ref] / 4, 4)
    # the triangles, in order, are the children of the polygon
    value, error = (float(_sum_children(x, ntri)[0]) for x in _fold_levels(levels, 4))
    return QuadratureResult(value, error, ntri, unconverged)


@dataclass(frozen=True)
class TestFunction:
    """C^1 bump vanishing on the boundary of its polygon: `phi(x)`, and
    `log_grad(x)`, the pair (phi, grad phi / phi) at (n, 2) points."""

    phi: Callable
    log_grad: Callable
    polygon: Polygon


def _edge_lines(poly: Polygon):
    """(N, b, d) of a counterclockwise polygon: its inward unit edge normals,
    the offsets that make N[e] @ x - b[e] the signed distance of x from the
    line of edge e, and the edge vectors."""
    verts = poly.vertices
    d = np.roll(verts, -1, axis=0) - verts
    N = np.stack([-d[:, 1], d[:, 0]], axis=1) / row_norms(d)[:, None]
    # each offset N[k] @ verts[k] as a dot product, as row_norms takes it
    return N, (N[:, None, :] @ verts[:, :, None])[:, 0, 0], d


def bump_from_polygon(poly: Polygon, power: int = 2) -> TestFunction:
    """Polynomial bump: normalized product of edge line functions to a power.

    phi = prod_e ell_e(x)^power with ell_e the inward signed edge offsets;
    requires a convex polygon so that phi > 0 inside and = 0 on the boundary
    (a vertex loop that turns right raises EnergyError; `Polygon` refuses
    one that winds more than once around).
    Its gradient is phi * power * sum_e N_e / ell_e with N_e the inward unit
    normals, so `log_grad` takes both from one set of offsets; where an
    offset is 0, phi and its gradient vanish and the quotient reads 0.
    """
    if power < 2:
        raise EnergyError("power >= 2 keeps the bump C^1")
    N, b, d = _edge_lines(poly)
    following = np.roll(d, -1, axis=0)
    turns = np.arctan2(d[:, 0] * following[:, 1] - d[:, 1] * following[:, 0],
                       (d * following).sum(axis=1))
    if np.any(turns < 0.0):
        raise EnergyError("bump construction needs a convex polygon")
    center = poly.centroid
    ells_c = N @ center - b
    if np.any(ells_c <= 0):
        raise EnergyError("bump construction needs a convex polygon")
    norm_const = float(np.prod(ells_c**power))

    def offsets(x):
        """(phi, L) at the (n, 2) points x, L the (n, edges) edge offsets."""
        L = np.atleast_2d(np.asarray(x, dtype=float)) @ N.T - b
        P = L**power
        # the columns' product, left to right as np.prod takes it
        prod = P[:, 0]
        for e in range(1, len(N)):
            prod = prod * P[:, e]
        return prod / norm_const, L

    def phi(x):
        return offsets(x)[0]

    def log_grad(x):
        weight, L = offsets(x)
        # sum_e N_e power / L_e, column by column; a zero offset gives inf or
        # NaN on a row where phi is 0
        v = np.empty((len(L), 2))
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = power / L
            for k in range(2):
                np.multiply(inv[:, 0], N[0, k], out=v[:, k])
                for e in range(1, len(N)):
                    v[:, k] += inv[:, e] * N[e, k]
        if not weight.all():
            v[weight == 0.0] = 0.0
        return weight, v

    return TestFunction(phi, log_grad, poly)


def integration_by_parts_residual(u: PiecewiseAffine, G: ConservativeField, phi: TestFunction,
                                  *, tol: float = 1e-9,
                                  volume_order: int = 8, line_order: int = 15) -> float:
    """Residual of the three-term identity

        int_{J_u} <G(u+) - G(u-), nu> phi dH
      + int (grad G(u) : e(u)) phi dx
      + int <G(u), grad phi> dx  =  0

    on u's (convex) domain, for a conservative field G with a strain term
    and a bump phi vanishing on the domain's boundary: every edge of the
    domain must lie on the line of an edge of the bump's polygon, to 1e-12
    times its diameter, where phi is zero (and EnergyError otherwise).  The
    jump set and the cells are integrated as they are, unclipped, so the
    cells must tile the domain: cells whose areas miss the domain's by more
    than 1e-9 of it raise EnergyError (an overlap that a gap of equal area
    hides is `validate_partition`'s to find).  The two volume terms are one
    integrand per cell, phi * G.strain(u, e(u), grad phi / phi).  The
    residual is pure quadrature error; a quadrature that leaves parts
    unconverged at a cap raises EnergyError.
    """
    if G.strain is None:
        raise EnergyError("integration by parts needs a field with a strain term")
    cells, domain = u.partition.cells, u.partition.domain
    if abs(sum(c.area for c in cells) - domain.area) > 1e-9 * domain.area:
        raise EnergyError("the cells must tile the domain")
    N, b, _ = _edge_lines(phi.polygon)
    on = np.abs(domain.vertices @ N.T - b) <= 1e-12 * phi.polygon.diameter
    # edge k runs from vertex k to vertex k + 1: both on one line
    if not (on & np.roll(on, -1, axis=0)).any(axis=1).all():
        raise EnergyError("test function must vanish on the domain boundary")

    jump_term = integrate_jump_arrays(
        u.jump_segments(), G.pairing, tol, line_order, kinks=G.trace_kinks, weight=phi.phi)
    unconverged = jump_term.unconverged

    # the volume terms, one integrand per cell
    volume = 0.0
    for k, (cell, piece) in enumerate(zip(cells, u.pieces)):
        E = u.symmetrized_gradient(k)

        def integrand(x):
            weight, v = phi.log_grad(x)
            return weight * G.strain(piece(x), E, v)

        res = integrate_polygon(integrand, cell, tol=tol, order=volume_order)
        volume += res.value
        unconverged += res.unconverged

    if unconverged:
        raise EnergyError(f"integration by parts left {unconverged} quadrature parts "
                          "unconverged at a cap")
    return abs(jump_term.value + volume)
