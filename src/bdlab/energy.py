"""Surface energies along jump sets, and the identities that certify them.

Energy, flux and the integration-by-parts jump term are all integrals over
the jump set and share one kernel, `integrate_jump_set`: adaptive
Gauss-Legendre with breakpoints at the roots of the affine jump components
(where norms and truncations kink); constant traces short-circuit to closed
form.  Volume integrals use tensor Gauss rules on a triangulation.  Line and
volume quadrature share one refine-until-agree driver, `_refine`: halved
intervals along the jump set, quartered triangles in the volume.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .fields import ConservativeField
from .functions import JumpSegment, PiecewiseAffine, compact_deviation
from .geometry import Polygon, clip_polygon, clip_segment_params, triangulate


class EnergyError(ValueError):
    """Invalid energy computation input."""


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    segments_evaluated: int

    def __post_init__(self):
        if self.error_estimate < 0:
            raise EnergyError("error estimate must be nonnegative")

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "error_estimate": self.error_estimate,
            "segments_evaluated": self.segments_evaluated,
        }


@lru_cache(maxsize=16)
def _leggauss(order: int):
    return np.polynomial.legendre.leggauss(order)


def _gauss_interval(fn, t0: float, t1: float, order: int) -> float:
    x, w = _leggauss(order)
    mid = 0.5 * (t0 + t1)
    half = 0.5 * (t1 - t0)
    return half * float(w @ fn(mid + half * x))


def _refine(rule, split, parts, tol, max_depth, depth=0):
    """Refine-until-agree quadrature: (value, error estimate) summed over parts.

    Each part gets the share tol / len(parts).  Its estimate is the sum of
    `rule` over `split(part)`, and its error the distance to `rule(part)`;
    a part whose error exceeds its share is refined again, until max_depth.
    """
    share = tol / len(parts)
    total, err = 0.0, 0.0
    for part in parts:
        coarse = rule(part)
        children = split(part)
        fine = sum(rule(c) for c in children)
        e = abs(coarse - fine)
        # negated, so that a NaN error is refined down to max_depth
        if not (e <= share or depth >= max_depth):
            fine, e = _refine(rule, split, children, share, max_depth, depth + 1)
        total += fine
        err += e
    return total, err


def _halve(interval):
    t0, t1 = interval
    mid = 0.5 * (t0 + t1)
    return (t0, mid), (mid, t1)


def _jump_breakpoints(seg: JumpSegment, t0: float, t1: float, kinks=None) -> list[float]:
    """Kink candidates in (t0, t1): roots of the affine jump components, plus
    the points `kinks(value0, slope)` reports along either trace."""
    dv = seg.plus_value0 - seg.minus_value0
    ds = seg.plus_slope - seg.minus_slope
    pts = []
    for k in range(dv.shape[0]):
        if ds[k] != 0.0:
            r = -dv[k] / ds[k]
            if t0 < r < t1:
                pts.append(float(r))
    if kinks is not None:
        for v0, sl in ((seg.plus_value0, seg.plus_slope), (seg.minus_value0, seg.minus_slope)):
            for r in kinks(v0, sl):
                if t0 < r < t1:
                    pts.append(float(r))
    return sorted(set(pts))


def _integrate_segment(seg: JumpSegment, integrand, t0, t1, tol, order, kinks=None):
    """Integrate integrand(t-array) over [t0, t1] with kink breakpoints."""
    cuts = [t0] + _jump_breakpoints(seg, t0, t1, kinks) + [t1]
    return _refine(
        lambda iv: _gauss_interval(integrand, *iv, order), _halve,
        list(zip(cuts[:-1], cuts[1:])), tol, max_depth=48,
    )


def jump_pieces(u: PiecewiseAffine, region: Polygon | None, include_boundary: bool):
    """(segment, t0, t1) pieces of the jump set inside the region."""
    segs = u.jump_segments()
    if region is None:
        return [(s, 0.0, s.length) for s in segs]
    pieces = []
    for s in segs:
        for f0, f1, on_b in clip_segment_params(s.a, s.b, region):
            if on_b and not include_boundary:
                continue
            pieces.append((s, f0 * s.length, f1 * s.length))
    return pieces


def _finite(vals):
    if not np.all(np.isfinite(vals)):
        raise EnergyError("jump integrand returned a non-finite value")
    return vals


def integrate_jump_set(
    pieces, integrand, tol: float, order: int, kinks=None, weight=None
) -> QuadratureResult:
    """Integral of integrand(trace+, trace-, normal) * weight(x) over the
    (segment, t0, t1) pieces of a jump set.

    The integrand is a density or a field pairing; `kinks(value0, slope)` adds
    breakpoints along each trace (a field's `trace_kinks`).  Without a weight,
    constant traces give the closed form length * integrand with zero error.
    The tolerance is split among pieces in proportion to their length, and a
    non-finite integrand value raises EnergyError.
    """
    total_len = sum(t1 - t0 for _, t0, t1 in pieces)
    if total_len == 0.0:
        return QuadratureResult(0.0, 0.0, 0)
    value, err = 0.0, 0.0
    for seg, t0, t1 in pieces:
        L = t1 - t0
        if weight is None and seg.constant_traces:
            value += L * _finite(float(integrand(seg.plus_value0, seg.minus_value0, seg.normal)))
            continue

        def fn(t):
            vals = integrand(seg.plus(t), seg.minus(t), seg.normal)
            if weight is not None:
                vals = vals * weight(seg.point(t))
            return _finite(vals)

        v, e = _integrate_segment(seg, fn, t0, t1, tol * L / total_len, order, kinks)
        value += v
        err += e
    return QuadratureResult(value, err, len(pieces))


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
    return integrate_jump_set(jump_pieces(u, region, include_boundary), f, tol, order)


def jump_flux(
    u: PiecewiseAffine,
    g: ConservativeField,
    region: Polygon | None = None,
    tol: float = 1e-10,
    order: int = 15,
) -> QuadratureResult:
    """Signed integral of <g(trace+) - g(trace-), normal> over the jump set."""
    pieces = jump_pieces(u, region, include_boundary=True)
    return integrate_jump_set(pieces, g.pairing, tol, order, kinks=g.trace_kinks)


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
    for seg, t0, t1 in jump_pieces(u, region, include_boundary=True):
        L = t1 - t0
        jm = seg.jump(np.array(0.5 * (t0 + t1)))
        out += L * 0.5 * (np.outer(jm, seg.normal) + np.outer(seg.normal, jm))
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
    """Adaptive volume integral of fn over a polygon; fn maps (n,2) -> (n,)."""
    return _refine(
        lambda tri: _tri_gauss(fn, tri, order), _split_triangle, triangulate(poly), tol,
        max_depth=10,
    )


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


def _field_jacobian(G: ConservativeField, step: float = 1e-6):
    if G.jacobian is not None:
        return G.jacobian

    def fd(w):
        w = np.atleast_2d(np.asarray(w, dtype=float))
        d = w.shape[-1]
        out = np.zeros(w.shape[:-1] + (d, d))
        for k in range(d):
            e = np.zeros(d)
            e[k] = step
            out[..., :, k] = (G(w + e) - G(w - e)) / (2 * step)
        return out

    return fd


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

    for a conservative field G and a bump phi vanishing on the region
    boundary.  The residual is pure quadrature error.
    """
    region = region if region is not None else u.partition.domain
    for p in region.vertices:
        if abs(float(phi.phi(p)[0])) > 1e-12:
            raise EnergyError("test function must vanish on the region boundary")

    jump_term = integrate_jump_set(
        jump_pieces(u, region, include_boundary=True),
        G.pairing, tol, line_order, kinks=G.trace_kinks, weight=phi.phi,
    ).value

    # volume terms, cell by cell (clipped to a convex region if given)
    jac = _field_jacobian(G)
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

        v, _ = integrate_polygon(f_grad, sub, tol=tol, order=volume_order)
        vol_grad += v
        if np.any(E):

            def f_sym(x):
                J = jac(piece(x))
                return np.einsum("nij,ij->n", J, E) * phi.phi(x)

            v, _ = integrate_polygon(f_sym, sub, tol=tol, order=volume_order)
            vol_sym += v

    return abs(jump_term + vol_sym + vol_grad)

