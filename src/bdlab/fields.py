"""Conservative vector fields with analytic potentials.

These fields realize surface densities as suprema of linear evaluations
f(i,j,nu) = sup_h <g_h(i) - g_h(j), nu>, the certificate of symmetric joint
convexity.  Every constructor returns the field together with its potential
(so conservativity is by construction) and, where cheap, an analytic
Jacobian.  Evaluators broadcast over leading axes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .profiles import eta_profile, tau_profile, zero_profile
from .report import jsonable


class FieldError(ValueError):
    """Invalid vector field construction."""


@dataclass(frozen=True)
class ConservativeField:
    """Vector field w -> g(w) with potential G (grad G = g).

    `trace_kinks`, when set, maps an affine trace (value0, slope) to the
    parameter values where the composed field kinks; quadrature inserts them
    as exact breakpoints.
    """

    name: str
    func: Callable
    potential: Callable
    jacobian: Callable | None = None
    bound: float = np.inf
    params: dict = field(default_factory=dict, repr=False)
    trace_kinks: Callable | None = None

    @property
    def bounded(self) -> bool:
        return bool(np.isfinite(self.bound))

    def __call__(self, w):
        return self.func(np.asarray(w, dtype=float))

    def pairing(self, i, j, nu):
        """<g(i) - g(j), nu>, broadcast over leading axes."""
        i = np.asarray(i, dtype=float)
        j = np.asarray(j, dtype=float)
        nu = np.asarray(nu, dtype=float)
        return np.einsum("...k,...k->...", self.func(i) - self.func(j), nu)

    def to_json(self) -> dict:
        return jsonable({"name": self.name, "bounded": self.bounded, "params": self.params})


@dataclass(frozen=True)
class FieldFamily:
    """Finite family of conservative fields (a truncated countable family)."""

    fields: tuple
    name: str = "family"

    def __post_init__(self):
        if not self.fields:
            raise FieldError("field family must be nonempty")

    def __len__(self):
        return len(self.fields)

    def __or__(self, other: "FieldFamily") -> "FieldFamily":
        return FieldFamily(self.fields + other.fields, f"{self.name}|{other.name}")

    def to_json(self) -> list:
        return jsonable(self.fields)


def sup_representation(family: FieldFamily, i, j, nu) -> float:
    """max over the family of <g(i) - g(j), nu>.

    Can be negative for small families; include the zero field to clamp at 0.
    """
    if not isinstance(family, FieldFamily):
        family = FieldFamily(tuple(family))
    return float(max(np.max(g.pairing(i, j, nu)) for g in family.fields))


def family_density(family: FieldFamily, name: str | None = None):
    """Density evaluating the family supremum pointwise (vectorized max)."""
    from .densities import Density

    def evaluator(i, j, nu):
        vals = np.stack([g.pairing(i, j, nu) for g in family.fields])
        return np.max(vals, axis=0)

    return Density(
        name or f"sup[{family.name}]",
        evaluator,
        bounded=all(g.bounded for g in family.fields),
        claimed_class="symmetric-jointly-convex",
    )


def zero_field(dim: int = 2) -> ConservativeField:
    return _axis_field(
        np.eye(dim), np.zeros(dim), (zero_profile(),) * dim, name="zero", params={"dim": dim}
    )


def _check_orthonormal(basis: np.ndarray, tol: float = 1e-12):
    gram = basis @ basis.T
    if np.max(np.abs(gram - np.eye(basis.shape[0]))) > tol:
        raise FieldError("basis is not orthonormal")


def _axis_field(
    basis: np.ndarray, coeffs: np.ndarray, profiles, shifts=None, scales=None,
    name: str = "axis-field", params: dict | None = None,
) -> ConservativeField:
    """Shared kernel: g(w) = sum_k coeffs_k * p_k(scale_k (<w, xi_k> - shift_k)) xi_k.

    Potential: sum_k coeffs_k / scale_k * P_k(scale_k (<w, xi_k> - shift_k)).
    Zero coefficients mask their addend entirely.
    """
    basis = np.asarray(basis, dtype=float)
    coeffs = np.asarray(coeffs, dtype=float)
    d = basis.shape[0]
    shifts = np.zeros(d) if shifts is None else np.asarray(shifts, dtype=float)
    scales = np.ones(d) if scales is None else np.asarray(scales, dtype=float)
    profiles = tuple(profiles)
    active = (coeffs != 0.0) & (scales != 0.0)
    bound = float(
        sum(abs(coeffs[k]) * profiles[k].bound for k in range(d) if active[k])
    )

    def args(w):
        y = w @ basis.T  # (..., d) coordinates in the basis
        return scales * (y - shifts)

    def func(w):
        a = args(w)
        vals = np.stack(
            [
                profiles[k].value(a[..., k]) if active[k] else np.zeros(a.shape[:-1])
                for k in range(d)
            ],
            axis=-1,
        )
        return (coeffs * vals) @ basis

    def potential(w):
        a = args(w)
        out = np.zeros(a.shape[:-1])
        for k in range(d):
            if active[k]:
                out = out + coeffs[k] / scales[k] * profiles[k].primitive(a[..., k])
        return out

    def jacobian(w):
        a = args(w)
        out = np.zeros(a.shape[:-1] + (d, d))
        for k in range(d):
            if active[k]:
                dk = coeffs[k] * scales[k] * profiles[k].deriv(a[..., k])
                out = out + dk[..., None, None] * np.einsum(
                    "i,j->ij", basis[k], basis[k]
                )
        return out

    def trace_kinks(value0, slope):
        # profile argument along the trace is affine: arg_k(t) = a0 + da * t
        ts = []
        for k in range(d):
            if not active[k]:
                continue
            a0 = scales[k] * (float(value0 @ basis[k]) - shifts[k])
            da = scales[k] * float(slope @ basis[k])
            if da == 0.0:
                continue
            for c in profiles[k].kinks:
                ts.append((c - a0) / da)
        return ts

    return ConservativeField(
        name, func, potential, jacobian=jacobian, bound=bound, params=params or {},
        trace_kinks=trace_kinks,
    )


def prototype_field(basis, profiles, name: str = "prototype") -> ConservativeField:
    """g(w) = sum_k h_k(<w, xi_k>) xi_k for an orthonormal basis and scalar profiles."""
    basis = np.asarray(basis, dtype=float)
    _check_orthonormal(basis)
    profiles = tuple(profiles)
    if len(profiles) != basis.shape[0]:
        raise FieldError("one profile per basis vector required")
    return _axis_field(
        basis,
        np.ones(basis.shape[0]),
        profiles,
        name=name,
        params={"basis": basis, "profiles": [p.name for p in profiles]},
    )


def map_unit_vectors(u, v) -> np.ndarray:
    """Symmetric matrix with operator norm 1 mapping the unit vector u to v.

    Composition of a rotation and a reflection; u = +/- v returns +/- identity.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    for w in (u, v):
        if abs(np.linalg.norm(w) - 1.0) > 1e-12:
            raise FieldError("map_unit_vectors needs unit vectors")
    d = u.shape[0]
    if np.linalg.norm(u - v) <= 1e-12:
        return np.eye(d)
    if np.linalg.norm(u + v) <= 1e-12:
        return -np.eye(d)
    if d == 2:
        alpha = np.arctan2(u[1], u[0])
        beta = np.arctan2(v[1], v[0])
        gamma = alpha + beta
        c, s = np.cos(gamma), np.sin(gamma)
        return np.array([[c, s], [s, -c]])
    xi1 = u
    xi2 = v - (v @ u) * u
    xi2 = xi2 / np.linalg.norm(xi2)
    c = float(v @ u)
    s = float(v @ xi2)
    return c * (np.outer(xi1, xi1) - np.outer(xi2, xi2)) + s * (
        np.outer(xi1, xi2) + np.outer(xi2, xi1)
    )


def _sym_eigenbasis(B: np.ndarray):
    """Deterministic eigendecomposition of a symmetric matrix.

    Rows of the returned basis are eigenvectors with a fixed sign convention,
    so parameters expressed in this basis are reproducible.
    """
    B = np.asarray(B, dtype=float)
    if np.max(np.abs(B - B.T)) > 1e-12:
        raise FieldError("matrix must be symmetric")
    lam, vecs = np.linalg.eigh(B)
    basis = vecs.T.copy()
    for k in range(basis.shape[0]):
        idx = int(np.argmax(np.abs(basis[k])))
        if basis[k, idx] < 0:
            basis[k] = -basis[k]
    return lam, basis


def gbmc_field(B, mu, c, M: float, a: float) -> ConservativeField:
    """Truncated eigenbasis field g_{B,mu,c}.

    g(w) = sum_k lambda_k mu_k eta_M(a (<w, xi_k>/mu_k - c_k)) xi_k over the
    eigenpairs of the symmetric matrix B; addends with mu_k = 0 vanish.  The
    potential is sum_k (lambda_k mu_k^2 / a) Theta_M(...).
    """
    B = np.asarray(B, dtype=float)
    mu = np.asarray(mu, dtype=float)
    c = np.asarray(c, dtype=float)
    if not (M > 0 and a > 0):
        raise FieldError("truncation level and slope must be positive")
    lam, basis = _sym_eigenbasis(B)
    if np.max(np.abs(lam)) > 1.0 + 1e-9:
        raise FieldError("operator norm of B must not exceed 1")
    if abs(np.linalg.norm(mu) - 1.0) > 1e-12:
        raise FieldError("mu must be a unit vector")
    d = B.shape[0]
    eta = eta_profile(M)
    coeffs = lam * mu
    with np.errstate(divide="ignore", invalid="ignore"):
        scales = np.where(mu != 0.0, a / np.where(mu != 0.0, mu, 1.0), 0.0)
    return _axis_field(
        basis,
        coeffs,
        (eta,) * d,
        shifts=np.where(mu != 0.0, c * mu, 0.0),
        scales=scales,
        name=f"gbmc[M={M:g},a={a:g}]",
        params={"B": B, "mu": mu, "c": c, "M": M, "a": a},
    )


def optimal_gbmc_params(i, j, nu):
    """Parameters (B, mu, c) achieving <g(i)-g(j), nu> = min{a|i-j|, M}|nu|.

    B maps the jump direction to the normal direction; mu are the jump
    coordinates in B's eigenbasis; c recenters so that g(i)-g(j) telescopes.
    """
    i = np.asarray(i, dtype=float)
    j = np.asarray(j, dtype=float)
    nu = np.asarray(nu, dtype=float)
    diff = i - j
    gap = np.linalg.norm(diff)
    if gap == 0.0:
        raise FieldError("optimal parameters need i != j")
    if np.linalg.norm(nu) == 0.0:
        raise FieldError("optimal parameters need nu != 0")
    B = map_unit_vectors(diff / gap, nu / np.linalg.norm(nu))
    lam, basis = _sym_eigenbasis(B)
    mu = basis @ diff / gap
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.where(mu != 0.0, (basis @ j) / np.where(mu != 0.0, mu, 1.0), 0.0)
    return B, mu, c


def optimal_gbmc_field(i, j, nu, M: float, a: float) -> ConservativeField:
    B, mu, c = optimal_gbmc_params(i, j, nu)
    return gbmc_field(B, mu, c, M, a)


def dalmot_field(p, q, sigma, thetas, basis=None) -> ConservativeField:
    """g(w) = sum_k sigma_k <p, xi_k> theta_k(<w - q, xi_k>) xi_k for |p| <= 1.

    The profiles must be bounded (truncate unbounded ones first).
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    thetas = tuple(thetas)
    d = p.shape[0]
    basis = np.eye(d) if basis is None else np.asarray(basis, dtype=float)
    _check_orthonormal(basis)
    if np.linalg.norm(p) > 1.0 + 1e-12:
        raise FieldError("|p| must not exceed 1")
    if not np.all(np.abs(sigma) == 1.0):
        raise FieldError("sigma must be a sign vector")
    if any(not th.bounded for th in thetas):
        raise FieldError("dalmot fields need bounded profiles; truncate first")
    coeffs = sigma * (basis @ p)
    return _axis_field(
        basis,
        coeffs,
        thetas,
        shifts=basis @ q,
        name="dalmot-field",
        params={"p": p, "q": q, "sigma": sigma, "basis": basis},
    )


def optimal_dalmot_params(i, j, nu, thetas, basis=None):
    """(p, q, sigma) achieving the single-basis combination value |mu|."""
    i = np.asarray(i, dtype=float)
    j = np.asarray(j, dtype=float)
    nu = np.asarray(nu, dtype=float)
    d = i.shape[0]
    basis = np.eye(d) if basis is None else np.asarray(basis, dtype=float)
    thetas = tuple(thetas)
    sigma = np.where(basis @ nu >= 0.0, 1.0, -1.0)
    mu = np.zeros(d)
    for k in range(d):
        mu += float(thetas[k](np.array((i - j) @ basis[k]))) * abs(float(nu @ basis[k])) * basis[k]
    norm = np.linalg.norm(mu)
    if norm == 0.0:
        # the single-basis value is 0; the zero field (p = 0) attains it
        return np.zeros(d), j.copy(), sigma
    return mu / norm, j.copy(), sigma


def normal_only_field(p, q, h: int) -> ConservativeField:
    """g(w) = min{h |<w - p, q>|, 1} q, a support-function probe: the eta[1]
    addend along q/|q| with coefficient |q| and slope h|q|."""
    if h < 1:
        raise FieldError("sharpness h must be >= 1")
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    norm = float(np.linalg.norm(q))
    if norm == 0.0:
        raise FieldError("probe vertex q must be nonzero")
    h = int(h)
    qh = q / norm
    return _axis_field(
        np.array([qh, [-qh[1], qh[0]]]),
        np.array([norm, 0.0]),
        (eta_profile(1.0),) * 2,
        shifts=np.array([p @ qh, 0.0]),
        scales=np.array([h * norm, 0.0]),
        name=f"normal-only[h={h}]",
        params={"p": p, "q": q, "h": h},
    )


def biconvex_truncated_field(Z, M: float) -> ConservativeField:
    """Clamped linear field equal to w -> sym(Z) w on the eigen-box of half-width M."""
    Z = np.asarray(Z, dtype=float)
    Zsym = 0.5 * (Z + Z.T)
    lam, basis = _sym_eigenbasis(Zsym)
    d = Z.shape[0]
    return _axis_field(
        basis,
        lam,
        (tau_profile(M),) * d,
        name=f"biconvex[M={M:g}]",
        params={"Z": Z, "M": M},
    )


def check_conservative(
    g: ConservativeField, samples: int = 200, seed: int = 0,
    step: float = 1e-5, box: float = 3.0, dim: int = 2,
):
    """(max relative Jacobian asymmetry, max relative potential-gradient residual).

    Central differences with the given step, normalized by 1 + the field
    magnitude over the sampled points.
    """
    rng = np.random.default_rng(seed)
    w = rng.uniform(-box, box, size=(samples, dim))
    vals = g(w)
    scale = 1.0 + float(np.max(np.linalg.norm(vals, axis=-1)))
    J = np.zeros((samples, dim, dim))
    grad = np.zeros((samples, dim))
    for k in range(dim):
        e = np.zeros(dim)
        e[k] = step
        J[:, :, k] = (g(w + e) - g(w - e)) / (2 * step)
        grad[:, k] = (g.potential(w + e) - g.potential(w - e)) / (2 * step)
    asym = float(np.max(np.abs(J - np.swapaxes(J, 1, 2)))) / scale
    resid = float(np.max(np.linalg.norm(grad - vals, axis=-1))) / scale
    return asym, resid


def catalog_fields(i=(0.0, 0.0), j=(2.0, 2.0), nu=(0.0, 1.0)) -> FieldFamily:
    """Representative bounded conservative fields, adapted to a triple."""
    from .profiles import sin_profile

    i = np.asarray(i, dtype=float)
    j = np.asarray(j, dtype=float)
    nu = np.asarray(nu, dtype=float)
    eta1 = eta_profile(1.0)
    members = [
        zero_field(),
        optimal_gbmc_field(i, j, nu, M=1.0, a=1.0),
        optimal_gbmc_field(i, j, nu, M=2.0, a=0.5),
        prototype_field(np.eye(2), (sin_profile(0.8, 2.0), sin_profile(0.5, 3.0)), name="sine"),
        prototype_field(np.eye(2), (eta1, eta1), name="eta-axes"),
        biconvex_truncated_field(np.array([[1.0, 0.4], [0.0, -0.6]]), M=4.0),
        normal_only_field(j, np.array([0.3, 0.8]), h=3),
    ]
    p, q, sigma = optimal_dalmot_params(i, j, nu, (eta1, eta1))
    members.append(dalmot_field(p, q, sigma, (eta1, eta1)))
    return FieldFamily(tuple(members), name="catalog")
