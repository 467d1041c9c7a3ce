"""Surface densities f(i, j, nu) with structural metadata and sampled checks.

Evaluators broadcast over leading axes: i, j, nu may be (..., d) arrays.
Values on the diagonal i == j are defined as zero; they never enter surface
energies.  Densities accept any nonzero nu; most catalog entries are
positively 1-homogeneous, and the convexity check homogenizes the rest.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .profiles import (
    SubadditiveProfile,
    constant_profile,
    identity_profile,
    sqrt_profile,
    truncated_profile,
)

CLASSES = ("symmetric-jointly-convex", "BD-elliptic", "BV-elliptic-only", "unknown")


class DensityError(ValueError):
    """Invalid density construction."""


@dataclass(frozen=True)
class Density:
    """Surface integrand with declared structure flags."""

    name: str
    evaluator: Callable
    one_homogeneous_in_nu: bool = True
    bounded: bool = False
    claimed_class: str = "unknown"

    def __post_init__(self):
        if self.claimed_class not in CLASSES:
            raise DensityError(f"unknown claimed_class {self.claimed_class!r}")

    def __call__(self, i, j, nu):
        i = np.asarray(i, dtype=float)
        j = np.asarray(j, dtype=float)
        nu = np.asarray(nu, dtype=float)
        out = np.asarray(self.evaluator(i, j, nu), dtype=float)
        diag = np.all(i == j, axis=-1)
        if np.any(diag):
            out = np.where(diag, 0.0, out)
        return out

    def scaled(self, t: float) -> "Density":
        t = float(t)
        if t <= 0:
            raise DensityError("scale factor must be positive")
        return replace(
            self,
            name=f"{self.name}*{t:g}",
            evaluator=lambda i, j, nu: t * self.evaluator(i, j, nu),
        )


def _norm(v):
    return np.linalg.norm(v, axis=-1)


def _dot(a, b):
    return np.einsum("...k,...k->...", a, b)


def density_isotropic(g: SubadditiveProfile) -> Density:
    """f(i, j, nu) = g(|i - j|) |nu|."""

    def evaluator(i, j, nu):
        return g(_norm(i - j)) * _norm(nu)

    return Density(
        f"isotropic[{g.name}]",
        evaluator,
        bounded=g.bounded,
        claimed_class="symmetric-jointly-convex",
    )


def density_product(theta: Callable, psi: Callable, name: str = "product") -> Density:
    """f(i, j, nu) = theta(i, j) psi(nu) for a pseudo-distance theta and a norm-like psi.

    These are the classically elliptic product densities; anisotropic choices
    are the falsification candidates.
    """

    def evaluator(i, j, nu):
        return theta(i, j) * psi(nu)

    return Density(name, evaluator, claimed_class="BV-elliptic-only")


def anisotropic_normal_density(eps: float) -> Density:
    """|i - j| * psi(nu) with psi(x) = sqrt(eps^2 x1^2 + x2^2): psi(e1)=eps, psi(e2)=1."""
    eps = float(eps)
    if eps <= 0:
        raise DensityError("eps must be positive")

    def theta(i, j):
        return _norm(i - j)

    def psi(nu):
        return np.sqrt(eps * eps * nu[..., 0] ** 2 + nu[..., 1] ** 2)

    d = density_product(theta, psi, name=f"aniso-normal[eps={eps:g}]")
    return d


def anisotropic_trace_density(eps: float) -> Density:
    """psi(i - j) |nu| with psi(x) = sqrt(x1^2 + eps x2^2)."""
    eps = float(eps)
    if eps <= 0:
        raise DensityError("eps must be positive")

    def theta(i, j):
        d = i - j
        return np.sqrt(d[..., 0] ** 2 + eps * d[..., 1] ** 2)

    return density_product(theta, _norm, name=f"aniso-trace[eps={eps:g}]")


def density_biconvex_frobenius() -> Density:
    """Frobenius norm of the symmetrized tensor product (i-j) (.) nu.

    Uses |a (.) b|^2 = (|a|^2 |b|^2 + <a, b>^2) / 2 in closed form.
    """

    def evaluator(i, j, nu):
        a = i - j
        return np.sqrt(0.5 * ((_norm(a) * _norm(nu)) ** 2 + _dot(a, nu) ** 2))

    return Density("frobenius", evaluator, claimed_class="symmetric-jointly-convex")


def _axis_angle(v):
    """Angle of the line through v, in (-pi/2, pi/2]; 0 for v = 0.

    The half-angle form is invariant under v -> -v, bit for bit.
    """
    n = _norm(v)
    x, y = np.moveaxis(v / np.where(n > 0, n, 1.0)[..., None], -1, 0)
    return 0.5 * np.arctan2(2.0 * x * y, x * x - y * y)


def density_dalmot(M: float = np.inf) -> Density:
    """Supremum over planar orthonormal bases of the truncated per-axis norm.

    f(i,j,nu) = sup_phi sqrt(sum_k eta(<a, xi_k>)^2 <nu, xi_k>^2) with a = i - j,
    eta(t) = min(|t|, M), xi_1 = (cos phi, sin phi) and xi_2 = xi_1^perp;
    M = inf is the abs profile.  The objective has period pi/2, and on each
    piece of the angle range (no, one or both terms truncated) it peaks at
    the eigenbasis of sym(a (.) nu), at xi_1 along nu, or at a kink
    |<a, xi_1>| = M.  The objective is evaluated at those four angles, so
    the maximum is the supremum, not an estimate.
    """
    M = float(M)
    if not M > 0:
        raise DensityError("truncation level M must be positive")

    def evaluator(i, j, nu):
        a, nu = np.broadcast_arrays(i - j, nu)
        na = _norm(a)
        alpha, beta = _axis_angle(a), _axis_angle(nu)
        # |<a, xi_1>| = M at alpha +- arccos(M / |a|), when |a| > M
        width = np.arccos(np.divide(np.minimum(na, M), na, out=np.ones_like(na), where=na > 0))
        phi = np.stack([0.5 * (alpha + beta), beta, alpha + width, alpha - width], axis=-1)
        c, s = np.cos(phi), np.sin(phi)
        total = 0.0
        for xc, xs in ((c, s), (-s, c)):
            along_a = a[..., :1] * xc + a[..., 1:] * xs
            along_nu = nu[..., :1] * xc + nu[..., 1:] * xs
            total = total + np.minimum(np.abs(along_a), M) ** 2 * along_nu**2
        return np.sqrt(np.max(total, axis=-1))

    profile = "abs" if M == np.inf else f"eta[{M:g}]"
    return Density(
        f"dalmot[{profile},{profile}]",
        evaluator,
        bounded=M < np.inf,
        claimed_class="symmetric-jointly-convex",
    )


@dataclass(frozen=True)
class SupportPolytope:
    """Origin-symmetric convex polytope given by its vertices."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[0] < 2:
            raise DensityError("polytope needs at least two vertices")
        for q in v:
            if not np.any(np.all(np.abs(v + q) < 1e-12, axis=1)):
                raise DensityError("polytope vertex set must be origin-symmetric")
        if np.linalg.matrix_rank(v) < v.shape[1]:
            raise DensityError("polytope is degenerate")
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)

    def support(self, x):
        x = np.asarray(x, dtype=float)
        return np.max(x @ self.vertices.T, axis=-1)


def density_normal_only(K: SupportPolytope) -> Density:
    """f(i, j, nu) = support function of K at nu, independent of the traces."""

    def evaluator(i, j, nu):
        shape = np.broadcast_shapes(i.shape, j.shape, nu.shape)
        return np.broadcast_to(K.support(nu), shape[:-1]).copy()

    return Density(
        "normal-only",
        evaluator,
        bounded=True,
        claimed_class="symmetric-jointly-convex",
    )


def density_mild(g: Callable, samples: int = 4000, seed: int = 0, name: str = "mild") -> Density:
    """f(i, j, nu) = g(i - j) for even bounded g with sup g <= 2 inf g."""
    rng = np.random.default_rng(seed)
    w = rng.normal(scale=3.0, size=(samples, 2))
    vals = np.asarray(g(w), dtype=float)
    if np.max(np.abs(vals - np.asarray(g(-w), dtype=float))) > 1e-12:
        raise DensityError("mild-dependence g must be even")
    if np.min(vals) <= 0 or np.max(vals) > 2.0 * np.min(vals) + 1e-12:
        raise DensityError(
            "mild dependence requires sup g <= 2 inf g on sampled points "
            f"(observed [{np.min(vals):g}, {np.max(vals):g}])"
        )

    def evaluator(i, j, nu):
        shape = np.broadcast_shapes(i.shape, j.shape, nu.shape)
        return np.broadcast_to(np.asarray(g(i - j), dtype=float), shape[:-1]).copy()

    return Density(
        name,
        evaluator,
        one_homogeneous_in_nu=False,
        bounded=True,
        claimed_class="BD-elliptic",
    )


def symmetry_violation(f: Density, samples: int = 10_000, seed: int = 0) -> float:
    """max |f(i,j,nu) - f(j,i,-nu)| over random triples."""
    rng = np.random.default_rng(seed)
    i = rng.normal(scale=2.0, size=(samples, 2))
    j = rng.normal(scale=2.0, size=(samples, 2))
    nu = rng.normal(size=(samples, 2))
    nu /= np.linalg.norm(nu, axis=1, keepdims=True)
    return float(np.max(np.abs(f(i, j, nu) - f(j, i, -nu))))


def check_subadditivity(f: Density, samples: int = 10_000, seed: int = 0, extra=()) -> float:
    """max over sampled (i,j,k,rho) of f(i,j,rho) - f(i,k,rho) - f(k,j,rho).

    Nonpositive (within tolerance) is necessary for ellipticity.  `extra`
    supplies additional (i, j, k, rho) probes to include.
    """
    rng = np.random.default_rng(seed)
    i = rng.normal(scale=2.0, size=(samples, 2))
    j = rng.normal(scale=2.0, size=(samples, 2))
    k = rng.normal(scale=2.0, size=(samples, 2))
    rho = rng.normal(size=(samples, 2))
    rho /= np.linalg.norm(rho, axis=1, keepdims=True)
    viol = f(i, j, rho) - f(i, k, rho) - f(k, j, rho)
    worst = float(np.max(viol))
    for (ei, ej, ek, erho) in extra:
        ei, ej, ek, erho = (np.asarray(v, dtype=float) for v in (ei, ej, ek, erho))
        worst = max(
            worst, float(f(ei, ej, erho) - f(ei, ek, erho) - f(ek, ej, erho))
        )
    return worst


def check_convexity_in_nu(f: Density, samples: int = 10_000, seed: int = 0) -> float:
    """max midpoint-convexity violation of the 1-homogeneous extension in nu."""
    rng = np.random.default_rng(seed)
    i = rng.normal(scale=2.0, size=(samples, 2))
    j = rng.normal(scale=2.0, size=(samples, 2))
    r1 = rng.normal(size=(samples, 2))
    r2 = rng.normal(size=(samples, 2))

    def fhom(rho):
        n = np.linalg.norm(rho, axis=-1, keepdims=True)
        n = np.where(n == 0, 1.0, n)
        if f.one_homogeneous_in_nu:
            return f(i, j, rho)
        return n[..., 0] * f(i, j, rho / n)

    mid = 0.5 * (r1 + r2)
    viol = fhom(mid) - 0.5 * fhom(r1) - 0.5 * fhom(r2)
    return float(np.max(viol))


def _parse_params(chunk: str) -> dict:
    out = {}
    for item in chunk.split(","):
        if not item:
            continue
        key, _, val = item.partition("=")
        try:
            out[key.strip()] = float(val)
        except ValueError:
            raise DensityError(f"malformed density parameter {item!r}") from None
    return out


def _split_id(spec_id: str) -> tuple[str, dict]:
    """Split "isotropic:trunc:a=1,M=1" into "isotropic:trunc" and {"a": 1.0, "M": 1.0}."""
    key, _, last = spec_id.rpartition(":")
    if "=" not in last:
        return spec_id, {}
    return key, _parse_params(last)


def _mild_g(w):
    w = np.asarray(w, dtype=float)
    return 1.0 + 0.5 * np.minimum(np.linalg.norm(w, axis=-1), 1.0)


def _square_polytope() -> SupportPolytope:
    return SupportPolytope(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]))


# (catalog id with its default parameters, builder(**parameters) -> Density)
_REGISTRY = (
    ("isotropic:id", lambda: density_isotropic(identity_profile())),
    ("isotropic:trunc:a=1,M=1", lambda a, M: density_isotropic(truncated_profile(a, M))),
    ("isotropic:const:c=1", lambda c: density_isotropic(constant_profile(c))),
    ("isotropic:sqrt", lambda: density_isotropic(sqrt_profile())),
    ("product:aniso1:eps=0.01", anisotropic_normal_density),
    ("aniso2:eps=1e-4", anisotropic_trace_density),
    ("dalmot:abs", density_dalmot),
    ("frobenius", density_biconvex_frobenius),
    ("frobenius:trunc:M=1", density_dalmot),
    ("normal:polytopeK", lambda: density_normal_only(_square_polytope())),
    ("mild:g", lambda: density_mild(_mild_g, name="mild[g]")),
)
# catalog key ("isotropic:trunc") -> (default parameters, builder)
_BUILDERS = {
    key: (defaults, build)
    for spec_id, build in _REGISTRY
    for key, defaults in [_split_id(spec_id)]
}
CATALOG_IDS = tuple(spec_id for spec_id, _ in _REGISTRY)


def catalog_density(spec_id: str) -> Density:
    """Resolve a catalog id like "isotropic:trunc:a=1,M=1" to a Density.

    Omitted parameters take the defaults written in CATALOG_IDS.  Unknown
    ids, parameter names and trailing parts raise DensityError.
    """
    key, params = _split_id(spec_id)
    if key not in _BUILDERS:
        raise DensityError(f"unknown density id {spec_id!r}")
    defaults, build = _BUILDERS[key]
    unknown = set(params) - set(defaults)
    if unknown:
        raise DensityError(f"unknown parameters {sorted(unknown)} in density id {spec_id!r}")
    return build(**{**defaults, **params})
