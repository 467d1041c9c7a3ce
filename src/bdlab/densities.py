"""Surface densities f(i, j, nu) with structural metadata and sampled checks.

Evaluators broadcast over leading axes: i, j, nu may be (..., d) arrays.
Values on the diagonal i == j are defined as zero; they never enter surface
energies.  Densities accept any nonzero nu; most catalog entries are
positively 1-homogeneous, and the convexity check homogenizes the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .profiles import (
    SubadditiveProfile,
    abs_profile,
    constant_profile,
    eta_profile,
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
    symmetric: bool = True
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
        return Density(
            f"{self.name}*{t:g}",
            lambda i, j, nu: t * self.evaluator(i, j, nu),
            self.symmetric,
            self.one_homogeneous_in_nu,
            self.bounded,
            self.claimed_class,
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


def density_dalmot(
    thetas, basis_budget: int = 720, refine_width: float = 1e-10
) -> Density:
    """Supremum over planar orthonormal bases of the per-axis profile combination.

    f(i,j,nu) = sup_phi sqrt(sum_k theta_k(<i-j, xi_k>)^2 <nu, xi_k>^2) with
    xi_1 = (cos phi, sin phi), xi_2 = xi_1^perp.  A uniform angle grid is
    refined by golden section on the best bracket.
    """
    thetas = tuple(thetas)
    if len(thetas) != 2:
        raise DensityError("planar evaluation needs exactly two profiles")
    for th in thetas:
        probe = th(np.array([0.0]))
        if abs(float(probe[0])) > 1e-14:
            raise DensityError(f"profile {th.name} must vanish at 0")
        t = np.linspace(-5, 5, 41)
        vals = th(t)
        if np.max(np.abs(vals - th(-t))) > 1e-12:
            raise DensityError(f"profile {th.name} must be even")
    same = thetas[0] is thetas[1] or thetas[0].name == thetas[1].name
    # a quarter turn swaps the roles of the two profiles, so the angle domain
    # [0, pi/2) covers every basis only when the profiles coincide
    period = 0.5 * np.pi if same else np.pi

    def evaluator(i, j, nu):
        a = np.asarray(i - j, dtype=float)
        nu = np.asarray(nu, dtype=float)
        a2 = a.reshape(-1, a.shape[-1])
        n2 = np.broadcast_to(nu, a.shape).reshape(-1, a.shape[-1])
        grid = np.linspace(0.0, period, basis_budget, endpoint=False)

        def vals_at(phi):
            # phi: (n,) or (m,) broadcast against samples
            c, s = np.cos(phi), np.sin(phi)
            d1a = a2[:, 0, None] * c + a2[:, 1, None] * s
            d2a = -a2[:, 0, None] * s + a2[:, 1, None] * c
            d1n = n2[:, 0, None] * c + n2[:, 1, None] * s
            d2n = -n2[:, 0, None] * s + n2[:, 1, None] * c
            return np.sqrt(
                thetas[0](d1a) ** 2 * d1n ** 2 + thetas[1](d2a) ** 2 * d2n ** 2
            )

        on_grid = vals_at(grid)  # (n, m)
        best = np.argmax(on_grid, axis=1)
        h = period / basis_budget
        lo = grid[best] - h
        hi = grid[best] + h

        invphi = (np.sqrt(5.0) - 1.0) / 2.0
        x1 = hi - invphi * (hi - lo)
        x2 = lo + invphi * (hi - lo)
        f1 = vals_at(x1[:, None])[:, 0]
        f2 = vals_at(x2[:, None])[:, 0]
        while np.max(hi - lo) > refine_width:
            low = f1 >= f2
            hi = np.where(low, x2, hi)
            lo = np.where(low, lo, x1)
            x1 = hi - invphi * (hi - lo)
            x2 = lo + invphi * (hi - lo)
            f1 = vals_at(x1[:, None])[:, 0]
            f2 = vals_at(x2[:, None])[:, 0]
        out = np.maximum(on_grid.max(axis=1), np.maximum(f1, f2))
        return out.reshape(a.shape[:-1])

    name = f"dalmot[{thetas[0].name},{thetas[1].name}]"
    return Density(
        name,
        evaluator,
        bounded=all(t.bounded for t in thetas),
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
    ("dalmot:abs", lambda: density_dalmot((abs_profile(),) * 2)),
    ("frobenius", density_biconvex_frobenius),
    ("frobenius:trunc:M=1", lambda M: density_dalmot((eta_profile(M),) * 2)),
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
