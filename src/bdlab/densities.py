"""Surface densities f(i, j, nu) with structural metadata and sampled checks.

Densities are planar: i, j, nu are (..., 2) arrays, and evaluators
broadcast over the leading axes.  A density refuses any other last axis.
Every evaluator and check computes on the two components element-wise (no
reduction over the last axis, no BLAS product), so a row's value does not
depend on the batch it is evaluated in.  Values on the diagonal i == j are
defined as zero; they never enter surface energies.  Densities accept any
nonzero nu; most catalog entries are positively 1-homogeneous, and the
convexity check homogenizes the rest.
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


# the 16 triples (i, j, nu) on which a quadratic form descriptor is checked
# against its evaluator: jumps and normals in many directions, of lengths
# from about 0.1 to 40 (fixed numbers, not numpy.random, which would add
# its import to every start of bdlab)
_FORM_CHECK = (np.sin(1.7 * np.arange(96.0).reshape(3, 16, 2) + 0.3)
               * [[[2.0]], [[3.0]], [[1.0]]] * np.geomspace(0.1, 10.0, 16)[:, None])


def form_pairing(Q, x, y):
    """x^T Q y for symmetric (..., 2, 2) forms and (..., 2) vectors,
    element-wise (no BLAS or einsum), so a row's value does not depend on
    its batch."""
    return (Q[..., 0, 0] * (x[..., 0] * y[..., 0])
            + Q[..., 0, 1] * (x[..., 0] * y[..., 1] + x[..., 1] * y[..., 0])
            + Q[..., 1, 1] * (x[..., 1] * y[..., 1]))


def _form(q00, q01, q11):
    """The symmetric 2 x 2 forms with the given entries: (..., 2, 2)."""
    q00, q01, q11 = np.broadcast_arrays(q00, q01, q11)
    return np.stack([q00, q01, q01, q11], axis=-1).reshape(q00.shape + (2, 2))


@dataclass(frozen=True)
class Density:
    """Surface integrand with declared structure flags.

    `quadratic_form`, when set, maps normals (n, 2) to symmetric positive
    semidefinite forms Q (n, 2, 2) with f(i, j, nu) = sqrt((i - j)^T Q(nu)
    (i - j)).  Along a jump segment the jump is affine in arclength, so
    surface energies of such a density are elementary integrals, which
    `bdlab.energy` evaluates in closed form.  The descriptor is checked
    against the evaluator on fixed triples at construction.
    """

    name: str
    evaluator: Callable
    one_homogeneous_in_nu: bool = True
    bounded: bool = False
    claimed_class: str = "unknown"
    quadratic_form: Callable | None = None

    def __post_init__(self):
        if self.claimed_class not in CLASSES:
            raise DensityError(f"unknown claimed_class {self.claimed_class!r}")
        if self.quadratic_form is not None:
            i, j, nu = _FORM_CHECK
            want = np.asarray(self.evaluator(i, j, nu), dtype=float)
            Q = np.asarray(self.quadratic_form(nu), dtype=float)
            got = np.sqrt(form_pairing(Q, i - j, i - j))
            # a NaN on either side fails the comparison
            bad = np.count_nonzero(~(np.abs(got - want) <= 1e-12 * np.abs(want)))
            if bad:
                raise DensityError(
                    f"the quadratic form of {self.name!r} disagrees with its evaluator "
                    f"by more than 1e-12 relative on {bad} of {want.size} check triples"
                )

    def __call__(self, i, j, nu):
        i = np.asarray(i, dtype=float)
        j = np.asarray(j, dtype=float)
        nu = np.asarray(nu, dtype=float)
        if not i.shape[-1:] == j.shape[-1:] == nu.shape[-1:] == (2,):
            raise DensityError(
                f"densities are planar: i, j and nu need a last axis of length 2, "
                f"got shapes {i.shape}, {j.shape} and {nu.shape}")
        out = np.asarray(self.evaluator(i, j, nu), dtype=float)
        diag = (i[..., 0] == j[..., 0]) & (i[..., 1] == j[..., 1])
        if np.any(diag):
            out = np.where(diag, 0.0, out)
        return out

    def scaled(self, t: float) -> "Density":
        t = float(t)
        if not 0 < t < np.inf:
            raise DensityError(f"scale factor must be finite and positive, got {t!r}")
        form = self.quadratic_form
        return replace(
            self,
            name=f"{self.name}*{t:g}",
            evaluator=lambda i, j, nu: t * self.evaluator(i, j, nu),
            quadratic_form=None if form is None else lambda nu: (t * t) * form(nu),
        )


def _norm(v):
    x, y = v[..., 0], v[..., 1]
    return np.sqrt(x * x + y * y)


def _dot(a, b):
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]


def _norm2(nu):
    return nu[..., 0] ** 2 + nu[..., 1] ** 2


def _isotropic_form(nu):
    """|nu|^2 I: the form of |i - j| |nu|."""
    n2 = _norm2(nu)
    return _form(n2, 0.0, n2)


def _frobenius_form(nu):
    """(|nu|^2 I + nu nu^T) / 2: the form of |sym((i - j) (.) nu)|_F."""
    n2 = _norm2(nu)
    x, y = nu[..., 0], nu[..., 1]
    return _form(0.5 * (n2 + x * x), 0.5 * (x * y), 0.5 * (n2 + y * y))


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

    def psi2(nu):
        return eps * eps * nu[..., 0] ** 2 + nu[..., 1] ** 2

    d = density_product(theta, lambda nu: np.sqrt(psi2(nu)), name=f"aniso-normal[eps={eps:g}]")
    return replace(d, quadratic_form=lambda nu: _form(psi2(nu), 0.0, psi2(nu)))


def anisotropic_trace_density(eps: float) -> Density:
    """psi(i - j) |nu| with psi(x) = sqrt(x1^2 + eps x2^2)."""
    eps = float(eps)
    if eps <= 0:
        raise DensityError("eps must be positive")

    def theta(i, j):
        d = i - j
        return np.sqrt(d[..., 0] ** 2 + eps * d[..., 1] ** 2)

    d = density_product(theta, _norm, name=f"aniso-trace[eps={eps:g}]")
    return replace(d, quadratic_form=lambda nu: _form(_norm2(nu), 0.0, eps * _norm2(nu)))


def density_biconvex_frobenius() -> Density:
    """Frobenius norm of the symmetrized tensor product (i-j) (.) nu.

    Uses |a (.) b|^2 = (|a|^2 |b|^2 + <a, b>^2) / 2 in closed form.
    """

    def evaluator(i, j, nu):
        a = i - j
        return np.sqrt(0.5 * ((_norm(a) * _norm(nu)) ** 2 + _dot(a, nu) ** 2))

    return Density("frobenius", evaluator, claimed_class="symmetric-jointly-convex",
                   quadratic_form=_frobenius_form)


def _unit(x, y):
    """(x, y) / |(x, y)| over the whole float range, 0 at 0: scaled by the larger entry first."""
    m = np.maximum(np.maximum(np.abs(x), np.abs(y)), 5e-324)  # 0 / 5e-324 = 0
    x, y = x / m, y / m
    n = np.sqrt(np.maximum(x * x + y * y, 1.0))  # 1 <= |(x, y)| <= sqrt(2) unless 0
    return x / n, y / n


def density_dalmot(M: float = np.inf) -> Density:
    """Supremum over planar orthonormal bases of the truncated per-axis norm.

    f(i,j,nu) = sup sqrt(sum_k eta(<a, xi_k>)^2 <nu, xi_k>^2) with a = i - j,
    eta(t) = min(|t|, M) and xi_2 = xi_1^perp; M = inf is the abs profile.
    On each piece of the range of xi_1 (no, one or both terms truncated) the
    objective peaks at the eigenbasis of sym(a (.) nu), at xi_1 along nu or
    at a kink |<a, xi_1>| = M, so its maximum over those four bases is the
    supremum.  They come from the unit vectors a^, nu^ with no angles: the
    bisector xi_1 = a^ + s nu^, s = sign(<a^, nu^>) (no cancellation), and
    xi_1 = R(+-w) a^, cos w = min(|a|, M) / |a|, where w = 0 for M = inf (NaN
    where |a| overflows): one kink.  f(i, j, nu) == f(j, i, -nu) bit for bit
    (each term is a product of two factors that flip sign with (a, nu)); the
    angle form gives the same values to 8 eps where no square over- or
    underflows (DALMOT_BOUND in the tests).  Untruncated, f is the Frobenius
    norm of sym(a (.) nu), whose quadratic form the density carries.
    """
    M = float(M)
    if not M > 0:
        raise DensityError("truncation level M must be positive")

    def eta(t):
        return t if M == np.inf else np.minimum(t, M)

    def evaluator(i, j, nu):
        a, nu = np.broadcast_arrays(i - j, nu)
        a0, a1, n0, n1 = a[..., 0], a[..., 1], nu[..., 0], nu[..., 1]
        (u0, u1), (v0, v1) = _unit(a0, a1), _unit(n0, n1)
        # the eigenbasis, with |a^ + s nu^|^2 = 2 + 2 |<a^, nu^>| (f = 0 where a or nu is 0)
        dot = u0 * v0 + u1 * v1
        s, nb = np.where(dot >= 0, 1.0, -1.0), np.sqrt(2.0 + 2.0 * np.abs(dot))
        c, d = (u0 + s * v0) / nb, (u1 + s * v1) / nb
        best = ((eta(np.abs(a0 * c + a1 * d)) * (n0 * c + n1 * d)) ** 2
                + (eta(np.abs(a1 * c - a0 * d)) * (n1 * c - n0 * d)) ** 2)
        # xi_1 along nu, where <nu, xi_2> = 0
        best = np.maximum(best, (eta(np.abs(a0 * v0 + a1 * v1)) * (n0 * v0 + n1 * v1)) ** 2)
        # the kinks R(+-w) a^: |<a, xi_1>| = eta(|a|) and |<a, xi_2>| = eta(|a| sin w)
        na = _norm(a)
        cw = np.divide(eta(na), na, out=np.ones_like(na), where=na > 0)
        sw = np.sqrt((1.0 - cw) * (1.0 + cw))
        p, q = n0 * u0 + n1 * u1, n1 * u0 - n0 * u1  # <nu, a^>, <nu, a^perp>
        cp, sq, cq, sp = cw * p, sw * q, cw * q, sw * p
        along_1, along_2 = eta(na), eta(na * sw)
        best = np.maximum(best, (along_1 * (cp - sq)) ** 2 + (along_2 * (cq + sp)) ** 2)
        if M < np.inf:
            best = np.maximum(best, (along_1 * (cp + sq)) ** 2 + (along_2 * (cq - sp)) ** 2)
        return np.sqrt(best)

    profile = "abs" if M == np.inf else f"eta[{M:g}]"
    return Density(
        f"dalmot[{profile},{profile}]",
        evaluator,
        bounded=M < np.inf,
        claimed_class="symmetric-jointly-convex",
        quadratic_form=_frobenius_form if M == np.inf else None,
    )


@dataclass(frozen=True)
class SupportPolytope:
    """Origin-symmetric convex polytope given by its vertices."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 2:
            raise DensityError("polytope needs at least two planar vertices")
        for q in v:
            if not np.any(np.all(np.abs(v + q) < 1e-12, axis=1)):
                raise DensityError("polytope vertex set must be origin-symmetric")
        if np.linalg.matrix_rank(v) < v.shape[1]:
            raise DensityError("polytope is degenerate")
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)

    def support(self, x):
        """max over vertices q of <x, q>, for (..., 2) points x, each vertex
        contracted element-wise so that a row's value does not depend on its
        batch."""
        x = np.asarray(x, dtype=float)
        x0, x1 = x[..., 0], x[..., 1]
        (q0, q1), *rest = self.vertices
        best = x0 * q0 + x1 * q1
        for q0, q1 in rest:
            best = np.maximum(best, x0 * q0 + x1 * q1)
        return best


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


_MILD_SAMPLES, _MILD_SEED = 4000, 0


def density_mild(g: Callable, name: str = "mild") -> Density:
    """f(i, j, nu) = g(i - j) for even bounded g with sup g <= 2 inf g, both
    checked on _MILD_SAMPLES normal points (scale 3, seed _MILD_SEED)."""
    rng = np.random.default_rng(_MILD_SEED)
    w = rng.normal(scale=3.0, size=(_MILD_SAMPLES, 2))
    vals = np.asarray(g(w), dtype=float)
    flipped = np.asarray(g(-w), dtype=float)
    if not (np.all(np.isfinite(vals)) and np.all(np.isfinite(flipped))):
        raise DensityError("mild-dependence g must be finite on sampled points")
    if np.max(np.abs(vals - flipped)) > 1e-12:
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


def _draw(samples: int, seed: int):
    """i, j, k, r1, r2 = 2 z[0], 2 z[1], 2 z[2], z[2], z[3], z the standard normals (4, samples, 2)
    of default_rng(seed): bit for bit three rng.normal(scale=2.0) draws and one rng.normal()."""
    z = np.random.default_rng(seed).standard_normal((4, samples, 2))
    return (*(2.0 * z[:3]), z[2], z[3])


def _symmetry(f, i, j, k, r1, r2):
    nu = r1 / _norm(r1)[:, None]
    return float(np.max(np.abs(f(i, j, nu) - f(j, i, -nu))))


def _subadditivity(f, i, j, k, r1, r2, extra=()):
    rho = r2 / _norm(r2)[:, None]
    return max([float(np.max(f(i, j, rho) - f(i, k, rho) - f(k, j, rho)))]
               + [float(f(a, b, r) - f(a, c, r) - f(c, b, r)) for a, b, c, r in extra])


def _convexity(f, i, j, k, r1, r2):
    def fhom(rho):
        if f.one_homogeneous_in_nu:
            return f(i, j, rho)
        n = _norm(rho)
        n = np.where(n == 0, 1.0, n)
        return n * f(i, j, rho / n[:, None])

    return float(np.max(fhom(0.5 * (r1 + r2)) - 0.5 * fhom(r1) - 0.5 * fhom(r2)))


def symmetry_violation(f: Density, samples: int = 10_000, seed: int = 0) -> float:
    """max |f(i,j,nu) - f(j,i,-nu)| over random triples."""
    return _symmetry(f, *_draw(samples, seed))


def check_subadditivity(f: Density, samples: int = 10_000, seed: int = 0, extra=()) -> float:
    """max over sampled (i,j,k,rho), and over the (i, j, k, rho) probes in
    `extra`, of f(i,j,rho) - f(i,k,rho) - f(k,j,rho); nonpositive (within
    tolerance) is necessary for ellipticity."""
    return _subadditivity(f, *_draw(samples, seed), extra)


def check_convexity_in_nu(f: Density, samples: int = 10_000, seed: int = 0) -> float:
    """max midpoint-convexity violation of the 1-homogeneous extension in nu."""
    return _convexity(f, *_draw(samples, seed))


def sampled_violations(f: Density, samples: int = 10_000, seed: int = 0, extra=()):
    """The values of the three checks above, from one draw."""
    drawn = _draw(samples, seed)
    return _symmetry(f, *drawn), _subadditivity(f, *drawn, extra), _convexity(f, *drawn)


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
    return 1.0 + 0.5 * np.minimum(_norm(w), 1.0)


def _square_polytope() -> SupportPolytope:
    return SupportPolytope(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]))


# (catalog id with its default parameters, builder(**parameters) -> Density)
_REGISTRY = (
    ("isotropic:id",
     lambda: replace(density_isotropic(identity_profile()), quadratic_form=_isotropic_form)),
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
