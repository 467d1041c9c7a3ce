"""Scalar profiles with primitives, and monotone profiles for isotropic densities.

ScalarProfile bundles a function of one variable with its primitive (fixed by
F(0)=0) and derivative, which lets vector fields built from them carry
analytic potentials and Jacobians.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


class ProfileError(ValueError):
    """Profile fails a required structural property."""


@dataclass(frozen=True)
class ScalarProfile:
    """A scalar function with primitive (vanishing at 0) and a.e. derivative.

    `kinks` lists the argument values where the derivative jumps; quadrature
    uses them as exact breakpoints when the profile is composed with affine
    traces.
    """

    name: str
    value: Callable
    primitive: Callable
    deriv: Callable
    bound: float = np.inf
    kinks: tuple = ()

    @property
    def bounded(self) -> bool:
        return bool(np.isfinite(self.bound))

    def __call__(self, t):
        return self.value(np.asarray(t, dtype=float))


def eta_profile(M: float) -> ScalarProfile:
    """Even truncation t -> min{|t|, M} with its odd primitive."""
    M = float(M)
    if not M > 0:
        raise ProfileError("truncation level must be positive")

    def value(t):
        return np.minimum(np.abs(t), M)

    def primitive(t):
        a = np.abs(t)
        return np.sign(t) * np.where(a <= M, 0.5 * a * a, M * a - 0.5 * M * M)

    def deriv(t):
        return np.where(np.abs(t) < M, np.sign(t), 0.0)

    return ScalarProfile(
        f"eta[{M:g}]", value, primitive, deriv, bound=M, kinks=(-M, 0.0, M)
    )


def tau_profile(M: float) -> ScalarProfile:
    """Odd clamp t -> clip(t, -M, M) with its even primitive."""
    M = float(M)
    if not M > 0:
        raise ProfileError("clamp level must be positive")

    def value(t):
        return np.clip(t, -M, M)

    def primitive(t):
        a = np.abs(t)
        return np.where(a <= M, 0.5 * t * t, M * a - 0.5 * M * M)

    def deriv(t):
        return np.where(np.abs(t) < M, 1.0, 0.0)

    return ScalarProfile(
        f"tau[{M:g}]", value, primitive, deriv, bound=M, kinks=(-M, M)
    )


def abs_profile() -> ScalarProfile:
    """t -> |t| (unbounded; fields require a truncated stand-in)."""
    return ScalarProfile(
        "abs",
        lambda t: np.abs(t),
        lambda t: 0.5 * t * np.abs(t),
        lambda t: np.sign(t),
        kinks=(0.0,),
    )


def sin_profile(amplitude: float = 1.0, frequency: float = 1.0) -> ScalarProfile:
    a, w = float(amplitude), float(frequency)
    return ScalarProfile(
        f"sin[{a:g},{w:g}]",
        lambda t: a * np.sin(w * t),
        lambda t: a * (1.0 - np.cos(w * t)) / w,
        lambda t: a * w * np.cos(w * t),
        bound=abs(a),
    )


def zero_profile() -> ScalarProfile:
    return ScalarProfile(
        "zero",
        lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        bound=0.0,
    )


_GRID = np.geomspace(1e-6, 1e6, 241)


@dataclass(frozen=True)
class SubadditiveProfile:
    """Increasing g on [0, oo) with g(t)/t nonincreasing (hence subadditive)."""

    name: str
    value: Callable
    bound: float = np.inf

    @property
    def bounded(self) -> bool:
        return bool(np.isfinite(self.bound))

    def __post_init__(self):
        g = self.value(_GRID)
        if np.any(g < -1e-12):
            raise ProfileError(f"profile {self.name} takes negative values")
        if np.any(np.diff(g) < -1e-12 * (1.0 + np.abs(g[:-1]))):
            raise ProfileError(f"profile {self.name} is not increasing")
        ratio = g / _GRID
        if np.any(np.diff(ratio) > 1e-12 * (1.0 + np.abs(ratio[:-1]))):
            raise ProfileError(f"profile {self.name}: g(t)/t must be nonincreasing")

    def __call__(self, t):
        return self.value(np.asarray(t, dtype=float))


def identity_profile() -> SubadditiveProfile:
    return SubadditiveProfile("id", lambda t: np.asarray(t, dtype=float))


def constant_profile(c: float) -> SubadditiveProfile:
    c = float(c)
    if c < 0:
        raise ProfileError("constant profile must be nonnegative")
    return SubadditiveProfile(
        f"const[{c:g}]", lambda t: np.full_like(np.asarray(t, dtype=float), c),
        bound=c,
    )


def truncated_profile(a: float, M: float) -> SubadditiveProfile:
    """g(t) = min{a t, M}."""
    a, M = float(a), float(M)
    if a < 0 or M < 0:
        raise ProfileError("truncated profile needs a, M >= 0")
    return SubadditiveProfile(
        f"trunc[a={a:g},M={M:g}]",
        lambda t: np.minimum(a * np.asarray(t, dtype=float), M),
        bound=M,
    )


def sqrt_profile() -> SubadditiveProfile:
    return SubadditiveProfile("sqrt", lambda t: np.sqrt(np.abs(t)))


def table_profile(ts, gs, name: str = "table") -> SubadditiveProfile:
    """Piecewise-linear profile through (ts, gs); monotonicity is validated."""
    ts = np.asarray(ts, dtype=float)
    gs = np.asarray(gs, dtype=float)
    if ts.ndim != 1 or ts.shape != gs.shape or ts.size < 2:
        raise ProfileError("table needs matching 1d arrays with >= 2 nodes")
    if np.any(np.diff(ts) <= 0) or ts[0] < 0:
        raise ProfileError("table abscissae must be increasing and nonnegative")
    if np.any(gs < 0) or np.any(np.diff(gs) < 0):
        raise ProfileError("table values must be nonnegative and nondecreasing")
    pos = ts > 0
    ratio = gs[pos] / ts[pos]
    if np.any(np.diff(ratio) > 1e-12 * (1.0 + ratio[:-1])):
        raise ProfileError("table violates: g(t)/t nonincreasing")

    def value(t):
        t = np.asarray(t, dtype=float)
        return np.interp(t, ts, gs)  # constant extension beyond the last node

    return SubadditiveProfile(name, value, bound=float(gs[-1]))
