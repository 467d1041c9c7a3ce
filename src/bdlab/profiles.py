"""Scalar profiles with primitives, and monotone profiles for isotropic densities.

ScalarProfile bundles a function of one variable with its primitive (fixed by
F(0)=0) and derivative, which lets vector fields built from them carry
analytic potentials and strain terms.
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
    traces.  `mean(x0, x1)`, when set, is the exact mean of the profile over
    each interval [x0, x1] (either order) with no kink inside, element-wise.
    """

    name: str
    value: Callable
    primitive: Callable
    deriv: Callable
    bound: float = np.inf
    kinks: tuple = ()
    mean: Callable | None = None

    @property
    def bounded(self) -> bool:
        return bool(np.isfinite(self.bound))

    def __call__(self, t):
        return self.value(np.asarray(t, dtype=float))


def _midpoint(value):
    """The mean over [x0, x1] of a profile that is linear between its kinks:
    its value at the midpoint.  A kink that rounding puts just inside an
    end moves it to second order only; the trapezoid (p(x0) + p(x1)) / 2
    would take that end's value from the wrong side, weighted by the whole
    interval."""
    return lambda x0, x1: value(0.5 * (x0 + x1))


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
        f"eta[{M:g}]", value, primitive, deriv, bound=M, kinks=(-M, 0.0, M),
        mean=_midpoint(value),
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
        f"tau[{M:g}]", value, primitive, deriv, bound=M, kinks=(-M, M),
        mean=_midpoint(value),
    )


def abs_profile() -> ScalarProfile:
    """t -> |t| (unbounded; fields require a truncated stand-in)."""
    return ScalarProfile(
        "abs",
        np.abs,
        lambda t: 0.5 * t * np.abs(t),
        lambda t: np.sign(t),
        kinks=(0.0,),
        mean=_midpoint(np.abs),
    )


def sin_profile(amplitude: float = 1.0, frequency: float = 1.0) -> ScalarProfile:
    a, w = float(amplitude), float(frequency)

    def mean(x0, x1):
        # (cos(w x0) - cos(w x1)) / (w (x1 - x0)) as a product around the
        # midpoint m and half-width h, which does not cancel as h -> 0
        wh = w * (0.5 * (x1 - x0))
        ratio = np.divide(np.sin(wh), wh, out=np.ones_like(wh), where=wh != 0.0)
        return a * np.sin(w * (0.5 * (x0 + x1))) * ratio

    return ScalarProfile(
        f"sin[{a:g},{w:g}]",
        lambda t: a * np.sin(w * t),
        lambda t: a * (1.0 - np.cos(w * t)) / w,
        lambda t: a * w * np.cos(w * t),
        bound=abs(a),
        mean=mean,
    )


def zero_profile() -> ScalarProfile:
    def zero(t):
        return np.zeros_like(np.asarray(t, dtype=float))

    return ScalarProfile("zero", zero, zero, zero, bound=0.0, mean=lambda x0, x1: zero(x0))


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
