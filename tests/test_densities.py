import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bdlab import densities
from bdlab.densities import (
    CATALOG_IDS,
    Density,
    DensityError,
    SupportPolytope,
    catalog_density,
    check_convexity_in_nu,
    check_subadditivity,
    density_biconvex_frobenius,
    density_dalmot,
    density_isotropic,
    density_mild,
    density_normal_only,
    density_product,
    symmetry_violation,
)
from bdlab.profiles import (
    constant_profile,
    eta_profile,
    identity_profile,
    sqrt_profile,
    truncated_profile,
)

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])
ZERO = np.array([0.0, 0.0])


def frobenius_oracle(a, b):
    """Brute-force entrywise Frobenius norm of the symmetrized tensor product."""
    M = 0.5 * (np.outer(a, b) + np.outer(b, a))
    return float(np.sqrt(np.sum(M * M)))


class TestProfiles:
    def test_sqrt_and_identity_pass(self):
        sqrt_profile()
        identity_profile()

    def test_eta_matches_truncated(self):
        t = np.linspace(-4, 4, 101)
        assert np.allclose(eta_profile(1.5)(t), np.minimum(np.abs(t), 1.5))


class TestIsotropic:
    def test_identity_profile(self):
        f = density_isotropic(identity_profile())
        assert f(E1, ZERO, E2) == pytest.approx(1.0)

    def test_truncation(self):
        f = density_isotropic(truncated_profile(1.0, 1.0))
        assert f(2 * E1, ZERO, E2) == pytest.approx(1.0)

    def test_constant_is_interface_measure(self):
        f = density_isotropic(constant_profile(1.0))
        assert f(E1, 5 * E2, E2) == pytest.approx(1.0)

    def test_one_homogeneity_exact(self):
        f = density_isotropic(identity_profile())
        rng = np.random.default_rng(1)
        i = rng.normal(size=(100, 2))
        j = rng.normal(size=(100, 2))
        nu = rng.normal(size=(100, 2))
        t = rng.uniform(0.1, 10, size=100)
        lhs = f(i, j, t[:, None] * nu)
        rhs = t * f(i, j, nu)
        assert np.max(np.abs(lhs - rhs) / rhs) < 1e-14

    def test_truncation_consistency(self):
        # min{a|i-j|, M}|nu| is linear below M/a and flat above, exactly
        rng = np.random.default_rng(2)
        a, M = 1.3, 2.0
        f = density_isotropic(truncated_profile(a, M))
        for _ in range(100):
            i = rng.normal(size=2)
            j = rng.normal(size=2)
            nu = rng.normal(size=2)
            gap = a * np.linalg.norm(i - j)
            expect = min(gap, M) * np.linalg.norm(nu)
            assert f(i, j, nu) == pytest.approx(expect, rel=1e-15)

    def test_diagonal_is_zero(self):
        f = density_isotropic(identity_profile())
        assert f(E1, E1, E2) == 0.0


class TestFrobenius:
    def test_aligned(self):
        f = density_biconvex_frobenius()
        assert f(E1, ZERO, E1) == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal_matches_bruteforce(self):
        f = density_biconvex_frobenius()
        assert frobenius_oracle(E1, E2) == pytest.approx(1 / np.sqrt(2), abs=1e-15)
        assert f(E1, ZERO, E2) == pytest.approx(1 / np.sqrt(2), abs=1e-15)

    def test_closed_form_matches_bruteforce_random(self):
        f = density_biconvex_frobenius()
        rng = np.random.default_rng(3)
        for _ in range(300):
            i = rng.normal(size=2)
            j = rng.normal(size=2)
            nu = rng.normal(size=2)
            assert f(i, j, nu) == pytest.approx(frobenius_oracle(i - j, nu), abs=1e-12)

    def test_diagonal(self):
        assert density_biconvex_frobenius()(E1, E1, E2) == 0.0


def dalmot_oracle(a, nu, M, angles=200_001):
    """Brute-force sup over bases: the objective on a uniform grid of [0, pi/2)."""
    phi = np.linspace(0.0, 0.5 * np.pi, angles, endpoint=False)
    c, s = np.cos(phi), np.sin(phi)
    total = 0.0
    for xc, xs in ((c, s), (-s, c)):
        along_a = a[0] * xc + a[1] * xs
        along_nu = nu[0] * xc + nu[1] * xs
        total = total + np.minimum(np.abs(along_a), M) ** 2 * along_nu**2
    return float(np.sqrt(np.max(total)))


@st.composite
def dalmot_triples(draw):
    """(M, a, nu) with |a| at 0 and at the kinks M, sqrt(2) M, and nu along
    a, across a, or free."""
    M = draw(st.sampled_from([0.3, 1.0, 2.5, np.inf]))
    special = [0.0, 1e-3, 1e6] + ([M, np.sqrt(2.0) * M] if M < np.inf else [])
    r = draw(st.sampled_from(special) | st.floats(0.0, 10.0))
    angle = st.floats(0.0, 2.0 * np.pi)
    ta = draw(angle)
    tn = draw(st.sampled_from([ta, ta + 0.5 * np.pi]) | angle)
    rn = draw(st.floats(0.1, 10.0))
    a = r * np.array([np.cos(ta), np.sin(ta)])
    nu = rn * np.array([np.cos(tn), np.sin(tn)])
    return M, a, nu


class TestDalmot:
    def test_abs_profile_equals_frobenius(self):
        f = density_dalmot()
        assert f(E1, ZERO, E2) == pytest.approx(1 / np.sqrt(2), abs=1e-10)

    def test_abs_agrees_with_frobenius_on_random_triples(self):
        f = density_dalmot()
        g = density_biconvex_frobenius()
        rng = np.random.default_rng(4)
        i = rng.normal(size=(200, 2))
        j = rng.normal(size=(200, 2))
        nu = rng.normal(size=(200, 2))
        assert np.max(np.abs(f(i, j, nu) - g(i, j, nu))) < 1e-8

    def test_abs_catalog_id_is_frobenius_to_rounding(self):
        f = catalog_density("dalmot:abs")
        g = catalog_density("frobenius")
        rng = np.random.default_rng(7)
        i, j, nu = (rng.normal(scale=2.0, size=(5000, 2)) for _ in range(3))
        assert np.max(np.abs(f(i, j, nu) / g(i, j, nu) - 1.0)) <= 1e-14

    def test_truncated_saturates(self):
        M = 1.0
        f = density_dalmot(M)
        rng = np.random.default_rng(5)
        for _ in range(50):
            d = rng.normal(size=2)
            d *= (np.sqrt(2) * M + rng.uniform(0, 3)) / np.linalg.norm(d)
            nu = rng.normal(size=2)
            want = M * np.linalg.norm(nu)
            assert f(d, ZERO, nu) == pytest.approx(want, abs=1e-8)

    def test_zero_gap(self):
        f = density_dalmot()
        assert f(E1, E1, E2) == 0.0

    @pytest.mark.parametrize("M", [0.0, -1.0, np.nan])
    def test_rejects_nonpositive_truncation(self, M):
        with pytest.raises(DensityError):
            density_dalmot(M)

    def test_names_and_bounds(self):
        assert density_dalmot().name == "dalmot[abs,abs]"
        assert density_dalmot(1).name == "dalmot[eta[1],eta[1]]"
        assert not density_dalmot().bounded and density_dalmot(1).bounded

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(dalmot_triples())
    def test_exact_sup_against_brute_force(self, triple):
        # the brute force misses a kink maximum by up to its grid spacing
        M, a, nu = triple
        value = float(density_dalmot(M)(a, ZERO, nu))
        brute = dalmot_oracle(a, nu, M)
        assert brute * (1 - 1e-15) <= value <= brute * (1 + 1e-5)


class TestNormalOnly:
    def test_square_polytope_supports(self):
        K = SupportPolytope(np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float))
        f = density_normal_only(K)
        # brute-force max over the 4 vertices
        for nu in (E1, E2, np.array([1.0, 1.0]) / np.sqrt(2)):
            want = max(float(nu @ q) for q in K.vertices)
            assert f(E1, ZERO, nu) == pytest.approx(want, abs=1e-15)

    def test_polygon_approximation_of_disc(self):
        ang = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        # balanced radius: support oscillates within +-6e-4 around 1
        r = 2.0 / (1.0 + np.cos(np.pi / 64))
        K = SupportPolytope(r * np.c_[np.cos(ang), np.sin(ang)])
        f = density_normal_only(K)
        rng = np.random.default_rng(6)
        for _ in range(50):
            nu = rng.normal(size=2)
            nu /= np.linalg.norm(nu)
            assert f(E1, ZERO, nu) == pytest.approx(1.0, abs=1e-3)

    def test_trace_independence(self):
        K = SupportPolytope(np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float))
        f = density_normal_only(K)
        assert f(E1, ZERO, E2) == f(7 * E1, -3 * E2, E2)

    def test_asymmetric_vertices_rejected(self):
        with pytest.raises(DensityError):
            SupportPolytope(np.array([[1, 0], [0, 1], [-1, 0]], dtype=float))

    def test_non_planar_vertices_rejected(self):
        cube = np.array([[1.0, 0, 0], [0, 1, 0], [0, 0, 1], [-1, 0, 0], [0, -1, 0], [0, 0, -1]])
        for bad in (cube, np.array([[1.0], [-1.0]]), np.array([1.0, -1.0])):
            with pytest.raises(DensityError, match="planar"):
                SupportPolytope(bad)


class TestMild:
    def test_constant(self):
        f = density_mild(lambda w: np.full(np.asarray(w).shape[:-1], 1.5))
        assert f(E1, ZERO, E2) == pytest.approx(1.5)

    def test_range_within_two(self):
        f = density_mild(
            lambda w: 1.0 + 0.5 * np.minimum(np.linalg.norm(np.asarray(w), axis=-1), 1.0)
        )
        assert f(5 * E1, ZERO, E2) == pytest.approx(1.5)

    def test_violating_range_rejected(self):
        with pytest.raises(DensityError):
            density_mild(
                lambda w: 1.0 + 1.5 * np.minimum(np.linalg.norm(np.asarray(w), axis=-1), 1.0)
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_g_rejected(self, bad):
        def partly(w):
            # bad on the samples with a first component above 5, about 5 %
            return np.where(w[..., 0] > 5.0, bad, 1.5)

        with pytest.raises(DensityError, match="finite"):
            density_mild(partly)
        with pytest.raises(DensityError, match="finite"):
            density_mild(lambda w: np.full(w.shape[:-1], bad))


class TestChecks:
    def test_isotropic_id_subadditive(self):
        f = density_isotropic(identity_profile())
        assert check_subadditivity(f, samples=2000, seed=0) <= 1e-10

    def test_quadratic_fails_subadditivity(self):
        f = Density(
            "quad",
            lambda i, j, nu: np.linalg.norm(i - j, axis=-1) ** 2
            * np.linalg.norm(nu, axis=-1),
        )
        triple = (2 * E1, ZERO, E1, E2)
        v = check_subadditivity(f, samples=500, seed=0, extra=[triple])
        assert v >= 2.0
        # the derived triple alone gives exactly 4 - 1 - 1 = 2
        assert f(2 * E1, ZERO, E2) - f(2 * E1, E1, E2) - f(E1, ZERO, E2) == pytest.approx(2.0)

    def test_constant_density_strictly_subadditive(self):
        f = density_isotropic(constant_profile(1.0))
        assert check_subadditivity(f, samples=500, seed=0) == pytest.approx(-1.0, abs=1e-12)

    def test_convexity_of_catalog(self):
        for fid in ("isotropic:id", "frobenius", "normal:polytopeK", "mild:g"):
            f = catalog_density(fid)
            assert check_convexity_in_nu(f, samples=2000, seed=0) <= 1e-10, fid

    def test_elliptic_claims_pass_both_checks(self):
        # every catalog entry claiming ellipticity stays within 1e-10 on both
        # sampled necessary conditions
        for fid in CATALOG_IDS:
            f = catalog_density(fid)
            if f.claimed_class not in ("BD-elliptic", "symmetric-jointly-convex"):
                continue
            samples = 1500 if fid.startswith(("dalmot", "frobenius:trunc")) else 10_000
            assert check_subadditivity(f, samples=samples, seed=3) <= 1e-10, fid
            assert check_convexity_in_nu(f, samples=samples, seed=3) <= 1e-10, fid

    def test_nonconvex_psi_detected(self):
        def psi(nu):
            return (np.sqrt(np.abs(nu[..., 0])) + np.sqrt(np.abs(nu[..., 1]))) ** 2

        f = density_product(lambda i, j: np.linalg.norm(i - j, axis=-1), psi, name="bad")
        assert check_convexity_in_nu(f, samples=2000, seed=0) > 1e-3


FORM_IDS = ("isotropic:id", "product:aniso1:eps=0.01", "aniso2:eps=1e-4", "frobenius", "dalmot:abs")


def form_density(f, i, j, nu):
    """sqrt((i - j)^T Q(nu) (i - j)) by a matrix product."""
    d = i - j
    return np.sqrt(np.einsum("nk,nkl,nl->n", d, f.quadratic_form(nu), d))


class TestQuadraticForm:
    def test_catalog_descriptors(self):
        rng = np.random.default_rng(11)
        i, j = rng.normal(scale=2.0, size=(2, 500, 2))
        nu = rng.normal(size=(500, 2)) * rng.uniform(0.1, 10.0, size=(500, 1))
        for fid in CATALOG_IDS:
            f = catalog_density(fid)
            assert (f.quadratic_form is not None) == (fid in FORM_IDS), fid
            if f.quadratic_form is not None:
                assert np.allclose(form_density(f, i, j, nu), f(i, j, nu), rtol=1e-13, atol=0)

    def test_truncated_dalmot_has_no_form(self):
        assert density_dalmot(1.0).quadratic_form is None
        assert density_dalmot().quadratic_form is not None

    def test_scaled_carries_the_scaled_form(self):
        rng = np.random.default_rng(12)
        i, j, nu = rng.normal(size=(3, 50, 2))
        for fid in FORM_IDS:
            f = catalog_density(fid)
            g = f.scaled(2.5)
            assert np.array_equal(g.quadratic_form(nu), 6.25 * f.quadratic_form(nu))
            assert np.allclose(form_density(g, i, j, nu), g(i, j, nu), rtol=1e-13, atol=0)

    def test_stale_form_raises(self):
        f = catalog_density("frobenius")
        iso = catalog_density("isotropic:id")
        with pytest.raises(DensityError, match="quadratic form"):
            dataclasses.replace(f, evaluator=iso.evaluator)
        with pytest.raises(DensityError, match="quadratic form"):
            dataclasses.replace(f, evaluator=lambda i, j, nu: np.full(i.shape[:-1], np.nan))
        # a matching evaluator, or no form at all, passes
        dataclasses.replace(f, evaluator=lambda i, j, nu: f.evaluator(i, j, nu))
        dataclasses.replace(f, evaluator=iso.evaluator, quadratic_form=None)


class TestCatalog:
    def test_all_ids_resolve(self):
        for fid in CATALOG_IDS:
            f = catalog_density(fid)
            assert isinstance(f, Density)

    def test_catalog_ids_pinned(self):
        # the density-scan benchmark workload iterates over this tuple
        assert CATALOG_IDS == (
            "isotropic:id",
            "isotropic:trunc:a=1,M=1",
            "isotropic:const:c=1",
            "isotropic:sqrt",
            "product:aniso1:eps=0.01",
            "aniso2:eps=1e-4",
            "dalmot:abs",
            "frobenius",
            "frobenius:trunc:M=1",
            "normal:polytopeK",
            "mild:g",
        )

    def test_omitted_parameters_take_catalog_defaults(self):
        rng = np.random.default_rng(5)
        i, j, nu = (rng.normal(size=(50, 2)) for _ in range(3))
        for short, full in (
            ("isotropic:trunc", "isotropic:trunc:a=1,M=1"),
            ("isotropic:trunc:M=1", "isotropic:trunc:a=1,M=1"),
            ("aniso2", "aniso2:eps=1e-4"),
            ("product:aniso1", "product:aniso1:eps=0.01"),
        ):
            f, g = catalog_density(short), catalog_density(full)
            assert f.name == g.name
            assert np.array_equal(f(i, j, nu), g(i, j, nu))

    def test_unknown_id(self):
        with pytest.raises(DensityError):
            catalog_density("bogus:thing")

    def test_malformed_ids_raise(self):
        bad = (
            "frobenius:bogus", "normal:bogus", "mild:bogus", "isotropic:id:junk",
            "isotropic:bogus", "dalmot:bogus", "product", "isotropic:",
            "isotropic:trunc:a=1,M=1:x", "aniso2:eps=1e-4:x", "mild:g:x",
            "isotropic:trunc:b=1", "isotropic:const:c=x", "aniso2:bogus",
            # bare heads and the dalmot twin of frobenius:trunc are not ids
            "isotropic", "dalmot", "normal", "mild", "dalmot:trunc",
        )
        for fid in bad:
            with pytest.raises(DensityError):
                catalog_density(fid)

    def test_symmetry_on_catalog(self):
        for fid in CATALOG_IDS:
            f = catalog_density(fid)
            assert symmetry_violation(f, samples=10_000, seed=0) <= 1e-12, fid

    def test_dalmot_vs_frobenius_catalog(self):
        f = catalog_density("dalmot:abs")
        g = catalog_density("frobenius")
        rng = np.random.default_rng(7)
        i = rng.normal(size=(1000, 2))
        j = rng.normal(size=(1000, 2))
        nu = rng.normal(size=(1000, 2))
        assert np.max(np.abs(f(i, j, nu) - g(i, j, nu))) < 1e-8

    def test_counterexample_densities(self):
        f1 = catalog_density("product:aniso1:eps=0.01")
        assert f1(ZERO, 2 * np.ones(2), E2) == pytest.approx(2 * np.sqrt(2))
        assert f1(ZERO, 2 * np.ones(2), E1) == pytest.approx(0.01 * 2 * np.sqrt(2))
        f2 = catalog_density("aniso2:eps=1e-4")
        assert f2(ZERO, 2 * np.ones(2), E2) == pytest.approx(2 * np.sqrt(1 + 1e-4))

    def test_product_reduces_to_isotropic(self):
        f = density_product(
            lambda i, j: np.linalg.norm(i - j, axis=-1),
            lambda nu: np.linalg.norm(nu, axis=-1),
        )
        g = density_isotropic(identity_profile())
        rng = np.random.default_rng(8)
        i = rng.normal(size=(100, 2))
        j = rng.normal(size=(100, 2))
        nu = rng.normal(size=(100, 2))
        assert np.allclose(f(i, j, nu), g(i, j, nu))

    def test_scaled(self):
        f = catalog_density("frobenius")
        assert f.scaled(3.0)(E1, ZERO, E2) == pytest.approx(3 / np.sqrt(2))

    @pytest.mark.parametrize("fid", ["isotropic:sqrt", "normal:polytopeK", "dalmot:abs"])
    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_scaled_refuses_a_factor_not_finite_and_positive(self, fid, t):
        f = catalog_density(fid)
        with pytest.raises(DensityError, match="finite and positive"):
            f.scaled(t)


# The evaluators and checks as they were before they computed on the two
# planar components: reductions over the last axis, a BLAS product for the
# support function and the four candidate angles of the sup over bases
# stacked on a last axis.  The rewritten functions equal them bit for bit,
# except the sup over bases, which builds its candidate bases from unit
# vectors instead of angles and equals its oracle to DALMOT_BOUND.


def former_norm(v):
    return np.linalg.norm(v, axis=-1)


def former_dot(a, b):
    return np.einsum("...k,...k->...", a, b)


def former_call(evaluator, i, j, nu):
    i, j, nu = (np.asarray(v, dtype=float) for v in (i, j, nu))
    out = np.asarray(evaluator(i, j, nu), dtype=float)
    diag = np.all(i == j, axis=-1)
    if np.any(diag):
        out = np.where(diag, 0.0, out)
    return out


def former_axis_angle(v):
    n = former_norm(v)
    x, y = np.moveaxis(v / np.where(n > 0, n, 1.0)[..., None], -1, 0)
    return 0.5 * np.arctan2(2.0 * x * y, x * x - y * y)


def former_dalmot_evaluator(M):
    def evaluator(i, j, nu):
        a, nu = np.broadcast_arrays(i - j, nu)
        na = former_norm(a)
        alpha, beta = former_axis_angle(a), former_axis_angle(nu)
        width = np.arccos(np.divide(np.minimum(na, M), na, out=np.ones_like(na), where=na > 0))
        phi = np.stack([0.5 * (alpha + beta), beta, alpha + width, alpha - width], axis=-1)
        c, s = np.cos(phi), np.sin(phi)
        total = 0.0
        for xc, xs in ((c, s), (-s, c)):
            along_a = a[..., :1] * xc + a[..., 1:] * xs
            along_nu = nu[..., :1] * xc + nu[..., 1:] * xs
            total = total + np.minimum(np.abs(along_a), M) ** 2 * along_nu**2
        return np.sqrt(np.max(total, axis=-1))

    return evaluator


def former_support(vertices, x):
    return np.max(np.asarray(x, dtype=float) @ vertices.T, axis=-1)


def former_mild_g(w):
    return 1.0 + 0.5 * np.minimum(np.linalg.norm(np.asarray(w, dtype=float), axis=-1), 1.0)


def former_symmetry_violation(f, samples, seed):
    rng = np.random.default_rng(seed)
    i = rng.normal(scale=2.0, size=(samples, 2))
    j = rng.normal(scale=2.0, size=(samples, 2))
    nu = rng.normal(size=(samples, 2))
    nu /= np.linalg.norm(nu, axis=1, keepdims=True)
    return float(np.max(np.abs(f(i, j, nu) - f(j, i, -nu))))


def former_check_subadditivity(f, samples, seed):
    rng = np.random.default_rng(seed)
    i = rng.normal(scale=2.0, size=(samples, 2))
    j = rng.normal(scale=2.0, size=(samples, 2))
    k = rng.normal(scale=2.0, size=(samples, 2))
    rho = rng.normal(size=(samples, 2))
    rho /= np.linalg.norm(rho, axis=1, keepdims=True)
    return float(np.max(f(i, j, rho) - f(i, k, rho) - f(k, j, rho)))


def former_check_convexity_in_nu(f, samples, seed):
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
    return float(np.max(fhom(mid) - 0.5 * fhom(r1) - 0.5 * fhom(r2)))


def magnitudes(exponent):
    """Entries +-10**e, e drawn from [-exponent, exponent]."""
    return st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([-1.0, 1.0]),
                     st.floats(-exponent, exponent))


def entries(exponent):
    """magnitudes(exponent), zeros of either sign, NaN and +-inf."""
    return magnitudes(exponent) | st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf])


ENTRY = entries(300.0)
SHAPES = st.sampled_from([(2,), (1, 2), (5, 2), (3, 4, 2)])


@st.composite
def planar_triples(draw, entry=ENTRY):
    """(i, j, nu) of one shape (2,), (n, 2) or (n, m, 2), with rows where
    i == j and rows where one component of i and j agrees."""
    shape = draw(SHAPES)
    size = int(np.prod(shape))
    i, j, nu = (np.array(draw(st.lists(entry, min_size=size, max_size=size))).reshape(shape)
                for _ in range(3))
    rows, n = shape[:-1], size // 2

    def row_mask():
        return np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n))).reshape(rows)

    same = row_mask()
    j[same] = i[same]
    k, one = draw(st.integers(0, 1)), row_mask()
    j[one, k] = i[one, k]
    return i, j, nu


def same_bits(a, b):
    """Equal values and shapes; NaN equals NaN whatever its sign bit."""
    return np.shape(a) == np.shape(b) and np.array_equal(a, b, equal_nan=True)


SQUARE = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])

# the sup over bases against its angle-form oracle, relative, where the
# oracle is finite and nonzero
DALMOT_BOUND = 8 * np.finfo(float).eps
# entries whose rows are all in dalmot_in_range: |i - j| from about 1e-66
# (two entries one ulp apart at 1e-50) and |nu| up to 1e50
IN_RANGE = entries(50.0)


def dalmot_in_range(a, nu, M):
    """Rows where no square in either form over- or underflows: finite a and
    nu, |a| and |nu| each 0 or in [1e-150, 1e150], and min(|a|, M) |nu| 0 or
    in [1e-140, 1e140] (the squares stay below 1e300 and an underflowed
    term is below 1e-20 of the largest)."""
    A, N = np.hypot(a[..., 0], a[..., 1]), np.hypot(nu[..., 0], nu[..., 1])
    P = np.minimum(A, M) * N

    def zero_or_within(x, bound):
        return (x == 0) | ((x >= 1.0 / bound) & (x <= bound))

    return (np.all(np.isfinite(a), axis=-1) & np.all(np.isfinite(nu), axis=-1)
            & zero_or_within(A, 1e150) & zero_or_within(N, 1e150) & zero_or_within(P, 1e140))


def dalmot_close(got, want):
    """got equals want where want is 0, NaN or +-inf, and is within
    DALMOT_BOUND of it, relative, elsewhere."""
    got, want = np.asarray(got), np.asarray(want)
    exact = ~np.isfinite(want) | (want == 0)
    return (same_bits(got[exact], want[exact])
            and bool(np.all(np.abs(got - want)[~exact] <= DALMOT_BOUND * want[~exact])))


class TestComponentForm:
    """The component-form evaluators and checks against their `former_*`
    oracles, which reduce over the last axis."""

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(planar_triples())
    @example((np.array([1e300, 1e300]), np.array([-1e300, 0.0]), np.array([0.0, -0.0])))
    @example((np.array([np.inf, 1.0]), np.array([np.inf, 1.0]), np.array([np.nan, 1.0])))
    def test_kernels_equal_the_former(self, triple):
        i, j, nu = triple
        with np.errstate(all="ignore"):
            for got, want in (
                (densities._norm(i), former_norm(i)),
                (densities._dot(i, nu), former_dot(i, nu)),
                (densities._mild_g(i), former_mild_g(i)),
                (SupportPolytope(SQUARE).support(nu), former_support(SQUARE, nu)),
            ):
                assert same_bits(got, want)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(planar_triples())
    def test_call_equals_the_former(self, triple):
        i, j, nu = triple

        def evaluator(i, j, nu):
            return former_norm(i - j) * former_norm(nu)

        with np.errstate(all="ignore"):
            got = Density("probe", evaluator)(i, j, nu)
            assert same_bits(got, former_call(evaluator, i, j, nu))

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(planar_triples(), planar_triples(magnitudes(300.0)), planar_triples(IN_RANGE),
           st.sampled_from([1.0, np.inf]))
    @example((np.array([1e300, 1e300]), np.array([-1e300, 0.0]), np.array([1.0, 0.0])),
             (np.array([1e200, 1.0]), np.array([0.0, 0.0]), np.array([0.6, 0.8])),
             (np.array([1.2, 0.0]), np.array([0.0, 0.0]), np.array([0.6, 0.8])), 1.0)
    def test_dalmot_equals_the_former(self, triple, finite_triple, in_range_triple, M):
        # to DALMOT_BOUND on the rows in range; out of it the former squares
        # <a, xi> and <nu, xi> apart and turns 0 * inf into NaN, so a finite
        # nonzero value must only stay finite and nonzero (the fixed probes
        # are test_dalmot_out_of_range_probes)
        for i, j, nu in (triple, finite_triple, in_range_triple):
            with np.errstate(all="ignore"):
                got = density_dalmot(M)(i, j, nu)
                want = former_call(former_dalmot_evaluator(M), i, j, nu)
                rows = dalmot_in_range(i - j, nu, M)
            assert dalmot_close(got[rows], want[rows])
            kept = np.isfinite(want) & (want != 0)
            assert np.all(np.isfinite(got[kept]) & (got[kept] != 0))
        i, j, nu = in_range_triple
        with np.errstate(all="ignore"):
            a = i - j
            rows = dalmot_in_range(a, nu, M)
        finite = np.all(np.isfinite(a), axis=-1) & np.all(np.isfinite(nu), axis=-1)
        assert np.all(rows[finite])

    @pytest.mark.parametrize("M", [1.0, np.inf])
    @pytest.mark.parametrize("turn", [0.0, np.pi / 2, 1e-9, 1.0])
    @pytest.mark.parametrize("r", [0.0, 1e-8, 1.0, 1.2, np.sqrt(2.0), 1.0 + 1e-15, 1e6])
    def test_dalmot_adversarial_triples(self, r, turn, M):
        # |a| = 0, 1e-8, at the truncation level of M = 1, between it and
        # sqrt(2), where both terms saturate, just above the level and far
        # above it; nu along a, across a, 1e-9 off a and 1 radian off it, in
        # random directions and at random scales (at |a| = 1.2 and 1 radian
        # the two kinks give different values)
        rng = np.random.default_rng(int(1e6 * r + 10 * turn))
        t = rng.uniform(0.0, 2.0 * np.pi, 500)
        a = r * np.c_[np.cos(t), np.sin(t)]
        scale = rng.choice([-1.0, 1.0], 500) * 10.0 ** rng.uniform(-2.0, 2.0, 500)
        nu = scale[:, None] * np.c_[np.cos(t + turn), np.sin(t + turn)]
        f = density_dalmot(M)
        got = f(a, ZERO, nu)
        assert dalmot_close(got, former_call(former_dalmot_evaluator(M), a, ZERO, nu))
        assert same_bits(got, f(ZERO, a, -nu))

    @pytest.mark.parametrize("M, i, j, nu, want", [
        (np.inf, (1e155, 1e155), (0.0, 0.0), E2, np.nan),
        (np.inf, (1e300, 1e300), (0.0, 0.0), E2, np.nan),
        (np.inf, (1e300, 1e300), (-1e300, 0.0), E1, np.nan),
        (1.0, (1e155, 1e155), (0.0, 0.0), E2, 1.0),
        (1.0, (1e300, 1e300), (0.0, 0.0), E2, 1.0),
        (np.inf, (1e-160, 0.0), (0.0, 0.0), E2, 7.0710284513028335e-161),
        (1.0, (1e-160, 1e-160), (0.0, 0.0), E2, 1.224738053942158e-160),
        (np.inf, (1e-200, 0.0), (0.0, 0.0), E2, 0.0),
        (1.0, (1e-200, 0.0), (0.0, 0.0), E2, 0.0),
    ])
    def test_dalmot_out_of_range_probes(self, M, i, j, nu, want):
        # |i - j|^2 overflows (NaN untruncated, M at M = 1) or underflows
        # (the rounded values of both forms)
        i, j = np.array(i), np.array(j)
        with np.errstate(all="ignore"):
            got = density_dalmot(M)(i, j, nu)
            assert same_bits(got, former_call(former_dalmot_evaluator(M), i, j, nu))
        assert same_bits(got, np.float64(want))

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(planar_triples(), st.sampled_from([1.0, np.inf]))
    @example((np.array([1e300, 1e300]), np.array([-1e300, 0.0]), np.array([1.0, 0.0])), np.inf)
    def test_dalmot_symmetric_bit_for_bit(self, triple, M):
        i, j, nu = triple
        f = density_dalmot(M)
        with np.errstate(all="ignore"):
            assert same_bits(f(i, j, nu), f(j, i, -nu))

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(st.sampled_from(CATALOG_IDS), st.integers(1, 60), st.integers(0, 2**32 - 1))
    def test_checks_equal_the_former(self, fid, samples, seed):
        f = catalog_density(fid)
        assert symmetry_violation(f, samples, seed) == former_symmetry_violation(f, samples, seed)
        assert check_subadditivity(f, samples, seed) == former_check_subadditivity(f, samples, seed)
        assert (check_convexity_in_nu(f, samples, seed)
                == former_check_convexity_in_nu(f, samples, seed))

    def test_checks_at_the_benchmark_size_equal_the_former(self):
        for fid in ("isotropic:id", "dalmot:abs", "frobenius:trunc:M=1", "mild:g"):
            f = catalog_density(fid)
            assert symmetry_violation(f) == former_symmetry_violation(f, 10_000, 0), fid
            assert check_subadditivity(f) == former_check_subadditivity(f, 10_000, 0), fid
            assert check_convexity_in_nu(f) == former_check_convexity_in_nu(f, 10_000, 0), fid

    @pytest.mark.parametrize("fid", CATALOG_IDS)
    def test_three_components_raise(self, fid):
        f = catalog_density(fid)
        v3, v2 = np.ones((4, 3)), np.ones((4, 2))
        for args in ((v3, 0 * v3, v3), (v2, v2, v3), (v3[0], v2, v2), (1.0, 0.0, v2)):
            with pytest.raises(DensityError, match="planar"):
                f(*args)


def batch_triples(seed, n=48):
    """A random (n, 2) batch with magnitudes from 1e-3 to 1e3, i == j on
    every fourth row and a shared first component on every fifth."""
    rng = np.random.default_rng(seed)
    i, j, nu = rng.normal(size=(3, n, 2)) * 10.0 ** rng.uniform(-3, 3, size=(3, n, 1))
    j[::4] = i[::4]
    j[1::5, 0] = i[1::5, 0]
    return i, j, nu


class TestBatchIndependence:
    @pytest.mark.parametrize("fid", CATALOG_IDS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_a_row_does_not_depend_on_the_batch(self, fid, seed):
        f = catalog_density(fid)
        i, j, nu = batch_triples(seed)
        batch = f(i, j, nu)
        rows = np.concatenate([f(i[k:k + 1], j[k:k + 1], nu[k:k + 1]) for k in range(len(i))])
        singles = np.array([f(i[k], j[k], nu[k]) for k in range(len(i))])
        assert batch.shape == (len(i),)
        assert np.array_equal(batch, rows) and np.array_equal(batch, singles)
        assert np.all(batch[::4] == 0.0)

    def test_support_of_a_random_polygon(self):
        # a BLAS product rounds a row by its batch: 1149 of these 5000
        # normals got other bits in one batched call than one at a time
        rng = np.random.default_rng(0)
        ang = np.sort(rng.uniform(0.0, np.pi, size=7))
        half = rng.uniform(0.5, 2.0, size=(7, 1)) * np.c_[np.cos(ang), np.sin(ang)]
        K = SupportPolytope(np.concatenate([half, -half]))
        nu = rng.normal(size=(5000, 2))
        batch = K.support(nu)
        assert np.array_equal(batch, [K.support(x) for x in nu])
        assert np.array_equal(batch, [K.support(x[None])[0] for x in nu])
        # the same maximum as the BLAS product, up to its rounding
        want = former_support(K.vertices, nu)
        assert np.max(np.abs(batch - want) / np.abs(want)) <= 4e-16
