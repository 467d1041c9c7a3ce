import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    ProfileError,
    constant_profile,
    eta_profile,
    identity_profile,
    sqrt_profile,
    table_profile,
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
    def test_table_profile_validation(self):
        table_profile([0, 1, 2], [0, 1, 1.5])
        with pytest.raises(ProfileError):
            table_profile([0, 1, 2], [0, 1, 0.5])  # not increasing
        with pytest.raises(ProfileError):
            table_profile([0, 1, 2], [0, 1, 3])  # g/t increasing

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
