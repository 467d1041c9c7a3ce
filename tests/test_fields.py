import warnings

import numpy as np
import pytest

from bdlab import fields as fields_module
from bdlab.densities import density_normal_only, SupportPolytope
from bdlab.fields import (
    ConservativeField,
    FieldError,
    FieldFamily,
    biconvex_truncated_field,
    catalog_fields,
    check_conservative,
    dalmot_field,
    family_density,
    gbmc_field,
    map_unit_vectors,
    normal_only_field,
    optimal_dalmot_params,
    optimal_gbmc_field,
    optimal_gbmc_params,
    prototype_field,
    zero_field,
)
from bdlab.profiles import abs_profile, eta_profile, sin_profile, zero_profile

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])
ZERO = np.array([0.0, 0.0])


def theta_Ma(M, a, i, j, nu):
    return min(a * np.linalg.norm(np.asarray(i) - np.asarray(j)), M) * np.linalg.norm(nu)


class TestTruncationProfile:
    def test_eta_even_and_subadditive(self):
        eta = eta_profile(1.0)
        rng = np.random.default_rng(0)
        s = rng.normal(scale=2, size=10_000)
        t = rng.normal(scale=2, size=10_000)
        assert np.array_equal(eta(s), eta(-s))
        assert np.all(eta(s + t) <= eta(s) + eta(t) + 1e-15)

    def test_primitive_matches_by_finite_differences(self):
        eta = eta_profile(1.5)
        t = np.linspace(-4, 4, 801)
        h = 1e-6
        fd = (eta.primitive(t + h) - eta.primitive(t - h)) / (2 * h)
        assert np.max(np.abs(fd - eta(t))) < 1e-6
        assert eta.primitive(np.array(0.0)) == 0.0
        assert np.array_equal(eta.primitive(t), -eta.primitive(-t))


class TestPrototype:
    def test_eta_axes_values(self):
        g = prototype_field(np.eye(2), (eta_profile(1.0), eta_profile(1.0)))
        assert np.allclose(g(np.array([2.0, 0.0])), (1.0, 0.0))

    def test_zero_profiles(self):
        g = prototype_field(np.eye(2), (zero_profile(), zero_profile()))
        w = np.array([1.0, 2.0])
        assert np.allclose(g(w), 0)
        assert g.potential(w) == 0

    def test_sin_strain_term(self):
        # grad g(w) = diag(cos w): the strain term reads its diagonal, reads
        # E through its symmetric part, and adds the pairing with v
        g = prototype_field(np.eye(2), (sin_profile(1, 1), sin_profile(1, 1)))
        w = np.array([[0.3, -0.8]])
        zero = np.zeros((1, 2))
        for k in range(2):
            E = np.zeros((2, 2))
            E[k, k] = 1.0
            assert g.strain(w, E, zero)[0] == pytest.approx(np.cos(w[0, k]), rel=1e-15)
        E = np.array([[0.4, 1.3], [-0.7, 0.2]])
        assert np.array_equal(g.strain(w, E, zero), g.strain(w, 0.5 * (E + E.T), zero))
        assert g.strain(w, E, zero)[0] == pytest.approx(0.4 * np.cos(0.3) + 0.2 * np.cos(-0.8))
        v = np.array([[0.6, -1.1]])
        assert g.strain(w, 0 * E, v)[0] == pytest.approx(float(g(w[0]) @ v[0]), rel=1e-15)

    @pytest.mark.parametrize("make", [
        lambda: prototype_field(np.eye(2), (sin_profile(1, 2), sin_profile(0.5, 3))),
        lambda: optimal_gbmc_field((0.3, -0.2), (1.4, 0.9), (0.6, 0.8), M=2.0, a=0.7),
        lambda: dalmot_field((0.6, 0.3), (0.2, -0.1), (1.0, -1.0),
                             (sin_profile(1, 1.5), sin_profile(0.8, 2))),
    ], ids=["sine", "gbmc", "dalmot"])
    def test_strain_matches_finite_differences(self, make):
        # <g(w), v> + grad g(w) : E against central differences of g
        g = make()
        rng = np.random.default_rng(5)
        w = rng.uniform(-2.0, 2.0, size=(200, 2))
        v = rng.normal(size=(200, 2))
        E = rng.normal(size=(2, 2))
        E = 0.5 * (E + E.T)
        h = 1e-6
        strain = sum(E[i, k] * (g(w + h * E_k)[:, i] - g(w - h * E_k)[:, i]) / (2 * h)
                     for k, E_k in enumerate(np.eye(2)) for i in range(2))
        want = np.einsum("nk,nk->n", g(w), v) + strain
        assert np.allclose(g.strain(w, E, v), want, atol=1e-7)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(FieldError):
            prototype_field(np.array([[1.0, 0.0], [1.0, 1.0]]), (zero_profile(),) * 2)

    def test_conservativity_check(self):
        g = prototype_field(np.eye(2), (sin_profile(1, 2), sin_profile(0.5, 3)))
        asym, resid = check_conservative(g, samples=100, seed=1)
        assert asym < 1e-6
        assert resid < 1e-6

    def test_rotational_fixture_flagged(self):
        # deliberately non-conservative rotation field: curl = 2
        rot = ConservativeField(
            "rotation",
            lambda w: np.stack([-w[..., 1], w[..., 0]], axis=-1),
            lambda w: np.zeros(w.shape[:-1]),
        )
        asym, _ = check_conservative(rot, samples=50, seed=0)
        scale = asym  # relative to 1 + max |g|
        assert asym > 0.1  # rotation is far from conservative


class TestBoundedness:
    def test_bounded_follows_the_bound(self):
        linear = ConservativeField(
            "linear", lambda w: w, lambda w: 0.5 * np.sum(w * w, axis=-1)
        )
        assert linear.bounded is False
        assert zero_field().bounded is True
        assert normal_only_field(ZERO, E1, h=2).bounded is True
        assert abs_profile().bounded is False
        assert eta_profile(1.0).bounded is True


class TestMapUnitVectors:
    def test_quarter_turn(self):
        B = map_unit_vectors(E1, E2)
        assert np.allclose(B, [[0, 1], [1, 0]], atol=1e-15)
        assert np.array_equal(B, B.T)

    def test_identity_branch(self):
        assert np.array_equal(map_unit_vectors(E1, E1), np.eye(2))
        assert np.array_equal(map_unit_vectors(E1, -E1), -np.eye(2))

    def test_diagonal_target(self):
        s = np.sqrt(0.5)
        B = map_unit_vectors(E1, np.array([s, s]))
        assert np.allclose(B, [[s, s], [s, -s]], atol=1e-15)
        assert np.allclose(B @ E1, (s, s))

    def test_property_suite(self):
        rng = np.random.default_rng(2)
        for _ in range(2000):
            u = rng.normal(size=2)
            u /= np.linalg.norm(u)
            v = rng.normal(size=2)
            v /= np.linalg.norm(v)
            B = map_unit_vectors(u, v)
            assert np.array_equal(B, B.T)
            assert abs(np.linalg.norm(B, 2) - 1.0) < 1e-10
            assert np.linalg.norm(B @ u - v) < 1e-10

    @pytest.mark.parametrize("u, v", [
        ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)),
        ((1.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
        (E1, (0.0, 1.0, 0.0)),
        ((1.0,), (1.0,)),
        ([E1], [E2]),
    ])
    def test_refuses_non_planar_vectors(self, u, v):
        with pytest.raises(FieldError, match="planar"):
            map_unit_vectors(u, v)


class TestGbmc:
    def test_identity_single_addend(self):
        g = gbmc_field(np.eye(2), E1, ZERO, M=1.0, a=1.0)
        assert np.allclose(g(np.array([2.0, 0.0])), (1.0, 0.0))
        assert np.allclose(g(np.array([2.0, 5.0])), (1.0, 0.0))  # mu_2 = 0 addend off

    def test_optimal_achieves_truncated_value(self):
        i, j, nu = 2 * E1, ZERO, E2
        g = optimal_gbmc_field(i, j, nu, M=1.0, a=1.0)
        val = float(g.pairing(i, j, nu))
        assert val == pytest.approx(1.0, abs=1e-12)
        assert val == pytest.approx(theta_Ma(1.0, 1.0, i, j, nu), abs=1e-12)

    def test_optimal_params_example(self):
        B, mu, c = optimal_gbmc_params(2 * E1, ZERO, E2)
        assert np.allclose(B, [[0, 1], [1, 0]])
        assert np.allclose(np.abs(mu), np.sqrt(0.5))

    def test_achievement_random(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            i = rng.normal(scale=2, size=2)
            j = rng.normal(scale=2, size=2)
            if np.linalg.norm(i - j) < 1e-9:
                continue
            nu = rng.normal(size=2)
            if np.linalg.norm(nu) < 1e-9:
                continue
            M = rng.uniform(0.1, 10)
            a = rng.uniform(0.1, 10)
            g = optimal_gbmc_field(i, j, nu, M=M, a=a)
            assert float(g.pairing(i, j, nu)) == pytest.approx(
                theta_Ma(M, a, i, j, nu), abs=1e-10
            )

    def test_random_fields_never_exceed(self):
        rng = np.random.default_rng(5)
        i, j, nu = np.array([1.0, -0.5]), np.array([-1.0, 0.7]), np.array([0.3, 0.9])
        M, a = 1.3, 0.8
        bound = theta_Ma(M, a, i, j, nu)
        for _ in range(500):
            u = rng.normal(size=2)
            u /= np.linalg.norm(u)
            v = rng.normal(size=2)
            v /= np.linalg.norm(v)
            mu = rng.normal(size=2)
            mu /= np.linalg.norm(mu)
            c = rng.normal(scale=3, size=2)
            g = gbmc_field(map_unit_vectors(u, v), mu, c, M=M, a=a)
            assert float(g.pairing(i, j, nu)) <= bound + 1e-10

    def test_conservativity(self):
        g = optimal_gbmc_field(2 * E1, ZERO, E2, M=1.0, a=1.0)
        asym, resid = check_conservative(g, samples=150, seed=6)
        assert asym < 1e-6
        assert resid < 1e-6

    def test_bound_attribute(self):
        g = gbmc_field(np.eye(2), E1, ZERO, M=2.0, a=1.0)
        w = np.array([100.0, -50.0])
        assert np.linalg.norm(g(w)) <= g.bound + 1e-12


class TestDalmot:
    def test_zero_p_gives_zero_field(self):
        g = dalmot_field(ZERO, ZERO, np.array([1.0, 1.0]), (eta_profile(1),) * 2)
        assert np.allclose(g(np.array([3.0, -2.0])), 0)

    def test_optimal_achieves_single_basis_value(self):
        th = eta_profile(1.0)
        i, j, nu = np.array([2.0, 1.0]), ZERO, np.array([0.6, 0.8])
        p, q, sigma = optimal_dalmot_params(i, j, nu, (th, th))
        g = dalmot_field(p, q, sigma, (th, th))
        mu = np.zeros(2)
        for k, xi in enumerate(np.eye(2)):
            mu += float(th(np.array((i - j) @ xi))) * abs(float(nu @ xi)) * xi
        assert float(g.pairing(i, j, nu)) == pytest.approx(np.linalg.norm(mu), abs=1e-12)

    def test_degenerate_triple_gives_zero_field(self):
        th = eta_profile(1.0)
        # jump along e1, normal along e2: the standard-basis value is zero
        p, q, sigma = optimal_dalmot_params(2 * E1, ZERO, E2, (th, th))
        assert np.array_equal(p, ZERO)
        g = dalmot_field(p, q, sigma, (th, th))
        assert float(g.pairing(2 * E1, ZERO, E2)) == 0.0

    def test_random_fields_below_single_basis_value(self):
        rng = np.random.default_rng(7)
        th = eta_profile(1.0)
        i, j, nu = np.array([0.7, 1.1]), np.array([-0.6, 0.2]), np.array([0.8, -0.6])
        target = np.sqrt(
            sum(
                float(th(np.array((i - j) @ xi))) ** 2 * float(nu @ xi) ** 2
                for xi in np.eye(2)
            )
        )
        for _ in range(300):
            p = rng.normal(size=2)
            n = np.linalg.norm(p)
            if n > 1:
                p = p / n * rng.uniform(0, 1)
            q = rng.normal(scale=2, size=2)
            sigma = rng.choice([-1.0, 1.0], size=2)
            g = dalmot_field(p, q, sigma, (th, th))
            assert float(g.pairing(i, j, nu)) <= target + 1e-10

    def test_unbounded_profile_rejected(self):
        with pytest.raises(FieldError):
            dalmot_field(E1, ZERO, np.array([1.0, 1.0]), (abs_profile(),) * 2)

    def test_conservativity(self):
        g = dalmot_field(
            np.array([0.6, 0.4]), np.array([0.3, -0.5]), np.array([1.0, -1.0]),
            (eta_profile(1.0), eta_profile(2.0)),
        )
        asym, resid = check_conservative(g, samples=150, seed=8)
        assert asym < 1e-6
        assert resid < 1e-6


class TestNormalOnly:
    def test_zero_at_base_point(self):
        g = normal_only_field(np.array([0.5, 0.5]), np.array([1.0, 2.0]), h=4)
        assert np.allclose(g(np.array([0.5, 0.5])), 0)

    def test_saturated_pairing_gives_vertex_product(self):
        q = np.array([0.4, 0.9])
        i, j, nu = 2 * E1, ZERO, E2
        # <i - j, q> = 0.8 >= 1/h for h >= 2
        g = normal_only_field(j, q, h=4)
        assert float(g.pairing(i, j, nu)) == pytest.approx(float(q @ nu), abs=1e-14)

    def test_bounded_by_support_function(self):
        K = SupportPolytope(np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float))
        psi = density_normal_only(K)
        rng = np.random.default_rng(9)
        for _ in range(300):
            p = rng.normal(scale=2, size=2)
            q = K.vertices[rng.integers(0, 4)]
            h = int(rng.integers(1, 9))
            g = normal_only_field(p, q, h=h)
            i = rng.normal(scale=2, size=2)
            j = rng.normal(scale=2, size=2)
            nu = rng.normal(size=2)
            if np.linalg.norm(i - j) < 1e-9:
                continue
            assert float(g.pairing(i, j, nu)) <= float(psi(i, j, nu)) + 1e-9

    def test_conservativity(self):
        g = normal_only_field(np.array([0.1, -0.2]), np.array([0.7, 0.3]), h=5)
        asym, resid = check_conservative(g, samples=150, seed=10)
        assert asym < 1e-6
        assert resid < 1e-6

    def test_matches_closed_form(self):
        # g(w) = min(h |y|, 1) q with y = <w - p, q>, its odd potential, the
        # Jacobian h sign(y) q q^T below saturation, |q| and the trace kinks
        p, q, h = np.array([0.3, -0.4]), np.array([0.7, -1.1]), 3
        g = normal_only_field(p, q, h=h)
        w = np.random.default_rng(12).uniform(-3.0, 3.0, size=(400, 2))
        y = (w - p) @ q
        a = np.abs(y)

        def rel(got, want):
            return np.max(np.abs(got - want)) / np.max(np.abs(want))

        assert rel(g(w), np.minimum(h * a, 1.0)[:, None] * q) < 1e-14
        prim = np.sign(y) * np.where(a <= 1.0 / h, 0.5 * h * a * a, a - 0.5 / h)
        assert rel(g.potential(w), prim) < 1e-14
        # the strain term contracts the Jacobian h sign(y) q q^T with E, and
        # adds the pairing with v
        jac = np.where(a < 1.0 / h, h * np.sign(y), 0.0)[:, None, None] * np.outer(q, q)
        E = np.array([[0.8, -0.3], [-0.3, 1.7]])
        v = np.random.default_rng(13).normal(size=w.shape)
        assert rel(g.strain(w, E, 0 * v), np.einsum("nij,ij->n", jac, E)) < 1e-14
        assert rel(g.strain(w, 0 * E, v), np.einsum("nk,nk->n", g(w), v)) < 1e-14
        assert g.bound == pytest.approx(np.linalg.norm(q), rel=1e-14) and g.bounded
        v0, slope = np.array([0.2, 0.9]), np.array([-0.5, 0.8])
        a0, da = float((v0 - p) @ q), float(slope @ q)
        kinks = np.array([(c - a0) / da for c in (-1.0 / h, 0.0, 1.0 / h)])
        # a batch of one trace; the second addend is inactive and has no kinks
        got = g.trace_kinks(v0[None], slope[None])
        assert got.shape == (1, 3)
        assert rel(got[0], kinks) < 1e-14


def scalar_trace_kinks(basis, coeffs, profiles, shifts=None, scales=None, **_):
    """The trace_kinks of _axis_field(basis, coeffs, profiles, shifts,
    scales) along one trace, as it was written before it took batches, with
    NaN for each kink of an addend it skipped for a constant argument."""
    basis, coeffs = np.asarray(basis, dtype=float), np.asarray(coeffs, dtype=float)
    d = basis.shape[0]
    shifts = np.zeros(d) if shifts is None else np.asarray(shifts, dtype=float)
    scales = np.ones(d) if scales is None else np.asarray(scales, dtype=float)

    def trace_kinks(value0, slope):
        ts = []
        for k in range(d):
            if coeffs[k] == 0.0 or scales[k] == 0.0:
                continue
            a0 = scales[k] * (float(value0 @ basis[k]) - shifts[k])
            da = scales[k] * float(slope @ basis[k])
            ts += [np.nan if da == 0.0 else (c - a0) / da for c in profiles[k].kinks]
        return ts

    return trace_kinks


class TestTraceKinks:
    def test_batch_matches_the_trace_loop(self, monkeypatch):
        loops = []
        axis_field = fields_module._axis_field

        def recorded(*args, **kw):
            loops.append(scalar_trace_kinks(*args, **kw))
            return axis_field(*args, **kw)

        monkeypatch.setattr(fields_module, "_axis_field", recorded)
        family = catalog_fields()
        assert len(loops) == len(family) == 8
        rng = np.random.default_rng(31)
        value0 = rng.normal(scale=3.0, size=(400, 2))
        slope = rng.normal(size=(400, 2))
        slope[::7] = 0.0
        slope[1::7, 1] = 0.0  # constant second coordinate
        slope[2::7] = slope[2::7, :1] * np.eye(2)[0]  # (x, -0.0) where x < 0
        for g, loop in zip(family.fields, loops):
            got = g.trace_kinks(value0, slope)
            want = np.array([loop(v, s) for v, s in zip(value0, slope)], dtype=float)
            assert got.shape == want.shape == (400, len(loop(value0[0], slope[0]))), g.name
            nan = np.isnan(want)
            assert np.array_equal(np.isnan(got), nan), g.name
            assert got[~nan].tobytes() == want[~nan].tobytes(), g.name
        assert sum(np.isnan(g.trace_kinks(value0, slope)).any() for g in family.fields) >= 6

    def test_near_constant_trace_gives_inf_without_warning(self):
        g = prototype_field(np.eye(2), (eta_profile(1.0), eta_profile(1.0)))
        value0 = np.array([[1e10, 0.0], [-1e10, 0.0]])
        slope = np.array([[1e-300, 0.0], [1e-300, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = g.trace_kinks(value0, slope)
        assert got[:, :3].tolist() == [[-np.inf] * 3, [np.inf] * 3]
        assert np.isnan(got[:, 3:]).all()
        # as Python's float division gives it
        assert (1.0 - 1e10) / 1e-300 == -np.inf


class TestBiconvexTruncated:
    def test_linear_inside_box(self):
        g = biconvex_truncated_field(np.eye(2), M=1.0)
        assert np.allclose(g(np.array([0.5, 0.5])), (0.5, 0.5))

    def test_clamped_outside(self):
        g = biconvex_truncated_field(np.eye(2), M=1.0)
        assert np.allclose(g(np.array([2.0, 0.0])), (1.0, 0.0))

    def test_pairing_matches_tensor_contraction_inside_box(self):
        rng = np.random.default_rng(11)
        Z = rng.normal(size=(2, 2))
        Zs = 0.5 * (Z + Z.T)
        M = 10.0
        g = biconvex_truncated_field(Z, M=M)
        for _ in range(200):
            i = rng.uniform(-3, 3, size=2)
            j = rng.uniform(-3, 3, size=2)
            nu = rng.normal(size=2)
            want = float(np.sum((0.5 * (np.outer(i - j, nu) + np.outer(nu, i - j))) * Zs))
            assert float(g.pairing(i, j, nu)) == pytest.approx(want, abs=1e-12)

    def test_conservativity(self):
        g = biconvex_truncated_field(np.array([[1.0, 2.0], [0.0, -1.0]]), M=1.5)
        asym, resid = check_conservative(g, samples=150, seed=12)
        assert asym < 1e-6
        assert resid < 1e-6


class TestSupRepresentation:
    def test_zero_family(self):
        fam = FieldFamily((zero_field(),))
        assert float(family_density(fam)(E1, ZERO, E2)) == 0.0

    def test_optimal_plus_random_attains_exactly(self):
        rng = np.random.default_rng(13)
        i, j, nu = 2 * E1, ZERO, E2
        members = [optimal_gbmc_field(i, j, nu, M=1.0, a=1.0)]
        for _ in range(20):
            u = rng.normal(size=2)
            u /= np.linalg.norm(u)
            v = rng.normal(size=2)
            v /= np.linalg.norm(v)
            mu = rng.normal(size=2)
            mu /= np.linalg.norm(mu)
            members.append(
                gbmc_field(map_unit_vectors(u, v), mu, rng.normal(size=2), M=1.0, a=1.0)
            )
        fam = FieldFamily(tuple(members))
        assert float(family_density(fam)(i, j, nu)) == pytest.approx(
            theta_Ma(1.0, 1.0, i, j, nu), abs=1e-10
        )

    def test_dense_normal_only_family_approaches_support(self):
        K = SupportPolytope(np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float))
        psi = density_normal_only(K)
        i, j, nu = np.array([0.9, 0.2]), np.array([-0.3, 0.4]), np.array([0.6, 0.8])
        members = [
            normal_only_field(j, q, h=64)
            for q in K.vertices
        ]
        fam = FieldFamily(tuple(members))
        got = float(family_density(fam)(i, j, nu))
        assert got <= float(psi(i, j, nu)) + 1e-12
        assert got >= float(psi(i, j, nu)) - 1e-6

    def test_empty_family_rejected(self):
        with pytest.raises(FieldError):
            FieldFamily(())

    def test_union_family_is_pointwise_max(self):
        i, j, nu = 2 * E1, ZERO, E2
        f1 = FieldFamily((optimal_gbmc_field(i, j, nu, M=1.0, a=1.0), zero_field()))
        f2 = FieldFamily((optimal_gbmc_field(i, j, nu, M=0.5, a=1.0), zero_field()))
        d1 = family_density(f1)
        d2 = family_density(f2)
        du = family_density(FieldFamily(f1.fields + f2.fields))
        rng = np.random.default_rng(14)
        ii = rng.normal(size=(200, 2))
        jj = rng.normal(size=(200, 2))
        nn = rng.normal(size=(200, 2))
        assert np.allclose(du(ii, jj, nn), np.maximum(d1(ii, jj, nn), d2(ii, jj, nn)))


class TestSerialization:
    def test_family_json_parameter_records(self):
        fam = catalog_fields()
        data = fam.to_json()
        assert len(data) == len(fam.fields)
        gbmc_rows = [r for r in data if r["name"].startswith("gbmc")]
        assert gbmc_rows and "B" in gbmc_rows[0]["params"]
        assert all(isinstance(r["params"], dict) for r in data)


class TestCatalog:
    def test_catalog_fields_all_conservative(self):
        fam = catalog_fields()
        for k, g in enumerate(fam.fields):
            asym, resid = check_conservative(g, samples=80, seed=100 + k)
            assert asym < 1e-6, g.name
            assert resid < 1e-6, g.name

    def test_lower_bound_for_truncated_isotropic(self):
        # every gbmc field with the right (M, a) stays below min{a|i-j|, M}|nu|
        fam = catalog_fields()
        rng = np.random.default_rng(15)
        g = [f for f in fam.fields if f.name.startswith("gbmc[M=1")][0]
        for _ in range(500):
            i = rng.normal(scale=2, size=2)
            j = rng.normal(scale=2, size=2)
            nu = rng.normal(size=2)
            assert float(g.pairing(i, j, nu)) <= theta_Ma(1.0, 1.0, i, j, nu) + 1e-9

    def test_values_do_not_depend_on_the_batch(self):
        # a row's value is the same alone and in batches of any size, as the
        # line kernel's bit-identity needs
        rng = np.random.default_rng(21)
        w, i, j = (rng.normal(scale=2, size=(301, 2)) for _ in range(3))
        nu = rng.normal(size=(301, 2))
        for g in catalog_fields().fields:
            rows = {
                "call": np.array([g(x) for x in w]),
                "potential": np.array([g.potential(x) for x in w]),
                "pairing": np.array([g.pairing(*x) for x in zip(i, j, nu)]),
            }
            for size in (1, 3, 17, 64, 301):
                for start in range(0, 301, size):
                    s = slice(start, start + size)
                    batched = {
                        "call": g(w[s]),
                        "potential": g.potential(w[s]),
                        "pairing": g.pairing(i[s], j[s], nu[s]),
                    }
                    for name, vals in batched.items():
                        assert np.array_equal(vals, rows[name][s]), (g.name, name, size)
