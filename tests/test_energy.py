import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bdlab.densities import CATALOG_IDS, catalog_density, density_isotropic
from bdlab.ellipticity import default_families
from bdlab.energy import (
    EnergyError,
    bump_from_polygon,
    divergence_identity_residual,
    integrate_jump_set,
    integrate_polygon,
    integration_by_parts_residual,
    jump_flux,
    surface_energy,
    symmetric_jump_measure,
)
from bdlab.fields import (
    ConservativeField,
    biconvex_truncated_field,
    optimal_gbmc_field,
    prototype_field,
    zero_field,
)
from bdlab.functions import (
    AffinePiece,
    PiecewiseAffine,
    PiecewiseRigid,
    constant_piece,
    make_elementary,
    rigid_piece,
)
from bdlab.geometry import OrientedSquare, Polygon, PolygonalPartition, make_oriented_square
from bdlab.profiles import identity_profile, sin_profile

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])
ZERO = np.array([0.0, 0.0])
SYMMETRIC_IDS = [fid for fid in CATALOG_IDS if catalog_density(fid).symmetric]


def elementary(i=(1.0, 0.0), j=(0.0, 0.0), nu=E2, side=1.0):
    return make_elementary(i, j, nu, OrientedSquare(np.asarray(nu, float), side, (0, 0)))


class TestSurfaceEnergy:
    def test_elementary_closed_form(self):
        u = elementary((1, 0), (0, 0), E2, 1.0)
        for fid in ("isotropic:id", "frobenius", "normal:polytopeK"):
            f = catalog_density(fid)
            res = surface_energy(u, f)
            want = float(f(np.array([1.0, 0.0]), ZERO, E2))
            assert res.value == pytest.approx(want, abs=1e-14)
            assert res.error_estimate == 0.0

    def test_no_jumps(self):
        dom = make_oriented_square(E2, 2.0)
        u = PiecewiseRigid(PolygonalPartition([dom], dom), [constant_piece((1, 2))])
        res = surface_energy(u, catalog_density("isotropic:id"))
        assert res.value == 0.0
        assert res.segments_evaluated == 0

    def test_additivity_over_disjoint_regions(self):
        u = elementary((2, 1), (0, 0), E2, 4.0)
        f = catalog_density("frobenius")
        left = Polygon([(-2, -2), (0, -2), (0, 2), (-2, 2)])
        right = Polygon([(0, -2), (2, -2), (2, 2), (0, 2)])
        whole = surface_energy(u, f).value
        assert surface_energy(u, f, left).value + surface_energy(
            u, f, right
        ).value == pytest.approx(whole, abs=1e-10)

    def test_affine_traces_against_closed_form(self):
        # inner rotational piece against constant zero: |jump| integrates to
        # a hand-computable quantity on the bottom edge
        dom = make_oriented_square(E2, 2.0)
        bottom = Polygon([(-1, -1), (1, -1), (1, 0), (-1, 0)])
        top = Polygon([(-1, 0), (1, 0), (1, 1), (-1, 1)])
        part = PolygonalPartition([bottom, top], dom)
        u = PiecewiseRigid(part, [rigid_piece(1.0, (1.0, 1.0)), constant_piece((0, 0))])
        f = density_isotropic(identity_profile())
        # traces on the chord y=0: bottom piece value (1, 1 - t... ) compute:
        # a(x) = (x2 + 1, -x1 + 1); on y=0 with x1 = t - 1 in [0,2]:
        # value (1, 2 - t); jump vs (0,0): |(1, 2-t)| = sqrt(1 + (2-t)^2)
        want = np.trapezoid(
            np.sqrt(1 + (2 - np.linspace(0, 2, 100001)) ** 2), dx=2 / 100000
        )
        res = surface_energy(u, f)
        assert res.value == pytest.approx(want, abs=1e-7)
        assert res.error_estimate < 1e-9

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(
        fid=st.sampled_from(SYMMETRIC_IDS),
        family=st.integers(0, 3),
        unit_params=st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8),
        ij=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
        angle=st.floats(0.0, 2.0 * np.pi),
    )
    def test_orientation_invariance_for_symmetric_density(
        self, fid, family, unit_params, ij, angle
    ):
        # f(i, j, nu) = f(j, i, -nu) makes the energy independent of the
        # orientation of the jump set, also for affine (rotational) traces
        i, j = np.array(ij[:2]), np.array(ij[2:])
        assume(np.linalg.norm(i - j) > 0.1)
        fam = default_families(i, j, (np.cos(angle), np.sin(angle)))[family]
        u = fam.generator([lo + t * (hi - lo) for t, (lo, hi) in zip(unit_params, fam.bounds)])
        f = catalog_density(fid)
        a = surface_energy(u, f).value
        b = surface_energy(u.flipped(), f).value
        assert b == pytest.approx(a, rel=1e-12)

    def test_kink_in_truncated_density_is_exact(self):
        # jump magnitude crosses the truncation level along the segment
        dom = make_oriented_square(E2, 2.0)
        bottom = Polygon([(-1, -1), (1, -1), (1, 0), (-1, 0)])
        top = Polygon([(-1, 0), (1, 0), (1, 1), (-1, 1)])
        part = PolygonalPartition([bottom, top], dom)
        u = PiecewiseAffine(
            part,
            [AffinePiece([[0.0, 0.0], [1.0, 0.0]], (0.0, 0.0)), constant_piece((0, 0))],
        )
        # jump on y=0 at x=t-1: (0, t-1), magnitude |t-1|
        f = catalog_density("isotropic:trunc:a=1,M=0.5")
        # integral of min(|x|, 0.5) over x in [-1,1]: 2*(0.125 + 0.25) = 0.75
        res = surface_energy(u, f)
        assert res.value == pytest.approx(0.75, abs=1e-12)


class TestJumpFlux:
    def test_constant_function(self):
        dom = make_oriented_square(E2, 2.0)
        u = PiecewiseRigid(PolygonalPartition([dom], dom), [constant_piece((1, 2))])
        g = zero_field()
        assert jump_flux(u, g).value == 0.0

    def test_elementary_pairing(self):
        i, j = np.array([2.0, 0.0]), ZERO
        u = elementary(i, j, E2, 1.0)
        g = optimal_gbmc_field(i, j, E2, M=1.0, a=1.0)
        res = jump_flux(u, g)
        assert res.value == pytest.approx(float(g.pairing(i, j, E2)), abs=1e-12)

    def test_divergence_identity_for_identical(self):
        u = elementary((1, 1), (0, 0), E2, 2.0)
        g = optimal_gbmc_field((1, 1), (0, 0), E2, M=1.0, a=1.0)
        assert divergence_identity_residual(u, u, g) == 0.0

    def test_divergence_identity_rejects_boundary_deviation(self):
        dom = make_oriented_square(E2, 2.0)
        bottom = Polygon([(-1, -1), (1, -1), (1, 0), (-1, 0)])
        top = Polygon([(-1, 0), (1, 0), (1, 1), (-1, 1)])
        part = PolygonalPartition([bottom, top], dom)
        v = PiecewiseRigid(part, [constant_piece((5, 5)), constant_piece((1, 1))])
        ref = make_elementary((1, 1), (0, 0), E2, OrientedSquare(E2, 2.0, (0, 0)))
        g = zero_field()
        with pytest.raises(EnergyError):
            divergence_identity_residual(v, ref, g)


    def test_non_finite_field_raises(self):
        nan_field = ConservativeField(
            "nan", lambda w: np.full_like(w, np.nan), lambda w: np.full(w.shape[:-1], np.nan)
        )
        with pytest.raises(EnergyError):
            jump_flux(elementary(), nan_field)
        dom = make_oriented_square(E2, 2.0)
        part = PolygonalPartition(
            [Polygon([(-1, -1), (1, -1), (1, 0), (-1, 0)]), Polygon([(-1, 0), (1, 0), (1, 1), (-1, 1)])],
            dom,
        )
        affine = PiecewiseRigid(part, [rigid_piece(1.0, (0, 0)), constant_piece((0, 0))])
        with pytest.raises(EnergyError):
            jump_flux(affine, nan_field)


class TestIntegrateJumpSet:
    def test_weight_skips_closed_form(self):
        # jump (1, 0) across y = 0 for x in [-1/2, 1/2], isotropic |i - j| = 1
        u = elementary()
        f = density_isotropic(identity_profile())
        pieces = [(s, 0.0, s.length) for s in u.jump_segments()]
        plain = integrate_jump_set(pieces, f, 1e-12, 15)
        assert plain.value == 1.0 and plain.error_estimate == 0.0
        weighted = integrate_jump_set(pieces, f, 1e-12, 15, weight=lambda x: 1.0 + x[:, 0])
        assert weighted.value == pytest.approx(1.0, abs=1e-14)
        squared = integrate_jump_set(pieces, f, 1e-12, 15, weight=lambda x: x[:, 0] ** 2)
        assert squared.value == pytest.approx(1.0 / 12.0, abs=1e-14)

    def test_empty_and_zero_length(self):
        u = elementary()
        f = density_isotropic(identity_profile())
        seg = u.jump_segments()[0]
        for pieces in ([], [(seg, 0.3, 0.3)]):
            res = integrate_jump_set(pieces, f, 1e-10, 15)
            assert (res.value, res.error_estimate, res.segments_evaluated) == (0.0, 0.0, 0)

    def test_non_finite_weight_raises(self):
        u = elementary()
        f = density_isotropic(identity_profile())
        pieces = [(s, 0.0, s.length) for s in u.jump_segments()]
        with pytest.raises(EnergyError):
            integrate_jump_set(pieces, f, 1e-10, 15, weight=lambda x: np.full(len(x), np.inf))


class TestSymmetricJumpMeasure:
    def test_elementary(self):
        i, j = np.array([1.0, 2.0]), np.array([0.0, -1.0])
        u = elementary(i, j, E2, 1.0)
        want = 0.5 * (np.outer(i - j, E2) + np.outer(E2, i - j))
        assert np.allclose(symmetric_jump_measure(u), want, atol=1e-14)

    def test_constant_function_zero(self):
        dom = make_oriented_square(E2, 2.0)
        u = PiecewiseRigid(PolygonalPartition([dom], dom), [constant_piece((1, 2))])
        assert np.array_equal(symmetric_jump_measure(u), np.zeros((2, 2)))


class TestVolumeQuadrature:
    def test_polynomial_exact(self):
        poly = Polygon([(0, 0), (2, 0), (2, 2), (0, 2)])

        def fn(x):
            return x[:, 0] ** 2 * x[:, 1]

        v, e = integrate_polygon(fn, poly, tol=1e-12, order=8)
        assert v == pytest.approx(16.0 / 3.0, abs=1e-11)

    def test_smooth_function(self):
        poly = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])

        def fn(x):
            return np.sin(x[:, 0]) * np.cos(x[:, 1])

        v, _ = integrate_polygon(fn, poly, tol=1e-12, order=8)
        want = (1 - np.cos(1.0)) * np.sin(1.0)
        assert v == pytest.approx(want, abs=1e-12)


class TestBump:
    def test_vanishes_on_boundary(self):
        poly = make_oriented_square(E2, 2.0)
        bump = bump_from_polygon(poly, power=2)
        for p, q in poly.edges():
            for t in np.linspace(0, 1, 7):
                x = p + t * (q - p)
                assert abs(float(bump.phi(x)[0])) < 1e-12

    def test_gradient_matches_fd(self):
        poly = Polygon([(0, 0), (2, 0), (2.3, 1.9), (0.2, 2.1)])
        bump = bump_from_polygon(poly, power=3)
        rng = np.random.default_rng(0)
        h = 1e-6
        for _ in range(50):
            x = poly.centroid + rng.uniform(-0.3, 0.3, size=2)
            gfd = np.array(
                [
                    (bump.phi(x + [h, 0])[0] - bump.phi(x - [h, 0])[0]) / (2 * h),
                    (bump.phi(x + [0, h])[0] - bump.phi(x - [0, h])[0]) / (2 * h),
                ]
            )
            assert np.allclose(bump.grad(x)[0], gfd, atol=1e-8)

    def test_normalized_at_centroid(self):
        poly = make_oriented_square(E2, 2.0)
        bump = bump_from_polygon(poly)
        assert float(bump.phi(poly.centroid)[0]) == pytest.approx(1.0)


class TestIntegrationByParts:
    def test_single_affine_piece_volume_terms(self):
        # e(u) = diag(1,-1), no jumps: the two volume terms must cancel
        dom = make_oriented_square(E2, 2.0)
        part = PolygonalPartition([dom], dom)
        u = PiecewiseAffine(part, [AffinePiece(np.diag([1.0, -1.0]), (0.1, -0.2))])
        G = prototype_field(np.eye(2), (sin_profile(0.8, 2.0), sin_profile(0.6, 3.0)))
        phi = bump_from_polygon(dom, power=2)
        res = integration_by_parts_residual(u, G, phi, tol=1e-10)
        assert res < 1e-8

    def test_two_piece_with_jump(self):
        dom = make_oriented_square(E2, 2.0)
        bottom = Polygon([(-1, -1), (1, -1), (1, 0), (-1, 0)])
        top = Polygon([(-1, 0), (1, 0), (1, 1), (-1, 1)])
        part = PolygonalPartition([bottom, top], dom)
        u = PiecewiseAffine(
            part,
            [
                AffinePiece([[0.5, 0.2], [0.1, -0.3]], (0.0, 0.1)),
                AffinePiece([[-0.2, 0.4], [0.3, 0.2]], (0.5, -0.2)),
            ],
        )
        G = prototype_field(np.eye(2), (sin_profile(0.7, 2.0), sin_profile(0.9, 1.5)))
        phi = bump_from_polygon(dom, power=2)
        res = integration_by_parts_residual(u, G, phi, tol=1e-10)
        assert res < 1e-8

    def test_piecewise_rigid_reduces_to_divergence_case(self):
        u = elementary((1, 1), (0, 0), E2, 2.0)
        G = biconvex_truncated_field(np.eye(2), M=5.0)
        phi = bump_from_polygon(u.partition.domain, power=2)
        res = integration_by_parts_residual(u, G, phi, tol=1e-10)
        assert res < 1e-8

    def test_requires_vanishing_phi(self):
        dom = make_oriented_square(E2, 2.0)
        small = make_oriented_square(E2, 1.0)
        u = elementary((1, 1), (0, 0), E2, 2.0)
        G = biconvex_truncated_field(np.eye(2), M=5.0)
        bad_phi = bump_from_polygon(small, power=2)  # does not vanish on dom boundary
        with pytest.raises(EnergyError):
            integration_by_parts_residual(u, G, bad_phi, region=dom)
