import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize
from scipy.stats import qmc

from bdlab.densities import (
    CATALOG_IDS,
    Density,
    anisotropic_normal_density,
    anisotropic_trace_density,
    catalog_density,
)
from bdlab.energy import (
    EnergyError,
    integrate_jump_arrays,
    jump_flux,
    surface_energy,
    symmetric_jump_measure,
)
from bdlab.fields import optimal_gbmc_field
from bdlab.functions import (
    FunctionError,
    JumpArrays,
    JumpSquareTopology,
    compact_deviation,
    make_elementary,
    rigid_piece,
)
from bdlab.geometry import GeometryError, OrientedSquare, validate_partition
from bdlab.ellipticity import (
    _MIN_RUN,
    _RESTARTS,
    _nelder_mead,
    CompetitorFamily,
    EllipticityError,
    EllipticityVerdict,
    NecessaryReport,
    bv_necessary_report,
    ce1_energy_breakdown,
    ce2_energy_breakdown,
    counterexample1_competitor,
    counterexample2_competitor,
    default_families,
    falsify,
    insert_competitor,
    relaxation_estimate,
    tile_construction,
    tiling_report,
)

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])
I_CE = np.zeros(2)
J_CE = np.array([2.0, 2.0])


class TestCounterexample1:
    def test_partition_is_valid(self):
        u = counterexample1_competitor(1.0)
        assert validate_partition(u.partition).passed

    def test_jump_lengths_split(self):
        u = counterexample1_competitor(1.0)
        j = u.jump_segments()
        par = np.abs(np.abs(j.normal @ E2) - 1) < 1e-12
        perp = np.abs(j.normal @ E2) < 1e-12
        assert np.count_nonzero(par) + np.count_nonzero(perp) == len(j)
        assert j.t1[par].sum() == pytest.approx(8.0, abs=1e-12)
        assert j.t1[perp].sum() == pytest.approx(4.0, abs=1e-12)

    def test_bottom_edge_trace(self):
        # the insert's value on the lower edge is (0, lam (1 - t)): continuous
        # in the first component with the lower-side value
        u = counterexample1_competitor(1.0)
        j = u.jump_segments()
        lower = np.flatnonzero((np.abs(0.5 * (j.a[:, 1] + j.b[:, 1]) + 1.0) < 1e-12)
                               & (np.abs(np.abs(j.normal @ E2) - 1) < 1e-12))
        assert len(lower) == 1
        k = lower[0]
        # inner trace is on the side the (upward) normal points into
        t = 0.5 * j.t1[k]
        x1 = (j.a[k] + t * j.direction[k])[0]
        plus = j.plus_value0[k] + t * j.plus_slope[k]
        minus = j.minus_value0[k] + t * j.minus_slope[k]
        inner, outer = (plus, minus) if j.normal[k] @ E2 > 0 else (minus, plus)
        assert np.allclose(inner, (0.0, 1.0 - x1), atol=1e-14)
        assert np.allclose(outer, (0.0, 0.0), atol=1e-14)

    def test_parallel_energy_closed_form(self):
        b = ce1_energy_breakdown(1.0, 0.01)
        assert b["parallel"] == pytest.approx(8 * np.sqrt(2) + 4, abs=1e-10)
        assert b["straight"] == pytest.approx(12 * np.sqrt(2), abs=1e-12)
        # perpendicular part: eps * (2 int_0^1 sqrt(t^2+4) dt + 1) by hand
        I = 0.5 * np.sqrt(5.0) + 2.0 * np.arcsinh(0.5)
        assert b["perpendicular"] == pytest.approx(0.01 * (2 * I + 1), abs=1e-10)

    def test_scaling_in_lam(self):
        b1 = ce1_energy_breakdown(1.0, 0.01)
        b2 = ce1_energy_breakdown(2.0, 0.01)
        assert b2["parallel"] == pytest.approx(2 * b1["parallel"], rel=1e-12)

    def test_compact_deviation_margin(self):
        u = counterexample1_competitor(1.0)
        ref = make_elementary(
            I_CE, J_CE, E2, OrientedSquare(E2, 6.0, (0, 0)), i_side="minus"
        )
        assert compact_deviation(u, ref, margin=1.9)
        assert not compact_deviation(u, ref, margin=2.1)


class TestCounterexample2:
    def test_partition_valid_and_edges(self):
        u = counterexample2_competitor(1.0, 1e-4)
        assert validate_partition(u.partition).passed
        # strictly inside the thin rectangle: a(x) = (10 x2 + 1, -10 x1 + 10)
        assert np.allclose(u.eval((0.0, -0.09)), (0.1, 10.0), atol=1e-12)

    def test_inner_edge_integrals(self):
        b = ce2_energy_breakdown(1.0, 1e-4)
        lam, eps, delta = 1.0, 1e-4, 0.1
        # hand integration: lower edge sqrt(eps) * 2 lam / delta
        assert b["lower_edge"] == pytest.approx(np.sqrt(eps) * 2 * lam / delta, abs=1e-10)
        # upper edge: sqrt(eps) * (lam/delta) * (2 delta^2 + 2 (1-delta)^2) / ... :
        # int_{-1}^{1} |2 lam - (lam/delta)(1-t)| dt = (lam/delta)(2 delta^2 + 2(1-delta)^2)
        want = np.sqrt(eps) * (lam / delta) * (2 * delta**2 + 2 * (1 - delta) ** 2)
        assert b["upper_edge"] == pytest.approx(want, abs=1e-10)
        assert b["outer_chord"] == pytest.approx(8 * np.sqrt(1 + eps), abs=1e-10)
        assert b["total"] < 12 * np.sqrt(1 + eps)

    def test_breakdown_totals_cover_the_jump_set_once(self):
        for lam, eps in ((1.0, 1e-2), (0.5, 1e-3)):
            b = ce1_energy_breakdown(lam, eps)
            full = surface_energy(counterexample1_competitor(lam), anisotropic_normal_density(eps))
            assert abs(b["total"] - full.value) <= 1e-12 * full.value
        for lam, eps in ((1.0, 1e-4), (2.0, 1e-2)):
            b = ce2_energy_breakdown(lam, eps)
            full = surface_energy(counterexample2_competitor(lam, eps), anisotropic_trace_density(eps))
            assert abs(b["total"] - full.value) <= 1e-12 * full.value

    def test_eps_bounds(self):
        with pytest.raises(EllipticityError):
            counterexample2_competitor(1.0, 1.5)
        with pytest.raises(EllipticityError):
            counterexample2_competitor(-1.0, 0.1)


class TestTiling:
    @staticmethod
    def _small_competitor():
        return counterexample1_competitor(1.0).scaled(1.0 / 6.0)

    def test_h1_energy_matches(self):
        v = self._small_competitor()
        f = catalog_density("frobenius")
        rep = tiling_report(v, I_CE, J_CE, E2, f, hs=(1,), i_side="minus")[0]
        assert rep["relative_defect"] < 1e-9

    def test_tile_sum_matches_for_all_h(self):
        v = self._small_competitor()
        f = anisotropic_normal_density(0.01)
        for rep in tiling_report(v, I_CE, J_CE, E2, f, hs=(1, 2, 4, 8), i_side="minus"):
            assert rep["relative_defect"] < 1e-9, rep["h"]

    def test_boundary_contribution_decays_like_1_over_h(self):
        v = self._small_competitor()
        f = catalog_density("isotropic:id")
        reps = tiling_report(v, I_CE, J_CE, E2, f, hs=(1, 2, 4, 8), i_side="minus")
        bc = [r["boundary_contribution"] for r in reps]
        assert all(b > 0 for b in bc)
        for k in range(len(bc) - 1):
            ratio = bc[k] / bc[k + 1]
            assert 1.0 <= ratio <= 4.0  # 1/h decay within a factor 2

    def test_tiled_function_is_rigid_and_valid(self):
        v = self._small_competitor()
        u2 = tile_construction(v, I_CE, J_CE, E2, 2, i_side="minus")
        assert all(p.rigid for p in u2.pieces)
        assert validate_partition(u2.partition).passed

    def test_rejects_non_unit_domain(self):
        u = counterexample1_competitor(1.0)
        with pytest.raises(EllipticityError):
            tile_construction(u, I_CE, J_CE, E2, 2, i_side="minus")

    def test_rejects_bad_h(self):
        v = self._small_competitor()
        with pytest.raises(EllipticityError):
            tile_construction(v, I_CE, J_CE, E2, 0, i_side="minus")


class TestRotatedFrames:
    NU = np.array([0.6, 0.8])

    def _rotated_insert(self):
        from bdlab.ellipticity import insert_competitor
        from bdlab.functions import rigid_piece

        cells = [np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])]
        return insert_competitor(
            I_CE, J_CE, self.NU, cells, [rigid_piece(0.7, (0.3, 0.2))],
            half_width=1.0, half_height=1.0,
        )

    def test_insert_partition_valid(self):
        u = self._rotated_insert()
        assert validate_partition(u.partition).passed
        assert u.jump_segments().t1.sum() == pytest.approx(4.0 + 8.0, abs=1e-9)

    def test_flux_identity_rotated(self):
        u = self._rotated_insert()
        g = optimal_gbmc_field(I_CE, J_CE, self.NU, M=1.0, a=1.0)
        flux = jump_flux(u, g, tol=1e-12)
        want = float(g.pairing(J_CE, I_CE, self.NU)) * 6.0
        assert flux.value == pytest.approx(want, abs=1e-8)

    def test_tiling_rotated(self):
        u = self._rotated_insert().scaled(1.0 / 6.0)
        f = catalog_density("frobenius")
        reps = tiling_report(u, I_CE, J_CE, self.NU, f, hs=(1, 3), i_side="minus")
        for rep in reps:
            assert rep["relative_defect"] < 1e-9

    def test_falsify_rotated_triple(self):
        f = catalog_density("product:aniso1:eps=0.01")
        # anisotropy is axis-locked, so the rotated normal sees different
        # weights; the search must still terminate with a coherent verdict
        v = falsify(f, I_CE, J_CE, self.NU, budget=200, seed=0, keep_competitor=False)
        assert v.status in ("VIOLATION", "NO-VIOLATION-WITHIN-BUDGET")
        assert v.best_energy >= 0.0


class TestDivergenceIdentity:
    def test_competitor_flux_matches_straight(self):
        u = counterexample1_competitor(1.0)
        for g in (
            optimal_gbmc_field(I_CE, J_CE, E2, M=1.0, a=1.0),
            optimal_gbmc_field(I_CE, J_CE, E2, M=2.0, a=0.5),
        ):
            flux = jump_flux(u, g, tol=1e-12)
            # the competitor deviates from the elementary jump with j above
            want = float(g.pairing(J_CE, I_CE, E2)) * 6.0
            assert flux.value == pytest.approx(want, abs=1e-8)

    def test_jump_measure_matches_elementary(self):
        u = counterexample1_competitor(1.0)
        want = 6.0 * 0.5 * (np.outer(J_CE - I_CE, E2) + np.outer(E2, J_CE - I_CE))
        assert np.allclose(symmetric_jump_measure(u), want, atol=1e-10)

    def test_flux_bounded_by_energy_of_generated_density(self):
        # any field of a family generating f keeps its flux below the energy
        from bdlab.fields import gbmc_field, map_unit_vectors

        u = counterexample1_competitor(1.0)
        f = catalog_density("isotropic:trunc:a=1,M=1")
        en = surface_energy(u, f, tol=1e-11).value
        rng = np.random.default_rng(21)
        for _ in range(20):
            a = rng.normal(size=2)
            a /= np.linalg.norm(a)
            b = rng.normal(size=2)
            b /= np.linalg.norm(b)
            mu = rng.normal(size=2)
            mu /= np.linalg.norm(mu)
            g = gbmc_field(map_unit_vectors(a, b), mu, rng.normal(size=2), M=1.0, a=1.0)
            assert jump_flux(u, g, tol=1e-11).value <= en + 1e-8

    def test_jensen_lower_bound(self):
        # Frobenius energy of any competitor dominates the Frobenius norm of
        # its total jump measure
        u = counterexample1_competitor(1.0)
        f = catalog_density("frobenius")
        en = surface_energy(u, f, tol=1e-11)
        M = symmetric_jump_measure(u)
        assert en.value >= float(np.sqrt(np.sum(M * M))) - 1e-9


class TestFalsify:
    def test_counterexample1_density_violated(self):
        f = catalog_density("product:aniso1:eps=0.01")
        v = falsify(f, I_CE, J_CE, E2, budget=600, seed=0)
        assert v.status == "VIOLATION"
        assert v.margin > 1.5
        assert v.normalized_margin > 0.25
        assert v.best_energy / 6.0 < 2 * np.sqrt(2)
        assert v.cross_check["difference"] <= 1e-9

    def test_counterexample2_density_violated(self):
        f = catalog_density("aniso2:eps=1e-4")
        v = falsify(f, I_CE, J_CE, E2, budget=600, seed=0)
        assert v.status == "VIOLATION"
        assert v.best_energy / 6.0 < 2 * np.sqrt(1 + 1e-4)

    def test_isotropic_not_violated(self):
        f = catalog_density("isotropic:id")
        v = falsify(f, I_CE, J_CE, E2, budget=400, seed=0)
        assert v.status == "NO-VIOLATION-WITHIN-BUDGET"
        assert v.best_energy >= v.reference_energy - 1e-9

    def test_constant_density_never_violated(self):
        f = catalog_density("isotropic:const:c=1")
        v = falsify(f, I_CE, J_CE, E2, budget=400, seed=1)
        assert v.status == "NO-VIOLATION-WITHIN-BUDGET"

    def test_determinism(self):
        f = catalog_density("product:aniso1:eps=0.01")
        v1 = falsify(f, I_CE, J_CE, E2, budget=300, seed=7, keep_competitor=False)
        v2 = falsify(f, I_CE, J_CE, E2, budget=300, seed=7, keep_competitor=False)
        assert v1.best_energy == v2.best_energy
        assert v1.best_params == v2.best_params
        assert v1.budget_used == v2.budget_used

    def test_nan_density_raises_instead_of_no_violation(self):
        gap = float(np.linalg.norm(J_CE - I_CE))

        def evaluator(i, j, nu):
            a = np.linalg.norm(i - j, axis=-1)
            return np.where(np.abs(a - gap) < 1e-12, a, np.nan)

        f = Density("nan-off-reference", evaluator)
        with pytest.raises(EnergyError):
            falsify(f, I_CE, J_CE, E2, budget=200, seed=0, keep_competitor=False)

    def test_unconverged_certificate_is_no_violation(self):
        # the CE1 density with a small step where |i - j| crosses `level`:
        # inside a jump segment of the CE1 competitor, no quadrature depth
        # resolves it, so the certificate must not stand
        u = counterexample1_competitor(1.0)
        j = u.jump_segments()

        def gap(k, t):
            plus = j.plus_value0[k] + t * j.plus_slope[k]
            return float(np.linalg.norm(plus - (j.minus_value0[k] + t * j.minus_slope[k])))

        k = next(k for k in range(len(j)) if gap(k, 0.0) != gap(k, j.t1[k]))
        base = anisotropic_normal_density(0.01)

        def stepped(level):
            def evaluator(i, j, nu):
                return base(i, j, nu) * (1.0 + 1e-6 * (np.linalg.norm(i - j, axis=-1) > level))
            return Density("stepped", evaluator)

        family = CompetitorFamily("ce1", ((0.0, 1.0),), lambda params: u)
        # a step beyond every jump changes nothing: the violation stands
        assert falsify(stepped(100.0), I_CE, J_CE, E2, families=[family], budget=50).status == "VIOLATION"
        f = stepped(gap(k, 0.3 * j.t1[k]))
        v = falsify(f, I_CE, J_CE, E2, families=[family], budget=50)
        assert v.status == "NO-VIOLATION-WITHIN-BUDGET"
        assert v.margin > 10 * v.error_estimate and v.cross_check["difference"] <= 1e-9
        assert surface_energy(u, f, tol=1e-11).unconverged > 0

    def test_generated_competitors_deviate_compactly(self):
        fams = default_families(I_CE, J_CE, E2)
        ref = make_elementary(
            I_CE, J_CE, E2, OrientedSquare(E2, 6.0, (0, 0)), i_side="minus"
        )
        rng = np.random.default_rng(3)
        for fam in fams:
            for _ in range(3):
                params = [rng.uniform(lo, hi) for lo, hi in fam.bounds]
                comp = fam.generator(params)
                assert all(p.rigid for p in comp.pieces)
                assert compact_deviation(comp, ref, margin=1e-3 * 6.0), fam.name

    def test_scaling_invariance_of_normalized_energy(self):
        # rescaling geometry maps (Q, b) -> (Q/s, b); normalized energies agree
        f = catalog_density("product:aniso1:eps=0.01")
        u = counterexample1_competitor(1.0)
        for s in (0.5, 2.0, 1.0 / 6.0):
            v = u.scaled(s)
            a = surface_energy(u, f, tol=1e-12).value / 6.0
            b = surface_energy(v, f, tol=1e-12).value / (6.0 * s)
            assert b == pytest.approx(a, rel=1e-9)

    @pytest.mark.parametrize("budget", [0, -5, 24])
    def test_rejects_budget_below_one_run(self, budget):
        # the shortest search run is 25 evaluations; a smaller budget would be overrun
        f = catalog_density("isotropic:id")
        with pytest.raises(EllipticityError):
            falsify(f, I_CE, J_CE, E2, budget=budget)

    def test_rejects_equal_values(self):
        f = catalog_density("isotropic:id")
        with pytest.raises(EllipticityError):
            falsify(f, E1, E1, E2, budget=10)

    def test_rejects_bogus_i_side(self):
        f = catalog_density("isotropic:id")
        with pytest.raises(FunctionError):
            falsify(f, I_CE, J_CE, E2, budget=60, i_side="bogus")


class TestJumpSquareBuilder:
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(
        family=st.integers(0, 3),
        i_side=st.sampled_from(("plus", "minus")),
        unit_params=st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8),
        angle=st.floats(0.0, 2.0 * np.pi),
    )
    def test_family_competitors_deviate_compactly(self, family, i_side, unit_params, angle):
        # every layout over the builder is a valid partition that changes the
        # elementary jump on the same square only away from its boundary
        nu = np.array([np.cos(angle), np.sin(angle)])
        fam = default_families(I_CE, J_CE, nu, i_side=i_side)[family]
        u = fam.generator([lo + t * (hi - lo) for t, (lo, hi) in zip(unit_params, fam.bounds)])
        assert validate_partition(u.partition).passed
        ref = make_elementary(I_CE, J_CE, nu, OrientedSquare(nu, 6.0, (0, 0)), i_side=i_side)
        assert compact_deviation(u, ref, margin=1e-3 * 6.0)

    def test_bogus_i_side_raises(self):
        cells = [np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])]
        with pytest.raises(FunctionError):
            insert_competitor(
                I_CE, J_CE, E2, cells, [rigid_piece(1.0, (1.0, 1.0))], 1.0, 1.0, i_side="bogus"
            )
        v = counterexample1_competitor(1.0).scaled(1.0 / 6.0)
        with pytest.raises(FunctionError):
            tiling_report(v, I_CE, J_CE, E2, catalog_density("isotropic:id"), i_side="bogus")


class TestCompiledLayouts:
    """The search's fast path: a layout family's compiled topology gives the
    jump set of its generator's competitor, and the same energies."""

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(
        family=st.integers(0, 3),
        i_side=st.sampled_from(("plus", "minus")),
        angle=st.floats(0.0, 2.0 * np.pi),
        start=st.one_of(
            st.integers(0, 3),  # a family suggestion (modulo their number)
            st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8),
        ),
    )
    def test_fast_energy_matches_general(self, family, i_side, angle, start):
        nu = np.array([np.cos(angle), np.sin(angle)])
        fam = default_families(I_CE, J_CE, nu, i_side=i_side)[family]
        if isinstance(start, int):
            params = fam.suggestions[start % len(fam.suggestions)]
        else:
            params = [lo + t * (hi - lo) for t, (lo, hi) in zip(start, fam.bounds)]
        jumps, owner, general = fam.jumps([params])
        assert general == [] and np.all(owner == 0)
        u = fam.generator(params)
        for fid in CATALOG_IDS:
            f = catalog_density(fid)
            for tol, order in ((1e-9, 15), (1e-13, 30)):
                fast = integrate_jump_arrays(jumps, f, tol, order).value
                general = surface_energy(u, f, tol=tol, order=order).value
                assert fast == pytest.approx(general, rel=1e-12, abs=1e-300), (fid, tol)

    @pytest.mark.parametrize("family", range(4))
    def test_segments_match_jump_segments(self, family):
        rng = np.random.default_rng([5, family])
        side = 6.0
        for i_side in ("plus", "minus"):
            nu = np.array([0.6, -0.8])
            fam = default_families(I_CE, J_CE, nu, side=side, i_side=i_side)[family]
            for _ in range(10):
                params = [rng.uniform(lo, hi) for lo, hi in fam.bounds]
                jumps, owner, rest = fam.jumps([params])
                assert rest == [] and np.all(owner == 0)
                general = fam.generator(params).jump_segments()
                assert len(jumps) == len(general) > 0
                for f in dataclasses.fields(JumpArrays):
                    assert np.array_equal(getattr(jumps, f.name), getattr(general, f.name)), f.name

    @pytest.mark.parametrize("family", range(4))
    def test_rejected_parameters_get_the_sentinel_on_both_paths(self, family):
        fam = default_families(I_CE, J_CE, E2)[family]
        mid = [0.5 * (lo + hi) for lo, hi in fam.bounds]
        # the first parameter sets the insert size: none, negative, beyond the square
        for first in (0.0, -1.0, 7.0, np.nan):
            params = [first] + mid[1:]
            with pytest.raises((GeometryError, FunctionError, EllipticityError)):
                fam.generator(params)
            jumps, owner, general = fam.jumps([params])
            assert general == [0] and len(jumps) == owner.size == 0
        # searches whose bounds reach such sizes reject the same evaluations
        # and follow the same path, through the fast path and without it
        raised = {}

        def counting(key):
            def generator(params):
                try:
                    return fam.generator(params)
                except (GeometryError, FunctionError, EllipticityError):
                    raised[key] = raised.get(key, 0) + 1
                    raise
            return generator

        wide = ((-1.0, 8.0),) + fam.bounds[1:]
        fast = dataclasses.replace(fam, bounds=wide, generator=counting("fast"), suggestions=())
        general = CompetitorFamily(fam.name, wide, counting("general"))
        f = catalog_density("isotropic:id")
        v = [falsify(f, I_CE, J_CE, E2, families=[fam_], budget=100, seed=1, keep_competitor=False)
             for fam_ in (fast, general)]
        assert raised["fast"] == raised["general"] > 0
        assert v[0].to_json() == v[1].to_json()

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(
        family=st.integers(0, 3),
        i_side=st.sampled_from(("plus", "minus")),
        angle=st.floats(0.0, 2.0 * np.pi),
        draws=st.lists(
            st.one_of(
                st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8),
                # insert sizes for the general generator: none, negative,
                # beyond the square, not a number, and too small for a Polygon
                st.sampled_from([0.0, -1.0, 7.0, np.nan, 1e-12]),
            ),
            min_size=1, max_size=6,
        ),
    )
    def test_batch_matches_one_vector_at_a_time(self, family, i_side, angle, draws):
        nu = np.array([np.cos(angle), np.sin(angle)])
        fam = default_families(I_CE, J_CE, nu, i_side=i_side)[family]
        fam = dataclasses.replace(fam, bounds=((-1.0, 8.0),) + fam.bounds[1:])
        mid = [0.5 * (lo + hi) for lo, hi in fam.bounds]
        batch = [
            [d] + mid[1:] if isinstance(d, float)
            else [lo + t * (hi - lo) for t, (lo, hi) in zip(d, fam.bounds)]
            for d in draws
        ]
        jumps, owner, general = fam.jumps(batch)
        assert np.all(np.diff(owner) >= 0)
        alone_general = []
        for n, params in enumerate(batch):
            one, one_owner, one_general = fam.jumps([params])
            assert np.all(one_owner == 0)
            alone_general += [n] * len(one_general)
            rows = jumps.take(np.flatnonzero(owner == n))
            for f in dataclasses.fields(JumpArrays):
                assert np.array_equal(getattr(rows, f.name), getattr(one, f.name)), (n, f.name)
        assert general == alone_general

    def test_topology_must_not_depend_on_the_examples(self):
        cell = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
        inner = ([cell], [rigid_piece(1.0, (1.0, 1.0))])
        examples = [((1.0, -1.0, 1.0), *inner), ((1.0, -1.0, 1.0), *inner)]
        JumpSquareTopology(I_CE, J_CE, E2, 6.0, examples)
        # without the upper notch the upper half loses three edges
        examples[1] = ((1.0, -1.0, 0.0), [cell * [1.0, 0.5] - [0.0, 0.5]], inner[1])
        with pytest.raises(FunctionError):
            JumpSquareTopology(I_CE, J_CE, E2, 6.0, examples)


def scipy_nelder_mead(fun, x0, bounds, maxfev):
    """scipy's bounded Nelder-Mead with falsify's options: (fun, x, points)."""
    points = []

    def recorded(x):
        points.append(x.copy())
        return fun(x)

    res = optimize.minimize(
        recorded, np.asarray(x0, dtype=float), method="Nelder-Mead", bounds=bounds,
        options={"maxfev": maxfev, "xatol": 1e-9, "fatol": 1e-12},
    )
    return res.fun, res.x, points


def driven_nelder_mead(fun, x0, bounds, maxfev):
    """_nelder_mead driven one point at a time: (fun, x, points)."""
    points = []
    search = _nelder_mead(x0, bounds, maxfev)
    x = next(search)
    try:
        while True:
            points.append(x.copy())
            x = search.send(fun(x))
    except StopIteration as stop:
        fval, xbest = stop.value
    return fval, xbest, points


def rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def walled(x):
    # the search's sentinel on part of the box
    return 1e30 if x[0] < 0.2 else float(np.sum((x - 0.7) ** 2))


def step(x):
    # best at the start only: every reflection and contraction fails
    return 0.0 if np.array_equal(x, [1.0]) else 1.0


class TestNelderMead:
    """_nelder_mead against scipy's Nelder-Mead as the oracle: the same
    points, the same value and the same best point, bit for bit."""

    def assert_same(self, fun, x0, bounds, maxfev):
        want_f, want_x, want_points = scipy_nelder_mead(fun, x0, bounds, maxfev)
        got_f, got_x, got_points = driven_nelder_mead(fun, x0, bounds, maxfev)
        assert got_f == want_f
        assert np.array_equal(got_x, want_x)
        assert len(got_points) == len(want_points)
        assert all(np.array_equal(a, b) for a, b in zip(got_points, want_points))
        return got_points

    @pytest.mark.parametrize("maxfev", [25, 100, 400])
    def test_bounded_rosenbrock(self, maxfev):
        self.assert_same(rosenbrock, (-1.2, 1.0, 0.5), ((-2.0, 2.0),) * 3, maxfev)

    @pytest.mark.parametrize("maxfev", [30, 200])
    def test_sentinel_region(self, maxfev):
        self.assert_same(walled, (0.25, 0.9), ((0.0, 1.0), (0.0, 1.0)), maxfev)

    @pytest.mark.parametrize("maxfev", range(1, 61))
    def test_budget_ends_anywhere_in_a_step(self, maxfev):
        # every cut from the initial simplex to the 60th evaluation, on a
        # Rosenbrock valley and on a walled bowl: inside reflections,
        # expansions, contractions and shrinks
        self.assert_same(rosenbrock, (-1.2, 1.0), ((-2.0, 2.0), (-2.0, 2.0)), maxfev)
        self.assert_same(walled, (0.25, 0.9), ((0.0, 1.0), (0.0, 1.0)), maxfev)

    def test_budget_ends_inside_an_expansion(self):
        # x^2 from 1: the reflection 0.95 improves, so the 4th evaluation is
        # the expansion 0.9
        points = self.assert_same(lambda x: float(x[0] ** 2), (1.0,), ((-5.0, 5.0),), 3)
        assert [p[0] for p in points] == [1.0, 1.05, 0.95]

    def test_budget_ends_inside_a_contraction(self):
        # x^2 from 0: the zero coordinate gets the 0.00025 step, the
        # reflection ties the worst, and the 4th evaluation contracts inside
        points = self.assert_same(lambda x: float(x[0] ** 2), (0.0,), ((-5.0, 5.0),), 3)
        assert [p[0] for p in points] == [0.0, 0.00025, -0.00025]

    @pytest.mark.parametrize("maxfev", [4, 5, 6])
    def test_budget_ends_inside_a_shrink(self, maxfev):
        # the reflection and the inside contraction fail, so the 5th
        # evaluation is the shrunk vertex
        points = self.assert_same(step, (1.0,), ((-5.0, 5.0),), maxfev)
        assert [p[0] for p in points[:4]] == [1.0, 1.05, 0.95, 1.025]

    def test_stops_early_on_xatol_and_fatol(self):
        points = self.assert_same(lambda x: float(np.sum((x - 0.3) ** 2)), (1.0, -1.0),
                                  ((-2.0, 2.0), (-2.0, 2.0)), 10_000)
        assert len(points) < 1000

    def test_start_on_the_upper_bound(self):
        # the initial simplex steps past the bound and is reflected back
        points = self.assert_same(rosenbrock, (2.0, 1.5), ((-2.0, 2.0), (-2.0, 1.5)), 80)
        assert points[1][0] == 2 * 2.0 - 1.05 * 2.0

    def test_zero_coordinate_step(self):
        points = self.assert_same(rosenbrock, (0.0, 0.5), ((-2.0, 2.0), (-2.0, 2.0)), 60)
        assert points[1][0] == 0.00025


def sequential_search(f, i, j, nu, budget, seed):
    """falsify's search one competitor at a time: scipy's Nelder-Mead run
    after run, with the one-competitor objective.  Per searched run:
    (value, family index, start index, best point, evaluations)."""
    families = default_families(i, j, nu)

    def objective(family):
        def value(params):
            try:
                jumps, _, general = family.jumps([params])
                if general:
                    return surface_energy(family.generator(params), f, tol=1e-9, order=15).value
                return integrate_jump_arrays(jumps, f, 1e-9, 15).value
            except (GeometryError, FunctionError, EllipticityError):
                return 1e30
        return value

    runs = []
    for fi, family in enumerate(families):
        rng = np.random.default_rng(np.random.SeedSequence([seed, fi]))
        sampler = qmc.LatinHypercube(d=family.dim, seed=rng)
        lob = np.array([b[0] for b in family.bounds])
        hib = np.array([b[1] for b in family.bounds])
        starts = list(family.suggestions) + [
            lob + (hib - lob) * row for row in sampler.random(n=_RESTARTS)
        ]
        runs += [(fi, si, family, start) for si, start in enumerate(starts)]
    per_run = max(_MIN_RUN, budget // len(runs))
    out = []
    for fi, si, family, start in runs[: max(1, budget // per_run)]:
        res = optimize.minimize(
            objective(family), np.asarray(start, dtype=float), method="Nelder-Mead",
            bounds=family.bounds, options={"maxfev": per_run, "xatol": 1e-9, "fatol": 1e-12},
        )
        out.append((float(res.fun), fi, si, tuple(res.x), res.nfev))
    return families, out


class TestLockstepSearch:
    @pytest.mark.parametrize("fid,nu,budget", [
        ("product:aniso1:eps=0.01", E2, 400),
        ("aniso2:eps=1e-4", E2, 400),
        ("isotropic:id", (0.6, 0.8), 400),
        ("product:aniso1:eps=0.01", E2, 1000),
    ])
    def test_verdict_equals_the_sequential_search(self, fid, nu, budget):
        f = catalog_density(fid)
        families, runs = sequential_search(f, I_CE, J_CE, nu, budget, seed=2)
        v = falsify(f, I_CE, J_CE, nu, budget=budget, seed=2)
        val, fi, _, params, _ = min(runs, key=lambda r: r[:3])
        assert v.best_family == families[fi].name
        assert v.best_params == params
        assert v.budget_used == sum(r[4] for r in runs)
        e1 = surface_energy(families[fi].generator(params), f, tol=1e-11, order=15)
        assert v.best_energy == e1.value
        for k, st_ in enumerate(v.diagnostics["families"]):
            mine = [r for r in runs if r[1] == k]
            assert st_["runs"] == len(mine)
            assert st_["evaluations"] == sum(r[4] for r in mine)
            assert st_["best_value"] == min((r[0] for r in mine), default=None)

    def test_diagnostics_at_budget_600(self):
        f = catalog_density("product:aniso1:eps=0.01")
        v = falsify(f, I_CE, J_CE, E2, budget=600, seed=0)
        fams = {st_["name"]: st_ for st_ in v.diagnostics["families"]}
        assert sum(st_["evaluations"] for st_ in fams.values()) == v.budget_used == 600
        assert v.diagnostics["dropped_families"] == ["nested-squares"]
        assert fams["nested-squares"]["runs"] == 0 and fams["nested-squares"]["dropped_runs"] == 9
        assert fams["checkerboard"]["runs"] == 2 and fams["checkerboard"]["dropped_runs"] == 7
        assert fams["nested-squares"]["best_value"] is None
        assert fams["square-insert"]["best_value"] <= fams["rect-insert"]["best_value"] + 10.0
        assert all(st_["rejected"] <= st_["evaluations"] for st_ in fams.values())
        out = v.to_json()
        assert list(out).index("diagnostics") == list(out).index("cross_check") + 1
        assert out["diagnostics"]["families"][0]["runs"] == 10

    def test_rejections_are_counted(self):
        fam = default_families(I_CE, J_CE, E2)[0]
        wide = dataclasses.replace(fam, bounds=((-1.0, 8.0),) + fam.bounds[1:], suggestions=())
        v = falsify(catalog_density("isotropic:id"), I_CE, J_CE, E2, families=[wide], budget=100,
                    seed=1, keep_competitor=False)
        (st_,) = v.diagnostics["families"]
        assert 0 < st_["rejected"] < st_["evaluations"] == v.budget_used


class TestRelaxation:
    def test_elliptic_estimate_equals_density(self):
        f = catalog_density("isotropic:id")
        r = relaxation_estimate(f, I_CE, J_CE, E2, budget=300, seed=0)
        assert r.value == pytest.approx(r.density_value, abs=1e-10)
        assert r.value <= r.density_value

    def test_counterexample_estimate_below_density(self):
        f = catalog_density("product:aniso1:eps=0.01")
        r = relaxation_estimate(f, I_CE, J_CE, E2, budget=600, seed=0)
        assert r.value <= 2.57
        assert r.value < 2 * np.sqrt(2)

    def test_linear_scaling(self):
        f = catalog_density("product:aniso1:eps=0.01")
        r1 = relaxation_estimate(f, I_CE, J_CE, E2, budget=300, seed=0)
        r3 = relaxation_estimate(f.scaled(3.0), I_CE, J_CE, E2, budget=300, seed=0)
        assert r3.value == pytest.approx(3.0 * r1.value, rel=1e-9)

    def test_monotone_in_families(self):
        f = catalog_density("product:aniso1:eps=0.01")
        fams = default_families(I_CE, J_CE, E2)
        r_small = relaxation_estimate(f, I_CE, J_CE, E2, families=fams[:2], budget=400, seed=0)
        r_large = relaxation_estimate(f, I_CE, J_CE, E2, families=fams, budget=400, seed=0)
        assert r_large.value <= r_small.value + 1e-12


class TestReportJson:
    def test_verdict_key_order(self):
        fields = dict(
            status="VIOLATION", best_energy=1.0, reference_energy=2.0, margin=1.0,
            normalized_margin=0.5, error_estimate=0.0, budget_used=25,
            best_family="square-insert", best_params=(np.float64(2.0), 0.5),
            interface_length=6.0,
        )
        keys = list(fields) + ["cross_check"]
        bare = EllipticityVerdict(**fields).to_json()
        assert list(bare) == keys
        assert bare["best_params"] == [2.0, 0.5] and bare["cross_check"] == {}
        u = counterexample1_competitor(1.0)
        full = EllipticityVerdict(**fields, competitor=u).to_json()
        assert list(full) == keys + ["competitor"]
        assert full["competitor"] == u.to_json()

    def test_necessary_report_leaves_out_missing_verdict(self):
        rep = NecessaryReport(0.0, 0.0, True, "necessary-pass").to_json()
        assert list(rep) == [
            "subadditivity_violation", "convexity_violation", "passes_necessary", "label"
        ]


class TestNecessaryReport:
    def test_counterexample_density_separation(self):
        f = catalog_density("product:aniso1:eps=0.01")
        rep = bv_necessary_report(
            f, samples=3000, seed=0, triple=(I_CE, J_CE, E2), budget=600
        )
        assert rep.passes_necessary
        assert rep.label == "BV-type-necessary-pass / BD-falsified"

    def test_isotropic_passes_without_violation(self):
        f = catalog_density("isotropic:id")
        rep = bv_necessary_report(
            f, samples=3000, seed=0, triple=(I_CE, J_CE, E2), budget=300
        )
        assert rep.passes_necessary
        assert rep.label == "necessary-pass / no violation found"

    def test_quadratic_fails(self):
        f = Density(
            "quad",
            lambda i, j, nu: np.linalg.norm(i - j, axis=-1) ** 2
            * np.linalg.norm(nu, axis=-1),
        )
        rep = bv_necessary_report(
            f,
            samples=2000,
            seed=0,
            extra_subadditivity=[(2 * E1, np.zeros(2), E1, E2)],
        )
        assert not rep.passes_necessary
        assert rep.subadditivity_violation >= 2.0
