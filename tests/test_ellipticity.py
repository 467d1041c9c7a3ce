import dataclasses
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import optimize
from scipy.stats import qmc

from bdlab.densities import (
    CATALOG_IDS,
    Density,
    anisotropic_normal_density,
    anisotropic_trace_density,
    catalog_density,
    check_convexity_in_nu,
    check_subadditivity,
    symmetry_violation,
)
from bdlab.energy import (
    EnergyError,
    integrate_jump_arrays,
    jump_flux,
    surface_energy,
    symmetric_jump_measure,
)
from bdlab.fields import (
    FieldFamily,
    catalog_fields,
    family_density,
    optimal_gbmc_field,
    prototype_field,
    zero_field,
)
from bdlab.functions import (
    AffinePiece,
    FunctionError,
    JumpArrays,
    PiecewiseRigid,
    _stacked,
    compact_deviation,
    constant_piece,
    jump_arrays,
    jump_square,
    make_elementary,
    outer_cells,
    skew2,
)
from bdlab import ellipticity
from bdlab.profiles import eta_profile
from bdlab.geometry import (
    GeometryError,
    OrientedSquare,
    Polygon,
    PolygonalPartition,
    clip_segment_params,
    edge_pair_interfaces,
    edge_vertices,
    frame_from_normal,
    make_oriented_square,
    unit,
    validate_partition,
)
from bdlab.ellipticity import (
    _MIN_RUN,
    _RESTARTS,
    _SEARCH_ORDER,
    _SEARCH_TOL,
    _SENTINEL,
    _compiled_round,
    _latin_hypercube,
    _nelder_mead,
    _plan,
    _search_values,
    CompetitorFamily,
    EllipticityError,
    EllipticityVerdict,
    NECESSARY_TOL,
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
# both orders of the two values, (below the chord, above it)
ORDERS = ((J_CE, I_CE), (I_CE, J_CE))


def _layout_jumps(requests):
    """The jump sets of generator(params) for the parameter vectors of
    several (layout family, batch) requests, in one JumpSquareBatch.jumps
    call: (jumps, owner), the rows of each vector in order and the index of
    each row's vector among those of all requests."""
    families = [family for family, _ in requests]
    batches = [np.asarray(batch, dtype=float).reshape(-1, family.dim)
               for family, batch in requests]
    slots = tuple(s for s, P in enumerate(batches) for _ in range(len(P)))
    compiled = _compiled_round(tuple(fam.layout for fam in families), slots)
    return compiled.jumps(families, [P.ravel() for P in batches])


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
        ref = make_elementary(I_CE, J_CE, E2, OrientedSquare(E2, 6.0, (0, 0)))
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
        rep = tiling_report(v, I_CE, J_CE, E2, f, hs=(1,))[0]
        assert rep["relative_defect"] < 1e-9

    def test_tile_sum_matches_for_all_h(self):
        v = self._small_competitor()
        f = anisotropic_normal_density(0.01)
        for rep in tiling_report(v, I_CE, J_CE, E2, f, hs=(1, 2, 4, 8)):
            assert rep["relative_defect"] < 1e-9, rep["h"]

    def test_outer_chord_is_the_straight_jump_outside_the_unit_square(self):
        # the side-3 ambient square leaves 3 - 1 = 2 of the straight jump
        # outside v's unit square, with j on the plus side
        v = self._small_competitor()
        f = anisotropic_normal_density(0.01)
        chord = float(f(J_CE, I_CE, E2)) * 2.0
        for rep in tiling_report(v, I_CE, J_CE, E2, f, hs=range(1, 5)):
            assert rep["outer_chord_energy"] == chord, rep["h"]
            assert rep["boundary_contribution"] == (
                rep["total_energy"] - rep["tile_energy_sum"] - rep["outer_chord_energy"])

    # ids False and True: the axis frame and a rotated one; unit((1, 2)) is
    # not a fixed point of unit, so there a tiled function built on
    # unit(unit(nu)) would lie one bit off its tiles
    @pytest.mark.parametrize("nu", [(0.0, 1.0), (0.6, 0.8), (1.0, 2.0)],
                             ids=["False", "True", "unit-not-idempotent"])
    def test_report_equals_per_tile_energies(self, nu):
        # each tile is tile_construction's rows whose two cells lie in one
        # copy, integrated alone, bit for bit; the former clip of the jump
        # set to each tile gives the same sum within 1e-14 relative (it cut
        # some rows at t0 of about 1e-14 instead of 0)
        rotated = nu != (0.0, 1.0)
        u = TestRotatedFrames()._rotated_insert(nu) if rotated else counterexample1_competitor(1.0)
        v = u.scaled(1.0 / 6.0)
        f = anisotropic_normal_density(0.01)
        R = frame_from_normal(unit(nu))
        base = surface_energy(v, f, tol=1e-12)
        P = len(v.pieces)
        for rep in tiling_report(v, I_CE, J_CE, nu, f, hs=range(1, 7)):
            h = rep["h"]
            u_h = tile_construction(v, I_CE, J_CE, nu, h)
            jumps = u_h.jump_segments()
            itf = u_h.partition.interfaces
            A, c = _stacked(u_h.pieces)
            _, keep = jump_arrays(itf.a, itf.b, itf.normal, (A[itf.left], c[itf.left]),
                                  (A[itf.right], c[itf.right]))
            # cells 0 and 1 are the outer halves, then P cells per copy
            left, right = (itf.left[keep] - 2) // P, (itf.right[keep] - 2) // P
            tiles, former = [], []
            inv_h = 1.0 / h
            for n in range(h):
                rows = np.flatnonzero((left == n) & (right == n) & (itf.right[keep] >= 2))
                tiles.append(integrate_jump_arrays(jumps.take(rows), f, 1e-12, 15))
                cn = np.array([-0.5 + n * inv_h, 0.0])
                tile = np.array([cn, cn + [inv_h, 0], cn + [inv_h, inv_h], cn + [0, inv_h]]) @ R.T
                _, rows, t0, t1, on_boundary = clip_segment_params(jumps.a, jumps.b,
                                                                   [Polygon(tile)])
                inner = ~on_boundary
                L = jumps.t1[rows[inner]]
                former.append(integrate_jump_arrays(
                    jumps.take(rows[inner], t0[inner] * L, t1[inner] * L), f, 1e-12, 15).value)
            total = surface_energy(u_h, f, tol=1e-12)
            assert rep["tile_energy_sum"] == sum(t.value for t in tiles), h
            assert abs(rep["tile_energy_sum"] - sum(former)) <= 1e-14 * sum(former), h
            assert rep["total_energy"] == total.value
            err = sum(t.error_estimate for t in tiles) + total.error_estimate + base.error_estimate
            assert rep["error_estimate"] == err

    def test_more_competitors(self):
        # CE2 and a seeded competitor of each default family, at the CE triple
        rng = np.random.default_rng(37)
        comps = [counterexample2_competitor(1.0, 1e-4)]
        for fam in default_families(I_CE, J_CE, E2):
            lo, hi = np.array(fam.bounds).T
            comps.append(fam.generator(lo + rng.random(fam.dim) * (hi - lo)))
        f = anisotropic_normal_density(0.01)
        for u in comps:
            for rep in tiling_report(u.scaled(1.0 / 6.0), I_CE, J_CE, E2, f, hs=range(1, 9)):
                assert rep["relative_defect"] < 1e-9, rep["h"]

    @pytest.mark.parametrize("h", [float("nan"), float("inf"), "2", 2.5, 0, -1])
    def test_rejects_non_integer_h(self, h):
        v = self._small_competitor()
        f = catalog_density("frobenius")
        with pytest.raises(EllipticityError):
            tiling_report(v, I_CE, J_CE, E2, f, hs=(h,))
        with pytest.raises(EllipticityError):
            tile_construction(v, I_CE, J_CE, E2, h)

    def test_integral_h_is_reported_as_int(self):
        v = self._small_competitor()
        f = catalog_density("frobenius")
        want = tiling_report(v, I_CE, J_CE, E2, f, hs=(2,))
        for h in (2.0, np.int64(2), np.float64(2.0)):
            got = tiling_report(v, I_CE, J_CE, E2, f, hs=(h,))
            assert got == want and type(got[0]["h"]) is int
            json.dumps(got)
        assert tiling_report(v, I_CE, J_CE, E2, f, hs=iter([2])) == want

    @staticmethod
    def _assert_levels_equal(v, nu, hs, monkeypatch, name=""):
        # every level's matched edge pairs and jump rows are tile_construction's
        matched = []
        match = ellipticity.matched_interfaces
        monkeypatch.setattr(ellipticity, "matched_interfaces",
                            lambda *args: matched.append(match(*args)) or matched[-1])
        jumps, level, _ = ellipticity._tiled_jumps(v, I_CE, J_CE, unit(nu), hs)
        (itf,) = matched
        first = 0
        for k, h in enumerate(hs):
            u = tile_construction(v, I_CE, J_CE, nu, h)
            rows = (itf.right >= first) & (itf.right < first + len(u.pieces))
            got = np.stack([itf.right[rows] - first, itf.right_edge[rows],
                            itf.left[rows] - first, itf.left_edge[rows]])
            want = u.partition.interfaces
            assert np.array_equal(got, [want.right, want.right_edge, want.left, want.left_edge]), (
                name, h)
            first += len(u.pieces)
            rows = np.flatnonzero(level == k)
            for fld, w in vars(u.jump_segments()).items():
                g = getattr(jumps, fld)[rows]
                assert g.shape == w.shape and g.tobytes() == w.tobytes(), (name, h, fld)

    @pytest.mark.parametrize("nu", [(0.0, 1.0), (0.6, 0.8), (1.0, 2.0)])
    def test_levels_equal_tile_construction_rows(self, nu, monkeypatch):
        comps = [("rot", TestRotatedFrames()._rotated_insert(nu))]
        if nu == (0.0, 1.0):
            comps += [("ce1", counterexample1_competitor(1.0)),
                      ("ce2", counterexample2_competitor(1.0, 1e-4))]
        rng = np.random.default_rng(0)
        for fam in default_families(I_CE, J_CE, nu):
            lo, hi = np.array(fam.bounds).T
            comps.append((fam.name, fam.generator(lo + rng.random(fam.dim) * (hi - lo))))
        for name, u in comps:
            with monkeypatch.context() as m:
                self._assert_levels_equal(u.scaled(1.0 / 6.0), nu, list(range(1, 33)), m, name)

    @pytest.mark.parametrize("nu", [(0.0, 1.0), (0.6, 0.8), (1.0, 2.0)])
    def test_levels_equal_tile_construction_rows_across_seeds(self, nu, monkeypatch):
        rng = np.random.default_rng(37)
        for fam in default_families(I_CE, J_CE, nu):
            lo, hi = np.array(fam.bounds).T
            for seed in range(10):
                u = fam.generator(lo + rng.random(fam.dim) * (hi - lo))
                with monkeypatch.context() as m:
                    self._assert_levels_equal(u.scaled(1.0 / 6.0), nu, list(range(1, 9)), m,
                                              (fam.name, seed))

    def test_edges_too_far_apart_for_v_meet_in_the_copies(self, monkeypatch):
        # the insert's bottom edge 3e-9 above the notch below it: too far to
        # meet at v's tolerance (sqrt(2) 1e-9), near enough at each level's
        # (3 sqrt(2) 1e-9 against a gap of 3e-9 / h)
        u = counterexample1_competitor(1.0).scaled(1.0 / 6.0)
        vertices = u.partition.vertices.copy()
        vertices[16:18, 1] += 3e-9
        v = dataclasses.replace(u, partition=PolygonalPartition(
            (vertices, u.partition.counts), u.partition.domain))
        assert len(v.partition.interfaces) == len(u.partition.interfaces) - 1
        for h in (1, 16):
            assert (len(tile_construction(v, I_CE, J_CE, E2, h).partition.interfaces)
                    == len(tile_construction(u, I_CE, J_CE, E2, h).partition.interfaces))
        self._assert_levels_equal(v, E2, list(range(1, 17)), monkeypatch)

    @pytest.mark.parametrize("nu", [(0.0, 1.0), (0.6, 0.8)])
    def test_levels_equal_tile_construction_rows_on_seams_off_the_chord(self, nu, monkeypatch):
        # three constant cells: the lower half split at x = 0.2, the upper
        # cell with a vertex at (-0.5, 0.3) on its left side, and the right
        # side 3e-9 inside the square, so each seam between copies splits
        # off the chord and its two sides lie 3e-9 / h apart: within every
        # level's tolerance (3 sqrt(2) 1e-9), not within v's (sqrt(2) 1e-9)
        R = frame_from_normal(unit(nu))
        x = 0.5 - 3e-9
        cells = [[(-0.5, -0.5), (0.2, -0.5), (0.2, 0.0), (-0.5, 0.0)],
                 [(0.2, -0.5), (x, -0.5), (x, 0.0), (0.2, 0.0)],
                 [(-0.5, 0.0), (x, 0.0), (x, 0.5), (-0.5, 0.5), (-0.5, 0.3)]]
        part = PolygonalPartition((np.concatenate(cells) @ R.T, [len(c) for c in cells]),
                                  make_oriented_square(unit(nu), 1.0))
        v = PiecewiseRigid(part, map(constant_piece, (I_CE, I_CE, J_CE)))
        assert len(tile_construction(v, I_CE, J_CE, nu, 16).partition.interfaces) == 148
        self._assert_levels_equal(v, nu, list(range(1, 17)), monkeypatch)

    def test_candidates_face_one_neighbour_per_side(self, monkeypatch):
        # each copy side is offered one edge of a half or the next copy's
        # side, not every edge of both halves: CE1 / 6 at h = 1..16 gives
        # 6448 edge pairs, against 11 712 when whole halves were offered
        offered = []
        match = ellipticity.matched_interfaces
        monkeypatch.setattr(ellipticity, "matched_interfaces",
                            lambda v, c, pairs, tol: offered.append(len(pairs[0]))
                            or match(v, c, pairs, tol))
        tiling_report(self._small_competitor(), I_CE, J_CE, E2,
                      anisotropic_normal_density(0.01), hs=range(1, 17))
        assert len(offered) == 1 and offered[0] <= 6448

    def test_boundary_contribution_decays_like_1_over_h(self):
        v = self._small_competitor()
        f = catalog_density("isotropic:id")
        reps = tiling_report(v, I_CE, J_CE, E2, f, hs=(1, 2, 4, 8))
        bc = [r["boundary_contribution"] for r in reps]
        assert all(b > 0 for b in bc)
        for k in range(len(bc) - 1):
            ratio = bc[k] / bc[k + 1]
            assert 1.0 <= ratio <= 4.0  # 1/h decay within a factor 2

    def test_tiled_function_is_rigid_and_valid(self):
        v = self._small_competitor()
        u2 = tile_construction(v, I_CE, J_CE, E2, 2)
        assert all(p.rigid for p in u2.pieces)
        assert validate_partition(u2.partition).passed

    def test_rejects_non_unit_domain(self):
        u = counterexample1_competitor(1.0)
        with pytest.raises(EllipticityError):
            tile_construction(u, I_CE, J_CE, E2, 2)

    def test_rejects_bad_h(self):
        v = self._small_competitor()
        with pytest.raises(EllipticityError):
            tile_construction(v, I_CE, J_CE, E2, 0)

    @pytest.mark.parametrize("nu", [(0.0, 1.0), (0.6, 0.8), (1.0, 2.0)])
    def test_construction_equals_the_former_per_copy_polygons(self, nu):
        rotated = nu != (0.0, 1.0)
        u = TestRotatedFrames()._rotated_insert(nu) if rotated else counterexample1_competitor(1.0)
        v = u.scaled(1.0 / 6.0)
        for h in range(1, 17):
            got = tile_construction(v, I_CE, J_CE, nu, h)
            want = former_tile_construction(v, I_CE, J_CE, nu, h)
            assert len(got.partition.cells) == len(want.partition.cells)
            for c, w in zip(got.partition.cells, want.partition.cells):
                assert np.array_equal(c.vertices, w.vertices)
                assert np.array_equal(c.rolled, w.rolled)
            for p, q in zip(got.pieces, want.pieces, strict=True):
                assert np.array_equal(p.A, q.A) and np.array_equal(p.b, q.b)
            for name, value in vars(want.partition.interfaces).items():
                assert np.array_equal(getattr(got.partition.interfaces, name), value), (h, name)
            jumps = got.jump_segments()
            for name, value in vars(want.jump_segments()).items():
                assert np.array_equal(getattr(jumps, name), value), (h, name)


def former_tile_construction(v, i, j, nu, h, ambient_side=3.0):
    """The oracle: tile_construction with one Polygon per cell copy, handed
    to jump_square as one stack in place."""
    nu = unit(nu)
    R = frame_from_normal(nu)
    inv_h = 1.0 / h
    cells, pieces = [], []
    for n in range(h):
        xn = R @ np.array([-0.5 + (n + 0.5) * inv_h, 0.5 * inv_h])
        for cell, piece in zip(v.partition.cells, v.pieces):
            cells.append(Polygon(xn + cell.vertices * inv_h))
            A = h * piece.A
            pieces.append(type(piece)(A, piece.b - A @ xn))
    stack = np.concatenate([c.vertices for c in cells]), np.array([len(c) for c in cells])
    return jump_square(i, j, nu, ambient_side, hole=(0.5, 0.0, inv_h),
                       cells=stack, pieces=pieces)


class TestRotatedFrames:
    NU = np.array([0.6, 0.8])

    def _rotated_insert(self, nu=NU):
        from bdlab.ellipticity import insert_competitor
        cells = [np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])]
        return insert_competitor(
            I_CE, J_CE, nu, cells, [AffinePiece(skew2(0.7), (0.3, 0.2))],
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
        reps = tiling_report(u, I_CE, J_CE, self.NU, f, hs=(1, 3))
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
        ref = make_elementary(I_CE, J_CE, E2, OrientedSquare(E2, 6.0, (0, 0)))
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

    @pytest.mark.parametrize("i, j", [
        ((0.0,), (1.0,)), ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)), (0.0, 1.0), (I_CE, (1.0, 2.0, 3.0)),
        ((np.nan, 0.0), J_CE), (I_CE, (np.inf, 2.0)),
    ])
    def test_rejects_values_that_are_not_finite_planar_points(self, i, j):
        # the parent raised IndexError or NumPy's broadcast error on these,
        # or searched NaN bounds
        f = catalog_density("isotropic:id")
        for search in (falsify, relaxation_estimate):
            with pytest.raises(EllipticityError, match="planar"):
                search(f, i, j, E2, budget=100)
        with pytest.raises(EllipticityError, match="planar"):
            bv_necessary_report(f, samples=10, triple=(i, j, E2), budget=100)
        with pytest.raises(EllipticityError, match="planar"):
            default_families(i, j, E2)

    @pytest.mark.parametrize("lam", [2.0**-40, 2.0**-20, 1e-6, 1.0, 1e3, 1e6, 2.0**40])
    def test_counterexamples_certified_at_every_scale(self, lam):
        # the closed form and the doubled-order quadrature differ by about
        # 3e-16 relative, which is more than 1e-9 absolute at lam = 1e6
        for f in (anisotropic_normal_density(0.01), anisotropic_trace_density(1e-4)):
            at_one, v = (falsify(f, I_CE, np.full(2, 2.0 * s), E2, budget=600, seed=0,
                                 keep_competitor=False) for s in (1.0, lam))
            assert v.status == "VIOLATION"
            assert v.cross_check["difference"] <= 1e-9 * v.reference_energy
            # the same competitor, energy per lam to rounding
            assert abs(v.best_energy / lam - at_one.best_energy) <= 1e-12 * at_one.best_energy

    @pytest.mark.parametrize("i, j", [((0.0, 0.0), (1.4e-154, 0.0)), ((0.0, 0.0), (1e-160, 1e-160)),
                                      ((1e-155, 0.0), (-1e-155, 0.0))])
    def test_refuses_a_difference_whose_square_is_subnormal(self, i, j):
        # the closed form squares the jump, and a subnormal square loses precision
        with pytest.raises(EllipticityError, match="rescale the values"):
            default_families(i, j, E2)
        with pytest.raises(EllipticityError, match="rescale the values"):
            falsify(catalog_density("isotropic:id"), i, j, E2, budget=100)
        assert len(default_families((0.0, 0.0), (1.6e-154, 0.0), E2)) == 4

    @pytest.mark.parametrize("i, j", [((0.0, 0.0), (1e155, 1e155)), ((1e308, 0.0), (-1e308, 0.0))])
    def test_refuses_a_difference_whose_square_overflows(self, i, j):
        # without a warning (RuntimeWarnings are errors here), before the
        # infinite bounds reach a family
        with pytest.raises(EllipticityError, match="rescale the values"):
            default_families(i, j, E2)
        assert len(default_families((0.0, 0.0), (1e153, 0.0), E2)) == 4

    def test_names_a_difference_that_underflows(self):
        # distinct values whose |i - j| squares to 0: the refusal says so
        with pytest.raises(EllipticityError, match="underflows") as err:
            default_families((0, 0), (1e-200, 0), (0, 1))
        assert "i != j" not in str(err.value)
        with pytest.raises(EllipticityError, match="i != j"):
            default_families((1e-200, 0), (1e-200, 0), (0, 1))

    @pytest.mark.parametrize("side", [np.nan, np.inf, -6.0, 0.0])
    def test_rejects_bad_side(self, side):
        # before any search, with the default families and without them
        f = catalog_density("isotropic:id")
        u = counterexample1_competitor(1.0)
        family = CompetitorFamily("ce1", ((0.0, 1.0),), lambda params: u)
        for families in (None, [family]):
            with pytest.raises(EllipticityError):
                falsify(f, I_CE, J_CE, E2, families=families, budget=600, side=side)
            with pytest.raises(EllipticityError):
                relaxation_estimate(f, I_CE, J_CE, E2, families=families, budget=600, side=side)
        with pytest.raises(EllipticityError):
            default_families(I_CE, J_CE, E2, side=side)

    @pytest.mark.parametrize("search", [falsify, relaxation_estimate])
    @pytest.mark.parametrize("built, call", [
        ({}, {"side": 3.0}),
        ({"nu": (0.6, 0.8)}, {}),
        ({"i": J_CE, "j": I_CE}, {}),
        ({"j": (3.0, 1.0)}, {}),
    ])
    def test_rejects_families_built_for_other_inputs(self, search, built, call):
        # before any evaluation: the parent searched such families, then
        # raised (side) or reported NO-VIOLATION against the wrong reference
        f = catalog_density("product:aniso1:eps=0.01")
        calls = [0]

        def evaluator(i, j, nu):
            calls[0] += 1
            return f.evaluator(i, j, nu)

        counted = dataclasses.replace(f, evaluator=evaluator)  # one call: the form check
        own = {"i": I_CE, "j": J_CE, "nu": E2, "side": 6.0}
        families = default_families(**{**own, **built})
        args = {**own, **call}
        calls[0] = 0
        with pytest.raises(EllipticityError, match="built for another"):
            search(counted, families=families, budget=100, **args)
        assert calls[0] == 0
        # the same families are searched for the inputs they were built for
        v = falsify(f, families=families, budget=100, keep_competitor=False, **{**own, **built})
        assert v.budget_used == 100
        if not call:
            # plain families carry nothing to compare: they are searched
            plain_ = [CompetitorFamily(fam.name, fam.bounds, fam.generator) for fam in families]
            v = falsify(f, families=plain_, budget=100, keep_competitor=False, **args)
            assert v.budget_used == 100

    @pytest.mark.parametrize("search", [falsify, relaxation_estimate])
    def test_rejects_plain_families_on_another_square(self, search):
        # before any density evaluation: the parent searched the whole budget
        # and then raised FunctionError from the certificate's domain check
        f = catalog_density("product:aniso1:eps=0.01")
        calls = [0]

        def evaluator(i, j, nu):
            calls[0] += 1
            return f.evaluator(i, j, nu)

        counted = dataclasses.replace(f, evaluator=evaluator)
        families = [plain(fam) for fam in default_families(I_CE, J_CE, E2, side=6.0)]
        calls[0] = 0
        with pytest.raises(EllipticityError, match="another square"):
            search(counted, I_CE, J_CE, E2, families=families, budget=100, side=3.0)
        assert calls[0] == 0
        # on their own square they are searched
        v = search(f, I_CE, J_CE, E2, families=families, budget=100)
        assert (v if search is falsify else v.verdict).budget_used == 100

    @pytest.mark.parametrize("kind", ["plain", "layout"])
    @pytest.mark.parametrize("bounds", ["reversed", "nan", "none"])
    def test_rejects_malformed_bounds(self, kind, bounds):
        # before any density call, for both kinds of family: plain families
        # used to search reversed bounds to a NO-VIOLATION, reject every
        # point of NaN bounds into one, and fail to unpack empty bounds
        fam = default_families(I_CE, J_CE, E2)[0]
        bad = {"reversed": tuple((hi, lo) for lo, hi in fam.bounds),
               "nan": ((np.nan, np.nan),) + fam.bounds[1:], "none": ()}[bounds]
        f = catalog_density("product:aniso1:eps=0.01")
        calls = [0]

        def evaluator(i, j, nu):
            calls[0] += 1
            return f.evaluator(i, j, nu)

        counted = dataclasses.replace(f, evaluator=evaluator)
        calls[0] = 0
        with pytest.raises(EllipticityError, match="bounds"):
            family = plain(fam, bad) if kind == "plain" else dataclasses.replace(fam, bounds=bad)
            falsify(counted, I_CE, J_CE, E2, families=[family], budget=200)
        assert calls[0] == 0

    @pytest.mark.parametrize("kind", ["plain", "layout"])
    @pytest.mark.parametrize("start", [(2.0,), (2.0, 1.0), (np.nan, 0.0, 1.0, 1.0)])
    def test_rejects_suggestions_that_do_not_fit_the_bounds(self, kind, start):
        # before any density call: the parent broadcast (2.0,) to four
        # entries and searched it, failed in NumPy on (2.0, 1.0), and
        # searched from a NaN start
        fam = default_families(I_CE, J_CE, E2)[0]
        f = catalog_density("product:aniso1:eps=0.01")
        calls = [0]

        def evaluator(i, j, nu):
            calls[0] += 1
            return f.evaluator(i, j, nu)

        counted = dataclasses.replace(f, evaluator=evaluator)
        calls[0] = 0
        with pytest.raises(EllipticityError, match="suggestion"):
            family = (CompetitorFamily(fam.name, fam.bounds, fam.generator, (start,))
                      if kind == "plain" else dataclasses.replace(fam, suggestions=(start,)))
            falsify(counted, I_CE, J_CE, E2, families=[family], budget=200)
        assert calls[0] == 0

    def test_plain_family_raising_at_its_first_start_is_searched(self):
        # no competitor to compare: the search rejects that start as before
        fam = default_families(I_CE, J_CE, E2)[0]
        wide = ((-1.0, 8.0),) + fam.bounds[1:]
        first = (0.0,) + fam.suggestions[0][1:]
        with pytest.raises(REJECTED):
            fam.generator(first)
        family = CompetitorFamily(fam.name, wide, fam.generator, (first,))
        v = falsify(catalog_density("isotropic:id"), I_CE, J_CE, E2, families=[family],
                    budget=100, keep_competitor=False)
        (st_,) = v.diagnostics["families"]
        assert st_["rejected"] > 0 and st_["evaluations"] == v.budget_used == 100

    @pytest.mark.parametrize("nu", [
        (1.0, 1.0), (1.0, 2.0), (np.cos(0.15), np.sin(0.15)), (np.cos(1.0), np.sin(1.0)),
        (np.cos(4.4), np.sin(4.4)),
    ])
    def test_accepts_families_for_any_rounding_of_the_normal(self, nu):
        # unit(unit(nu)) differs from unit(nu) in a bit for (1, 1) and (1, 2),
        # unit(nu) from nu for the angles: families built on either are the
        # call's own
        f = catalog_density("isotropic:id")
        for families in (None, default_families(I_CE, J_CE, nu),
                         default_families(I_CE, J_CE, unit(nu))):
            v = falsify(f, I_CE, J_CE, nu, families=families, budget=50, keep_competitor=False)
            assert v.budget_used == 50
            r = relaxation_estimate(f, I_CE, J_CE, nu, families=families, budget=50)
            assert r.verdict.budget_used == 50
        report = bv_necessary_report(f, samples=64, triple=(I_CE, J_CE, nu), budget=50)
        assert report.verdict.budget_used == 50

    def test_unit_is_not_idempotent_on_the_diagonal(self):
        # the case that the test above guards
        nu = unit((1.0, 1.0))
        assert not np.array_equal(unit(nu), nu)

    @pytest.mark.parametrize("nu", [(1.0, 1.0), (1.0, 2.0)])
    def test_default_families_share_the_reference_square(self, nu, monkeypatch):
        # normalised once, as the reference and compact_deviation are: the
        # searched and certified competitors live on the square of unit(nu),
        # not on that of unit(unit(nu)), a bit away at these normals
        built = []

        def recording(*args, **kwargs):
            built.extend(default_families(*args, **kwargs))
            return built

        monkeypatch.setattr(ellipticity, "default_families", recording)
        v = falsify(catalog_density("isotropic:id"), I_CE, J_CE, nu, budget=50)
        nu_u = unit(nu)
        assert len(built) == 4
        for fam in built:
            assert fam.frame[:, 1].tobytes() == nu_u.tobytes(), fam.name
        square = make_oriented_square(nu_u, 6.0)
        assert v.competitor.partition.domain.vertices.tobytes() == square.vertices.tobytes()

    def test_certificate_runs_the_adaptive_kernel(self):
        # the search and e1 integrate the CE1 density in closed form; e2
        # must call the density, at points along the jump set
        f = catalog_density("product:aniso1:eps=0.01")
        calls = [0]

        def evaluator(i, j, nu):
            calls[0] += np.ndim(i) == 2
            return f.evaluator(i, j, nu)

        counted = dataclasses.replace(f, evaluator=evaluator)
        u = counterexample1_competitor(1.0)
        family = CompetitorFamily("ce1", ((0.0, 1.0),), lambda params: u)
        calls[0] = 0
        v = falsify(counted, I_CE, J_CE, E2, families=[family], budget=50)
        assert v.status == "VIOLATION"
        assert calls[0] > 0
        adaptive = surface_energy(u, dataclasses.replace(f, quadratic_form=None), tol=1e-13, order=30)
        assert v.cross_check["value_doubled_order"] == adaptive.value
        assert v.cross_check["value_default_order"] == surface_energy(u, f, tol=1e-11).value
        assert v.cross_check["method_default_order"] == "closed-form"

    def test_certificate_names_the_adaptive_method(self):
        f = dataclasses.replace(catalog_density("product:aniso1:eps=0.01"), quadratic_form=None)
        u = counterexample1_competitor(1.0)
        family = CompetitorFamily("ce1", ((0.0, 1.0),), lambda params: u)
        v = falsify(f, I_CE, J_CE, E2, families=[family], budget=50)
        assert v.cross_check["method_default_order"] == "adaptive"
        assert v.cross_check["value_default_order"] == surface_energy(u, f, tol=1e-11).value


def widest(fam):
    """The layout family with the bounds of its checked columns at the ends
    of their valid range."""
    bounds = list(fam.bounds)
    for column, low, high, size in fam.layout.ranges:
        unit = fam.side if size else 1.0
        bounds[column] = (low * unit, high * unit)
    return dataclasses.replace(fam, bounds=tuple(bounds))


@st.composite
def scaled_values(draw):
    """(i, j, nu): |i| up to about 1e6 and |i - j| from 1e-15 to 1e6, in
    absolute terms or relative to |i|, in a drawn direction."""
    i = np.array(draw(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))))
    i *= 10.0 ** draw(st.floats(-3.0, 6.0))
    gap = 10.0 ** draw(st.floats(-15.0, 6.0))
    if draw(st.booleans()):
        gap *= np.linalg.norm(i)
    gap_angle, nu_angle = draw(st.floats(0.0, 2.0 * np.pi)), draw(st.floats(0.0, 2.0 * np.pi))
    j = i + gap * np.array([np.cos(gap_angle), np.sin(gap_angle)])
    return i, j, np.array([np.cos(nu_angle), np.sin(nu_angle)])


class TestScale:
    """Verdicts and energies from small to large values.  isotropic:id and
    frobenius are symmetric jointly convex, so no competitor beats the
    straight interface, and a VIOLATION for them is false."""

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(values=scaled_values(), fid=st.sampled_from(["isotropic:id", "frobenius"]))
    def test_no_violation_for_jointly_convex_densities(self, values, fid):
        i, j, nu = values
        try:
            v = falsify(catalog_density(fid), i, j, nu, budget=100, seed=0, keep_competitor=False)
        except EllipticityError:
            # only where the values round together or their gap leaves the range
            assert np.array_equal(i, j) or not 1.5e-154 < np.linalg.norm(i - j) < 1e154
            return
        assert v.status == "NO-VIOLATION-WITHIN-BUDGET"

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(values=scaled_values(), side=st.floats(0.01, 100.0),
           fid=st.sampled_from([fid for fid in CATALOG_IDS
                                if catalog_density(fid).quadratic_form is not None]))
    def test_elementary_energy_is_side_times_density(self, values, side, fid):
        i, j, nu = values
        assume(not np.array_equal(i, j))
        f = catalog_density(fid)
        u = make_elementary(i, j, nu, OrientedSquare(nu, side, (0, 0)))
        want = side * float(f(j, i, unit(nu)))
        assert abs(surface_energy(u, f).value - want) <= 1e-12 * want


# sup[eta]: the zero field and a bounded prototype field; symmetric jointly
# convex, and 0 where eta vanishes at the jump
SUP_ETA = family_density(FieldFamily(
    (zero_field(), prototype_field(np.eye(2), (eta_profile(1.0),) * 2)), "eta"))


class TestOrientation:
    """The value order is the one orientation: i below the chord, j on the
    side nu points into, and the reference is the chord's own f(j, i, nu).
    sup[catalog] and sup[eta] are symmetric jointly convex, so a VIOLATION
    for them is false."""

    def test_catalog_supremum(self):
        # the former reference f(i, j, nu) * 6 was 8.4853, and the best
        # competitor's 6.4002 certified a VIOLATION
        f = family_density(catalog_fields())
        v = falsify(f, (0, 0), (2, 2), E2, budget=25, seed=0)
        assert v.status == "NO-VIOLATION-WITHIN-BUDGET"
        assert v.reference_energy == 6.0 * float(f(J_CE, I_CE, E2))
        assert v.best_energy > v.reference_energy

    def test_eta_supremum(self):
        # the former reference was 6.0 against a best energy of 0.15
        v = falsify(SUP_ETA, (2, 2), (0, 0), E2, budget=25, seed=0)
        assert v.status == "NO-VIOLATION-WITHIN-BUDGET"
        assert v.reference_energy == 6.0 * float(SUP_ETA(I_CE, J_CE, E2)) == 0.0

    def test_eta_relaxation(self):
        r = relaxation_estimate(SUP_ETA, (2, 2), (0, 0), E2, budget=25, seed=0)
        assert r.density_value == 0.0 and r.value == 0.0

    @settings(max_examples=10, derandomize=True, deadline=None)
    @given(i=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
           j=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
           angle=st.floats(0.0, 2.0 * np.pi), swap=st.booleans())
    def test_no_violation_for_the_eta_supremum(self, i, j, angle, swap):
        assume(np.linalg.norm(np.subtract(i, j)) >= 1e-3)
        i, j = (j, i) if swap else (i, j)
        nu = (np.cos(angle), np.sin(angle))
        v = falsify(SUP_ETA, i, j, nu, budget=25, seed=0, keep_competitor=False)
        assert v.status == "NO-VIOLATION-WITHIN-BUDGET"
        assert v.reference_energy == 6.0 * float(SUP_ETA(np.array(j), np.array(i), unit(nu)))

    @pytest.mark.parametrize("fid", CATALOG_IDS)
    def test_catalog_densities_are_symmetric(self, fid):
        # so the reference did not move for any catalog density
        f = catalog_density(fid)
        rng = np.random.default_rng(31)
        for scale in (1e-3, 1.0, 1e3):
            i, j, nu = scale * rng.normal(size=(3, 2000, 2))
            nu /= np.linalg.norm(nu, axis=1, keepdims=True)
            assert f(j, i, nu).tobytes() == f(i, j, nu).tobytes(), scale

    def test_certificate_checks_the_reference(self):
        # a density whose one-row value is 1e-6 above its batched value: the
        # straight interface no longer integrates to the reference energy
        f = catalog_density("product:aniso1:eps=0.01")

        def evaluator(i, j, nu):
            return f.evaluator(i, j, nu) + (1e-6 if np.ndim(i) == 1 else 0.0)

        with pytest.raises(EllipticityError, match="straight interface"):
            falsify(dataclasses.replace(f, evaluator=evaluator), I_CE, J_CE, E2, budget=25)
        assert falsify(f, I_CE, J_CE, E2, budget=25).reference_energy == 6.0 * float(
            f(J_CE, I_CE, E2))


class TestJumpSquareBuilder:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        family=st.integers(0, 3),
        values=st.sampled_from(ORDERS),
        # unit coordinates in the bounds, the ends of the bounds half the time
        unit_params=st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
                             min_size=8, max_size=8),
        angle=st.floats(0.0, 2.0 * np.pi),
        side=st.one_of(st.just(6.0), st.floats(0.5, 50.0)),
        wide=st.booleans(),
    )
    # a normal with a subnormal sine: a near-parallel clip edge overflows t
    @example(family=0, values=ORDERS[0], unit_params=[0.0] * 8, angle=2.2250738585072014e-308,
             side=6.0, wide=False)
    def test_family_competitors_deviate_compactly(self, family, values, unit_params, angle,
                                                  side, wide):
        # every row in a layout family's bounds, up to the ends of the valid
        # range, is a valid partition that changes the elementary jump on the
        # same square only a margin away from its boundary, and the compiled
        # topology gives its jump set
        nu = np.array([np.cos(angle), np.sin(angle)])
        fam = default_families(*values, nu, side=side)[family]
        fam = widest(fam) if wide else fam
        # lo + 1.0 * (hi - lo) may round one bit above hi
        params = [min(lo + t * (hi - lo), hi) for t, (lo, hi) in zip(unit_params, fam.bounds)]
        u = fam.generator(params)
        assert validate_partition(u.partition).passed
        ref = make_elementary(*values, nu, OrientedSquare(nu, side, (0, 0)))
        assert compact_deviation(u, ref, margin=0.01 * side * (1.0 - 1e-9))
        jumps, _ = _layout_jumps([(fam, [params])])
        general = u.jump_segments()
        for f in dataclasses.fields(JumpArrays):
            assert getattr(jumps, f.name).tobytes() == getattr(general, f.name).tobytes(), f.name

    def test_bogus_i_side_raises(self):
        # "minus" is the one order: pass (j, i) for the former "plus"
        v = counterexample1_competitor(1.0).scaled(1.0 / 6.0)
        for i_side in ("bogus", "plus"):
            with pytest.raises(FunctionError):
                tiling_report(v, I_CE, J_CE, E2, catalog_density("isotropic:id"), i_side=i_side)


# The per-vector insert layouts, the tuple-batch topology compiled from two
# example competitors and the per-vector family jumps that the batched
# layouts replaced, kept as oracles for the arrays of the batched path.


def former_centered_square(h):
    return np.array([[-h, -h], [h, -h], [h, h], [-h, h]])


def former_square_layout(s, omega, b1, b2):
    h = 0.5 * s
    return [former_centered_square(h)], [AffinePiece(skew2(omega), (b1, b2))], h, h


def former_rect_layout(delta, omega, b1, b2):
    cells = [np.array([[-1, -delta], [1, -delta], [1, delta], [-1, delta]])]
    return cells, [AffinePiece(skew2(omega), (b1, b2))], 1.0, delta


def former_checker_layout(s, v1, v2, w1, w2):
    hh = 0.5 * s
    vals = (np.array([v1, v2]), np.array([w1, w2]))
    cells, pieces = [], []
    for a in range(2):
        for b in range(2):
            x0, y0 = -hh + a * hh, -hh + b * hh
            cells.append(np.array([[x0, y0], [x0 + hh, y0], [x0 + hh, y0 + hh], [x0, y0 + hh]]))
            pieces.append(constant_piece(vals[(a + b) % 2]))
    return cells, pieces, hh, hh


def former_nested_layout(s1, frac, om1, b11, b12, om2, b21, b22):
    h1, h2 = 0.5 * s1, 0.5 * (frac * s1)
    outer_sq, inner_sq = former_centered_square(h1), former_centered_square(h2)
    cells = [inner_sq] + [
        np.array([outer_sq[k], outer_sq[(k + 1) % 4], inner_sq[(k + 1) % 4], inner_sq[k]])
        for k in range(4)
    ]
    pieces = [AffinePiece(skew2(om2), (b21, b22))] + [AffinePiece(skew2(om1), (b11, b12))] * 4
    return cells, pieces, h1, h1


# in the order of default_families
FORMER_LAYOUTS = (former_square_layout, former_rect_layout, former_checker_layout,
                  former_nested_layout)
REJECTED = (GeometryError, FunctionError, EllipticityError)


class FormerTopology:
    """JumpSquareTopology as it took (hole, cells, pieces) tuples."""

    def __init__(self, i, j, nu, side, examples):
        tops = []
        for hole, cells, pieces in examples:
            u = jump_square(i, j, nu, side, hole=hole, cells=cells, pieces=pieces)
            itf = u.partition.interfaces
            pairs = [x.tolist() for x in (itf.right, itf.right_edge, itf.left, itf.left_edge)]
            tops.append((tuple(len(c) for c in u.partition.cells), pairs))
        assert all(t == tops[0] for t in tops[1:])
        self.counts, pairs = tops[0]
        self.side = float(side)
        self.frame = frame_from_normal(nu)
        self.outer = list(u.pieces[:2])
        counts = np.array(self.counts)
        ia, k, ib, l = np.array(pairs, dtype=int)
        self.edges = edge_vertices(counts, ia, k) + edge_vertices(counts, ib, l)
        self.right, self.left = ia, ib

    def jumps(self, batch):
        frames = []
        for hole, cells, _ in batch:
            frame = list(outer_cells(self.side, hole)) + list(cells)
            assert tuple(len(c) for c in frame) == self.counts
            frames.append(np.concatenate([np.asarray(c, dtype=float) @ self.frame.T for c in frame]))
        V = sum(self.counts)
        W = np.array(frames).reshape(-1, V, 2)

        def offset(index, size):
            return (np.arange(len(batch))[:, None] * size + index).ravel()

        a, b, normal = edge_pair_interfaces(W.reshape(-1, 2), *(offset(e, V) for e in self.edges))
        P = len(self.counts)
        A, c = _stacked([p for _, _, pieces in batch for p in self.outer + list(pieces)])
        left, right = offset(self.left, P), offset(self.right, P)
        jumps, rows = jump_arrays(a, b, normal, (A[left], c[left]), (A[right], c[right]))
        owner = np.repeat(np.arange(len(batch)), len(self.left))[rows]
        return jumps, owner


def former_family_jumps(index, i, j, nu, side=6.0):
    """The per-vector jump sets of default family `index`, its topology
    compiled from two examples of the default bounds."""
    layout = FORMER_LAYOUTS[index]
    nu = unit(nu)  # as default_families takes it
    default = default_families(i, j, nu, side=side)[index].bounds
    examples = []
    for t in (1.0 / 3.0, 2.0 / 3.0):
        cells, pieces, hw, hh = layout(*(lo + t * (hi - lo) for lo, hi in default))
        examples.append(((hw, -hh, hh), cells, pieces))
    topology = FormerTopology(i, j, nu, side, examples)

    def jumps(batch):
        inputs = []
        for params in batch:
            cells, pieces, hw, hh = layout(*params)
            inputs.append(((hw, -hh, hh), cells, pieces))
        return topology.jumps(inputs)

    return jumps


def plain(fam, bounds=None):
    """A plain CompetitorFamily over a layout family's generator: the general
    path, on which a generator that raises gives the sentinel."""
    return CompetitorFamily(fam.name, fam.bounds if bounds is None else bounds, fam.generator,
                            fam.suggestions)


class TestCompiledLayouts:
    """The search's fast path: a layout family's compiled topology gives the
    jump set of its generator's competitor, and the same energies."""

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(
        family=st.integers(0, 3),
        values=st.sampled_from(ORDERS),
        angle=st.floats(0.0, 2.0 * np.pi),
        start=st.one_of(
            st.integers(0, 3),  # a family suggestion (modulo their number)
            st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8),
        ),
    )
    def test_fast_energy_matches_general(self, family, values, angle, start):
        nu = np.array([np.cos(angle), np.sin(angle)])
        fam = default_families(*values, nu)[family]
        if isinstance(start, int):
            params = fam.suggestions[start % len(fam.suggestions)]
        else:
            params = [lo + t * (hi - lo) for t, (lo, hi) in zip(start, fam.bounds)]
        jumps, owner = _layout_jumps([(fam, [params])])
        assert np.all(owner == 0)
        u = fam.generator(params)
        for fid in CATALOG_IDS:
            f = catalog_density(fid)
            for tol, order in ((1e-9, 15), (1e-13, 30)):
                fast = integrate_jump_arrays(jumps, f, tol, order).value
                general = surface_energy(u, f, tol=tol, order=order).value
                assert fast == pytest.approx(general, rel=1e-12, abs=1e-300), (fid, tol)

    @pytest.mark.parametrize("family", range(4))
    def test_segments_match_jump_segments(self, family):
        # the topology is compiled at side 6 and nu = e2 only
        rng = np.random.default_rng([5, family])
        for values in ORDERS:
            for _ in range(10):
                side, nu = rng.uniform(2.5, 12.0), unit(rng.normal(size=2))
                fam = default_families(*values, nu, side=side)[family]
                params = [rng.uniform(lo, hi) for lo, hi in fam.bounds]
                jumps, owner = _layout_jumps([(fam, [params])])
                general = fam.generator(params).jump_segments()
                assert np.all(owner == 0)
                assert len(jumps) == len(general) > 0
                for f in dataclasses.fields(JumpArrays):
                    got, ref = getattr(jumps, f.name), getattr(general, f.name)
                    assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), f.name

    @pytest.mark.parametrize("family", range(4))
    def test_rejected_parameters_get_the_sentinel_on_both_paths(self, family):
        fam = default_families(I_CE, J_CE, E2)[family]
        mid = [0.5 * (lo + hi) for lo, hi in fam.bounds]
        wide = ((-1.0, 8.0),) + fam.bounds[1:]
        f = catalog_density("isotropic:id")
        # the first parameter sets the insert size: none, negative, beyond the square
        for first in (0.0, -1.0, 7.0, np.nan):
            params = [first] + mid[1:]
            with pytest.raises(REJECTED):
                fam.generator(params)
            # outside the bounds the layout path raises; the general path of a
            # plain family gives the sentinel, and the same value in the bounds
            with pytest.raises(EllipticityError):
                _layout_jumps([(fam, [mid, params])])
            points = [(0, mid), (1, params), (1, mid)]
            values, rejected = _search_values(f, [fam, plain(fam, wide)], points)
            assert rejected == {1} and values[1] == _SENTINEL and values[0] == values[2]
        # a layout family cannot reach such sizes ...
        with pytest.raises(EllipticityError):
            dataclasses.replace(fam, bounds=wide)
        # ... and a plain family searching them counts every evaluation its
        # generator rejects
        raised = [0]

        def counting(params):
            try:
                return fam.generator(params)
            except REJECTED:
                raised[0] += 1
                raise

        searched = CompetitorFamily(fam.name, wide, counting)
        v = falsify(f, I_CE, J_CE, E2, families=[searched], budget=100, seed=1,
                    keep_competitor=False)
        # before the search, falsify builds the competitor at the family's
        # first start (its first Latin-hypercube point) to check its square
        lo, hi = np.array(wide).T
        first = lo + (hi - lo) * _latin_hypercube(1, 0, len(wide), _RESTARTS)[0]
        try:
            fam.generator(np.clip(first, lo, hi))
            checked = 0
        except REJECTED:
            checked = 1
        assert v.diagnostics["families"][0]["rejected"] == raised[0] - checked > 0
        # in the bounds, the layout path and the general path give one verdict
        v = [falsify(f, I_CE, J_CE, E2, families=[fam_], budget=100, seed=1, keep_competitor=False)
             for fam_ in (fam, plain(fam))]
        assert v[0].to_json() == v[1].to_json()

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(
        family=st.integers(0, 3),
        values=st.sampled_from(ORDERS),
        angle=st.floats(0.0, 2.0 * np.pi),
        draws=st.lists(st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8),
                       min_size=1, max_size=6),
    )
    def test_batch_matches_one_vector_at_a_time(self, family, values, angle, draws):
        nu = np.array([np.cos(angle), np.sin(angle)])
        fam = default_families(*values, nu)[family]
        batch = [[lo + t * (hi - lo) for t, (lo, hi) in zip(d, fam.bounds)] for d in draws]
        jumps, owner = _layout_jumps([(fam, batch)])
        assert np.all(np.diff(owner) >= 0)
        for n, params in enumerate(batch):
            one, one_owner = _layout_jumps([(fam, [params])])
            assert np.all(one_owner == 0)
            rows = jumps.take(np.flatnonzero(owner == n))
            for f in dataclasses.fields(JumpArrays):
                assert np.array_equal(getattr(rows, f.name), getattr(one, f.name)), (n, f.name)
        # one vector outside the bounds fails the whole batch
        outside = [fam.bounds[0][1] * 1.5] + batch[0][1:]
        with pytest.raises(EllipticityError):
            _layout_jumps([(fam, batch + [outside])])

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(
        family=st.integers(0, 3),
        values=st.sampled_from(ORDERS),
        angle=st.floats(0.0, 2.0 * np.pi),
        side=st.sampled_from((3.0, 6.0, 10.0)),
        unit_params=st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8),
    )
    def test_compiled_topology_matches_every_competitor(self, family, values, angle, side,
                                                        unit_params):
        # built from one row at side 6 and nu = e2, the layout's vertex
        # counts and cell-edge pairs are those of every competitor the
        # generator builds
        nu = np.array([np.cos(angle), np.sin(angle)])
        fam = default_families(*values, nu, side=side)[family]
        u = fam.generator([lo + t * (hi - lo) for t, (lo, hi) in zip(unit_params, fam.bounds)])
        assert tuple(len(c) for c in u.partition.cells) == fam.layout.counts
        for name in ("right", "right_edge", "left", "left_edge"):
            want = getattr(u.partition.interfaces, name)
            assert getattr(fam.layout.interfaces, name).tolist() == want.tolist(), name

    def test_default_families_builds_no_partition_after_its_first_call(self, monkeypatch):
        # none in its first call either: the first round that uses a layout
        # builds its one partition, once per process
        built = []
        init = PolygonalPartition.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        families = default_families(I_CE, J_CE, E2)
        for fam in families:  # as in a fresh process
            monkeypatch.delitem(vars(fam.layout), "interfaces", raising=False)
        monkeypatch.setattr(PolygonalPartition, "__init__", counting)
        default_families(I_CE, J_CE, E2)
        default_families((0.5, 3.0), (1.0, -2.0), unit([0.3, -0.7]), side=9.0)
        assert built == []
        requests = [(fam, [[0.5 * (lo + hi) for lo, hi in fam.bounds]]) for fam in families]
        _compiled_round.cache_clear()
        try:
            for _ in range(2):
                _layout_jumps(requests)
                _compiled_round.cache_clear()
                assert len(built) == len(families)
        finally:
            _compiled_round.cache_clear()

    def test_cli_import_compiles_no_topology(self):
        out = child_output("import bdlab.cli; from bdlab import ellipticity; "
                           "from bdlab.functions import InsertLayout; "
                           "layouts = [v for v in vars(ellipticity).values() "
                           "if isinstance(v, InsertLayout)]; "
                           "print(len(layouts), sum('interfaces' in vars(v) for v in layouts))")
        assert out == "4 0"

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        family=st.integers(0, 3),
        values=st.sampled_from(ORDERS),
        angle=st.floats(0.0, 2.0 * np.pi),
        draws=st.lists(
            st.one_of(
                # unit coordinates in the bounds
                st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8),
                # vectors on the boundary of the bounds
                st.lists(st.sampled_from(["lo", "hi"]), min_size=8, max_size=8),
                # a copy of the previous vector
                st.just("again"),
            ),
            min_size=1, max_size=12,
        ),
    )
    def test_batched_layouts_equal_the_per_vector_path(self, family, values, angle, draws):
        nu = np.array([np.cos(angle), np.sin(angle)])
        fam = default_families(*values, nu)[family]
        lo, hi = np.array(fam.bounds).T
        batch = []
        for d in draws:
            if d == "again":
                params = batch[-1] if batch else 0.5 * (lo + hi)
            elif isinstance(d[0], str):
                params = np.where(np.array(d[:fam.dim]) == "lo", lo, hi)
            else:
                params = lo + np.array(d[:fam.dim]) * (hi - lo)
            batch.append(np.asarray(params, dtype=float))
        jumps, owner = _layout_jumps([(fam, batch)])
        want, want_owner = former_family_jumps(family, *values, nu)(batch)
        for f in dataclasses.fields(JumpArrays):
            got, ref = getattr(jumps, f.name), getattr(want, f.name)
            # bytes: sign bits too
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), f.name
        assert owner.dtype == want_owner.dtype and np.array_equal(owner, want_owner)

    @pytest.mark.parametrize("fid", ["isotropic:id", "product:aniso1:eps=0.01"])
    def test_round_equals_point_by_point(self, fid):
        nu = unit([0.3, -0.7])
        families = default_families(I_CE, J_CE, nu)
        # the square insert as a plain family, over sizes its generator rejects
        families.append(plain(families[0], ((-1.0, 8.0),) + families[0].bounds[1:]))
        rng = np.random.default_rng([13, len(fid)])
        points = []
        for _ in range(60):
            fi = int(rng.integers(len(families)))
            lo, hi = np.array(families[fi].bounds).T
            params = lo + rng.uniform(size=lo.size) * (hi - lo)
            if fi == len(families) - 1:
                # an insert of no size, or a non-finite one, for the generator to reject
                params[0] = rng.choice([params[0], 0.0, np.nan], p=[0.6, 0.2, 0.2])
            points.append((fi, params))
        f = catalog_density(fid)
        values, rejected = _search_values(f, families, points)
        want, want_rejected = [], set()
        for k, (fi, params) in enumerate(points):
            try:
                jumps = families[fi].generator(params).jump_segments()
            except REJECTED:
                want.append(_SENTINEL)
                want_rejected.add(k)
                continue
            want.append(integrate_jump_arrays(jumps, f, _SEARCH_TOL, _SEARCH_ORDER).value)
        assert values == want
        assert rejected == want_rejected and 0 < len(rejected) < len(points)
        assert all(points[k][0] == len(families) - 1 for k in rejected)


class TestCompiledRound:
    """A round is compiled once per composition (the topologies of its
    layout families and the family of each point) and evaluated per round;
    it gives every point what the general path gives it, bit for bit."""

    @settings(max_examples=12, derandomize=True, deadline=None)
    @given(
        rounds=st.lists(
            st.tuples(st.permutations(range(4)), st.sampled_from([None, 0, 1, 2, 3]),
                      st.lists(st.integers(1, 12), min_size=4, max_size=4)),
            min_size=2, max_size=2),
        angle=st.floats(0.0, 2.0 * np.pi),
        values=st.sampled_from(ORDERS),
        side=st.sampled_from((3.0, 6.0, 10.0)),
        fid=st.sampled_from(("isotropic:id", "frobenius:trunc:M=1")),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_round_equals_the_general_path(self, rounds, angle, values, side, fid, seed):
        nu = np.array([np.cos(angle), np.sin(angle)])
        families = default_families(*values, nu, side=side)
        f = catalog_density(fid)
        rng = np.random.default_rng(seed)
        # both rounds through one cache: a composition must never be served
        # the index arrays of another
        _compiled_round.cache_clear()
        for order, absent, counts in rounds:
            # the families in any order, one of them absent or none
            requests = []
            for fi in order:
                if fi != absent:
                    lo, hi = np.array(families[fi].bounds).T
                    P = lo + rng.uniform(size=(counts[fi], lo.size)) * (hi - lo)
                    requests.append((fi, list(P)))
            jumps, owner = _layout_jumps([(families[fi], batch) for fi, batch in requests])
            points = [(fi, params) for fi, batch in requests for params in batch]
            for n, (fi, params) in enumerate(points):
                rows = jumps.take(np.flatnonzero(owner == n))
                general = families[fi].generator(params).jump_segments()
                for field_ in dataclasses.fields(JumpArrays):
                    got, ref = getattr(rows, field_.name), getattr(general, field_.name)
                    assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), field_.name
            # the points of a round interleaved in any order
            points = [points[k] for k in rng.permutation(len(points))]
            values, rejected = _search_values(f, families, points)
            want = [surface_energy(families[fi].generator(params), f, tol=_SEARCH_TOL,
                                   order=_SEARCH_ORDER).value for fi, params in points]
            assert values == want and rejected == set()

    def test_falsify_compiles_once_per_composition(self, monkeypatch):
        built, compositions = [], []

        class Counting(ellipticity.JumpSquareBatch):
            def __init__(self, layouts, slots):
                built.append((layouts, slots))
                super().__init__(layouts, slots)

        search_values = ellipticity._search_values

        def recording(f, families, points):
            compositions.append(tuple(fi for fi, _ in points))
            return search_values(f, families, points)

        monkeypatch.setattr(ellipticity, "JumpSquareBatch", Counting)
        monkeypatch.setattr(ellipticity, "_search_values", recording)
        _compiled_round.cache_clear()
        try:
            f = catalog_density("isotropic:id")
            v = falsify(f, I_CE, J_CE, (0.6, 0.8), budget=2000, seed=0, keep_competitor=False)
            assert v.budget_used == 2000 and len(compositions) == 50
            assert len(built) == len(set(compositions)) == 1
            # another call with the same families and live runs reuses it
            falsify(catalog_density("product:aniso1:eps=0.01"), I_CE, J_CE, E2, budget=2000,
                    seed=1, keep_competitor=False)
            assert len(built) == 1
        finally:
            _compiled_round.cache_clear()

    def test_cache_is_bounded(self):
        fam = default_families(I_CE, J_CE, E2)[0]
        params = [0.5 * (lo + hi) for lo, hi in fam.bounds]
        _compiled_round.cache_clear()
        try:
            for n in range(1, 41):
                _layout_jumps([(fam, [params] * n)])
            info = _compiled_round.cache_info()
            assert info.misses == 40 and info.currsize == info.maxsize == 16
        finally:
            _compiled_round.cache_clear()

    def test_cli_import_compiles_no_round(self):
        out = child_output("import bdlab.cli; from bdlab import ellipticity; "
                           "print(ellipticity._compiled_round.cache_info().currsize)")
        assert out == "0"


# The batched insert layouts, their motion and rectangle helpers and the
# placement that the declared gathers replaced, kept as the oracle of the
# layout declarations, as TestDropTest keeps the stacked drop test.


def batched_rigid(omega, b1, b2):
    zero = np.zeros_like(omega)
    A = np.stack([zero, omega, -omega, zero], axis=1).reshape(-1, 1, 2, 2)
    return A, np.stack([b1, b2], axis=1)[:, None]


def batched_rectangle(hw, hh):
    return np.stack([-hw, -hh, hw, -hh, hw, hh, -hw, hh], axis=1).reshape(-1, 4, 2)


def batched_square_layout(P, side):
    s, omega, b1, b2 = P.T
    h = 0.5 * s
    return (batched_rectangle(h, h), *batched_rigid(omega, b1, b2), h, h)


def batched_rect_layout(P, side):
    delta, omega, b1, b2 = P.T
    hw = np.full_like(delta, side / 6.0)
    return (batched_rectangle(hw, delta), *batched_rigid(omega, b1, b2), hw, delta)


def batched_checker_layout(P, side):
    s, v1, v2, w1, w2 = P.T
    hh = 0.5 * s
    corners = [(a + x, b + y) for a in (0, 1) for b in (0, 1)
               for x, y in ((0, 0), (1, 0), (1, 1), (0, 1))]
    c = np.stack([v1, v2, w1, w2, w1, w2, v1, v2], axis=1).reshape(-1, 4, 2)
    # -hh + hh is +0.0 for finite hh, the declared layout's 0
    cells = np.stack([-hh, -hh + hh, hh], axis=1)[:, np.array(corners)]
    return cells, np.zeros(c.shape + (2,)), c, hh, hh


def batched_nested_layout(P, side):
    s1, frac, om1, b11, b12, om2, b21, b22 = P.T
    h1, h2 = 0.5 * s1, 0.5 * (frac * s1)
    outer_sq, inner_sq = batched_rectangle(h1, h1), batched_rectangle(h2, h2)
    k, k1 = np.arange(4), (np.arange(4) + 1) % 4
    ring = np.stack([outer_sq[:, k], outer_sq[:, k1], inner_sq[:, k1], inner_sq[:, k]], axis=2)
    cells = np.concatenate([inner_sq, ring.reshape(-1, 16, 2)], axis=1)
    (A1, c1), (A2, c2) = batched_rigid(om1, b11, b12), batched_rigid(om2, b21, b22)
    A, c = np.concatenate([A2] + [A1] * 4, axis=1), np.concatenate([c2] + [c1] * 4, axis=1)
    return cells, A, c, h1, h1


# in the order of default_families
BATCHED_LAYOUTS = (batched_square_layout, batched_rect_layout, batched_checker_layout,
                   batched_nested_layout)
BATCHED_OUTER = np.array([[(0.0, 1.0, -1.0, 3.0, -3.0, 5.0, -5.0).index(x) for x in vertex]
                          for vertex in sum(outer_cells(2.0, (3.0, -5.0, 5.0)), [])])


def batched_cells(vertices, hw, hh, side):
    """Every cell's vertices in frame coordinates: the outer cells gathered
    from (0, s, -s, hw, -hw, hh, -hh), then the insert cells."""
    s = np.full(len(hw), 0.5 * side)
    columns = np.stack([np.zeros_like(s), s, -s, hw, -hw, hh, -hh], axis=1)
    return np.concatenate([columns[:, BATCHED_OUTER], vertices], axis=1)


def batched_place(vertices, hw, hh, side, frame):
    W = batched_cells(vertices, hw, hh, side)
    return (W.reshape(-1, 2) @ frame.T).reshape(W.shape)


class TestLayoutGathers:
    """Every vertex and piece entry of an insert layout is a gather from its
    row's table, and a search round gathers from one flat table: both give
    what the batched layouts and the generators give, byte for byte."""

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(
        family=st.integers(0, 3),
        side=st.one_of(st.just(6.0), st.floats(0.5, 50.0)),
        angle=st.floats(0.0, 2.0 * np.pi),
        wide=st.booleans(),
        # unit coordinates in the bounds, the ends of the bounds half the time
        rows=st.lists(st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
                               min_size=8, max_size=8), min_size=1, max_size=6),
    )
    def test_declared_layouts_equal_the_batched_layouts(self, family, side, angle, wide, rows):
        nu = np.array([np.cos(angle), np.sin(angle)])
        fam = default_families(I_CE, J_CE, nu, side=side)[family]
        fam = widest(fam) if wide else fam
        lo, hi = np.array(fam.bounds).T
        t = np.array(rows)[:, :fam.dim]
        P = np.where(t == 0.0, lo, np.where(t == 1.0, hi, lo + t * (hi - lo)))
        inserts, A, c, hw, hh = BATCHED_LAYOUTS[family](P, side)
        # the outer pieces first: x -> 0 x + 0, as a row's own table holds no values
        A = np.concatenate([np.zeros((len(P), 2, 2, 2)), A], axis=1)
        c = np.concatenate([np.zeros((len(P), 2, 2)), c], axis=1)
        got = fam.layout(P, side)
        # bytes: sign bits too
        for x, y in zip(got, (batched_cells(inserts, hw, hh, side), A, c, hw, hh)):
            assert x.shape == y.shape and x.tobytes() == y.tobytes()
        placed = (got[0].reshape(-1, 2) @ fam.frame.T).reshape(got[0].shape)
        assert placed.tobytes() == batched_place(inserts, hw, hh, side, fam.frame).tobytes()

    @pytest.mark.parametrize("nu", [(1.0, 1.0), (1.0, 2.0)])
    def test_one_round_two_frames(self, nu, monkeypatch):
        # the families of unit(nu) share the topologies of those of nu, but
        # their frames differ in a bit; falsify accepts either
        families = default_families(I_CE, J_CE, nu) + default_families(I_CE, J_CE, unit(nu))
        assert not all(np.array_equal(families[k].frame, families[k + 4].frame)
                       for k in range(4))
        rng = np.random.default_rng([29, int(nu[1])])
        points = []
        for _ in range(48):
            fi = int(rng.integers(len(families)))
            lo, hi = np.array(families[fi].bounds).T
            points.append((fi, lo + rng.uniform(size=lo.size) * (hi - lo)))
        rounds = []
        kernel = ellipticity.jump_set_integrals

        def recording(jumps, owner, *args):
            rounds.append((jumps, owner))
            return kernel(jumps, owner, *args)

        monkeypatch.setattr(ellipticity, "jump_set_integrals", recording)
        f = catalog_density("isotropic:id")
        values, rejected = _search_values(f, families, points)
        (jumps, owner), = rounds
        assert rejected == set()
        for n, (fi, params) in enumerate(points):
            u = families[fi].generator(params)
            rows, general = jumps.take(np.flatnonzero(owner == n)), u.jump_segments()
            for field_ in dataclasses.fields(JumpArrays):
                got, ref = getattr(rows, field_.name), getattr(general, field_.name)
                assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), field_.name
            assert values[n] == surface_energy(u, f, tol=_SEARCH_TOL, order=_SEARCH_ORDER).value


class TestRoundCount:
    """falsify reports its rounds, the _search_values calls of its lockstep
    search: as many as the longest run's evaluations."""

    def test_budget_2000(self):
        v = falsify(catalog_density("isotropic:id"), I_CE, J_CE, (0.6, 0.8), budget=2000,
                    seed=0, keep_competitor=False)
        assert v.diagnostics["rounds"] == 50

    def test_budget_600_is_the_per_run_budget(self, monkeypatch):
        calls = []
        search_values = ellipticity._search_values

        def counting(f, families, points):
            calls.append(len(points))
            return search_values(f, families, points)

        monkeypatch.setattr(ellipticity, "_search_values", counting)
        v = falsify(catalog_density("product:aniso1:eps=0.01"), I_CE, J_CE, E2, budget=600,
                    seed=0, keep_competitor=False)
        # 40 runs: each searched one gets max(25, 600 // 40) = 25 evaluations
        assert v.diagnostics["rounds"] == len(calls) == _MIN_RUN == 25
        assert calls[0] == 600 // 25


class TestScaledFamilies:
    """The default families at a side are the side-6 families rescaled, and
    every layout family's bounds are checked once, when it is made."""

    @pytest.mark.parametrize("fid,nu", [
        ("product:aniso1:eps=0.01", E2),
        ("aniso2:eps=1e-4", E2),
        ("isotropic:id", (0.6, 0.8)),
    ])
    def test_off_side_6_verdicts_scale_exactly(self, fid, nu):
        # sides that are powers of two times 6 scale every number exactly
        f = catalog_density(fid)
        base = falsify(f, I_CE, J_CE, nu, budget=600, seed=0, keep_competitor=False)
        assert base.status == ("NO-VIOLATION-WITHIN-BUDGET" if fid == "isotropic:id"
                               else "VIOLATION")
        for side in (1.5, 3.0, 12.0):
            v = falsify(f, I_CE, J_CE, nu, budget=600, seed=0, side=side, keep_competitor=False)
            assert all(st_["rejected"] == 0 for st_ in v.diagnostics["families"])
            assert v.normalized_margin == base.normalized_margin
            assert (v.status, v.best_family, v.budget_used) == (
                base.status, base.best_family, base.budget_used)

    @pytest.mark.parametrize("family", range(4))
    def test_rows_at_the_ends_of_the_valid_range_build_valid_competitors(self, family):
        # every corner of the checked columns, the other columns all at one end
        for side, angle in ((6.0, 0.5 * np.pi), (0.75, 2.2), (40.0, 4.0)):
            nu = np.array([np.cos(angle), np.sin(angle)])
            fam = widest(default_families(I_CE, J_CE, nu, side=side)[family])
            ref = make_elementary(I_CE, J_CE, nu, OrientedSquare(nu, side, (0, 0)))
            checked = [column for column, *_ in fam.layout.ranges]
            for ends in itertools.product((0, 1), repeat=len(checked) + 1):
                corner = [ends[checked.index(k)] if k in checked else ends[-1]
                          for k in range(fam.dim)]
                params = [bound[end] for bound, end in zip(fam.bounds, corner)]
                u = fam.generator(params)
                assert validate_partition(u.partition).passed
                assert compact_deviation(u, ref, margin=0.01 * side * (1.0 - 1e-9))
                jumps, _ = _layout_jumps([(fam, [params])])
                assert jumps.a.tobytes() == u.jump_segments().a.tobytes()

    @pytest.mark.parametrize("family", range(4))
    def test_bounds_outside_the_valid_range_raise_at_construction(self, family):
        for side in (6.0, 0.75):
            fam = default_families(I_CE, J_CE, E2, side=side)[family]
            assert widest(fam).bounds != fam.bounds
            for column, low, high, size in fam.layout.ranges:
                unit = side if size else 1.0
                lo, hi = fam.bounds[column]
                for bound in ((0.5 * low * unit, hi), (lo, 1.01 * high * unit), (hi, lo)):
                    with pytest.raises(EllipticityError):
                        dataclasses.replace(fam, bounds=fam.bounds[:column] + (bound,)
                                            + fam.bounds[column + 1:])
            # a free column may take any finite bounds, never infinite ones
            free = fam.bounds[:-1]
            dataclasses.replace(fam, bounds=free + ((-1e6, 1e6),))
            with pytest.raises(EllipticityError):
                dataclasses.replace(fam, bounds=free + ((-np.inf, 1.0),))
            for bad in (np.nan, np.inf, 0.0, -side):
                with pytest.raises(EllipticityError):
                    dataclasses.replace(fam, side=bad)


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
    """_nelder_mead driven one point at a time, each yielded tuple read as
    an array: (fun, x, points)."""
    points = []
    search = _nelder_mead(x0, bounds, maxfev)
    x = np.array(next(search))
    try:
        while True:
            points.append(x)
            x = np.array(search.send(fun(x)))
    except StopIteration as stop:
        fval, xbest = stop.value
    return fval, xbest, points


class Exhausted(Exception):
    """A former_nelder_mead run asked for an evaluation beyond its budget."""


def former_nelder_mead(x0, bounds, maxfev: int):
    """The oracle: _nelder_mead as it was on NumPy arrays, one array
    operation per step and np.clip on every trial point, yielding a copy of
    each point (an array) and returning (min(fsim), sim[0])."""
    lower = np.array([float(lo) for lo, _ in bounds])
    upper = np.array([float(hi) for _, hi in bounds])
    x0 = np.clip(np.asarray(x0, dtype=float).ravel(), lower, upper)
    N = x0.size
    sim = np.empty((N + 1, N))
    sim[0] = x0
    for k in range(N):
        y = x0.copy()
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    sim = np.clip(np.where(sim > upper, 2 * upper - sim, sim), lower, upper)
    fsim = np.full(N + 1, np.inf)
    calls = 0

    def evaluate(x):
        nonlocal calls
        if calls >= maxfev:
            raise Exhausted
        calls += 1
        return (yield x.copy())

    def ordered(sim, fsim):
        ind = fsim.argsort()
        return sim.take(ind, 0), fsim.take(ind, 0)

    try:
        for k in range(N + 1):
            fsim[k] = yield from evaluate(sim[k])
    except Exhausted:
        pass
    sim, fsim = ordered(sim, fsim)
    sim, fsim = ordered(sim, fsim)
    while calls < maxfev:
        try:
            if (np.abs(fsim[0] - fsim[1:]).max() <= 1e-12
                    and np.abs(sim[1:] - sim[0]).max() <= 1e-9):
                break
            xbar = np.add.reduce(sim[:-1], 0) / N
            xr = np.clip(2 * xbar - sim[-1], lower, upper)
            fxr = yield from evaluate(xr)
            if fxr < fsim[0]:
                xe = np.clip(3 * xbar - 2 * sim[-1], lower, upper)
                fxe = yield from evaluate(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:
                    xc = np.clip(1.5 * xbar - 0.5 * sim[-1], lower, upper)
                    fxc = yield from evaluate(xc)
                    shrink = not fxc <= fxr
                else:
                    xc = np.clip(0.5 * xbar + 0.5 * sim[-1], lower, upper)
                    fxc = yield from evaluate(xc)
                    shrink = not fxc < fsim[-1]
                if not shrink:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for k in range(1, N + 1):
                        sim[k] = np.clip(sim[0] + 0.5 * (sim[k] - sim[0]), lower, upper)
                        fsim[k] = yield from evaluate(sim[k])
        except Exhausted:
            pass
        sim, fsim = ordered(sim, fsim)
    return np.min(fsim), sim[0]


@st.composite
def nelder_mead_cases(draw):
    """(start, bounds, maxfev, objective): N from 1 to 9, each coordinate's
    bounds random or at a signed zero and its start inside, outside, on a
    bound or at +-0.0, and a smooth, rounded (tied), sentinel-walled or
    inf-valued objective of the point."""
    N = draw(st.integers(1, 9))
    start, bounds = [], []
    for _ in range(N):
        lo = draw(st.sampled_from([0.0, -0.0, None]))
        lo = draw(st.floats(-5.0, 5.0)) if lo is None else lo
        hi = lo + draw(st.sampled_from([0.0, 1e-6, 1.0]) | st.floats(0.0, 8.0))
        kind = draw(st.sampled_from(["inside", "below", "above", "lo", "hi", "+0", "-0"]))
        start.append({"inside": lambda: draw(st.floats(lo, hi)),
                      "below": lambda: lo - draw(st.floats(0.0, 4.0)),
                      "above": lambda: hi + draw(st.floats(0.0, 4.0)),
                      "lo": lambda: lo, "hi": lambda: hi,
                      "+0": lambda: 0.0, "-0": lambda: -0.0}[kind]())
        bounds.append((lo, hi))
    maxfev = draw(st.integers(1, 300))
    target = np.array(draw(st.lists(st.floats(-6.0, 6.0), min_size=N, max_size=N)))
    wall = draw(st.floats(-5.0, 5.0))
    smooth = lambda x: float(np.sum((x - target) ** 2))
    objective = draw(st.sampled_from([
        smooth,
        lambda x: round(smooth(x), 1),
        lambda x: _SENTINEL if x[0] < wall else smooth(x),
        lambda x: np.inf if x[-1] > wall else smooth(x),
    ]))
    return start, tuple(bounds), maxfev, objective


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

    @pytest.mark.parametrize("low", [-1.0, -0.0])
    def test_signed_zeros_on_a_zero_lower_bound(self, low):
        # from -0.0 on the lower bound 0.0 toward a target outside the box:
        # the trial points clip to +0.0, to -0.0 and to both bounds, and
        # match scipy's in every bit, the sign of zero included
        target = np.array([2.0, -1.0])
        fun = lambda x: float(np.sum((x - target) ** 2))
        bounds = ((0.0, 1.0), (low, 1.0))
        points = self.assert_same(fun, (-0.0, -0.0), bounds, 60)
        want = scipy_nelder_mead(fun, (-0.0, -0.0), bounds, 60)[2]
        assert [p.tobytes() for p in points] == [p.tobytes() for p in want]
        P = np.array(points)
        assert (P == 0.0).any(axis=0).all()
        assert (np.signbit(P) & (P == 0.0)).any() and (~np.signbit(P) & (P == 0.0)).any()
        assert (P == 1.0).any() and (P[:, 1] == low).any()

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(case=nelder_mead_cases())
    @example(case=((-0.0, -0.0), ((0.0, 1.0), (-0.0, 1.0)), 60,
                   lambda x: float(np.sum((x - (2.0, -1.0)) ** 2))))
    @example(case=((1.0,), ((-5.0, 5.0),), 300, step))
    def test_equals_the_former_driver(self, case):
        # every yielded point in the same bytes, the signs of zero included,
        # and the same returned value and point
        start, bounds, maxfev, objective = case
        new, old = _nelder_mead(start, bounds, maxfev), former_nelder_mead(start, bounds, maxfev)
        # In one dimension the former clipped its initial simplex in NumPy's
        # loop for constant bounds, which breaks a tie of two zeros the other
        # way; in a box from -0.0 to +0.0 every point is a zero, and there
        # the values are compared, not the signs.
        (lo, hi), *rest = bounds
        same = np.array_equal if not rest and lo == hi == 0.0 else (
            lambda a, b: a.tobytes() == b.tobytes())
        # the former's inf - inf in its stopping test is a NaN, not an error
        with np.errstate(invalid="ignore"):
            got, want = next(new), next(old)
            while True:
                assert type(got) is tuple and same(np.array(got), want)
                value = objective(want)
                try:
                    got = new.send(value)
                except StopIteration as stop:
                    got = stop.value
                try:
                    want = old.send(value)
                except StopIteration as stop:
                    want = stop.value
                    break
        (got_f, got_x), (want_f, want_x) = got, want
        assert type(got_f) is type(want_f) and got_f.tobytes() == want_f.tobytes()
        assert type(got_x) is np.ndarray and same(got_x, want_x)

    @pytest.mark.parametrize("N", [1, 2])
    def test_one_sign_rule_for_zero_bounds(self, N):
        # in the box from -0.0 to +0.0 the initial simplex takes the upper
        # bound's zero, whatever the dimension; equal values then stop it
        search = _nelder_mead((0.0,) * N, ((-0.0, 0.0),) * N, 3 * N)
        points = [next(search)]
        with pytest.raises(StopIteration):
            while True:
                points.append(search.send(1.0))
        assert len(points) == N + 1
        assert all(x == 0.0 and not np.signbit(x) for p in points for x in p)


def child_output(code: str) -> str:
    """What `python -c code` prints, stripped, in a child process that finds
    the package this suite imports first."""
    import bdlab

    src = str(Path(bdlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    return out.stdout.strip()


class TestLatinHypercube:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), fi=st.integers(0, 7), d=st.integers(1, 10),
           n=st.integers(1, 12))
    def test_equals_scipy(self, seed, fi, d, n):
        # scipy's sampler is the oracle (the draws are those of scipy 1.17)
        rng = np.random.default_rng(np.random.SeedSequence([seed, fi]))
        want = qmc.LatinHypercube(d=d, seed=rng).random(n=n)
        assert np.array_equal(_latin_hypercube(seed, fi, d, n), want)

    def test_cli_import_leaves_scipy_out(self):
        assert child_output("import sys, bdlab.cli; print('scipy' in sys.modules)") == "False"


def sequential_search(f, i, j, nu, budget, seed):
    """falsify's search one competitor at a time: scipy's Nelder-Mead run
    after run, with the one-competitor objective.  Per searched run:
    (value, family index, start index, best point, evaluations)."""
    families = default_families(i, j, nu)

    def objective(family):
        def value(params):
            jumps, _ = _layout_jumps([(family, [params])])
            return integrate_jump_arrays(jumps, f, 1e-9, 15).value
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


class TestPlan:
    """falsify's budget split: every family's runs, its suggestions first,
    and as many runs of at least _MIN_RUN evaluations as the budget covers."""

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(
        picks=st.lists(st.tuples(st.integers(0, 3), st.booleans()), min_size=1, max_size=4),
        budget=st.integers(25, 5000),
        seed=st.integers(0, 2**16),
    )
    def test_runs_fit_the_budget(self, picks, budget, seed):
        defaults = default_families(I_CE, J_CE, E2)
        families = [plain(defaults[k]) if is_plain else defaults[k] for k, is_plain in picks]
        runs, per_run, searched = _plan(families, budget, seed)
        assert per_run >= _MIN_RUN and 1 <= searched <= len(runs)
        assert searched * per_run <= budget
        # no run left out that the budget could cover
        assert searched == len(runs) or (searched + 1) * per_run > budget
        assert [fi for fi, _ in runs] == sorted(fi for fi, _ in runs)
        for fi, fam in enumerate(families):
            starts = [x for fk, x in runs if fk == fi]
            assert len(starts) == len(fam.suggestions) + _RESTARTS
            for start, suggestion in zip(starts, fam.suggestions):
                assert tuple(start) == tuple(suggestion)


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
        wide = plain(fam, ((-1.0, 8.0),) + fam.bounds[1:])
        v = falsify(catalog_density("isotropic:id"), I_CE, J_CE, E2, families=[wide], budget=100,
                    seed=1, keep_competitor=False)
        (st_,) = v.diagnostics["families"]
        assert 0 < st_["rejected"] < st_["evaluations"] == v.budget_used

    def test_family_with_every_evaluation_rejected(self):
        def generator(params):
            raise GeometryError("no competitor at these parameters")

        broken = CompetitorFamily("broken", ((0.0, 1.0), (0.0, 1.0)), generator)
        square = default_families(I_CE, J_CE, E2)[0]
        f = catalog_density("isotropic:id")
        # 8 + 10 runs of 25 evaluations: both families are searched
        v = falsify(f, I_CE, J_CE, E2, families=[broken, square], budget=450, seed=0,
                    keep_competitor=False)
        st_broken, st_square = v.diagnostics["families"]
        assert st_broken["runs"] == 8 and st_square["runs"] == 10
        assert st_broken["rejected"] == st_broken["evaluations"] == 8 * 25
        assert st_broken["best_value"] is None
        assert st_square["rejected"] < st_square["evaluations"]
        assert st_square["best_value"] == pytest.approx(v.best_energy, rel=1e-8)
        assert v.best_family == "square-insert"
        # alone, it leaves no competitor to certify
        alone = falsify(f, I_CE, J_CE, E2, families=[broken], budget=100, seed=0)
        (st_,) = alone.diagnostics["families"]
        assert st_["rejected"] == st_["evaluations"] == alone.budget_used == 100
        assert st_["best_value"] is None
        assert alone.status == "NO-VIOLATION-WITHIN-BUDGET" and alone.competitor is None
        assert alone.to_json()["diagnostics"]["families"][0]["best_value"] is None


class TestRecall:
    """Without the hand-placed suggestions, the Latin-hypercube starts alone
    find the paper's two violations at these seeds of ten, at budget 600:
    the compiled round must change no trajectory."""

    @pytest.mark.parametrize("fid,seeds", [
        ("product:aniso1:eps=0.01", [2, 3, 5, 8]),
        ("aniso2:eps=1e-4", [0, 1, 2, 3, 5, 6, 8]),
    ])
    def test_budget_600_without_suggestions(self, fid, seeds):
        f = catalog_density(fid)
        families = [dataclasses.replace(fam, suggestions=())
                    for fam in default_families(I_CE, J_CE, E2)]
        found = [seed for seed in range(10)
                 if falsify(f, I_CE, J_CE, E2, families=families, budget=600, seed=seed,
                            keep_competitor=False).status == "VIOLATION"]
        assert found == seeds


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


QUAD = Density(
    "quad", lambda i, j, nu: np.linalg.norm(i - j, axis=-1) ** 2 * np.linalg.norm(nu, axis=-1))


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
        rep = NecessaryReport(0.0, 0.0, 0.0, True, "necessary-pass").to_json()
        assert list(rep) == [
            "symmetry_violation", "subadditivity_violation", "convexity_violation",
            "passes_necessary", "label",
        ]


class TestNecessaryReport:
    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(st.sampled_from(CATALOG_IDS + ("quad",)), st.integers(1, 60),
           st.integers(0, 2**32 - 1))
    def test_one_draw_equals_the_three_checks(self, fid, samples, seed):
        # bit for bit, with extra subadditivity probes (the first decides the
        # maximum for the quadratic density)
        f = QUAD if fid == "quad" else catalog_density(fid)
        extra = [(2 * E1, np.zeros(2), E1, E2), (E1, -E1, E2, unit(np.array([1.0, 2.0])))]
        rep = bv_necessary_report(f, samples, seed, extra_subadditivity=extra)
        assert rep.symmetry_violation == symmetry_violation(f, samples, seed)
        assert rep.subadditivity_violation == check_subadditivity(f, samples, seed, extra)
        assert rep.convexity_violation == check_convexity_in_nu(f, samples, seed)

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

    def test_asymmetric_density_fails(self):
        # subadditive and convex in nu, but f(i, j, nu) != f(j, i, -nu): the
        # symmetry check alone fails it
        f = Density(
            "asym",
            lambda i, j, nu: np.linalg.norm(i - j, axis=-1)
            * (np.linalg.norm(nu, axis=-1) + 0.5 * nu[..., 0]),
        )
        rep = bv_necessary_report(f, samples=10_000, seed=0)
        assert rep.subadditivity_violation <= NECESSARY_TOL
        assert rep.convexity_violation <= NECESSARY_TOL
        assert rep.symmetry_violation > 11.0
        assert not rep.passes_necessary
        assert rep.label == "necessary-fail"
