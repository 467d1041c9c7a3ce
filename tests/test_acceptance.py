"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from bdlab.densities import (
    Density,
    anisotropic_normal_density,
    catalog_density,
    check_subadditivity,
)
from bdlab.energy import (
    bump_from_polygon,
    integration_by_parts_residual,
    jump_flux,
)
from bdlab.fields import (
    catalog_fields,
    gbmc_field,
    map_unit_vectors,
    optimal_gbmc_field,
    prototype_field,
)
from bdlab.functions import AffinePiece, PiecewiseAffine
from bdlab.profiles import sin_profile
from bdlab.geometry import (
    Polygon,
    PolygonalPartition,
    make_oriented_square,
)
from bdlab.ellipticity import (
    bv_necessary_report,
    ce1_energy_breakdown,
    ce2_energy_breakdown,
    counterexample1_competitor,
    default_families,
    falsify,
    relaxation_estimate,
    tile_construction,
    tiling_report,
)

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])
I_CE = np.zeros(2)
J_CE = np.array([2.0, 2.0])


@contextmanager
def criterion(num: int, name: str):
    ok = True
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        ok = False
        raise
    finally:
        dt = time.monotonic() - t0
        print(f"ACCEPTANCE {num:02d} [{name}]: {'PASS' if ok else 'FAIL'} ({dt:.2f}s)")


def test_criterion_01_counterexample1_reproduction():
    with criterion(1, "counterexample-1 reproduction"):
        t0 = time.monotonic()
        lam, eps = 1.0, 0.01
        b = ce1_energy_breakdown(lam, eps)
        assert b["parallel"] == pytest.approx(8 * np.sqrt(2) + 4, abs=1e-8)
        assert b["straight"] == pytest.approx(12 * np.sqrt(2), abs=1e-10)
        # independent closed-form hand integration of the perpendicular part:
        # eps * (2 * int_0^1 sqrt(t^2 + 4) dt + 1), the integral in closed form
        perp_closed = eps * (np.sqrt(5.0) + 4.0 * np.arcsinh(0.5) + 1.0)
        total_closed = 8 * np.sqrt(2) + 4 + perp_closed
        assert total_closed == pytest.approx(15.365, abs=5e-4)
        assert b["total"] == pytest.approx(total_closed, abs=1e-8)

        f = anisotropic_normal_density(eps)
        v = falsify(f, I_CE, 2 * lam * np.ones(2), E2, budget=600, seed=0)
        assert v.status == "VIOLATION"
        assert v.margin > 1.5
        assert v.normalized_margin > 0.25
        assert time.monotonic() - t0 < 5.0


def test_criterion_02_counterexample2_reproduction():
    with criterion(2, "counterexample-2 reproduction"):
        t0 = time.monotonic()
        lam, eps = 1.0, 1e-4
        delta = eps**0.25
        b = ce2_energy_breakdown(lam, eps)
        assert b["lower_edge"] == pytest.approx(np.sqrt(eps) * 2 * lam / delta, abs=1e-10)
        assert np.sqrt(eps) * 2 * lam / delta == pytest.approx(0.2, abs=1e-15)
        upper_closed = np.sqrt(eps) * (lam / delta) * (
            2 * delta**2 + 2 * (1 - delta) ** 2
        )
        assert upper_closed == pytest.approx(np.sqrt(eps) * 16.4 * lam, abs=1e-15)
        assert b["upper_edge"] == pytest.approx(upper_closed, abs=1e-10)
        assert b["outer_chord"] == pytest.approx(8 * np.sqrt(1 + eps), abs=1e-10)
        assert b["total"] < 12 * np.sqrt(1 + eps)

        f = catalog_density("aniso2:eps=1e-4")
        v = falsify(f, I_CE, J_CE, E2, budget=600, seed=0)
        assert v.status == "VIOLATION"
        assert time.monotonic() - t0 < 5.0


def test_criterion_03_truncated_sup_representation():
    with criterion(3, "truncated isotropic sup-representation"):
        t0 = time.monotonic()
        rng = np.random.default_rng(42)
        n = 1000
        i = rng.normal(scale=2.0, size=(n, 2))
        j = rng.normal(scale=2.0, size=(n, 2))
        keep = np.linalg.norm(i - j, axis=1) > 1e-6
        i, j = i[keep], j[keep]
        nu = rng.normal(size=(i.shape[0], 2))
        nu /= np.linalg.norm(nu, axis=1, keepdims=True)
        Ms = rng.uniform(0.1, 10.0, size=i.shape[0])
        As = rng.uniform(0.1, 10.0, size=i.shape[0])
        for k in range(i.shape[0]):
            g = optimal_gbmc_field(i[k], j[k], nu[k], M=Ms[k], a=As[k])
            want = min(As[k] * np.linalg.norm(i[k] - j[k]), Ms[k])
            assert float(g.pairing(i[k], j[k], nu[k])) == pytest.approx(want, abs=1e-10)
        # random fields never exceed the truncated value (fixed M, a)
        M, a = 1.0, 1.0
        bound = np.minimum(a * np.linalg.norm(i - j, axis=1), M)
        for _ in range(100):
            u = rng.normal(size=2)
            u /= np.linalg.norm(u)
            w = rng.normal(size=2)
            w /= np.linalg.norm(w)
            mu = rng.normal(size=2)
            mu /= np.linalg.norm(mu)
            c = rng.normal(scale=3.0, size=2)
            g = gbmc_field(map_unit_vectors(u, w), mu, c, M=M, a=a)
            vals = g.pairing(i, j, nu)
            assert np.all(vals <= bound + 1e-10)
        assert time.monotonic() - t0 < 10.0


def test_criterion_04_symmetric_unit_mapping():
    with criterion(4, "symmetric unit-norm mapping matrices"):
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            u = rng.normal(size=2)
            u /= np.linalg.norm(u)
            v = rng.normal(size=2)
            v /= np.linalg.norm(v)
            B = map_unit_vectors(u, v)
            assert np.array_equal(B, B.T)
            assert abs(np.linalg.norm(B, 2) - 1.0) < 1e-10
            assert np.linalg.norm(B @ u - v) < 1e-10


def _nested_competitor(rng, families):
    fam = [f for f in families if f.name == "nested-squares"][0]
    params = [rng.uniform(lo, hi) for lo, hi in fam.bounds]
    return fam.generator(params)


def test_criterion_05_divergence_identity():
    with criterion(5, "divergence identity for compact deviations"):
        rng = np.random.default_rng(5)
        fields = catalog_fields(I_CE, J_CE, E2).fields
        cases = []
        # the reference construction (side 6, j on the plus side)
        cases.append((counterexample1_competitor(1.0), 6.0))
        # tilings of its unit-square rescaling (side 3)
        v_unit = counterexample1_competitor(1.0).scaled(1.0 / 6.0)
        for h in (1, 2, 4, 8):
            cases.append(
                (tile_construction(v_unit, I_CE, J_CE, E2, h), 3.0)
            )
        # random nested-square competitors (side 6)
        fams = default_families(I_CE, J_CE, E2)
        for _ in range(50):
            cases.append((_nested_competitor(rng, fams), 6.0))
        for g in fields:
            pairing = float(g.pairing(J_CE, I_CE, E2))  # j sits on the plus side
            for v, L in cases:
                flux = jump_flux(v, g, tol=1e-12)
                assert abs(flux.value - pairing * L) < 1e-8 * L, (g.name, L)


def _ibp_fixtures(seed=11, cases=20):
    rng = np.random.default_rng(seed)
    dom = make_oriented_square(E2, 2.0)
    bottom = Polygon([(-1, -1), (1, -1), (1, 0), (-1, 0)])
    top = Polygon([(-1, 0), (1, 0), (1, 1), (-1, 1)])
    two = PolygonalPartition([bottom, top], dom)
    one = PolygonalPartition([dom], dom)
    out = []
    for k in range(cases):
        if k % 4 == 0:
            # one affine piece with nonzero symmetrized gradient, no jumps
            out.append(
                PiecewiseAffine(
                    one, [AffinePiece(rng.normal(scale=0.6, size=(2, 2)), rng.normal(size=2))]
                )
            )
        else:
            out.append(
                PiecewiseAffine(
                    two,
                    [
                        AffinePiece(rng.normal(scale=0.6, size=(2, 2)), rng.normal(size=2)),
                        AffinePiece(rng.normal(scale=0.6, size=(2, 2)), rng.normal(size=2)),
                    ],
                )
            )
    return dom, out


def test_criterion_06_integration_by_parts():
    with criterion(6, "integration by parts residuals"):
        dom, fixtures = _ibp_fixtures()
        G = prototype_field(np.eye(2), (sin_profile(0.9, 3.0), sin_profile(0.7, 4.0)))
        bumps = [bump_from_polygon(dom, power=p) for p in (2, 3, 4)]
        inner = make_oriented_square(E2, 2.0)
        bumps.append(bump_from_polygon(inner, power=2))
        rot = Polygon(inner.vertices @ np.array([[0.0, -1.0], [1.0, 0.0]]).T)
        bumps.append(bump_from_polygon(rot, power=3))
        worst_ratio = 0.0
        for u in fixtures:
            for phi in bumps:
                r_default = integration_by_parts_residual(
                    u, G, phi, tol=1e-3, volume_order=8, line_order=15
                )
                assert r_default < 1e-7
                r_doubled = integration_by_parts_residual(
                    u, G, phi, tol=1e-3, volume_order=16, line_order=30
                )
                assert r_doubled <= r_default / 10.0
                worst_ratio = max(worst_ratio, r_doubled / max(r_default, 1e-300))
        assert worst_ratio <= 0.1


def test_criterion_07_dalmot_consistency():
    with criterion(7, "sup-over-bases consistency"):
        f = catalog_density("dalmot:abs")
        g = catalog_density("frobenius")
        rng = np.random.default_rng(17)
        i = rng.normal(scale=2.0, size=(1000, 2))
        j = rng.normal(scale=2.0, size=(1000, 2))
        nu = rng.normal(size=(1000, 2))
        assert np.max(np.abs(f(i, j, nu) - g(i, j, nu))) < 1e-8
        M = 1.0
        ft = catalog_density("frobenius:trunc:M=1")
        d = rng.normal(size=(200, 2))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        r = np.sqrt(2.0) * M + rng.uniform(0.0, 3.0, size=200)
        big = d * r[:, None]
        nu2 = rng.normal(size=(200, 2))
        want = M * np.linalg.norm(nu2, axis=1)
        assert np.max(np.abs(ft(big, np.zeros_like(big), nu2) - want)) < 1e-8


def test_criterion_08_necessary_condition_separation():
    with criterion(8, "necessary conditions vs falsification"):
        for fid in ("product:aniso1:eps=0.01", "aniso2:eps=1e-4"):
            f = catalog_density(fid)
            rep = bv_necessary_report(
                f, samples=10_000, seed=0, triple=(I_CE, J_CE, E2), budget=600
            )
            assert rep.subadditivity_violation <= 1e-10, fid
            assert rep.convexity_violation <= 1e-10, fid
            assert rep.label == "BV-type-necessary-pass / BD-falsified", fid
        quad = Density(
            "quad",
            lambda i, j, nu: np.linalg.norm(i - j, axis=-1) ** 2
            * np.linalg.norm(nu, axis=-1),
        )
        triple = (2 * E1, np.zeros(2), E1, E2)
        viol = check_subadditivity(quad, samples=2000, seed=0, extra=[triple])
        assert viol >= 2.0


def test_criterion_09_tiling_bookkeeping():
    with criterion(9, "tiling energy bookkeeping"):
        v = counterexample1_competitor(1.0).scaled(1.0 / 6.0)
        f = anisotropic_normal_density(0.01)
        reps = tiling_report(v, I_CE, J_CE, E2, f, hs=(1, 2, 4, 8))
        for rep in reps:
            assert rep["relative_defect"] < 1e-9, rep["h"]
        bc = [r["boundary_contribution"] for r in reps]
        for k in range(len(bc) - 1):
            # 1/h decay within a factor of two
            assert 1.0 <= bc[k] / bc[k + 1] <= 4.0


def test_criterion_10_relaxation_estimate():
    with criterion(10, "relaxation upper bound"):
        f = catalog_density("isotropic:id")
        r = relaxation_estimate(f, I_CE, J_CE, E2, budget=10_000, seed=0)
        assert r.value == pytest.approx(r.density_value, abs=1e-10)
        assert r.value <= r.density_value

        fce = catalog_density("product:aniso1:eps=0.01")
        rce = relaxation_estimate(fce, I_CE, J_CE, E2, budget=800, seed=0)
        assert rce.value <= 2.57
        assert rce.value < 2 * np.sqrt(2)
