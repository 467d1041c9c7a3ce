import dataclasses
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bdlab.densities import CATALOG_IDS, Density, catalog_density, density_isotropic
from bdlab.ellipticity import default_families
from bdlab.energy import (
    _cuts,
    EnergyError,
    QuadratureResult,
    bump_from_polygon,
    divergence_identity_residual,
    integrate_jump_arrays,
    integrate_jump_sets,
    integrate_polygon,
    integration_by_parts_residual,
    jump_flux,
    jump_pieces,
    surface_energy,
    symmetric_jump_measure,
)
from bdlab.fields import (
    ConservativeField,
    biconvex_truncated_field,
    catalog_fields,
    optimal_gbmc_field,
    prototype_field,
    zero_field,
)
from bdlab.functions import (
    AffinePiece,
    JumpArrays,
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


class CallLimitReached(Exception):
    """A counted integrand ran past its call limit: the quadrature stalled."""


def counted(fn, limit):
    """fn wrapped to count its calls in `calls[0]` and raise past `limit`."""
    calls = [0]

    def wrapped(*args):
        calls[0] += 1
        if calls[0] > limit:
            raise CallLimitReached
        return fn(*args)

    return wrapped, calls


def elementary(i=(1.0, 0.0), j=(0.0, 0.0), nu=E2, side=1.0):
    return make_elementary(i, j, nu, OrientedSquare(np.asarray(nu, float), side, (0, 0)))


@st.composite
def family_competitors(draw):
    """A default-family competitor at drawn (i, j, nu) and in-bounds parameters."""
    i = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2)))
    j = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2)))
    assume(np.linalg.norm(i - j) > 0.1)
    angle = draw(st.floats(0.0, 2.0 * np.pi))
    fam = default_families(i, j, (np.cos(angle), np.sin(angle)))[draw(st.integers(0, 3))]
    unit_params = draw(st.lists(st.floats(0.0, 1.0), min_size=fam.dim, max_size=fam.dim))
    return fam.generator([lo + t * (hi - lo) for t, (lo, hi) in zip(unit_params, fam.bounds)])


def rotated(u: PiecewiseRigid, angle: float) -> PiecewiseRigid:
    """x -> R u(R^T x): cells, domain and offsets b rotate; planar skew A
    commute with R, so A stays (R A R^T is not exactly skew in floating point)."""
    c, s = np.cos(angle), np.sin(angle)
    R = np.array([[c, -s], [s, c]])
    part = PolygonalPartition(
        [Polygon(cell.vertices @ R.T) for cell in u.partition.cells],
        Polygon(u.partition.domain.vertices @ R.T),
    )
    return PiecewiseRigid(part, [AffinePiece(p.A, R @ p.b) for p in u.pieces])


def with_t_junction(u: PiecewiseRigid, k: int, t: float) -> PiecewiseRigid:
    """u with a vertex inserted at fraction t of its k-th jump interface, in
    the cell on the left of that interface."""
    jumps = [
        itf for itf in u.partition.interfaces
        if not u.pieces[itf.left].same_map(u.pieces[itf.right])
    ]
    itf = jumps[k % len(jumps)]
    p = itf.a + t * (itf.b - itf.a)
    v = u.partition.cells[itf.left].vertices
    d = np.roll(v, -1, axis=0) - v

    def edge_distance(x):
        s = np.clip(np.einsum("ek,ek->e", x - v, d) / np.einsum("ek,ek->e", d, d), 0.0, 1.0)
        return np.linalg.norm(x - v - s[:, None] * d, axis=1)

    # the edge from v[e] that carries the interface
    e = int(np.argmin(edge_distance(itf.a) + edge_distance(itf.b)))
    cells = list(u.partition.cells)
    cells[itf.left] = Polygon(np.insert(v, e + 1, p, axis=0))
    return PiecewiseRigid(PolygonalPartition(cells, u.partition.domain), u.pieces)


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
    @given(fid=st.sampled_from(CATALOG_IDS), u=family_competitors())
    def test_orientation_invariance_for_symmetric_density(self, fid, u):
        # f(i, j, nu) = f(j, i, -nu) makes the energy independent of the
        # orientation of the jump set, also for affine (rotational) traces
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

    def test_rounding_floor_stops_refinement(self):
        # energy ~523 at absolute tolerance 1e-13: rounding alone gives error
        # estimates near 1e-13, which no halving can reduce
        rect = default_families((0, 0), (2, 2), (0, 1))[1]
        assert rect.name == "rect-insert"
        u = rect.generator(
            [0.5255712420628432, 98.44565157363147, 3.418444628092724, -2.807458828081156]
        )
        f = catalog_density("isotropic:id")
        evaluator, calls = counted(f.evaluator, limit=5000)
        res = surface_energy(u, dataclasses.replace(f, evaluator=evaluator), tol=1e-13, order=30)
        assert calls[0] <= 100
        assert res.value == surface_energy(u, f, tol=1e-9, order=30).value
        assert res.error_estimate <= 1e-13 + 8 * np.finfo(float).eps * res.value


def depth_first_energy(u, f, tol, order):
    """(value, levels) of the line quadrature written interval by interval:
    each part's coarse Gauss rule against the sum over its two halves, a
    part refined again until they agree within its share of the tolerance
    or the rounding floor, down to depth 48.  `levels` is one more than the
    deepest part visited."""
    x, w = np.polynomial.legendre.leggauss(order)
    deepest = [0]

    def rule(k, t0, t1):
        t = (0.5 * (t0 + t1) + 0.5 * (t1 - t0) * x)[:, None]
        plus = j.plus_value0[k] + t * j.plus_slope[k]
        minus = j.minus_value0[k] + t * j.minus_slope[k]
        return 0.5 * (t1 - t0) * float(w @ f(plus, minus, j.normal[k]))

    def refine(k, parts, tol, depth):
        deepest[0] = max(deepest[0], depth)
        share, total = tol / len(parts), 0.0
        for t0, t1 in parts:
            mid = 0.5 * (t0 + t1)
            halves = [(t0, mid), (mid, t1)]
            fine = sum(rule(k, *h) for h in halves)
            e = abs(rule(k, t0, t1) - fine)
            if not (e <= share or e <= 8 * np.finfo(float).eps * abs(fine) or depth >= 48):
                fine = refine(k, halves, share, depth + 1)
            total += fine
        return total

    j = u.jump_segments()
    lengths = j.t1.tolist()
    total_len = sum(lengths)
    value = 0.0
    for k, L in enumerate(lengths):
        if not (np.any(j.plus_slope[k]) or np.any(j.minus_slope[k])):
            value += L * float(f(j.plus_value0[k], j.minus_value0[k], j.normal[k]))
            continue
        dv, ds = j.plus_value0[k] - j.minus_value0[k], j.plus_slope[k] - j.minus_slope[k]
        roots = {float(-a / b) for a, b in zip(dv, ds) if b != 0 and 0 < -a / b < L}
        cuts = [0.0] + sorted(roots) + [L]
        value += refine(k, list(zip(cuts[:-1], cuts[1:])), tol * L / total_len, 0)
    return value, deepest[0] + 1


class TestBatchedKernel:
    @pytest.mark.parametrize("fid", ["isotropic:id", "product:aniso1:eps=0.01", "frobenius"])
    def test_one_density_call_per_refinement_level(self, fid):
        # a rotating insert: affine traces everywhere around it
        fam = default_families((0, 0), (2, 2), (0.6, 0.8))[1]
        u = fam.generator([0.3, 7.0, 1.0, -2.0])
        f = catalog_density(fid)
        evaluator, calls = counted(f.evaluator, limit=1000)
        res = surface_energy(u, dataclasses.replace(f, evaluator=evaluator), tol=1e-12)
        want, levels = depth_first_energy(u, f, 1e-12, 15)
        assert levels >= 3
        assert calls[0] == levels
        assert res.value == want
        assert res.unconverged == 0

    def test_jump_discontinuity_is_unconverged_at_the_depth_cap(self):
        # |i - j| = sqrt(1 + (2 - t)^2) crosses 1.5 inside the segment, where
        # the density steps: no halving makes the two rules agree there
        dom = make_oriented_square(E2, 2.0)
        part = PolygonalPartition(
            [Polygon([(-1, -1), (1, -1), (1, 0), (-1, 0)]), Polygon([(-1, 0), (1, 0), (1, 1), (-1, 1)])],
            dom,
        )
        u = PiecewiseRigid(part, [rigid_piece(1.0, (1.0, 1.0)), constant_piece((0, 0))])

        def step(i, j, nu):
            return 1.0 + (np.linalg.norm(i - j, axis=-1) > 1.5)

        f, calls = counted(step, limit=1000)
        res = surface_energy(u, Density("step", f), tol=1e-10)
        assert res.unconverged >= 1
        assert calls[0] == 49  # levels 0 to 48
        # the step sits at t = 2 - sqrt(1.25) of the chord x in [-1, 1]
        assert res.value == pytest.approx(2.0 + (2.0 - np.sqrt(1.25)), abs=1e-12)
        smooth = surface_energy(u, catalog_density("isotropic:id"), tol=1e-10)
        assert smooth.unconverged == 0

    def test_wide_refinement_is_unconverged(self):
        # sqrt(|i - j|) where the jump vanishes: past depth 30 the halves
        # differ by rounding noise, and the refinement would double per level
        fam = default_families((0, 0), (2, 2), (np.cos(2.746718806696573), np.sin(2.746718806696573)),
                               i_side="minus")[1]
        jumps, _, general = fam.jumps([fam.suggestions[3]])
        assert general == []
        f, calls = counted(catalog_density("isotropic:sqrt").evaluator, limit=100)
        res = integrate_jump_arrays(jumps, Density("sqrt", f), 1e-13, 30)
        assert res.unconverged > 0
        assert calls[0] < 49
        assert res.value == pytest.approx(
            integrate_jump_arrays(jumps, catalog_density("isotropic:sqrt"), 1e-9, 15).value,
            rel=1e-12,
        )


def width_cap_jumps() -> JumpArrays:
    """The rect-insert suggestion whose isotropic:sqrt energy at tol 1e-13,
    order 30 refines wider than the width cap."""
    nu = (np.cos(2.746718806696573), np.sin(2.746718806696573))
    fam = default_families((0, 0), (2, 2), nu, i_side="minus")[1]
    return fam.generator(fam.suggestions[3]).jump_segments()


def loop_cuts(jumps, rows, kinks):
    """_cuts one row at a time, as it was written before it was vectorised:
    t0, sorted(set(kink candidates inside (t0, t1))), t1 per row."""
    dv = jumps.plus_value0[rows] - jumps.minus_value0[rows]
    ds = jumps.plus_slope[rows] - jumps.minus_slope[rows]
    roots = np.divide(-dv, ds, out=np.full(ds.shape, np.nan), where=ds != 0)
    cuts = []
    for n, t0, t1, r in zip(rows.tolist(), jumps.t0[rows].tolist(), jumps.t1[rows].tolist(),
                            roots.tolist()):
        pts = [x for x in r if t0 < x < t1]
        if kinks is not None:
            for v0, sl in ((jumps.plus_value0[n], jumps.plus_slope[n]),
                           (jumps.minus_value0[n], jumps.minus_slope[n])):
                pts.extend(float(x) for x in kinks(v0, sl) if t0 < x < t1)
        cuts.append([t0] + sorted(set(pts)) + [t1])
    return ([t for c in cuts for t in c[:-1]], [t for c in cuts for t in c[1:]],
            [len(c) - 1 for c in cuts])


class TestJumpSets:
    """integrate_jump_sets gives every jump set of a batch what it gives alone."""

    @settings(max_examples=12, derandomize=True, deadline=None)
    @given(
        draws=st.lists(
            st.tuples(st.integers(0, 3), st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8)),
            min_size=1, max_size=4,
        ),
        angle=st.floats(0.0, 2.0 * np.pi),
        fid=st.sampled_from(["isotropic:sqrt", "product:aniso1:eps=0.01", "dalmot:abs"]),
        reverse=st.booleans(),
    )
    def test_batch_matches_one_set_at_a_time(self, draws, angle, fid, reverse):
        fams = default_families((0, 0), (2, 2), (np.cos(angle), np.sin(angle)))
        sets = [
            fams[k].generator([lo + t * (hi - lo) for t, (lo, hi) in zip(unit, fams[k].bounds)])
            .jump_segments()
            for k, unit in draws
        ]
        # an empty jump set, one of constant traces only, and one that hits
        # the width cap at this tolerance and order with isotropic:sqrt
        sets += [sets[0].take([]), elementary().jump_segments(), width_cap_jumps()]
        label = list(range(len(sets)))[::-1] if reverse else list(range(len(sets)))
        owner = np.concatenate([np.full(len(s), label[n]) for n, s in enumerate(sets)])
        f = catalog_density(fid)
        batch = integrate_jump_sets(JumpArrays.concatenate(sets), owner, len(sets), f, 1e-13, 30)
        for n, s in enumerate(sets):
            assert batch[label[n]] == integrate_jump_arrays(s, f, 1e-13, 30), n
        assert batch[label[-3]] == QuadratureResult(0.0, 0.0, 0)
        if fid == "isotropic:sqrt":
            assert batch[label[-1]].unconverged > 0

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(u=family_competitors(), field=st.integers(0, 7), clip=st.booleans())
    def test_breakpoints_match_the_row_loop(self, u, field, clip):
        region = Polygon([(-1.5, -1.2), (1.7, -1.4), (1.2, 1.9), (-1.1, 1.3)]) if clip else None
        jumps = jump_pieces(u, region, include_boundary=True)
        rows = np.arange(len(jumps))
        for kinks in (None, catalog_fields().fields[field].trace_kinks):
            lo, hi, intervals = _cuts(jumps, rows, kinks)
            want = loop_cuts(jumps, rows, kinks)
            assert lo.tolist() == want[0] and hi.tolist() == want[1]
            assert intervals.tolist() == want[2]

    def test_width_cap_is_counted_per_set(self):
        # two copies refine twice as wide together as each alone: a cap on
        # the batch would stop both a level early
        jumps = width_cap_jumps()
        f = catalog_density("isotropic:sqrt")
        alone = integrate_jump_arrays(jumps, f, 1e-13, 30)
        owner = np.repeat([0, 1], len(jumps))
        both = integrate_jump_sets(JumpArrays.concatenate([jumps, jumps]), owner, 2, f, 1e-13, 30)
        assert alone.unconverged > 0
        assert both == [alone, alone]


class TestInvariances:
    """Energies of default-family competitors under the paper's invariances."""

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(u=family_competitors(), angle=st.floats(0.0, 2.0 * np.pi))
    def test_rotation(self, u, angle):
        # these densities depend on |i - j|, or on sym((i - j) (.) nu), only
        v = rotated(u, angle)
        ids = [fid for fid in CATALOG_IDS if fid.startswith("isotropic:")]
        for fid in ids + ["frobenius", "dalmot:abs"]:
            f = catalog_density(fid)
            a = surface_energy(u, f, tol=1e-12).value
            assert surface_energy(v, f, tol=1e-12).value == pytest.approx(a, rel=1e-11), fid

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(u=family_competitors(), k=st.integers(0, 100), t=st.floats(0.05, 0.95))
    def test_t_junction(self, u, k, t):
        v = with_t_junction(u, k, t)
        assert len(v.partition.interfaces) == len(u.partition.interfaces) + 1
        # the threshold crossings of these three are not quadrature breakpoints
        skip = ("isotropic:trunc:a=1,M=1", "mild:g", "frobenius:trunc:M=1")
        for fid in (fid for fid in CATALOG_IDS if fid not in skip):
            f = catalog_density(fid)
            a = surface_energy(u, f, tol=1e-12).value
            assert surface_energy(v, f, tol=1e-12).value == pytest.approx(a, rel=1e-12), fid

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(u=family_competitors(), s=st.floats(0.1, 10.0))
    def test_scaling(self, u, s):
        v = u.scaled(s)
        for fid in CATALOG_IDS:
            f = catalog_density(fid)
            a = s * surface_energy(u, f, tol=1e-12).value
            assert surface_energy(v, f, tol=s * 1e-12).value == pytest.approx(a, rel=1e-12), fid

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(u=family_competitors(), fid=st.sampled_from(CATALOG_IDS))
    def test_wire_round_trip(self, u, fid):
        v = PiecewiseRigid.from_json(json.loads(json.dumps(u.to_json())))
        assert v.to_json() == u.to_json()
        f = catalog_density(fid)
        assert surface_energy(v, f, tol=1e-12).value == surface_energy(u, f, tol=1e-12).value


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
        jumps = u.jump_segments()
        plain = integrate_jump_arrays(jumps, f, 1e-12, 15)
        assert plain.value == 1.0 and plain.error_estimate == 0.0
        weighted = integrate_jump_arrays(jumps, f, 1e-12, 15, weight=lambda x: 1.0 + x[:, 0])
        assert weighted.value == pytest.approx(1.0, abs=1e-14)
        squared = integrate_jump_arrays(jumps, f, 1e-12, 15, weight=lambda x: x[:, 0] ** 2)
        assert squared.value == pytest.approx(1.0 / 12.0, abs=1e-14)

    def test_empty_and_zero_length(self):
        u = elementary()
        f = density_isotropic(identity_profile())
        jumps = u.jump_segments()
        for pieces in (jumps.take([]), jumps.take([0], [0.3], [0.3])):
            res = integrate_jump_arrays(pieces, f, 1e-10, 15)
            assert (res.value, res.error_estimate, res.segments_evaluated) == (0.0, 0.0, 0)

    def test_non_finite_weight_raises(self):
        u = elementary()
        f = density_isotropic(identity_profile())
        with pytest.raises(EnergyError):
            integrate_jump_arrays(
                u.jump_segments(), f, 1e-10, 15, weight=lambda x: np.full(len(x), np.inf)
            )


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

        res = integrate_polygon(fn, poly, tol=1e-12, order=8)
        assert res.value == pytest.approx(16.0 / 3.0, abs=1e-11)
        assert res.unconverged == 0

    def test_smooth_function(self):
        poly = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])

        def fn(x):
            return np.sin(x[:, 0]) * np.cos(x[:, 1])

        v = integrate_polygon(fn, poly, tol=1e-12, order=8).value
        want = (1 - np.cos(1.0)) * np.sin(1.0)
        assert v == pytest.approx(want, abs=1e-12)

    def test_discontinuity_is_unconverged_at_the_depth_cap(self):
        poly = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        res = integrate_polygon(lambda x: 1.0 * (x[:, 0] > 0.37), poly, tol=1e-9, order=2)
        assert res.unconverged > 0
        assert res.segments_evaluated == 2
        assert res.value == pytest.approx(0.63, abs=2e-3)

    def test_non_finite_integrand_raises_at_once(self):
        poly = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        fn, calls = counted(lambda x: np.full(len(x), np.nan), limit=1000)
        with pytest.raises(EnergyError):
            integrate_polygon(fn, poly, tol=1e-9, order=2)
        assert calls[0] == 1


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

    def test_requires_field_jacobian(self):
        u = elementary((1, 1), (0, 0), E2, 2.0)
        G = biconvex_truncated_field(np.eye(2), M=5.0)
        phi = bump_from_polygon(u.partition.domain, power=2)
        with pytest.raises(EnergyError):
            integration_by_parts_residual(u, dataclasses.replace(G, jacobian=None), phi)

    def test_requires_vanishing_phi(self):
        dom = make_oriented_square(E2, 2.0)
        small = make_oriented_square(E2, 1.0)
        u = elementary((1, 1), (0, 0), E2, 2.0)
        G = biconvex_truncated_field(np.eye(2), M=5.0)
        bad_phi = bump_from_polygon(small, power=2)  # does not vanish on dom boundary
        with pytest.raises(EnergyError):
            integration_by_parts_residual(u, G, bad_phi, region=dom)

    def _rotated_insert(self):
        # a side-6 square insert rotated by 4.25 rad: its domain's inradius is
        # 3, and the corners of [-2.5, 2.5]^2 are 3.54 from the centre
        nu = np.array([np.cos(4.25), np.sin(4.25)])
        fam = default_families((0, 0), (2, 2), nu)[0]
        return fam.generator(fam.suggestions[0])

    def test_region_outside_the_domain_raises(self):
        u = self._rotated_insert()
        region = Polygon([(-2.5, -2.5), (2.5, -2.5), (2.5, 2.5), (-2.5, 2.5)])
        G = biconvex_truncated_field(np.eye(2), M=5.0)
        with pytest.raises(EnergyError, match="inside"):
            integration_by_parts_residual(u, G, bump_from_polygon(region), region=region)

    def test_region_equal_to_the_domain_passes(self):
        u = self._rotated_insert()
        dom = u.partition.domain
        G = biconvex_truncated_field(np.eye(2), M=5.0)
        phi = bump_from_polygon(dom)
        res = integration_by_parts_residual(u, G, phi, region=dom, tol=1e-10)
        assert res < 1e-8
        assert res == integration_by_parts_residual(u, G, phi, tol=1e-10)
