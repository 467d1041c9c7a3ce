import dataclasses
import functools
import json
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bdlab.densities import CATALOG_IDS, Density, catalog_density, density_isotropic, form_pairing
from bdlab.ellipticity import (
    _compiled_round,
    ce1_energy_breakdown,
    ce2_energy_breakdown,
    counterexample1_competitor,
    counterexample2_competitor,
    default_families,
)
from bdlab.energy import (
    _VOLUME_WIDTH,
    _cuts,
    _duffy_rule,
    _finite,
    _mean_flux,
    _root_quadratic,
    _same_sign,
    _tri_gauss,
    EnergyError,
    QuadratureResult,
    bump_from_polygon,
    divergence_identity_residual,
    integrate_jump_arrays,
    integrate_polygon,
    integration_by_parts_residual,
    jump_flux,
    jump_set_integrals,
    surface_energy,
    symmetric_jump_measure,
)
from bdlab.fields import (
    ConservativeField,
    _axis_field,
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
    skew2,
)
from bdlab.geometry import (
    GeometryError,
    OrientedSquare,
    Polygon,
    PolygonalPartition,
    clip_segment_params,
    frame_from_normal,
    make_oriented_square,
    row_norms,
    triangulate,
    validate_partition,
)
from bdlab.profiles import (
    abs_profile,
    eta_profile,
    identity_profile,
    sin_profile,
    tau_profile,
    zero_profile,
)
from bdlab import render

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


def clipped(jumps, regions):
    """The pieces of a jump set inside each of the regions, boundary pieces
    included, and their owners: `tiling_report`'s cut of a jump set to its
    tiles."""
    owner, rows, t0, t1, _ = clip_segment_params(jumps.a, jumps.b, regions)
    L = jumps.t1[rows]
    return jumps.take(rows, t0 * L, t1 * L), owner


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
    itf = u.partition.interfaces
    jumps = [
        n for n, (l, r) in enumerate(zip(itf.left, itf.right))
        if not (np.array_equal(u.pieces[l].A, u.pieces[r].A)
                and np.array_equal(u.pieces[l].b, u.pieces[r].b))
    ]
    n = jumps[k % len(jumps)]
    a, b, left = itf.a[n], itf.b[n], itf.left[n]
    p = a + t * (b - a)
    v = u.partition.cells[left].vertices
    d = np.roll(v, -1, axis=0) - v

    def edge_distance(x):
        s = np.clip(np.einsum("ek,ek->e", x - v, d) / np.einsum("ek,ek->e", d, d), 0.0, 1.0)
        return np.linalg.norm(x - v - s[:, None] * d, axis=1)

    # the edge from v[e] that carries the interface
    e = int(np.argmin(edge_distance(a) + edge_distance(b)))
    cells = list(u.partition.cells)
    cells[left] = Polygon(np.insert(v, e + 1, p, axis=0))
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
        # the pieces in each half, integrated in one kernel call, as
        # tiling_report integrates its tiles
        u = elementary((2, 1), (0, 0), E2, 4.0)
        f = catalog_density("frobenius")
        left = Polygon([(-2, -2), (0, -2), (0, 2), (-2, 2)])
        right = Polygon([(0, -2), (2, -2), (2, 2), (0, 2)])
        whole = surface_energy(u, f).value
        pieces, owner = clipped(u.jump_segments(), [left, right])
        halves = jump_set_integrals(pieces, owner, 2, f, 1e-10, 15)[0]
        assert halves.tolist() == [pytest.approx(0.5 * whole, abs=1e-10)] * 2
        assert halves.sum() == pytest.approx(whole, abs=1e-10)

    def test_affine_traces_against_closed_form(self):
        # inner rotational piece against constant zero: |jump| integrates to
        # a hand-computable quantity on the bottom edge
        dom = make_oriented_square(E2, 2.0)
        bottom = Polygon([(-1, -1), (1, -1), (1, 0), (-1, 0)])
        top = Polygon([(-1, 0), (1, 0), (1, 1), (-1, 1)])
        part = PolygonalPartition([bottom, top], dom)
        u = PiecewiseRigid(part, [AffinePiece(skew2(1.0), (1.0, 1.0)), constant_piece((0, 0))])
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
        # the adaptive kernel: without its quadratic form the density is called
        f = dataclasses.replace(catalog_density("isotropic:id"), quadratic_form=None)
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
        # the adaptive kernel: without its quadratic form the density is called
        f = dataclasses.replace(catalog_density(fid), quadratic_form=None)
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
        u = PiecewiseRigid(part, [AffinePiece(skew2(1.0), (1.0, 1.0)), constant_piece((0, 0))])

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
        fam = default_families((0, 0), (2, 2),
                               (np.cos(2.746718806696573), np.sin(2.746718806696573)))[1]
        compiled = _compiled_round((fam.layout,), (0,))
        jumps, _ = compiled.jumps([fam], [np.asarray(fam.suggestions[3], dtype=float)])
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
    fam = default_families((0, 0), (2, 2), nu)[1]
    return fam.generator(fam.suggestions[3]).jump_segments()


CLIP = Polygon([(-1.5, -1.2), (1.7, -1.4), (1.2, 1.9), (-1.1, 1.3)])


def loop_cuts(jumps, rows, kinks):
    """_cuts one row at a time, as it was written before it was vectorised:
    t0, sorted(set(kink candidates inside (t0, t1))), t1 per row, with the
    batched `kinks` called on one-row slices."""
    dv = jumps.plus_value0[rows] - jumps.minus_value0[rows]
    ds = jumps.plus_slope[rows] - jumps.minus_slope[rows]
    roots = np.divide(-dv, ds, out=np.full(ds.shape, np.nan), where=ds != 0)
    cuts = []
    for n, t0, t1, r in zip(rows.tolist(), jumps.t0[rows].tolist(), jumps.t1[rows].tolist(),
                            roots.tolist()):
        pts = [x for x in r if t0 < x < t1]
        if kinks is not None:
            for v0, sl in ((jumps.plus_value0[n:n + 1], jumps.plus_slope[n:n + 1]),
                           (jumps.minus_value0[n:n + 1], jumps.minus_slope[n:n + 1])):
                pts.extend(float(x) for x in kinks(v0, sl)[0] if t0 < x < t1)
        cuts.append([t0] + sorted(set(pts)) + [t1])
    return ([t for c in cuts for t in c[:-1]], [t for c in cuts for t in c[1:]],
            [len(c) - 1 for c in cuts])


class TestJumpSets:
    """jump_set_integrals gives every jump set of a batch what it gives alone,
    field for field of the QuadratureResult that integrate_jump_arrays gives."""

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
        batch = jump_set_integrals(JumpArrays.concatenate(sets), owner, len(sets), f, 1e-13, 30)
        for n, s in enumerate(sets):
            alone = dataclasses.astuple(integrate_jump_arrays(s, f, 1e-13, 30))
            assert tuple(x[label[n]] for x in batch) == alone, n
        assert tuple(x[label[-3]] for x in batch) == (0.0, 0.0, 0, 0)
        if fid == "isotropic:sqrt":
            assert batch[3][label[-1]] > 0

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(u=family_competitors(), field=st.integers(0, 7), clip=st.booleans())
    def test_breakpoints_match_the_row_loop(self, u, field, clip):
        jumps = clipped(u.jump_segments(), [CLIP])[0] if clip else u.jump_segments()
        rows = np.arange(len(jumps))
        for kinks in (None, catalog_fields().fields[field].trace_kinks):
            lo, hi, intervals = _cuts(jumps, rows, kinks)
            want = loop_cuts(jumps, rows, kinks)
            assert lo.tolist() == want[0] and hi.tolist() == want[1]
            assert intervals.tolist() == want[2]

    @pytest.mark.parametrize("field", [1, 3, 6])
    def test_two_kinks_calls_per_call(self, field):
        # every adaptive row goes to `kinks` in one call per trace side
        fam = default_families((0, 0), (2, 2), (0.6, 0.8))[1]
        jumps = fam.generator([0.3, 7.0, 1.0, -2.0]).jump_segments()
        g = catalog_fields().fields[field]
        for rows in ([0], [0, 1], range(len(jumps)), list(range(len(jumps))) * 3):
            kinks, calls = counted(g.trace_kinks, limit=2)
            integrate_jump_arrays(jumps.take(rows), g.pairing, 1e-10, 15, kinks=kinks)
            assert calls[0] == 2

    def test_width_cap_is_counted_per_set(self):
        # two copies refine twice as wide together as each alone: a cap on
        # the batch would stop both a level early
        jumps = width_cap_jumps()
        f = catalog_density("isotropic:sqrt")
        alone = integrate_jump_arrays(jumps, f, 1e-13, 30)
        owner = np.repeat([0, 1], len(jumps))
        both = jump_set_integrals(JumpArrays.concatenate([jumps, jumps]), owner, 2, f, 1e-13, 30)
        assert alone.unconverged > 0
        assert [x.tolist() for x in both] == [[a, a] for a in dataclasses.astuple(alone)]


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
        u = elementary(j, i, E2, 1.0)
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
        affine = PiecewiseRigid(part, [AffinePiece(skew2(1.0), (0, 0)), constant_piece((0, 0))])
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


FORM_IDS = ["isotropic:id", "product:aniso1:eps=0.01", "aniso2:eps=1e-4", "frobenius", "dalmot:abs"]


def adaptive(f: Density) -> Density:
    """f without its quadratic form: the adaptive kernel integrates it."""
    return dataclasses.replace(f, quadratic_form=None)


def one_row(a, b, normal, t0, t1) -> JumpArrays:
    """A jump piece with the jump a + t b along t in [t0, t1] (minus trace 0)."""
    row = [np.array([v], dtype=float) for v in ((0.0, 0.0), (t1, 0.0), (1.0, 0.0), normal, a, b,
                                                 (0.0, 0.0), (0.0, 0.0), t0, t1)]
    return JumpArrays(*row)


def mp_energy(Q, a, b, t0, t1):
    """The integral of sqrt((a + t b)^T Q (a + t b)) over [t0, t1] by mpmath.quad
    at 50 digits, split at the root of the quadratic: the inputs taken as exact."""
    with mpmath.workdps(50):
        Q = [[mpmath.mpf(float(Q[r, c])) for c in range(2)] for r in range(2)]
        a, b = [mpmath.mpf(float(x)) for x in a], [mpmath.mpf(float(x)) for x in b]

        def q(x, y):
            return sum(Q[r][c] * x[r] * y[c] for r in range(2) for c in range(2))

        A, B, C = q(b, b), q(a, b), q(a, a)
        t0, t1 = mpmath.mpf(t0), mpmath.mpf(t1)
        cuts = [t0, t1]
        if A > 0:
            # the root and, a distance h to either side, the end of its curved part
            root, h = -B / A, mpmath.sqrt(max(C / A - (B / A) ** 2, 0))
            cuts += [x for x in (root - h, root, root + h) if t0 < x < t1]
        return mpmath.quad(lambda t: mpmath.sqrt(max(A * t * t + 2 * B * t + C, 0)), sorted(cuts))


@st.composite
def affine_jumps(draw):
    """(a, b, t0, t1) of a jump a + t b over [t0, t1]: a short interval far
    from the root of the jump, one across it, parallel traces (h = 0) or a
    constant jump (b = 0), with values and lengths scaled from 1e-6 to 1e6."""
    kind = draw(st.sampled_from(["far", "across", "parallel", "constant"]))
    value_scale = 10.0 ** draw(st.floats(-6.0, 6.0))
    length_scale = 10.0 ** draw(st.floats(-6.0, 6.0))
    angle = draw(st.floats(0.0, 2.0 * np.pi))
    slope = np.array([np.cos(angle), np.sin(angle)])
    # the jump's offset across the slope: none, or not below 0.1
    offset = draw(st.sampled_from([-1.0, 0.0, 1.0])) * draw(st.floats(0.1, 3.0))
    if kind == "far":
        t0 = draw(st.floats(0.0, 6.0))
        length = 10.0 ** draw(st.floats(-6.0, 0.0))
        root = t0 + draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(1.0, 3.0))
    else:
        # t0 within a length of 0: the root, computed from a and b, is then
        # as precise relative to the interval as relative to t0
        length = draw(st.floats(0.1, 6.0))
        t0 = draw(st.floats(0.0, 1.0)) * length
        root = t0 + draw(st.floats(0.0, 1.0)) * length
    t1 = t0 + length
    b = slope * value_scale / length_scale
    if kind == "parallel":
        # a power of two times b, so that a x b is zero in floating point
        # too; the root, at t = 2^e, lies inside or outside the interval
        a = -(2.0 ** draw(st.integers(-20, 20))) * b
    elif kind == "constant":
        a, b = draw(st.floats(0.1, 3.0)) * slope * value_scale, 0.0 * b
    else:
        a = (-root * slope + offset * np.array([-slope[1], slope[0]])) * value_scale
    return a, b, t0 * length_scale, t1 * length_scale


class TestClosedForm:
    """Densities with a quadratic form integrate in closed form."""

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(jump=affine_jumps(), fid=st.sampled_from(FORM_IDS),
           angle=st.floats(0.0, 2.0 * np.pi), nu_length=st.floats(0.1, 10.0))
    def test_against_mpmath(self, jump, fid, angle, nu_length):
        a, b, t0, t1 = jump
        nu = nu_length * np.array([np.cos(angle), np.sin(angle)])
        f = catalog_density(fid)
        res = integrate_jump_arrays(one_row(a, b, nu, t0, t1), f, 1e-10, 15)
        want = mp_energy(f.quadratic_form(nu[None])[0], a, b, t0, t1)
        assert res.error_estimate == 0.0 and res.unconverged == 0
        assert abs(mpmath.mpf(res.value) - want) <= 1e-14 * want

    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(angle=st.floats(0.0, 2.0 * np.pi),
           unit_params=st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8))
    def test_families_match_the_adaptive_kernel(self, angle, unit_params):
        for fam in default_families((0, 0), (2, 2), (np.cos(angle), np.sin(angle))):
            u = fam.generator([lo + t * (hi - lo) for t, (lo, hi) in zip(unit_params, fam.bounds)])
            for fid in FORM_IDS:
                f = catalog_density(fid)
                closed = surface_energy(u, f)
                want = surface_energy(u, adaptive(f), tol=1e-13, order=30)
                assert closed.error_estimate == 0.0
                assert abs(closed.value - want.value) <= 1e-13 * want.value, (fam.name, fid)

    def test_counterexamples_match_the_adaptive_kernel(self):
        for (build, density), args in (((counterexample1_competitor, "product:aniso1:eps=0.01"), (1.0,)),
                                       ((counterexample2_competitor, "aniso2:eps=1e-4"), (1.0, 1e-4))):
            u, f = build(*args), catalog_density(density)
            want = surface_energy(u, adaptive(f), tol=1e-13, order=30).value
            assert abs(surface_energy(u, f).value - want) <= 1e-13 * want
        for breakdown, density in ((ce1_energy_breakdown, "product:aniso1:eps=0.01"),
                                   (ce2_energy_breakdown, "aniso2:eps=1e-4")):
            closed = breakdown()
            assert closed["error_estimate"] == 0.0
            u = (counterexample1_competitor(1.0) if breakdown is ce1_energy_breakdown
                 else counterexample2_competitor(1.0, 1e-4))
            want = surface_energy(u, adaptive(catalog_density(density)), tol=1e-13, order=30).value
            assert abs(closed["total"] - want) <= 1e-13 * want

    def test_no_density_calls(self):
        fam = default_families((0, 0), (2, 2), (0.6, 0.8))[1]
        u = fam.generator([0.3, 7.0, 1.0, -2.0])
        f = catalog_density("frobenius")
        evaluator, calls = counted(f.evaluator, limit=1000)
        f = dataclasses.replace(f, evaluator=evaluator)  # one call: the form check
        assert calls[0] == 1
        res = surface_energy(u, f, tol=1e-12)
        assert calls[0] == 1
        assert res.error_estimate == 0.0 and res.segments_evaluated == len(u.jump_segments())
        # a weight or kinks take the adaptive path
        integrate_jump_arrays(u.jump_segments(), f, 1e-10, 15, weight=lambda x: 1.0 + 0 * x[:, 0])
        assert calls[0] > 1

    def test_scaled_density(self):
        u = counterexample1_competitor(1.0)
        f = catalog_density("product:aniso1:eps=0.01")
        scaled = f.scaled(3.0)
        want = surface_energy(u, adaptive(scaled), tol=1e-13, order=30).value
        assert abs(surface_energy(u, scaled).value - want) <= 1e-13 * want
        assert surface_energy(u, scaled).value == pytest.approx(3.0 * surface_energy(u, f).value,
                                                                rel=1e-14)


def former_root_quadratic(jumps, form):
    """_root_quadratic as it was written on (n, 2) rows, with form_pairing
    and one _same_sign call for each part of the interval."""
    a = jumps.plus_value0 - jumps.minus_value0
    b = jumps.plus_slope - jumps.minus_slope
    Q = np.asarray(form(jumps.normal), dtype=float)
    A, B, C = form_pairing(Q, b, b), form_pairing(Q, a, b), form_pairing(Q, a, a)
    L = jumps.t1 - jumps.t0
    sloped = A > 0
    t_root = np.divide(-B, A, out=np.zeros_like(A), where=sloped)
    det = Q[:, 0, 0] * Q[:, 1, 1] - Q[:, 0, 1] ** 2
    cross = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    h2 = det * np.divide(cross, A, out=np.zeros_like(A), where=sloped) ** 2
    s0, s1 = jumps.t0 - t_root, jumps.t1 - t_root
    above = _same_sign(np.maximum(s0, 0.0), np.maximum(s1, 0.0),
                       np.where(s0 >= 0.0, L, np.maximum(s1, 0.0)), h2)
    below = _same_sign(np.maximum(-s1, 0.0), np.maximum(-s0, 0.0),
                       np.where(s1 <= 0.0, L, np.maximum(-s0, 0.0)), h2)
    return _finite(np.where(sloped, np.sqrt(A) * (above + below), L * np.sqrt(C)))


ROOT_KINDS = ("constant", "root-inside", "root-outside", "root-at-t0", "root-at-t1", "parallel")


def root_case(rng, n):
    """n jump pieces for the closed form, and the kind of each row, an index
    into ROOT_KINDS: a constant jump (A = 0); the root t* = -B / A of the
    jump's quadratic inside [t0, t1] or outside it; a jump parallel to its
    slope (h2 = 0) vanishing exactly at t0 or at t1, which are then powers
    of two or 0, so that t* is exact; a parallel jump vanishing inside.
    About half the rows start at t0 > 0 and about half of the others have
    nonzero minus traces; jump values are scaled from 1e-150 to 1e150."""
    kind = rng.integers(0, len(ROOT_KINDS), size=n)
    rows = []
    for k in kind:
        name = ROOT_KINDS[k]
        scale = 10.0 ** rng.uniform(-150.0, 150.0)
        t0 = 0.0 if rng.random() < 0.5 else 2.0 ** rng.integers(-6, 6)
        t1 = t0 + 2.0 ** rng.integers(-6, 6) * rng.integers(1, 9)
        if name == "root-at-t1":
            t1 = 2.0 ** rng.integers(-6, 6)
            t0 = 0.0 if rng.random() < 0.5 else t1 / 2.0 ** rng.integers(1, 5)
        root = {"root-at-t0": t0, "root-at-t1": t1,
                "root-outside": rng.choice([t0, t1]) + rng.choice([-1, 1]) * (t1 - t0)
                * 10.0 ** rng.uniform(0.0, 3.0)}.get(name, rng.uniform(t0, t1))
        b = rng.normal(size=2) * scale / (1.0 + abs(root))
        a = -root * b
        if name in ("root-inside", "root-outside"):
            a = a + np.array([-b[1], b[0]]) * rng.normal() * (1.0 + abs(root))
        if name == "constant":
            a, b = rng.normal(size=2) * scale, np.zeros(2)
        minus = np.zeros((2, 2))
        if name not in ("root-at-t0", "root-at-t1") and rng.random() < 0.5:
            minus = rng.normal(size=(2, 2)) * scale
        angle = rng.uniform(0.0, 2.0 * np.pi)
        rows.append((np.cos(angle), np.sin(angle), *(minus[0] + a), *(minus[1] + b),
                     *minus.ravel(), t0, t1))
    x = np.array(rows, dtype=float).reshape(n, 12)
    zeros = np.zeros((n, 2))
    jumps = JumpArrays(zeros, zeros, zeros, x[:, 0:2], x[:, 2:4], x[:, 4:6], x[:, 6:8],
                       x[:, 8:10], x[:, 10], x[:, 11])
    return jumps, kind


class TestRootQuadratic:
    """The closed form on x and y columns, with one _same_sign call, gives
    what the former form on (n, 2) rows gave, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), fid=st.sampled_from(FORM_IDS))
    def test_equals_the_former_form(self, seed, n, fid):
        jumps, _ = root_case(np.random.default_rng(seed), n)
        form = catalog_density(fid).quadratic_form
        assert _root_quadratic(jumps, form).tobytes() == former_root_quadratic(jumps, form).tobytes()

    @pytest.mark.parametrize("fid", FORM_IDS)
    def test_rows_of_each_kind(self, fid):
        jumps, kind = root_case(np.random.default_rng(29), 3000)
        assert (np.bincount(kind) > 400).all()
        form = catalog_density(fid).quadratic_form
        assert _root_quadratic(jumps, form).tobytes() == former_root_quadratic(jumps, form).tobytes()
        # the jump of a root-at-end row vanishes exactly there
        a = jumps.plus_value0 - jumps.minus_value0
        b = jumps.plus_slope - jumps.minus_slope
        for name, t in (("root-at-t0", jumps.t0), ("root-at-t1", jumps.t1)):
            rows = kind == ROOT_KINDS.index(name)
            assert (a[rows] + t[rows, None] * b[rows] == 0.0).all()

    def test_family_competitors(self):
        rng = np.random.default_rng(3)
        for angle in rng.uniform(0.0, 2.0 * np.pi, 4):
            for fam in default_families((0.0, 0.0), (2.0, 2.0), (np.cos(angle), np.sin(angle))):
                lo, hi = np.array(fam.bounds).T
                jumps = fam.generator(lo + rng.uniform(size=lo.size) * (hi - lo)).jump_segments()
                for fid in FORM_IDS:
                    form = catalog_density(fid).quadratic_form
                    assert (_root_quadratic(jumps, form).tobytes()
                            == former_root_quadratic(jumps, form).tobytes())


def loop_measure(u):
    """symmetric_jump_measure one row at a time, as it was written before it
    was vectorised."""
    out = np.zeros((2, 2))
    j = u.jump_segments()
    for k, (t0, t1) in enumerate(zip(j.t0.tolist(), j.t1.tolist())):
        t = 0.5 * (t0 + t1)
        jm = (j.plus_value0[k] + t * j.plus_slope[k]) - (j.minus_value0[k] + t * j.minus_slope[k])
        out += (t1 - t0) * 0.5 * (np.outer(jm, j.normal[k]) + np.outer(j.normal[k], jm))
    return out


def loop_magnitudes(jumps):
    """render_svg's jump magnitudes one row at a time, as they were computed
    before they were vectorised, above its default floor."""
    mags = []
    for k, L in enumerate(jumps.t1.tolist()):
        t = np.linspace(0.0, L, 5)[:, None]
        jump = (jumps.plus_value0[k] + t * jumps.plus_slope[k]) - (
            jumps.minus_value0[k] + t * jumps.minus_slope[k])
        mags.append(float(np.max(np.linalg.norm(jump, axis=-1))))
    return np.array([m for m in mags if m > 1e-12], dtype=float)


def render_magnitudes(u):
    """The jump magnitudes above the default floor that render_svg draws,
    read from the max() that scales them."""
    seen = []

    def spy(*args, **kw):
        if "default" in kw:  # the max over magnitudes; the others pass none
            seen.append(np.array(args[0], dtype=float))
        return max(*args, **kw)

    with mock.patch.object(render, "max", spy, create=True):
        render.render_svg(u)
    (mags,) = seen
    return mags


class TestRowLoops:
    """The jump-set consumers give what their per-row loops gave, bit for bit."""

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(u=family_competitors())
    def test_measure_and_magnitudes(self, u):
        assert symmetric_jump_measure(u).tobytes() == loop_measure(u).tobytes()
        assert render_magnitudes(u).tobytes() == loop_magnitudes(u.jump_segments()).tobytes()

    @pytest.mark.parametrize("jumps", [0, 1])
    def test_no_jump_and_signed_zeros(self, jumps):
        dom = make_oriented_square(E2, 2.0)
        u = PiecewiseRigid(PolygonalPartition([dom], dom), [constant_piece((1, 2))])
        if jumps:
            # jump (-1, 0) across e2: the diagonal terms are -0.0, and the
            # loop's 0.0 + (-0.0) gives 0.0
            u = elementary((0.0, 0.0), (1.0, 0.0), E2, 2.0)
        assert len(u.jump_segments()) == jumps
        assert symmetric_jump_measure(u).tobytes() == loop_measure(u).tobytes()
        assert render_magnitudes(u).tobytes() == loop_magnitudes(u.jump_segments()).tobytes()


class TestSymmetricJumpMeasure:
    def test_elementary(self):
        i, j = np.array([1.0, 2.0]), np.array([0.0, -1.0])
        u = elementary(j, i, E2, 1.0)
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

    def test_a_level_wider_than_the_cap_is_accepted_as_it_stands(self):
        # sin(3000 x) is far beyond the rule's resolution at every level: the
        # 512 triangles of the fifth level would refine into children taking
        # 2**19 points at order 8, so they are accepted as unconverged
        poly = make_oriented_square(E2, 2.0)
        widths = []
        res = integrate_polygon(lambda x: (widths.append(len(x)), np.sin(3000.0 * x[:, 0]))[1],
                                poly, tol=1e-9, order=8)
        assert res.unconverged == 512
        assert widths == [640, 2048, 8192, 32768, 131072]
        assert max(widths) <= _VOLUME_WIDTH

    def test_non_finite_integrand_raises_at_once(self):
        poly = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        fn, calls = counted(lambda x: np.full(len(x), np.nan), limit=1000)
        with pytest.raises(EnergyError):
            integrate_polygon(fn, poly, tol=1e-9, order=2)
        assert calls[0] == 1


def recursive_polygon(fn, poly, tol, order):
    """The oracle: integrate_polygon as a depth-first recursion, one triangle
    and one rule call at a time.  (value, error, unconverged, deepest level)."""
    pts, wts = _duffy_rule(order)
    deepest = [0]

    def rule(tri):
        a, b, c = tri
        phys = a + pts[:, :1] * (b - a) + pts[:, 1:] * (c - a)
        jac = abs((b - a)[0] * (c - a)[1] - (b - a)[1] * (c - a)[0])
        return jac * float(wts @ fn(phys))

    def split(tri):
        a, b, c = tri
        ab, bc, ca = 0.5 * (a + b), 0.5 * (b + c), 0.5 * (c + a)
        return (np.array([a, ab, ca]), np.array([ab, b, bc]), np.array([ca, bc, c]),
                np.array([ab, bc, ca]))

    def refine(parts, tol, depth):
        deepest[0] = max(deepest[0], depth)
        share = tol / len(parts)
        total, err, unconverged = 0.0, 0.0, 0
        for part in parts:
            coarse = rule(part)
            children = split(part)
            fine = 0.0
            for c in children:
                fine += rule(c)
            e = abs(coarse - fine)
            ok = e <= share or e <= 8 * np.finfo(float).eps * abs(fine)
            if not ok and depth >= 10:
                unconverged += 1
            elif not ok:
                fine, e, n = refine(children, share, depth + 1)
                unconverged += n
            total += fine
            err += float(e)
        return total, err, unconverged

    return (*refine(triangulate(poly), tol, 0), deepest[0])


L_SHAPE = Polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])


def _ibp_integrand():
    """The volume integrand of an integration by parts, as
    integration_by_parts_residual forms it on one cell."""
    G = prototype_field(np.eye(2), (sin_profile(0.9, 3.0), sin_profile(0.7, 4.0)))
    phi = bump_from_polygon(make_oriented_square(E2, 2.0), power=3)
    piece = AffinePiece(np.array([[0.3, -0.8], [0.5, 0.1]]), np.array([0.2, -0.4]))
    E = 0.5 * (piece.A + piece.A.T)

    def integrand(x):
        weight, v = phi.log_grad(x)
        return weight * G.strain(piece(x), E, v)

    return integrand


VOLUME_CASES = [
    # (integrand, polygon, tol, order)
    (lambda x: x[:, 0] ** 2 * x[:, 1], Polygon([(0, 0), (2, 0), (2, 2), (0, 2)]), 1e-12, 8),
    (lambda x: np.sin(x[:, 0]) * np.cos(x[:, 1]), L_SHAPE, 1e-12, 4),
    (lambda x: np.exp(-4 * ((x[:, 0] - 0.3) ** 2 + x[:, 1] ** 2)), L_SHAPE, 1e-10, 8),
    (lambda x: 1.0 * (x[:, 0] > 0.37), Polygon([(0, 0), (1, 0), (1, 1), (0, 1)]), 1e-9, 2),
    (lambda x: np.abs(x[:, 0] - 0.7 * x[:, 1] - 0.1), L_SHAPE, 1e-8, 3),
    (_ibp_integrand(), make_oriented_square(E2, 2.0), 1e-9, 16),
    (_ibp_integrand(), make_oriented_square(E2, 2.0), 1e-8, 4),
]


@functools.lru_cache
def volume_oracle(case):
    return recursive_polygon(*VOLUME_CASES[case])


class TestBreadthFirstVolume:
    @pytest.mark.parametrize("case", range(len(VOLUME_CASES)))
    def test_equals_the_recursion(self, case):
        fn, poly, tol, order = VOLUME_CASES[case]
        value, err, unconverged, deepest = volume_oracle(case)
        counted_fn, calls = counted(fn, limit=100)
        res = integrate_polygon(counted_fn, poly, tol=tol, order=order)
        # bit for bit
        assert (res.value, res.error_estimate, res.unconverged) == (value, err, unconverged)
        assert res.segments_evaluated == len(triangulate(poly))
        # one integrand call per refinement level
        assert calls[0] == deepest + 1

    def test_levels_and_caps_are_exercised(self):
        _, _, unconverged, deepest = zip(*map(volume_oracle, range(len(VOLUME_CASES))))
        assert deepest[3] == 10 and unconverged[3] > 0
        assert sum(d >= 2 for d in deepest) >= 4

    @pytest.mark.parametrize("order", [1, 2, 8, 16])
    @pytest.mark.parametrize("fn", [
        lambda x: np.sin(3 * x[:, 0]) * np.exp(x[:, 1]),
        lambda x: np.exp(x)[:, 1],  # a strided view
    ])
    def test_rule_equals_one_triangle_at_a_time(self, order, fn):
        # the stacked matmul adds as wts @ vals does, triangle by triangle
        rng = np.random.default_rng(order)
        tris = rng.normal(size=(37, 3, 2))
        pts, wts = _duffy_rule(order)
        want = []
        for a, b, c in tris:
            phys = a + pts[:, :1] * (b - a) + pts[:, 1:] * (c - a)
            jac = abs((b - a)[0] * (c - a)[1] - (b - a)[1] * (c - a)[0])
            want.append(jac * float(wts @ fn(phys)))
        assert _tri_gauss(fn, tris, order).tolist() == want


def former_bump_gradient(poly, power):
    """The oracle: bump_from_polygon's former gradient, each edge's product
    of the other edges' factors taken by np.prod over np.delete.  Returns
    (gradient, the absolute sum of its edge addends), both (n, 2)."""
    verts = poly.vertices
    d = np.roll(verts, -1, axis=0) - verts
    N = np.stack([-d[:, 1], d[:, 0]], axis=1) / row_norms(d)[:, None]
    b = (N[:, None, :] @ verts[:, :, None])[:, 0, 0]
    norm_const = float(np.prod((N @ poly.centroid - b) ** power))

    def grad(x):
        L = x @ N.T - b
        P = L**power
        out = np.zeros_like(x)
        size = np.zeros_like(x)
        for e in range(len(verts)):
            rest = np.prod(np.delete(P, e, axis=1), axis=1)
            addend = (power * L[:, e] ** (power - 1) * rest)[:, None] * N[e]
            out += addend
            size += np.abs(addend)
        return out / norm_const, size / norm_const

    return grad


def former_axis_jacobian(basis, coeffs, profiles, shifts, scales):
    """The oracle: the former `ConservativeField.jacobian` of an axis field,
    an (n, 2, 2) sum of outer products.  Returns the Jacobian, the absolute
    sum of its addends, and the (n, 2) absolute sum of the field's addends."""
    active = (coeffs != 0.0) & (scales != 0.0)

    def jacobian(w):
        a = scales * (np.einsum("...l,kl->...k", w, basis) - shifts)
        out = np.zeros(a.shape[:-1] + (2, 2))
        size = np.zeros(a.shape[:-1] + (2, 2))
        g_size = np.zeros(a.shape[:-1] + (2,))
        for k in range(2):
            if active[k]:
                dk = coeffs[k] * scales[k] * profiles[k].deriv(a[..., k])
                addend = dk[..., None, None] * np.einsum("i,j->ij", basis[k], basis[k])
                out = out + addend
                size += np.abs(addend)
                g_size += np.abs(coeffs[k] * profiles[k].value(a[..., k]))[..., None] * np.abs(
                    basis[k])
        return out, size, g_size

    return jacobian


def former_volume_integrand(G, jacobian, bump, grad, piece, x):
    """The oracle: the IBP volume integrand as it was formed before the
    one-pass form, <G(y), grad phi> + (grad G(y) : e(u)) phi at y = u(x),
    from the field's values, an (n, 2, 2) Jacobian and the bump's gradient
    summed edge by edge.  Returns (value, the absolute sum of the addends
    that the value adds up)."""
    E = 0.5 * (piece.A + piece.A.T)
    y = piece(x)
    dphi, dphi_size = grad(x)
    J, J_size, g_size = jacobian(y)
    phi = bump.phi(x)
    out = np.einsum("nk,nk->n", G(y), dphi)
    out += np.einsum("nij,ij->n", J, E) * phi
    size = np.einsum("nk,nk->n", g_size, dphi_size) + np.einsum(
        "nij,ij->n", J_size, np.abs(E)) * np.abs(phi)
    return out, size


# the stated per-point bound of the one-pass volume integrand against the
# former form, in units of the absolute sum of the former form's addends
# (3 eps is the largest seen in 3000 random examples), plus the smallest
# normal number for addends that underflow
VOLUME_INTEGRAND_BOUND = 16 * np.finfo(float).eps
UNDERFLOW = np.finfo(float).tiny

PENTAGON = Polygon(np.c_[np.cos(np.arange(5) * 0.4 * np.pi), np.sin(np.arange(5) * 0.4 * np.pi)])


PROFILES = st.one_of(
    st.builds(sin_profile, st.floats(0.1, 2.0), st.floats(0.2, 5.0)),
    st.builds(eta_profile, st.floats(0.2, 2.0)),
    st.builds(tau_profile, st.floats(0.2, 2.0)),
)
# every profile with a mean
MEAN_PROFILES = st.one_of(PROFILES, st.just(abs_profile()), st.just(zero_profile()))


@st.composite
def axis_fields(draw, profile=PROFILES):
    """(field, former Jacobian) of a random axis field: an orthonormal basis,
    possibly a reflection, shifts, scales and coefficients, one profile per
    addend, and possibly one inactive addend (zero coefficient or scale)."""
    angle = draw(st.floats(0.0, 2.0 * np.pi))
    c, s = np.cos(angle), np.sin(angle)
    basis = np.array([[c, s], [-s, c]] if draw(st.booleans()) else [[c, s], [s, -c]])
    value = st.floats(-2.0, 2.0)
    coeffs = np.array([draw(value), draw(value)])
    shifts = np.array([draw(value), draw(value)])
    scales = np.array([draw(st.floats(0.2, 3.0)) * draw(st.sampled_from([-1.0, 1.0]))
                       for _ in range(2)])
    inactive = draw(st.sampled_from([None, (0, "coeff"), (1, "coeff"), (0, "scale"),
                                     (1, "scale")]))
    if inactive is not None:
        (coeffs if inactive[1] == "coeff" else scales)[inactive[0]] = 0.0
    profiles = (draw(profile), draw(profile))
    G = _axis_field(basis, coeffs, profiles, shifts=shifts, scales=scales)
    return G, former_axis_jacobian(basis, coeffs, profiles, shifts, scales)


class TestBump:
    def test_vanishes_on_boundary(self):
        poly = make_oriented_square(E2, 2.0)
        bump = bump_from_polygon(poly, power=2)
        for p, q in zip(poly.vertices, np.roll(poly.vertices, -1, axis=0)):
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
            weight, v = bump.log_grad(x)
            assert np.allclose(weight[0] * v[0], gfd, atol=1e-8)

    def test_normalized_at_centroid(self):
        poly = make_oriented_square(E2, 2.0)
        bump = bump_from_polygon(poly)
        assert float(bump.phi(poly.centroid)[0]) == pytest.approx(1.0)

    @pytest.mark.parametrize("power", [2, 3])
    @pytest.mark.parametrize("poly", [make_oriented_square(E2, 2.0), PENTAGON],
                             ids=["square", "pentagon"])
    def test_gradient_equals_the_former_delete_formula(self, poly, power):
        # phi * log_grad equals the former edge-by-edge gradient within the
        # stated bound of the absolute sum of its edge addends
        bump = bump_from_polygon(poly, power=power)
        rng = np.random.default_rng(power)
        # random interior points: convex combinations of the vertices
        w = rng.dirichlet(np.ones(len(poly)), size=500)
        x = w @ poly.vertices
        assert np.all(poly.contains(x) == 1)
        weight, v = bump.log_grad(x)
        assert np.array_equal(weight, bump.phi(x))
        want, size = former_bump_gradient(poly, power)(x)
        err = np.abs(weight[:, None] * v - want)
        assert np.all(err <= VOLUME_INTEGRAND_BOUND * size + UNDERFLOW)

    def test_non_convex_polygon_raises(self):
        # an L-shape: its centroid sees every edge line from inside, but the
        # bump of its edge lines would vanish inside it, along the notch's edges
        ell = Polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
        with pytest.raises(EnergyError, match="convex"):
            bump_from_polygon(ell)
        # a pentagram turns left at every vertex, but twice around: it is
        # not a Polygon, so it never reaches the bump
        a = np.pi / 2 + 0.8 * np.pi * np.arange(5)
        with pytest.raises(GeometryError, match="winds more than once"):
            bump_from_polygon(Polygon(np.stack([np.cos(a), np.sin(a)], axis=1)))
        # a straight turn is convex
        bump_from_polygon(Polygon([(0, 0), (1, 0), (2, 0), (2, 2), (0, 2)]))

    def test_log_grad_reads_zero_on_an_edge_line(self):
        poly = make_oriented_square(E2, 2.0)
        bump = bump_from_polygon(poly, power=2)
        weight, v = bump.log_grad(np.array([[-1.0, 0.3], [1.0, 1.0], [0.2, 0.1]]))
        assert weight[:2].tolist() == [0.0, 0.0] and v[:2].tolist() == [[0.0, 0.0]] * 2
        assert np.all(np.isfinite(v)) and weight[2] > 0.0


class TestOnePassVolumeIntegrand:
    """The volume integrand phi * G.strain(u, e(u), grad phi / phi) against
    the former form, `former_volume_integrand`."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(field=axis_fields(), A=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
           b=st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2),
           poly=st.sampled_from([make_oriented_square(E2, 2.0), PENTAGON]),
           power=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1))
    def test_within_the_stated_bound_of_the_former(self, field, A, b, poly, power, seed):
        G, jacobian = field
        piece = AffinePiece(np.reshape(A, (2, 2)), b)
        bump = bump_from_polygon(poly, power=power)
        # interior points: convex combinations of the vertices
        x = np.random.default_rng(seed).dirichlet(np.ones(len(poly)), size=64) @ poly.vertices
        weight, v = bump.log_grad(x)
        got = weight * G.strain(piece(x), 0.5 * (piece.A + piece.A.T), v)
        want, size = former_volume_integrand(G, jacobian, bump, former_bump_gradient(poly, power),
                                             piece, x)
        assert np.all(np.abs(got - want) <= VOLUME_INTEGRAND_BOUND * size + UNDERFLOW)

    def test_workload_residuals_within_1e_15_of_the_former(self):
        # the 32 integration-by-parts residuals of the identities benchmark at
        # seed 0 against those of the former integrand, on the same inputs
        from perfbench import workloads

        run = workloads.build("identities", 0, False, ".")[1].run
        inputs = dict(zip(run.__code__.co_freevars, (c.cell_contents for c in run.__closure__)))
        G = inputs["G"]
        assert G.name == "prototype"
        profiles = (sin_profile(0.9, 3.0), sin_profile(0.7, 4.0))
        jacobian = former_axis_jacobian(np.eye(2), np.ones(2), profiles, np.zeros(2), np.ones(2))
        # the oracle's parameters are the field's: equal traces of the Jacobian
        assert np.allclose(G.strain(np.eye(2), np.eye(2), np.zeros((2, 2))),
                           np.einsum("nii->n", jacobian(np.eye(2))[0]), rtol=1e-15, atol=0.0)
        dom = make_oriented_square(E2, 2.0)
        grads = [former_bump_gradient(dom, power) for power in (2, 3)]
        rows = run()
        assert len(rows) == 32
        for k, b, vo, got in rows:
            u, bump = inputs["functions"][k], inputs["bumps"][b]
            jump = integrate_jump_arrays(u.jump_segments(), G.pairing, 1e-9, {8: 15, 16: 30}[vo],
                                         kinks=G.trace_kinks, weight=bump.phi).value
            volume = 0.0
            for cell, piece in zip(u.partition.cells, u.pieces):
                volume += integrate_polygon(
                    lambda x: former_volume_integrand(G, jacobian, bump, grads[b], piece, x)[0],
                    cell, tol=1e-9, order=vo).value
            assert abs(got - abs(jump + volume)) <= 1e-15


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

    def test_requires_field_strain(self):
        u = elementary((1, 1), (0, 0), E2, 2.0)
        G = biconvex_truncated_field(np.eye(2), M=5.0)
        phi = bump_from_polygon(u.partition.domain, power=2)
        with pytest.raises(EnergyError, match="strain"):
            integration_by_parts_residual(u, dataclasses.replace(G, strain=None), phi)

    def test_unconverged_volume_quadrature_raises(self):
        # a field at frequency 3000 trips the volume width cap at once
        dom = make_oriented_square(E2, 2.0)
        u = PiecewiseAffine(PolygonalPartition([dom], dom),
                            [AffinePiece(np.diag([1.0, -1.0]), (0.1, -0.2))])
        G = prototype_field(np.eye(2), (sin_profile(1.0, 3000.0),) * 2)
        with pytest.raises(EnergyError, match="512 quadrature parts unconverged"):
            integration_by_parts_residual(u, G, bump_from_polygon(dom), tol=1e-9, volume_order=8)

    def test_unconverged_jump_term_raises(self):
        u = elementary((1, 1), (0, 0), E2, 2.0)
        G = biconvex_truncated_field(np.eye(2), M=5.0)
        phi = bump_from_polygon(u.partition.domain, power=2)
        capped = mock.patch("bdlab.energy.integrate_jump_arrays",
                            return_value=QuadratureResult(0.0, 1.0, 1, unconverged=1))
        with capped, pytest.raises(EnergyError, match="1 quadrature parts unconverged"):
            integration_by_parts_residual(u, G, phi, tol=1e-10)

    def test_requires_vanishing_phi(self):
        dom = make_oriented_square(E2, 2.0)
        small = make_oriented_square(E2, 1.0)
        u = elementary((1, 1), (0, 0), E2, 2.0)
        G = biconvex_truncated_field(np.eye(2), M=5.0)
        bad_phi = bump_from_polygon(small, power=2)  # does not vanish on dom boundary
        with pytest.raises(EnergyError):
            integration_by_parts_residual(u, G, bad_phi)

    def test_region_edge_off_the_bump_lines_raises(self):
        # a triangle domain: its vertices are corners of the bump's square,
        # where the bump vanishes, but its hypotenuse crosses the bump's
        # support, so the identity does not hold there (clipped to such a
        # triangle, it gave a residual of 0.197 that was not quadrature error)
        square = make_oriented_square(E2, 2.0)
        A = [[0.5, 0.2], [0.1, -0.3]]
        G = prototype_field(np.eye(2), (sin_profile(0.9, 3.0), sin_profile(0.7, 4.0)))
        phi = bump_from_polygon(square, power=2)
        triangle = Polygon([(-1, -1), (1, -1), (-1, 1)])
        assert np.all(phi.phi(triangle.vertices) == 0.0)
        u = PiecewiseAffine(PolygonalPartition([triangle], triangle), [AffinePiece(A, (0.0, 0.1))])
        with pytest.raises(EnergyError, match="vanish"):
            integration_by_parts_residual(u, G, phi)
        # the square's own edges, in any rotation of its vertex loop, pass
        turned = Polygon(square.vertices @ np.array([[0.0, -1.0], [1.0, 0.0]]).T)
        for dom in (square, turned, Polygon(np.roll(square.vertices, 1, axis=0))):
            u = PiecewiseAffine(PolygonalPartition([dom], dom), [AffinePiece(A, (0.0, 0.1))])
            assert integration_by_parts_residual(u, G, phi, tol=1e-10) < 1e-8

    def test_default_region_needs_cells_that_tile_the_domain(self):
        # a cell that leaves the domain: unclipped, the bump (positive again
        # outside the square) would weigh the part outside, and the
        # residual read 1.137 with no error
        dom = make_oriented_square(E2, 2.0)
        part = PolygonalPartition([Polygon([(-1, -1), (1.5, -1), (1.5, 1), (-1, 1)])], dom)
        assert not validate_partition(part).passed
        u = PiecewiseAffine(part, [AffinePiece([[0.5, 0.2], [0.1, -0.3]], (0.0, 0.1))])
        G = prototype_field(np.eye(2), (sin_profile(0.9, 3.0), sin_profile(0.7, 4.0)))
        phi = bump_from_polygon(dom)
        with pytest.raises(EnergyError, match="tile"):
            integration_by_parts_residual(u, G, phi, tol=1e-10)

    def test_region_equal_to_the_domain_passes(self):
        # a side-6 square insert rotated by 4.25 rad, integrated on its
        # oblique domain
        nu = np.array([np.cos(4.25), np.sin(4.25)])
        fam = default_families((0, 0), (2, 2), nu)[0]
        u = fam.generator(fam.suggestions[0])
        G = biconvex_truncated_field(np.eye(2), M=5.0)
        phi = bump_from_polygon(u.partition.domain)
        assert integration_by_parts_residual(u, G, phi, tol=1e-10) < 1e-8


def _old_region_calls():
    """Each energy function with a polygon where its `region` argument was,
    and with its options given by keyword."""
    u = elementary((1, 1), (0, 0), E2, 2.0)
    dom = u.partition.domain
    f, g = catalog_density("isotropic:id"), catalog_fields().fields[0]
    G = biconvex_truncated_field(np.eye(2), M=5.0)
    phi = bump_from_polygon(dom, power=2)
    return {
        "surface_energy": (lambda: surface_energy(u, f, dom),
                           lambda: surface_energy(u, f, tol=1e-10, order=15)),
        "jump_flux": (lambda: jump_flux(u, g, dom), lambda: jump_flux(u, g, tol=1e-10)),
        "symmetric_jump_measure": (lambda: symmetric_jump_measure(u, dom),
                                   lambda: symmetric_jump_measure(u)),
        "divergence_identity_residual": (
            lambda: divergence_identity_residual(u, u, g, dom),
            lambda: divergence_identity_residual(u, u, g, tol=1e-10, margin=1e-6)),
        "integration_by_parts_residual": (
            lambda: integration_by_parts_residual(u, G, phi, dom),
            lambda: integration_by_parts_residual(u, G, phi, tol=1e-9, volume_order=8,
                                                  line_order=15)),
    }


@pytest.mark.parametrize("name", list(_old_region_calls()))
def test_a_positional_region_raises(name):
    # the options are keyword-only: a polygon passed where the region was
    # cannot bind to tol and be ignored
    positional, keywords = _old_region_calls()[name]
    with pytest.raises(TypeError, match="positional argument"):
        positional()
    keywords()


# the closed-form flux against the quadrature at tol 1e-13, absolute: that
# tolerance, since the closed form is exact up to rounding (the worst of 6000
# random examples of this property's kind was 1.2e-14, on fluxes up to about
# 30 in size)
MEAN_FLUX_BOUND = 1e-13


@st.composite
def two_cell_affine(draw):
    """An affine function on the two halves of a side-2 square at a drawn
    normal, split at a drawn offset, with gradients of drawn scale."""
    angle = draw(st.floats(0.0, 2.0 * np.pi))
    R = frame_from_normal((np.cos(angle), np.sin(angle)))
    s = draw(st.floats(-0.8, 0.8))
    dom, bottom, top = (Polygon(np.array(loop, dtype=float) @ R.T) for loop in (
        [(-1, -1), (1, -1), (1, 1), (-1, 1)], [(-1, -1), (1, -1), (1, s), (-1, s)],
        [(-1, s), (1, s), (1, 1), (-1, 1)]))
    scale = 10.0 ** draw(st.floats(-9.0, 1.0))
    entry = st.floats(-1.0, 1.0)
    pieces = [AffinePiece(scale * np.reshape([draw(entry) for _ in range(4)], (2, 2)),
                          [draw(entry), draw(entry)]) for _ in range(2)]
    return PiecewiseAffine(PolygonalPartition([bottom, top], dom), pieces)


def mp_pairing(G_profiles, a, b, normal):
    """t -> <g(a + t b) - g(0), normal> for a prototype field on the
    standard basis, at mpmath precision."""
    def pairing(t):
        return sum(normal[k] * (p(a[k] + t * b[k]) - p(0)) for k, p in enumerate(G_profiles))
    return pairing


class TestMeanFlux:
    """Fields with an interval mean integrate their flux in closed form."""

    def test_catalog_fields_take_the_closed_form(self):
        u = counterexample1_competitor(1.0)
        for g in catalog_fields().fields:
            assert g.interval_mean is not None
            kinks, calls = counted(g.trace_kinks, limit=2)
            res = jump_flux(u, dataclasses.replace(g, trace_kinks=kinks), tol=1e-3)
            assert calls[0] == 2  # one call per trace side: no refinement
            assert (res.error_estimate, res.unconverged) == (0.0, 0)
            assert res.segments_evaluated == len(u.jump_segments())

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(field=axis_fields(MEAN_PROFILES), u=two_cell_affine())
    def test_equals_the_quadrature(self, field, u):
        G, _ = field
        assert G.interval_mean is not None
        closed = jump_flux(u, G)
        quad = integrate_jump_arrays(u.jump_segments(), G.pairing, 1e-13, 15, kinks=G.trace_kinks)
        assert quad.unconverged == 0
        assert (closed.error_estimate, closed.unconverged) == (0.0, 0)
        assert closed.segments_evaluated == quad.segments_evaluated
        assert abs(closed.value - quad.value) <= MEAN_FLUX_BOUND

    def test_sin_trace_of_small_slope_against_mpmath(self):
        # the profile arguments move by 1e-12 along the piece: the mean's
        # half-width factor sin(w h) / (w h) must not cancel
        profiles = (sin_profile(0.8, 2.0), sin_profile(0.5, 3.0))
        G = prototype_field(np.eye(2), profiles)
        a, b, nu = np.array([0.3, -0.7]), 1e-12 * np.array([0.6, 0.8]), np.array([0.6, 0.8])
        res = _mean_flux(one_row(a, b, nu, 0.25, 1.75), G)
        with mpmath.workdps(30):
            mp = [lambda x, amp=mpmath.mpf(0.8), w=2: amp * mpmath.sin(w * x),
                  lambda x, amp=mpmath.mpf(0.5), w=3: amp * mpmath.sin(w * x)]
            f = mp_pairing(mp, [mpmath.mpf(float(x)) for x in a],
                           [mpmath.mpf(float(x)) for x in b], [mpmath.mpf(float(x)) for x in nu])
            want = mpmath.quad(f, [mpmath.mpf(0.25), mpmath.mpf(1.75)])
            assert abs(mpmath.mpf(res.value) - want) <= 4 * np.finfo(float).eps * abs(want)

    def test_kink_one_ulp_inside_against_mpmath(self):
        # the first addend's argument crosses the eta kink at 0 one ulp after
        # t0 = 1, and its kink at 1 inside the piece
        G = prototype_field(np.eye(2), (eta_profile(1.0), eta_profile(1.0)))
        after = np.nextafter(1.0, 2.0)
        a, b, nu = np.array([-after, 0.1]), np.array([1.0, 0.25]), np.array([0.6, 0.8])
        jumps = one_row(a, b, nu, 1.0, 3.0)
        lo, _, _ = _cuts(jumps, slice(None), G.trace_kinks)
        assert lo.tolist() == [1.0, after, 1.0 + after]
        res = _mean_flux(jumps, G)
        with mpmath.workdps(30):
            mp = [lambda x: min(abs(x), 1)] * 2
            f = mp_pairing(mp, [mpmath.mpf(float(x)) for x in a],
                           [mpmath.mpf(float(x)) for x in b], [mpmath.mpf(float(x)) for x in nu])
            cuts = [mpmath.mpf(1), mpmath.mpf(float(after)), 1 + mpmath.mpf(float(after)),
                    mpmath.mpf(3)]
            want = mpmath.quad(f, cuts)
            assert abs(mpmath.mpf(res.value) - want) <= 4 * np.finfo(float).eps * abs(want)

    def test_steep_trace_against_mpmath(self):
        # a steep trace that starts far out crosses the eta kinks where
        # rounding places the cuts and the arguments at them a few ulps of
        # 100 off: the midpoint mean moves to second order (within 0.9 eps
        # of mpmath in these cases), where a trapezoid would take an end's
        # value across a kink for a whole interval (up to 27 eps)
        G = prototype_field(np.eye(2), (eta_profile(1.0), eta_profile(1.0)))
        rng = np.random.default_rng(0)
        nu = np.array([0.6, 0.8])
        for _ in range(20):
            slope, at = rng.uniform(50.0, 200.0) * rng.choice([-1.0, 1.0]), rng.uniform(0.3, 1.7)
            a = np.array([-slope * at + rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)])
            b = np.array([slope, 0.0])
            res = _mean_flux(one_row(a, b, nu, 0.0, 2.0), G)
            with mpmath.workdps(30):
                mp_a, mp_b = ([mpmath.mpf(float(x)) for x in v] for v in (a, b))
                f = mp_pairing([lambda x: min(abs(x), 1)] * 2, mp_a, mp_b,
                               [mpmath.mpf(float(x)) for x in nu])
                kinks = ((c - mp_a[0]) / mp_b[0] for c in (-1, 0, 1))
                want = mpmath.quad(f, sorted([mpmath.mpf(0), mpmath.mpf(2)]
                                             + [t for t in kinks if 0 < t < 2]))
                assert abs(mpmath.mpf(res.value) - want) <= 4 * np.finfo(float).eps * abs(want)

    def test_zero_length_and_non_finite(self):
        g = catalog_fields().fields[4]
        jumps = elementary().jump_segments()
        for pieces in (jumps.take([]), jumps.take([0], [0.3], [0.3])):
            assert _mean_flux(pieces, g) == QuadratureResult(0.0, 0.0, 0, 0)
        nan = dataclasses.replace(eta_profile(1.0), mean=lambda x0, x1: np.full_like(x0, np.nan))
        with pytest.raises(EnergyError):
            jump_flux(elementary(), prototype_field(np.eye(2), (nan, nan)))

    def test_a_profile_without_a_mean_takes_the_kernel(self):
        plain = dataclasses.replace(sin_profile(0.8, 2.0), mean=None)
        G = prototype_field(np.eye(2), (plain, sin_profile(0.5, 3.0)))
        assert G.interval_mean is None
        u = elementary((1.0, 0.5), (0.0, 0.0))
        res = jump_flux(u, G, tol=1e-12)
        assert res.value == integrate_jump_arrays(u.jump_segments(), G.pairing, 1e-12, 15,
                                                  kinks=G.trace_kinks).value
        # an inactive addend needs no mean
        masked = _axis_field(np.eye(2), np.array([0.0, 1.0]), (plain, sin_profile(0.5, 3.0)))
        assert masked.interval_mean is not None
