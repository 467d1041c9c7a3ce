import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdlab.ellipticity import default_families
from bdlab.functions import (
    AffinePiece,
    FunctionError,
    JumpArrays,
    PiecewiseAffine,
    PiecewiseRigid,
    compact_deviation,
    constant_piece,
    jump_arrays,
    make_elementary,
    rigid_piece,
    skew2,
)
from bdlab.geometry import (
    OrientedSquare,
    Polygon,
    PolygonalPartition,
    frame_from_normal,
    make_oriented_square,
    row_norms,
    unit,
)

E2 = np.array([0.0, 1.0])


def plus(jumps, k, t):
    """The plus trace of row k of a jump set at arclength t."""
    return jumps.plus_value0[k] + t * jumps.plus_slope[k]


def minus(jumps, k, t):
    return jumps.minus_value0[k] + t * jumps.minus_slope[k]


def _single_piece(piece, side=2.0):
    dom = make_oriented_square(E2, side)
    return PiecewiseRigid(PolygonalPartition([dom], dom), [piece])


class TestEval:
    def test_constant_piece(self):
        u = _single_piece(rigid_piece(0.0, (1.0, 2.0)), side=2.0)
        assert np.allclose(u.eval((0.3, 0.7)), (1.0, 2.0))

    def test_rotational_piece_bottom_edge(self):
        # piece omega=1, b=(1,1): value at (t,-1) is (0, 1-t)
        u = _single_piece(rigid_piece(1.0, (1.0, 1.0)), side=2.0)
        assert np.allclose(u.eval((0.0, -1.0)), (0.0, 1.0), atol=1e-14)
        assert np.allclose(u.eval((0.5, -1.0)), (0.0, 0.5), atol=1e-14)

    def test_rotational_piece_top_edge(self):
        # value at (t,1) is (2, 1-t)
        u = _single_piece(rigid_piece(1.0, (1.0, 1.0)), side=2.0)
        assert np.allclose(u.eval((0.0, 1.0)), (2.0, 1.0), atol=1e-14)

    def test_outside_domain_raises(self):
        u = _single_piece(rigid_piece(0.0, (1.0, 2.0)))
        with pytest.raises(Exception):
            u.eval((10.0, 10.0))

    def test_affine_on_cells(self):
        rng = np.random.default_rng(5)
        dom = make_oriented_square(E2, 2.0)
        part = PolygonalPartition([dom], dom)
        u = PiecewiseAffine(part, [AffinePiece(rng.normal(size=(2, 2)), rng.normal(size=2))])
        for _ in range(50):
            x, y = rng.uniform(-0.9, 0.9, size=2), rng.uniform(-0.9, 0.9, size=2)
            mid = 0.5 * (x + y)
            assert np.allclose(u.eval(mid), 0.5 * (u.eval(x) + u.eval(y)), atol=1e-12)


class TestSymmetrizedGradient:
    def test_rigid_piece_is_exactly_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            u = _single_piece(rigid_piece(rng.normal(), rng.normal(size=2)))
            assert np.array_equal(u.symmetrized_gradient(0), np.zeros((2, 2)))

    def test_identity(self):
        u = PiecewiseAffine(
            _single_piece(constant_piece((0, 0))).partition, [AffinePiece(np.eye(2), (0, 0))]
        )
        assert np.array_equal(u.symmetrized_gradient(0), np.eye(2))

    def test_shear(self):
        u = PiecewiseAffine(
            _single_piece(constant_piece((0, 0))).partition,
            [AffinePiece([[0, 2], [0, 0]], (0, 0))],
        )
        assert np.array_equal(u.symmetrized_gradient(0), [[0, 1], [1, 0]])

    def test_rigid_class_rejects_non_skew(self):
        part = _single_piece(constant_piece((0, 0))).partition
        with pytest.raises(FunctionError):
            PiecewiseRigid(part, [AffinePiece(np.eye(2), (0, 0))])


class TestElementary:
    def test_basic_jump(self):
        u = make_elementary((1, 0), (0, 0), E2, OrientedSquare(E2, 1.0, (0, 0)))
        j = u.jump_segments()
        assert len(j) == 1
        assert j.t1[0] == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(plus(j, 0, 0.3), (1, 0))
        assert np.allclose(minus(j, 0, 0.3), (0, 0))
        assert np.allclose(j.normal[0], E2)

    def test_equal_values_rejected(self):
        with pytest.raises(FunctionError):
            make_elementary((1, 1), (1, 1), E2, OrientedSquare(E2, 1.0, (0, 0)))

    def test_q6_interface_length(self):
        u = make_elementary((0, 0), (2, 2), E2, OrientedSquare(E2, 6.0, (0, 0)))
        assert sum(u.jump_segments().t1.tolist()) == pytest.approx(6.0, abs=1e-12)

    def test_minus_side_swaps_traces(self):
        u = make_elementary((1, 0), (0, 0), E2, OrientedSquare(E2, 1.0, (0, 0)), i_side="minus")
        j = u.jump_segments()
        assert np.allclose(plus(j, 0, 0.0), (0, 0))
        assert np.allclose(minus(j, 0, 0.0), (1, 0))

    def test_nu_must_match_square_normal(self):
        with pytest.raises(FunctionError):
            make_elementary((1, 0), (0, 0), (1, 0), OrientedSquare(E2, 1.0, (0, 0)))

    def test_unit_length_for_random_normals(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            phi = rng.uniform(0, 2 * np.pi)
            nu = np.array([np.cos(phi), np.sin(phi)])
            u = make_elementary((1, 2), (0, 0), nu, OrientedSquare(nu, 1.0, (0, 0)))
            assert sum(u.jump_segments().t1.tolist()) == pytest.approx(1.0, abs=1e-12)


def jump_segments_by_interface(u):
    """The jump rule one interface at a time, in Python floats, which round
    each operation and fuse none: (a, normal, plus value0, plus slope,
    minus value0, minus slope, direction, length) per kept interface."""
    out = []
    itf = u.partition.interfaces
    for a, b, normal, l, r in zip(itf.a, itf.b, itf.normal, itf.left, itf.right):
        left, right = u.pieces[l], u.pieces[r]
        if np.array_equal(left.A, right.A) and np.array_equal(left.b, right.b):
            continue
        (ax, ay), (bx, by) = a.tolist(), b.tolist()
        vx, vy = bx - ax, by - ay
        L = math.sqrt(vx * vx + vy * vy)
        dx, dy = vx / L, vy / L

        def value0(p):
            (A0, A1), c = p.A.tolist(), p.b.tolist()
            return np.array([(A0[0] * ax + A0[1] * ay) + c[0], (A1[0] * ax + A1[1] * ay) + c[1]])

        def slope(p):
            A0, A1 = p.A.tolist()
            return np.array([A0[0] * dx + A0[1] * dy, A1[0] * dx + A1[1] * dy])

        pv0, mv0, ps, ms = value0(left), value0(right), slope(left), slope(right)
        probes = np.array([0.0, 0.5 * L, L])
        plus = pv0 + probes[:, None] * ps
        minus = mv0 + probes[:, None] * ms
        if np.array_equal(plus, minus):
            continue
        out.append((a, normal, pv0, ps, mv0, ms, (dx, dy), L))
    return out


class TestJumpSegments:
    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(
        family=st.integers(0, 3),
        angle=st.floats(0.0, 2.0 * np.pi),
        unit_params=st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8),
    )
    def test_batched_rule_matches_interface_loop(self, family, angle, unit_params):
        fam = default_families((0.0, 0.0), (2.0, 2.0), (np.cos(angle), np.sin(angle)))[family]
        u = fam.generator([lo + t * (hi - lo) for t, (lo, hi) in zip(unit_params, fam.bounds)])
        want = jump_segments_by_interface(u)
        got = u.jump_segments()
        assert len(got) == len(want) > 0
        for k, row in enumerate(want):
            fields = (got.a, got.normal, got.plus_value0, got.plus_slope,
                      got.minus_value0, got.minus_slope, got.direction, got.t1)
            assert all(np.array_equal(x[k], y) for x, y in zip(fields, row))

    def test_identical_pieces_dropped(self):
        dom = make_oriented_square(E2, 2.0)
        bottom = Polygon([(-1, -1), (1, -1), (1, 0), (-1, 0)])
        top = Polygon([(-1, 0), (1, 0), (1, 1), (-1, 1)])
        part = PolygonalPartition([bottom, top], dom)
        u = PiecewiseRigid(part, [rigid_piece(0.5, (1, 2))] * 2)
        jumps = u.jump_segments()
        assert len(jumps) == 0
        assert jumps.a.shape == jumps.plus_slope.shape == (0, 2)

    def test_no_interfaces_give_empty_rows(self):
        jumps = _single_piece(rigid_piece(1.0, (1.0, 1.0))).jump_segments()
        assert len(jumps) == 0
        assert jumps.b.shape == jumps.minus_value0.shape == (0, 2)

    def test_coincidence_line_dropped(self):
        # distinct maps that agree exactly along the shared edge y=0: both
        # have first column (0, -w) and b=0, so (t, 0) maps to (0, -w t)
        dom = make_oriented_square(E2, 2.0)
        bottom = Polygon([(-1, -1), (1, -1), (1, 0), (-1, 0)])
        top = Polygon([(-1, 0), (1, 0), (1, 1), (-1, 1)])
        part = PolygonalPartition([bottom, top], dom)
        w = 0.7
        p1 = AffinePiece(skew2(w), (0.0, 0.0))
        p2 = AffinePiece(np.array([[0.0, 0.0], [-w, 0.0]]), (0.0, 0.0))
        u = PiecewiseAffine(part, [p1, p2])
        assert len(u.jump_segments()) == 0


def former_traces(a, b, left, right):
    """(L, d, pv0, ps, mv0, ms) of jump_arrays as it was computed with
    stacked BLAS products: row_norms, and four (n, 1, 2) @ (n, 2, 2)
    matmuls."""
    (Al, cl), (Ar, cr) = left, right
    v = b - a
    L = row_norms(v)
    d = v / L[:, None]
    pv0 = (a[:, None, :] @ np.swapaxes(Al, 1, 2))[:, 0] + cl
    mv0 = (a[:, None, :] @ np.swapaxes(Ar, 1, 2))[:, 0] + cr
    ps = (Al @ d[:, :, None])[..., 0]
    ms = (Ar @ d[:, :, None])[..., 0]
    return L, d, pv0, ps, mv0, ms


def former_jump_arrays(a, b, normal, left, right):
    """jump_arrays on the stacked products of former_traces, with its exact
    drop rule on the component-major (2, n) traces."""
    L, d, pv0, ps, mv0, ms = former_traces(a, b, left, right)
    P0, PS, M0, MS = pv0.T, ps.T, mv0.T, ms.T
    differ = P0 != M0
    for t in (0.5 * L, L):
        differ |= P0 + t * PS != M0 + t * MS
    keep = np.flatnonzero(differ[0] | differ[1])
    jumps = JumpArrays(
        a[keep], b[keep], d[keep], normal[keep], pv0[keep], ps[keep], mv0[keep], ms[keep],
        np.zeros(keep.size), L[keep],
    )
    return jumps, keep


def stacked_drop_test(a, b, left, right):
    """The rows jump_arrays keeps, by comparing stacked (n, 3, 2) traces at
    the start, the midpoint and the end with != and reducing over both
    axes: the plain form of the rule, on former_traces."""
    L, _, pv0, ps, mv0, ms = former_traces(a, b, left, right)
    probes = np.stack([np.zeros_like(L), 0.5 * L, L], axis=1)[..., None]
    plus = pv0[:, None, :] + probes * ps[:, None, :]
    minus = mv0[:, None, :] + probes * ms[:, None, :]
    return np.flatnonzero(np.any(plus != minus, axis=(1, 2)))


# the kinds of drop_test_case's rows, and whether jump_arrays keeps each
KINDS = {"distinct-maps": True, "equal-maps-signed-zeros": False, "one-ulp-change-of-c": True,
         "distinct-rigid-maps": True, "exact-affine-agreement": False, "non-finite-entry": True}


def drop_test_case(rng, n):
    """Arguments of jump_arrays for n planar interfaces, and the kind of
    each row, an index into KINDS: distinct maps; equal maps up to the sign
    of their zeros; equal maps but for one ulp of one entry of c, the
    interface starting at 0 so that the traces there are c; distinct rigid
    maps; distinct affine maps that agree along an axis-parallel interface,
    on integers times a power of two, so every trace is exact; a
    non-finite entry in one of the maps."""
    mag = 10.0 ** rng.integers(-6, 7, size=(n, 1))
    a = rng.normal(size=(n, 2)) * mag
    b = a + rng.normal(size=(n, 2)) * mag
    normal = rng.normal(size=(n, 2))
    Al = rng.normal(size=(n, 2, 2)) * mag[:, :, None]
    cl = rng.normal(size=(n, 2)) * mag
    Al[rng.random(Al.shape) < 0.3] = 0.0
    cl[rng.random(cl.shape) < 0.3] = -0.0
    Ar = np.where(Al == 0.0, -Al, Al)
    cr = np.where(cl == 0.0, -cl, cl)
    kind = rng.integers(0, len(KINDS), size=n)
    for k in range(n):
        if kind[k] == 0:
            Ar[k] = rng.normal(size=(2, 2)) * mag[k]
        elif kind[k] == 2:
            a[k] = 0.0
            cl[k] = cr[k] = rng.normal(size=2) * mag[k]
            e = rng.integers(2)
            cr[k, e] = np.nextafter(cr[k, e], rng.choice([-np.inf, np.inf]))
        elif kind[k] == 3:
            (wl, wr), (cl[k], cr[k]) = rng.normal(size=2), rng.normal(size=(2, 2)) * mag[k]
            Al[k], Ar[k] = skew2(wl), skew2(wr)
        elif kind[k] == 4:
            # Ar = Al + w x^T with x orthogonal to b - a, and cr = cl - w <x, a>
            s = 2.0 ** rng.integers(-30, 31)
            t = np.eye(2)[rng.integers(2)] * rng.choice([-1.0, 1.0])
            x = np.array([t[1], -t[0]]) * rng.integers(1, 9)
            a[k] = rng.integers(-99, 100, size=2) * s
            b[k] = a[k] + rng.integers(1, 99) * s * t
            Al[k] = rng.integers(-9, 10, size=(2, 2))
            cl[k] = rng.integers(-99, 100, size=2) * s
            w = rng.integers(-9, 10, size=2)
            Ar[k] = Al[k] + np.outer(w, x)
            cr[k] = cl[k] - w * (x @ a[k])
        elif kind[k] == 5:
            M = (Al, cl, Ar, cr)[rng.integers(4)][k]
            M.flat[rng.integers(M.size)] = rng.choice([np.inf, -np.inf, np.nan])
    return (a, b, normal, (Al, cl), (Ar, cr)), kind


class TestDropTest:
    """jump_arrays compares the traces component by component on (2, n)
    arrays; the stacked comparison is the oracle, and the kept rows must be
    the same."""

    @staticmethod
    def kept(args):
        a, b, normal, left, right = args
        with np.errstate(all="ignore"):  # the non-finite rows
            want = stacked_drop_test(a, b, left, right)
            jumps, got = jump_arrays(a, b, normal, left, right)
        assert len(jumps) == len(got)
        return got, want

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 40))
    def test_keeps_the_stacked_rows(self, seed, n):
        args, _ = drop_test_case(np.random.default_rng(seed), n)
        got, want = self.kept(args)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("name", KINDS)
    def test_rows_of_each_kind(self, name):
        args, kind = drop_test_case(np.random.default_rng(23), 2000)
        got, want = self.kept(args)
        assert np.array_equal(got, want)
        rows = kind == list(KINDS).index(name)
        assert rows.sum() > 100
        assert (np.isin(np.flatnonzero(rows), got) == KINDS[name]).all()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_no_rows(self, n):
        # no interface at all, and n interfaces with the same map on both sides
        args, _ = drop_test_case(np.random.default_rng(0), 0)
        got, want = self.kept(args)
        assert got.shape == want.shape == (0,)
        (a, b, normal, left, _), _ = drop_test_case(np.random.default_rng(n), n)
        got, want = self.kept((a, b, normal, left, left))
        assert got.shape == want.shape == (0,)


# the kinds of former_case's rows
FORMER_KINDS = ("distinct-affine", "distinct-rigid", "equal-maps", "nan-entry")


def former_case(rng, n):
    """Arguments of jump_arrays for n interfaces, coordinates, lengths and
    map entries scaled from 1e-6 to 1e6, and the kind of each row, an index
    into FORMER_KINDS: distinct affine maps, distinct rigid maps, one affine
    map on both sides, and a NaN in an end point or a map."""
    def scale():
        return 10.0 ** rng.uniform(-6.0, 6.0, size=(n, 1))

    a = rng.normal(size=(n, 2)) * scale()
    b = a + rng.normal(size=(n, 2)) * scale()
    normal = rng.normal(size=(n, 2))
    m = scale()
    Al, Ar = (rng.normal(size=(n, 2, 2)) * m[:, :, None] for _ in range(2))
    cl, cr = (rng.normal(size=(n, 2)) * scale() for _ in range(2))
    kind = rng.integers(0, len(FORMER_KINDS), size=n)
    for k in range(n):
        if kind[k] == 1:
            Al[k], Ar[k] = (skew2(w) for w in rng.normal(size=2) * m[k])
        elif kind[k] == 2:
            Ar[k], cr[k] = Al[k], cl[k]
        elif kind[k] == 3:
            M = (a, b, Al, cl, Ar, cr)[rng.integers(6)][k]
            M.flat[rng.integers(M.size)] = np.nan
    return (a, b, normal, (Al, cl), (Ar, cr)), kind


def within(got, want, bound):
    """got is want within bound, or NaN where want is."""
    return bool(((np.abs(got - want) <= bound) | (np.isnan(got) & np.isnan(want))).all())


class TestFormerForm:
    """jump_arrays computes on x and y columns; its former stacked-product
    form, former_jump_arrays, may round a row with an FMA.  The two agree
    within the bound jump_arrays states."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40))
    def test_within_the_stated_bound(self, seed, n):
        args, kind = former_case(np.random.default_rng(seed), n)
        a, _, _, left, right = args
        got, rows = jump_arrays(*args)
        want, former_rows = former_jump_arrays(*args)
        # equal or rigid maps on both sides, and NaN rows, keep the same rows
        same = np.flatnonzero(kind != 0)
        assert np.array_equal(np.isin(same, rows), np.isin(same, former_rows))
        assert np.array_equal(np.isin(same, rows), kind[same] != 2)
        common, i, j = np.intersect1d(rows, former_rows, return_indices=True)
        got, want = got.take(i), want.take(j)
        for name in ("a", "b", "normal", "t0"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        eps = np.finfo(float).eps
        assert within(got.t1, want.t1, 2 * eps * want.t1)
        assert within(got.direction, want.direction, 2 * eps)
        for (A, c), value0, slope in ((left, "plus_value0", "plus_slope"),
                                      (right, "minus_value0", "minus_slope")):
            A, c = A[common], c[common]
            for x, name, offset in ((a[common], value0, c), (want.direction, slope, 0.0)):
                size = np.abs(A[:, :, 0] * x[:, :1]) + np.abs(A[:, :, 1] * x[:, 1:])
                assert within(getattr(got, name), getattr(want, name),
                              4 * eps * (size + np.abs(offset)))

    def test_rows_of_each_kind(self):
        args, kind = former_case(np.random.default_rng(29), 4000)
        _, rows = jump_arrays(*args)
        _, former_rows = former_jump_arrays(*args)
        assert np.array_equal(rows, former_rows)
        assert (np.bincount(kind) > 900).all()


class TestFrameProduct:
    """A search round turns every vertex of a batch by every frame of the
    round in one 2-D matmul on the stacked vertices; its equality with
    jump_square, bit for bit, rests on that product giving each row, in the
    columns of a frame, what one cell's `vertices @ R.T` gives it."""

    def test_stacked_matmul_equals_per_cell(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            R = frame_from_normal(unit(rng.normal(size=2)))
            cells = [rng.normal(size=(rng.integers(3, 21), 2)) * 10.0 ** rng.integers(-6, 7)
                     for _ in range(rng.integers(1, 300))]
            per_cell = np.concatenate([c @ R.T for c in cells])
            assert (np.concatenate(cells) @ R.T).tobytes() == per_cell.tobytes()

    @pytest.mark.parametrize("family", range(4))
    def test_placed_vertices_are_jump_square_vertices(self, family):
        rng = np.random.default_rng([19, family])
        # the bounds scale with the side
        fam = default_families((0.0, 0.0), (2.0, 2.0), unit(rng.normal(size=2)),
                               side=rng.uniform(0.5, 50.0))[family]
        lo, hi = np.array(fam.bounds).T
        P = lo + rng.uniform(size=(20, lo.size)) * (hi - lo)
        vertices = fam.layout(P, fam.side)[0]
        # the family's frame among three others, as a round holds them
        frames = [frame_from_normal(unit(rng.normal(size=2))) for _ in range(3)]
        frames.insert(1, fam.frame)
        turned = vertices.reshape(-1, 2) @ np.concatenate([R.T for R in frames], axis=1)
        placed = turned[:, 2:4].copy().reshape(vertices.shape)
        for params, W in zip(P, placed):
            cells = fam.generator(params).partition.cells
            assert np.concatenate([c.vertices for c in cells]).tobytes() == W.tobytes()


class TestCompactDeviation:
    def test_equal_functions(self):
        u = make_elementary((1, 0), (0, 0), E2, OrientedSquare(E2, 6.0, (0, 0)))
        assert compact_deviation(u, u, margin=100.0)

    def test_boundary_touching_cell(self):
        dom = make_oriented_square(E2, 2.0)
        bottom = Polygon([(-1, -1), (1, -1), (1, 0), (-1, 0)])
        top = Polygon([(-1, 0), (1, 0), (1, 1), (-1, 1)])
        part = PolygonalPartition([bottom, top], dom)
        u = PiecewiseRigid(part, [constant_piece((0, 0)), constant_piece((1, 1))])
        ref = make_elementary((9, 9), (8, 8), E2, OrientedSquare(E2, 2.0, (0, 0)))
        assert not compact_deviation(u, ref, margin=0.1)


class TestScaling:
    def test_values_preserved_lengths_scaled(self):
        u = make_elementary((1, 0), (0, 0), E2, OrientedSquare(E2, 6.0, (0, 0)))
        v = u.scaled(1.0 / 6.0)
        assert v.partition.domain.area == pytest.approx(1.0, rel=1e-12)
        assert sum(v.jump_segments().t1.tolist()) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(plus(v.jump_segments(), 0, 0.1), (1, 0))

    def test_rigid_scaling_stays_rigid(self):
        u = _single_piece(rigid_piece(1.0, (1.0, 1.0)))
        v = u.scaled(0.5)
        assert isinstance(v, PiecewiseRigid)
        assert v.pieces[0].rigid
        # same values at corresponding points: v(s x) == u(x)
        x = np.array((0.3, -0.4))
        assert np.allclose(v.eval(0.5 * x), u.eval(x))


class TestJson:
    def test_round_trip(self):
        u = make_elementary((1, 0), (0, 0), E2, OrientedSquare(E2, 1.0, (0, 0)))
        data = u.to_json()
        back = PiecewiseRigid.from_json(data)
        assert all(np.array_equal(p1.A, p2.A) and np.array_equal(p1.b, p2.b)
                   for p1, p2 in zip(u.pieces, back.pieces))
        for c1, c2 in zip(u.partition.cells, back.partition.cells):
            assert np.array_equal(c1.vertices, c2.vertices)

    def test_rigid_piece_serializes_omega(self):
        p = rigid_piece(0.25, (1, 2))
        assert p.to_json() == {"omega": 0.25, "b": [1.0, 2.0]}
