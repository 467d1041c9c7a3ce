import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdlab.geometry import (
    MATCH_TOL,
    GeometryError,
    Polygon,
    PolygonalPartition,
    _bbox_disjoint,
    _merge_intervals,
    _overlap_span,
    clip_polygon,
    clip_segment_params,
    extract_interfaces,
    make_oriented_square,
    polygon_overlap_area,
    signed_area,
    triangulate,
    unit,
    validate_partition,
)


def _vertex_set_match(poly, expected, tol=1e-12):
    got = {tuple(np.round(v, 9)) for v in poly.vertices}
    want = {tuple(np.round(np.asarray(v, float), 9)) for v in expected}
    assert got == want


class TestOrientedSquare:
    def test_axis_aligned_unit_square(self):
        sq = make_oriented_square((0, 1), 1.0, (0, 0))
        _vertex_set_match(sq, [(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)])

    def test_quarter_turn_is_same_square(self):
        sq = make_oriented_square((1, 0), 2.0, (0, 0))
        _vertex_set_match(sq, [(-1, -1), (1, -1), (1, 1), (-1, 1)])

    def test_diagonal_normal(self):
        s = 1 / np.sqrt(2)
        sq = make_oriented_square((s, s), 1.0, (0, 0))
        _vertex_set_match(sq, [(-s, 0), (s, 0), (0, -s), (0, s)])

    def test_rejects_non_unit_normal(self):
        with pytest.raises(GeometryError):
            make_oriented_square((0, 2), 1.0)

    def test_rejects_nonpositive_side(self):
        with pytest.raises(GeometryError):
            make_oriented_square((0, 1), 0.0)

    def test_area_is_side_squared_for_random_normals(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            phi = rng.uniform(0, 2 * np.pi)
            rho = rng.uniform(0.1, 5.0)
            sq = make_oriented_square((np.cos(phi), np.sin(phi)), rho)
            assert abs(sq.area - rho * rho) <= 1e-12 * rho * rho


class TestPolygon:
    def test_rejects_clockwise(self):
        with pytest.raises(GeometryError):
            Polygon([(0, 0), (0, 1), (1, 1), (1, 0)])

    def test_rejects_repeated_vertices(self):
        with pytest.raises(GeometryError):
            Polygon([(0, 0), (0, 0), (1, 0), (1, 1)])

    def test_contains(self):
        p = Polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
        assert p.contains((1, 1)) == 1
        assert p.contains((2, 1)) == 0
        assert p.contains((3, 1)) == -1

    def test_contains_broadcasts(self):
        p = Polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
        x = np.array([[[0.5, 0.5], [2.0, 0.5], [1.5, 1.5]], [[1.0, 1.5], [0.5, 1.9], [3.0, 3.0]]])
        side = p.contains(x)
        assert side.shape == (2, 3)
        assert side.tolist() == [[1, 0, -1], [0, 1, -1]]
        assert side.tolist() == [[int(p.contains(q)) for q in row] for row in x]
        dist = p.boundary_distance(x)
        assert dist.shape == (2, 3)
        assert dist.tolist() == [[float(p.boundary_distance(q)) for q in row] for row in x]
        with pytest.raises(GeometryError):
            p.contains([[0.5, np.nan]])

    def test_centroid(self):
        p = Polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
        assert np.allclose(p.centroid, (1, 1))


class TestTriangulate:
    def test_unit_square(self):
        tris = triangulate(Polygon([(0, 0), (1, 0), (1, 1), (0, 1)]))
        assert len(tris) == 2
        assert abs(sum(signed_area(t) for t in tris) - 1.0) <= 1e-12

    def test_convex_pentagon_fan(self):
        ang = np.linspace(0, 2 * np.pi, 6)[:-1]
        poly = Polygon(np.c_[np.cos(ang), np.sin(ang)])
        tris = triangulate(poly)
        assert len(tris) == 3
        assert abs(sum(signed_area(t) for t in tris) - poly.area) <= 1e-12 * poly.area

    def test_l_shaped_hexagon(self):
        # explicit L-shape; the ear-clipping oracle must give 4 triangles
        poly = Polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
        tris = triangulate(poly)
        assert len(tris) == 4
        assert abs(sum(signed_area(t) for t in tris) - poly.area) <= 1e-12 * poly.area
        # coverage cross-check: random points agree with polygon membership
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = rng.uniform(0, 2, size=2)
            if poly.boundary_distance(x) < 1e-6:
                continue
            in_tris = 0
            for t in tris:
                if Polygon(t).contains(x, tol=0.0) >= 0:
                    in_tris += 1
            assert (in_tris > 0) == (poly.contains(x) >= 0)

    def test_random_convex_polygons_preserve_area(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = rng.integers(3, 13)
            ang = np.sort(rng.uniform(0, 2 * np.pi, size=n))
            if np.min(np.diff(ang)) < 1e-3:
                continue
            r = rng.uniform(0.5, 2.0)
            poly = Polygon(np.c_[r * np.cos(ang), r * np.sin(ang)])
            tris = triangulate(poly)
            assert abs(sum(signed_area(t) for t in tris) - poly.area) <= 1e-12 * poly.area


def lengths(itf) -> np.ndarray:
    """The length of each interface."""
    return np.array([float(np.linalg.norm(b - a)) for a, b in zip(itf.a, itf.b)])


def directions(itf) -> np.ndarray:
    """The unit direction from a to b of each interface."""
    return np.array([unit(b - a) for a, b in zip(itf.a, itf.b)]).reshape(-1, 2)


def edge_pairs(itf) -> list:
    """(right cell, its edge, left cell, its edge) per interface."""
    return list(zip(itf.right.tolist(), itf.right_edge.tolist(),
                    itf.left.tolist(), itf.left_edge.tolist()))


def _chord_partition():
    dom = Polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
    bottom = Polygon([(0, 0), (2, 0), (2, 1), (0, 1)])
    top = Polygon([(0, 1), (2, 1), (2, 2), (0, 2)])
    return PolygonalPartition([bottom, top], dom)


class TestPartition:
    def test_single_cell_passes(self):
        dom = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        part = PolygonalPartition([dom], dom)
        rep = validate_partition(part)
        assert rep.passed
        assert rep.area_defect == 0.0
        assert len(part.interfaces) == 0
        assert part.locate((0.5, 0.5)) == (0, False)
        assert part.locate((0.5, 0.0)) == (0, False)

    def test_horizontal_chord(self):
        part = _chord_partition()
        itf = part.interfaces
        assert len(itf) == 1
        assert abs(lengths(itf)[0] - 2.0) <= 1e-12
        # normal points from right cell into left cell and is orthogonal to the edge
        assert abs(itf.normal[0] @ directions(itf)[0]) <= 1e-12
        assert validate_partition(part).passed

    def test_overlapping_cells_fail(self):
        dom = Polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
        c1 = Polygon([(0, 0), (2, 0), (2, 1.2), (0, 1.2)])
        c2 = Polygon([(0, 0.8), (2, 0.8), (2, 2), (0, 2)])
        rep = validate_partition(PolygonalPartition([c1, c2], dom))
        assert not rep.passed
        assert rep.overlapping_pairs
        assert rep.overlapping_pairs[0][2] == pytest.approx(0.8, rel=1e-9)

    def test_gap_reports_unmatched_edge(self):
        dom = Polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
        c1 = Polygon([(0, 0), (2, 0), (2, 0.8), (0, 0.8)])
        c2 = Polygon([(0, 1), (2, 1), (2, 2), (0, 2)])
        rep = validate_partition(PolygonalPartition([c1, c2], dom))
        assert not rep.passed
        assert rep.unmatched_edges

    def test_t_junction_interfaces(self):
        # left cell spans the full height, right side split into two cells
        dom = Polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
        left = Polygon([(0, 0), (1, 0), (1, 2), (0, 2)])
        rb = Polygon([(1, 0), (2, 0), (2, 1), (1, 1)])
        rt = Polygon([(1, 1), (2, 1), (2, 2), (1, 2)])
        part = PolygonalPartition([left, rb, rt], dom)
        itf = part.interfaces
        pairs = {tuple(sorted(p)) for p in zip(itf.left.tolist(), itf.right.tolist())}
        assert pairs == {(0, 1), (0, 2), (1, 2)}
        assert validate_partition(part).passed
        assert np.allclose(sorted(lengths(itf)), [1.0, 1.0, 1.0])

    def test_interface_normals_orthogonal_random_frames(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            phi = rng.uniform(0, 2 * np.pi)
            nu = np.array([np.cos(phi), np.sin(phi)])
            dom = make_oriented_square(nu, 2.0)
            R = np.array([[nu[1], nu[0]], [-nu[0], nu[1]]])
            low = Polygon((np.array([[-1, -1], [1, -1], [1, 0], [-1, 0]]) @ R.T))
            high = Polygon((np.array([[-1, 0], [1, 0], [1, 1], [-1, 1]]) @ R.T))
            part = PolygonalPartition([low, high], dom)
            itf = part.interfaces
            assert len(itf) == 1
            assert abs(itf.normal[0] @ directions(itf)[0]) <= 1e-12
            assert abs(sum(c.area for c in part.cells) - dom.area) <= 1e-9 * dom.area

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from((0.25, 0.5, 1.0)),
                st.sets(st.sampled_from((0.125, 0.25, 0.5, 0.75))),
            ),
            min_size=1,
            max_size=4,
        ),
        drop=st.integers(0, 63),
    )
    def test_grid_partitions(self, rows, drop):
        # rows of unit width, each cut at its own fractions, so rows meet at
        # T-junctions; extraction and validation share one edge kernel
        cells, y = [], 0.0
        for height, cuts in rows:
            xs = [0.0, *sorted(cuts), 1.0]
            for x0, x1 in zip(xs[:-1], xs[1:]):
                cells.append(Polygon([(x0, y), (x1, y), (x1, y + height), (x0, y + height)]))
            y += height
        dom = Polygon([(0, 0), (1, 0), (1, y), (0, y)])
        part = PolygonalPartition(cells, dom)
        assert validate_partition(part).passed
        interior = sum(len(cuts) * height for height, cuts in rows) + len(rows) - 1
        assert abs(sum(lengths(part.interfaces).tolist()) - interior) <= 1e-12
        if len(cells) > 1:
            del cells[drop % len(cells)]
            assert validate_partition(PolygonalPartition(cells, dom)).unmatched_edges

    def test_cell_pairs_screened_like_the_pairwise_loop(self):
        # screening all pairs at once gives the interfaces, in order, of a
        # loop over the pairs whose bounding boxes meet
        rng = np.random.default_rng(5)
        for _ in range(10):
            cells, y = [], 0.0
            for height in rng.choice([0.25, 0.5, 1.0], size=rng.integers(1, 5)):
                xs = [0.0, *sorted(rng.choice([0.125, 0.25, 0.5, 0.75], size=2, replace=False)), 1.0]
                for x0, x1 in zip(xs[:-1], xs[1:]):
                    cells.append(Polygon([(x0, y), (x1, y), (x1, y + height), (x0, y + height)]))
                y += height
            tol = 1e-9
            edges = [former_edge_arrays(c.vertices) for c in cells]
            want = [
                (ia, int(k), ib, int(l))
                for ia in range(len(cells)) for ib in range(ia + 1, len(cells))
                if not (np.any(cells[ia].bbox[0] > cells[ib].bbox[1] + tol)
                        or np.any(cells[ib].bbox[0] > cells[ia].bbox[1] + tol))
                for k, l, _, _ in zip(*former_edge_overlaps(edges[ia], edges[ib], tol))
            ]
            assert edge_pairs(extract_interfaces(cells, tol)) == want

    def test_locate(self):
        part = _chord_partition()
        cell, flag = part.locate((1.0, 0.5))
        assert cell == 0 and not flag
        _, flag = part.locate((1.0, 1.0))
        assert flag
        with pytest.raises(GeometryError):
            part.locate((5.0, 5.0))

    def test_json_round_trip(self):
        part = _chord_partition()
        data = part.to_json()
        back = PolygonalPartition.from_json(data)
        for c1, c2 in zip(part.cells, back.cells):
            assert np.array_equal(c1.vertices, c2.vertices)
        assert np.array_equal(part.domain.vertices, back.domain.vertices)


class TestClipping:
    def test_overlap_area(self):
        a = Polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
        b = Polygon([(1, 1), (3, 1), (3, 3), (1, 3)])
        assert polygon_overlap_area(a, b) == pytest.approx(1.0, abs=1e-12)
        c = Polygon([(5, 5), (6, 5), (6, 6), (5, 6)])
        assert polygon_overlap_area(a, c) == 0.0

    def test_clip_polygon(self):
        region = Polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
        sub = clip_polygon(Polygon([(1, 1), (3, 1), (3, 3), (1, 3)]), region)
        assert sub.area == pytest.approx(1.0, abs=1e-12)
        assert clip_polygon(region, region).area == pytest.approx(4.0, abs=1e-12)
        assert clip_polygon(Polygon([(5, 5), (6, 5), (6, 6), (5, 6)]), region) is None
        # sharing only an edge leaves no area
        assert clip_polygon(Polygon([(2, 0), (3, 0), (3, 2), (2, 2)]), region) is None

    def test_segment_clip(self):
        poly = Polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
        rows, t0, t1, on_b = clip_segment_params([(-1, 1)], [(3, 1)], poly)
        assert len(rows) == 1
        assert (t0[0], t1[0]) == pytest.approx((0.25, 0.75), abs=1e-12)
        assert not on_b[0]

    def test_segment_on_boundary_flagged(self):
        poly = Polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
        rows, _, _, on_b = clip_segment_params([(0, 0)], [(2, 0)], poly)
        assert len(rows) == 1
        assert on_b[0]

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(case=st.data())
    def test_batched_clip_equals_row_by_row(self, case):
        poly, starts, ends = case.draw(clip_cases())
        rows, t0, t1, on_b = clip_segment_params(starts, ends, poly)
        want = [(k, *piece) for k, (a, b) in enumerate(zip(starts, ends))
                for piece in scalar_clip(a, b, poly)]
        assert rows.tolist() == [w[0] for w in want]
        # bit for bit
        assert t0.tolist() == [w[1] for w in want]
        assert t1.tolist() == [w[2] for w in want]
        assert on_b.tolist() == [w[3] for w in want]


# regions for the clip property: convex, convex with a vertex in the middle
# of an edge (two edges cut the segment at the same point), non-convex
CLIP_REGIONS = (
    Polygon([(0, 0), (2, 0), (2, 2), (0, 2)]),
    make_oriented_square((0.6, 0.8), 1.5, (1.0, 1.0)),
    Polygon(np.c_[1 + np.cos(np.arange(6) * np.pi / 3), 1 + np.sin(np.arange(6) * np.pi / 3)]),
    Polygon([(0, 0), (1, 0), (2, 0), (2, 2), (0, 2)]),
    Polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]),
    Polygon([(0, 0), (2, 0), (1, 1), (2, 2), (0, 2), (0.5, 1)]),
)


@st.composite
def clip_cases(draw):
    """(region, starts, ends): free segments, segments along an edge's line,
    segments from a vertex, and zero-length segments."""
    poly = draw(st.sampled_from(CLIP_REGIONS))
    v = poly.vertices
    coord = st.floats(-1.5, 3.5)
    frac = st.floats(-0.5, 1.5)
    vertex = st.integers(0, len(v) - 1)
    starts, ends = [], []
    for kind in draw(st.lists(st.sampled_from(("free", "edge", "vertex", "zero")), min_size=1,
                              max_size=10)):
        if kind == "edge":
            k = draw(vertex)
            p, q = v[k], v[(k + 1) % len(v)]
            a, b = p + draw(frac) * (q - p), p + draw(frac) * (q - p)
        elif kind == "vertex":
            a = v[draw(vertex)]
            b = draw(st.one_of(vertex.map(lambda k: v[k]), st.tuples(coord, coord)))
        else:
            a = (draw(coord), draw(coord))
            b = a if kind == "zero" else (draw(coord), draw(coord))
        starts.append(a)
        ends.append(b)
    return poly, np.array(starts, dtype=float), np.array(ends, dtype=float)


def scalar_contains(poly, x, tol):
    """Polygon.contains one point at a time, as it was before it broadcast."""
    v = poly.vertices
    w = np.roll(v, -1, axis=0)
    d = w - v
    t = np.clip(np.einsum("ij,ij->i", x - v, d) / np.einsum("ij,ij->i", d, d), 0.0, 1.0)
    if float(np.min(np.linalg.norm(v + t[:, None] * d - x, axis=1))) <= tol:
        return 0
    cond = (v[:, 1] <= x[1]) != (w[:, 1] <= x[1])
    with np.errstate(divide="ignore", invalid="ignore"):
        xs = v[:, 0] + (x[1] - v[:, 1]) * (w[:, 0] - v[:, 0]) / (w[:, 1] - v[:, 1])
    return 1 if int(np.sum(cond & (xs > x[0]))) % 2 == 1 else -1


def scalar_clip(a, b, poly, tol=None):
    """The oracle: clip_segment_params one segment at a time, as it was
    before it took arrays.  (t0, t1, on_boundary) per piece."""
    if tol is None:
        tol = MATCH_TOL * poly.diameter
    d = b - a
    L = float(np.linalg.norm(d))
    if L == 0.0:
        return []
    cuts = {0.0, 1.0}
    for P, Q in zip(poly.vertices, np.roll(poly.vertices, -1, axis=0)):
        e = Q - P
        denom = d[0] * e[1] - d[1] * e[0]
        if denom == 0.0:
            continue
        with np.errstate(over="ignore"):
            t = ((P[0] - a[0]) * e[1] - (P[1] - a[1]) * e[0]) / denom
            s = ((P[0] - a[0]) * d[1] - (P[1] - a[1]) * d[0]) / denom
        if -tol / L <= t <= 1 + tol / L and -tol <= s * np.linalg.norm(e) <= np.linalg.norm(e) + tol:
            cuts.add(float(np.clip(t, 0.0, 1.0)))
    ts = sorted(cuts)
    pieces = []
    for t0, t1 in zip(ts[:-1], ts[1:]):
        if (t1 - t0) * L <= tol:
            continue
        side = scalar_contains(poly, a + 0.5 * (t0 + t1) * d, tol)
        if side >= 0:
            pieces.append((t0, t1, side == 0))
    return pieces


class TestInterfaceArrays:
    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(case=st.data())
    def test_arrays_equal_the_interface_loop(self, case):
        part = case.draw(st.one_of(grid_partitions(), competitor_partitions()))
        cells = list(part.cells)
        itf = part.interfaces
        want = former_extract_interfaces(cells, part.tol)
        assert len(itf) == len(want)
        # bit for bit, in the same order
        for name, col in zip(("a", "b", "left", "right", "normal"), zip(*want)):
            got = getattr(itf, name)
            assert got.tobytes() == np.array(col, dtype=got.dtype).tobytes(), name
        assert edge_pairs(itf) == former_interface_edges(cells, part.tol)

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(case=st.data())
    def test_validation_equals_the_pairwise_loop(self, case):
        # the reversed domain loop stands in for the parallel domain test;
        # reports compare by repr, so every bit of a gap counts
        part = case.draw(st.one_of(grid_partitions(), competitor_partitions()))
        cells = list(part.cells)
        drop = case.draw(st.integers(-1, len(cells) - 1))  # -1: none
        if drop >= 0 and len(cells) > 1:
            del cells[drop]
            part = PolygonalPartition(cells, part.domain)
        rep = validate_partition(part)
        got = (rep.area_defect, rep.unmatched_edges, rep.overlapping_pairs, rep.passed)
        assert repr(got) == repr(former_validate_partition(part))

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(case=st.data())
    def test_flipped_round_trip(self, case):
        part = case.draw(st.one_of(grid_partitions(), competitor_partitions()))
        itf, flip = part.interfaces, part.flipped().interfaces
        for name, other, sign in (("a", "b", 1), ("left", "right", 1),
                                  ("left_edge", "right_edge", 1), ("normal", "normal", -1)):
            assert np.array_equal(getattr(flip, name), sign * getattr(itf, other)), name
        back = part.flipped().flipped()
        for name in ("a", "b", "normal", "left", "right", "left_edge", "right_edge"):
            assert getattr(back.interfaces, name).tobytes() == getattr(itf, name).tobytes()
        assert back.cells is part.cells and back.tol == part.tol
        probes = np.concatenate([0.5 * (itf.a + itf.b), [c.centroid for c in part.cells]])
        assert [part.flipped().locate(x) for x in probes] == [part.locate(x) for x in probes]

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        n=st.integers(3, 39),
        scale=st.sampled_from((1e-6, 1.0, 1e6)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_area_from_one_roll(self, n, scale, seed):
        # Polygon rolls its vertices once; signed_area rolled each column
        rng = np.random.default_rng(seed)
        ang = np.sort(rng.uniform(0, 2 * np.pi, size=n))
        v = scale * np.c_[rng.uniform(0.5, 2.0, n) * np.cos(ang),
                          rng.uniform(0.5, 2.0, n) * np.sin(ang)]
        x, y = v[:, 0], v[:, 1]
        want = 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
        assert signed_area(v) == want
        if want > 0.0:
            try:
                assert Polygon(v).area == want
            except GeometryError:  # nearly repeated vertices
                pass


@st.composite
def grid_partitions(draw):
    """Rows of cells, each row cut at its own fractions so that rows meet at
    T-junctions, rotated, scaled and shifted."""
    rows = draw(st.lists(
        st.tuples(st.sampled_from((0.25, 0.5, 1.0)),
                  st.sets(st.sampled_from((0.125, 0.25, 0.5, 0.75)))),
        min_size=1, max_size=4,
    ))
    angle = draw(st.floats(0.0, 2.0 * np.pi))
    scale = draw(st.sampled_from((1e-3, 1.0, 7.0)))
    shift = np.array(draw(st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))))
    R = scale * np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    cells, y = [], 0.0
    for height, cuts in rows:
        xs = [0.0, *sorted(cuts), 1.0]
        for x0, x1 in zip(xs[:-1], xs[1:]):
            box = np.array([(x0, y), (x1, y), (x1, y + height), (x0, y + height)])
            cells.append(Polygon(box @ R.T + shift))
        y += height
    dom = Polygon(np.array([(0, 0), (1, 0), (1, y), (0, y)]) @ R.T + shift)
    return PolygonalPartition(cells, dom)


@st.composite
def competitor_partitions(draw):
    """The partition of a default-family competitor at a drawn normal."""
    from bdlab.ellipticity import default_families

    angle = draw(st.floats(0.0, 2.0 * np.pi))
    i_side = draw(st.sampled_from(("plus", "minus")))
    fam = default_families((0.0, 0.0), (2.0, 2.0), (np.cos(angle), np.sin(angle)),
                           i_side=i_side)[draw(st.integers(0, 3))]
    unit_params = draw(st.lists(st.floats(0.0, 1.0), min_size=fam.dim, max_size=fam.dim))
    params = [lo + t * (hi - lo) for t, (lo, hi) in zip(unit_params, fam.bounds)]
    return fam.generator(params).partition


def former_edge_arrays(vertices):
    """(starts, directions, unit directions, lengths) of a vertex loop's edges."""
    d = np.roll(vertices, -1, axis=0) - vertices
    L = np.linalg.norm(d, axis=1)
    return vertices, d, d / L[:, None], L


def former_edge_overlaps(a, b, tol, antiparallel=True):
    """The oracle's edge matching of one pair of cells: arrays k, l, lo, hi,
    edge l of `b` covering [lo, hi] of edge k of `a` by more than tol,
    running the other way when antiparallel is True, the same way otherwise."""
    Pa, _, Ua, La = a
    Pb, Db, _, _ = b
    cross_dir = Ua[:, None, 0] * Db[None, :, 1] - Ua[:, None, 1] * Db[None, :, 0]
    dot_dir = Ua[:, None, 0] * Db[None, :, 0] + Ua[:, None, 1] * Db[None, :, 1]
    off = Pb[None, :, :] - Pa[:, None, :]
    cross_off = Ua[:, None, 0] * off[..., 1] - Ua[:, None, 1] * off[..., 0]
    oriented = dot_dir < 0.0 if antiparallel else dot_dir > 0.0
    mask = (np.abs(cross_dir) <= tol) & oriented & (np.abs(cross_off) <= tol)
    if not mask.any():
        return (), (), (), ()
    lo, hi = _overlap_span((off[..., 0], off[..., 1]), (Ua[:, None, 0], Ua[:, None, 1]),
                           La[:, None], dot_dir)
    k, l = np.nonzero(mask & ((hi - lo) > tol))
    return k, l, lo[k, l], hi[k, l]


def former_validate_partition(part):
    """The oracle: validate_partition as a loop over ordered cell pairs,
    antiparallel against the other cells and parallel along the domain.
    (area_defect, unmatched_edges, overlapping_pairs, passed)."""
    tol = part.tol
    edges = [former_edge_arrays(c.vertices) for c in part.cells]
    domain_edges = former_edge_arrays(part.domain.vertices)
    unmatched = []
    for ci, own in enumerate(edges):
        covered = [[] for _ in own[3]]
        against = [(e, True) for cj, e in enumerate(edges) if cj != ci]
        for other, antiparallel in against + [(domain_edges, False)]:
            for k, _, lo, hi in zip(*former_edge_overlaps(own, other, tol, antiparallel)):
                covered[k].append((lo, hi))
        for ei, (L, intervals) in enumerate(zip(own[3], covered)):
            gap = float(L - sum(hi - lo for lo, hi in _merge_intervals(intervals, tol)))
            if gap > 10 * tol:
                unmatched.append((ci, ei, gap))
    overlaps = []
    area_tol = max(tol * part.domain.diameter, 1e-12 * part.domain.area)
    for ci in range(len(part.cells)):
        for cj in range(ci + 1, len(part.cells)):
            a = polygon_overlap_area(part.cells[ci], part.cells[cj], tol)
            if a > area_tol:
                overlaps.append((ci, cj, a))
    defect = part.area_defect
    passed = defect <= 1e-9 * part.domain.area and not unmatched and not overlaps
    return defect, unmatched, overlaps, passed


def former_cell_overlaps(cells, tol):
    """The oracle's edge matching: (ia, k, ib, l, lo, hi) per interface,
    edge l of cell ib covering [lo, hi] of edge k of cell ia, and the edge
    arrays of every cell."""
    edges = [former_edge_arrays(c.vertices) for c in cells]
    near = np.triu(~_bbox_disjoint(cells, cells, tol), k=1)
    out = []
    for ia, ib in zip(*np.nonzero(near)):
        for k, l, s, e in zip(*former_edge_overlaps(edges[ia], edges[ib], tol)):
            out.append((int(ia), int(k), int(ib), int(l), s, e))
    return out, edges


def former_extract_interfaces(cells, tol):
    """The oracle: extract_interfaces one overlap at a time, as it was before
    it returned arrays.  (a, b, left, right, normal) per interface."""
    overlaps, edges = former_cell_overlaps(cells, tol)
    out = []
    for ia, k, ib, _, lo, hi in overlaps:
        Pa, _, Ua, _ = edges[ia]
        u1 = Ua[k]
        n = np.array([u1[1], -u1[0]])
        out.append((Pa[k] + lo * u1, Pa[k] + hi * u1, ib, ia, n))
    return out


def former_interface_edges(cells, tol):
    """The oracle for the edge pairs: (ia, k, ib, l) per interface."""
    return [o[:4] for o in former_cell_overlaps(cells, tol)[0]]
