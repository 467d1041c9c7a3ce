import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bdlab.geometry import (
    MATCH_TOL,
    GeometryError,
    Polygon,
    PolygonalPartition,
    _checked_loops,
    _merge_intervals,
    _overlap_span,
    clip_segment_params,
    extract_interfaces,
    frame_from_normal,
    make_oriented_square,
    overlap_areas,
    polygon_overlap_area,
    signed_area,
    triangulate,
    unit,
    validate_partition,
)


def ragged(loops):
    """(vertices, counts): the vertex loops, Polygons or arrays, stacked end
    to end."""
    loops = [np.asarray(getattr(v, "vertices", v), dtype=float) for v in loops]
    return np.concatenate(loops), np.array([len(v) for v in loops])


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


class TestUnit:
    """unit normalises every finite nonzero vector, without a RuntimeWarning
    (an error under this suite's filterwarnings), and refuses the others."""

    @settings(max_examples=200, deadline=None)
    @given(v=st.lists(st.floats(-1e100, 1e100), min_size=2, max_size=2).filter(any))
    def test_ordinary_vectors_divide_by_their_norm(self, v):
        v = np.array(v)
        assume(1e-150 < np.abs(v).max())
        assert unit(v).tobytes() == (v / np.linalg.norm(v)).tobytes()

    @pytest.mark.parametrize("v, want", [
        ((1e-300, 1e-300), (np.sqrt(0.5), np.sqrt(0.5))), ((0.0, 1e-320), (0.0, 1.0)),
        ((-5e-324, 0.0), (-1.0, 0.0)), ((1e300, 1e300), (np.sqrt(0.5), np.sqrt(0.5))),
        ((1.7e308, -1.7e308), (np.sqrt(0.5), -np.sqrt(0.5))), ((3e200, 4e200), (0.6, 0.8)),
    ])
    def test_norms_that_underflow_or_overflow(self, v, want):
        u = unit(v)
        assert np.allclose(u, want, rtol=1e-15, atol=0.0)
        assert abs(np.linalg.norm(u) - 1.0) <= 1e-15

    @pytest.mark.parametrize("v", [(0.0, 0.0), (-0.0, 0.0), (np.nan, 1.0), (np.inf, 0.0),
                                   (1.0, -np.inf)])
    def test_zero_and_non_finite_vectors_are_refused(self, v):
        with pytest.raises(GeometryError):
            unit(v)


# a star pentagon: every turn is left, but the loop winds twice around and
# its shoelace area (1.469) counts the inner pentagon twice
PENTAGRAM = np.stack([np.cos(np.pi / 2 + 0.8 * np.pi * np.arange(5)),
                      np.sin(np.pi / 2 + 0.8 * np.pi * np.arange(5))], axis=1)


class TestPolygon:
    def test_rejects_clockwise(self):
        with pytest.raises(GeometryError):
            Polygon([(0, 0), (0, 1), (1, 1), (1, 0)])

    def test_rejects_repeated_vertices(self):
        with pytest.raises(GeometryError):
            Polygon([(0, 0), (0, 0), (1, 0), (1, 1)])

    def test_rejects_a_loop_that_winds_more_than_once(self):
        assert signed_area(PENTAGRAM) > 0.0
        with pytest.raises(GeometryError, match="winds more than once"):
            Polygon(PENTAGRAM)
        # as a cell of a partition, built from its ragged stack
        dom = make_oriented_square((0.0, 1.0), 4.0)
        with pytest.raises(GeometryError, match="winds more than once"):
            PolygonalPartition(ragged([dom.vertices, PENTAGRAM]), dom)
        # a region (or domain, or bump polygon) is a Polygon, so it cannot be one
        with pytest.raises(GeometryError, match="winds more than once"):
            Polygon.from_json(PENTAGRAM.tolist())
        # simple loops that turn right somewhere, or go straight on, pass
        Polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
        Polygon([(0, 0), (1, 0), (2, 0), (2, 2), (0, 2)])

    def test_contains(self):
        p = Polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
        assert p.contains((1, 1)) == 1
        assert p.contains((2, 1)) == 0
        assert p.contains((3, 1)) == -1

    GOOD = [[(0, 0), (2, 0), (2, 2), (0, 2)], [(0.5, -1), (3, 0.1), (1.2, 4), (-1e-9, 1e-9)],
            [(3, 0), (4, 1), (3, 2)],
            [(100, 100), (100.5, 100), (101, 100.5), (100.5, 101), (100, 100.5)]]

    @pytest.mark.parametrize("bad", [
        [(0, 0), (0, 1), (1, 1), (1, 0)],  # clockwise
        [(0, 0), (0, 0), (1, 0), (1, 1)],  # a repeated vertex
        [(1, 1), (1, 1), (1, 1), (1, 1)],  # zero extent
        [(0, 0), (1, 0), (1, np.nan), (0, 1)],  # not finite
        [(0, 0), (1, 0), (1, 1), (0, np.inf)],
        PENTAGRAM,  # winds twice around
    ])
    def test_stack_raises_for_one_bad_loop(self, bad):
        with pytest.raises(GeometryError) as alone:
            Polygon(bad)
        for at in range(len(self.GOOD) + 1):
            loops = self.GOOD[:at] + [bad] + self.GOOD[at:]
            with pytest.raises(GeometryError, match=str(alone.value)):
                _checked_loops(*ragged(loops))

    @pytest.mark.parametrize("loops", [
        (np.zeros((4, 2)), [2, 2]), (np.zeros((8, 3)), [4, 4]), (np.zeros(8), [8]),
        (np.zeros((2, 2)), [2]), (np.ones((7, 2)), [3, 3]), (np.zeros((2, 4, 2)), [4, 4])])
    def test_stack_needs_three_planar_vertices(self, loops):
        # (vertices, counts): too few vertices, not planar, counts that miss
        with pytest.raises(GeometryError, match="three planar"):
            _checked_loops(loops[0], np.array(loops[1]))

    def test_stack_equals_one_polygon_per_loop(self):
        rng = np.random.default_rng(5)
        ang = np.sort(rng.uniform(0, 2 * np.pi, (20, 7)), axis=1)
        heptagons = np.stack([np.cos(ang), np.sin(ang)], axis=2) * rng.uniform(1e-3, 1e3, (20, 1, 1))
        for loops in (self.GOOD, list(heptagons), self.GOOD + list(heptagons)):
            vertices, counts = ragged(loops)
            rolled = _checked_loops(vertices, counts)
            assert not vertices.flags.writeable and not rolled.flags.writeable
            dom = make_oriented_square((0.0, 1.0), 1.0)
            cells = PolygonalPartition((vertices, counts), dom).cells
            assert len(cells) == len(loops)
            stop = np.cumsum(counts)
            for p, loop, a, b in zip(cells, loops, stop - counts, stop):
                want = Polygon(loop)
                assert np.array_equal(rolled[a:b], want.rolled)
                assert np.array_equal(p.vertices, want.vertices)
                assert np.array_equal(p.rolled, want.rolled)
                assert not p.vertices.flags.writeable and not p.rolled.flags.writeable
                # a view's area is signed_area's dot products
                assert p.area == signed_area(loop) == want.area

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(
        good=st.lists(st.tuples(st.integers(3, 9), st.sampled_from((1e-3, 1.0, 1e3)),
                                st.booleans()), max_size=6),
        scale=st.sampled_from((1e-3, 1.0, 1e3)),
        phase=st.floats(0.0, 2.0 * np.pi),
        kind=st.sampled_from(("none", "repeated", "clockwise", "zero", "nan", "inf", "-inf",
                              "twice")),
        at=st.integers(0, 6),
        n=st.integers(3, 9),
        k=st.integers(0, 8),
    )
    def test_stack_check_raises_as_one_polygon_per_loop(self, good, scale, phase, kind, at, n,
                                                        k):
        # good regular polygons of mixed lengths and sizes, some with a
        # vertex 1e-4 of an edge from the next (repeated at the largest
        # size's tolerance, not at their own), and one bad loop of n
        # vertices among them, checked by the stack and alone by Polygon
        # (a loop that goes twice around may fail an earlier check first)
        def ngon(m, size, c):
            t = phase + 2.0 * np.pi * np.arange(m) / m
            return c + size * np.c_[np.cos(t), np.sin(t)]

        loops = []
        for g, (m, size, split) in enumerate(good):
            v = ngon(m, size, (3e3 * g, 0.0))
            loops.append(np.insert(v, 1, v[0] + 1e-4 * (v[1] - v[0]), axis=0) if split else v)
        bad = ngon(n, scale, (-3e3, 1.0))
        k %= n
        if kind == "twice":
            # every second vertex: twice around (a star, or an n/2-gon twice)
            bad = bad[np.arange(0, 2 * n, 2) % n]
        elif kind == "repeated":
            bad = np.insert(bad, k, bad[k], axis=0)
        elif kind == "clockwise":
            bad = bad[::-1]
        elif kind == "zero":
            bad = np.broadcast_to(bad[k], bad.shape)
        elif kind != "none":
            bad = bad.copy()
            bad[k, k % 2] = float(kind)
        loops.insert(min(at, len(loops)), bad)
        vertices, counts = ragged(loops)
        if kind == "none":
            rolled = _checked_loops(vertices, counts)
            assert rolled.tobytes() == np.concatenate([Polygon(v).rolled for v in loops]).tobytes()
            return
        with pytest.raises(GeometryError) as alone:
            Polygon(bad)
        with pytest.raises(GeometryError) as stacked:
            _checked_loops(vertices, counts)
        assert str(stacked.value) == str(alone.value)

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
            assert edge_pairs(extract_interfaces(*ragged(cells), tol)) == want

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

    def test_segment_clip(self):
        poly = Polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
        owner, rows, t0, t1, on_b = clip_segment_params([(-1, 1)], [(3, 1)], [poly])
        assert owner.tolist() == [0]
        assert len(rows) == 1
        assert (t0[0], t1[0]) == pytest.approx((0.25, 0.75), abs=1e-12)
        assert not on_b[0]

    def test_segment_on_boundary_flagged(self):
        poly = Polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
        _, rows, _, _, on_b = clip_segment_params([(0, 0)], [(2, 0)], [poly])
        assert len(rows) == 1
        assert on_b[0]

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(case=st.data())
    def test_batched_clip_equals_row_by_row(self, case):
        polys, starts, ends = case.draw(clip_cases())
        owner, rows, t0, t1, on_b = clip_segment_params(starts, ends, polys)
        want = [(g, k, *piece) for g, poly in enumerate(polys)
                for k, (a, b) in enumerate(zip(starts, ends))
                for piece in scalar_clip(a, b, poly)]
        assert owner.tolist() == [w[0] for w in want]
        assert rows.tolist() == [w[1] for w in want]
        # bit for bit
        assert t0.tolist() == [w[2] for w in want]
        assert t1.tolist() == [w[3] for w in want]
        assert on_b.tolist() == [w[4] for w in want]


class TestConvexClip:
    """The batched Sutherland-Hodgman kernel against the former scalar
    clipping, kept below as `former_*` oracles."""

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(case=st.data())
    def test_areas_near_the_triangle_pairs(self, case):
        # one subject clipped against the other's convex pieces adds its
        # roundings in another order than triangle against triangle: on side-6
        # competitor cells (areas up to 18) the largest difference measured
        # in 29 664 pairs was 1.24e-14, so 1e-15 times the domain area holds
        part, moved = case.draw(overlapping_cell_sets())
        cells = list(part.cells)
        ia, ib = np.nonzero(np.ones((len(cells), len(moved)), dtype=bool))
        got = overlap_areas(cells, moved, (ia, ib))
        want = [former_polygon_overlap_area(cells[a], moved[b]) for a, b in zip(ia, ib)]
        assert np.max(np.abs(got - want)) <= 1e-15 * part.domain.area

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(case=st.data())
    def test_a_row_does_not_depend_on_the_batch(self, case):
        # a 13-gon pads every row wider than 8 vertices, where numpy's
        # pairwise sums would change order; the shoelace sums keep theirs
        part, moved = case.draw(overlapping_cell_sets())
        c = part.domain.centroid
        r = 0.4 * part.domain.diameter
        ang = 2.0 * np.pi * np.arange(13) / 13
        cells = list(part.cells) + [Polygon(c + r * np.c_[np.cos(ang), np.sin(ang)])]
        ia, ib = np.nonzero(np.ones((len(cells), len(moved)), dtype=bool))
        got = overlap_areas(cells, moved, (ia, ib))
        alone = [polygon_overlap_area(cells[a], moved[b]) for a, b in zip(ia, ib)]
        assert got.tolist() == alone
        ia, ib = np.nonzero(np.ones((len(cells), len(cells)), dtype=bool))
        got = overlap_areas(cells, cells, (ia, ib))
        assert got.tolist() == [polygon_overlap_area(cells[a], cells[b]) for a, b in zip(ia, ib)]

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(case=st.data())
    def test_compact_deviation_equals_the_former_loop(self, case):
        from bdlab.functions import compact_deviation, make_elementary
        from bdlab.geometry import OrientedSquare

        u, nu, values = case.draw(family_competitors())
        ref = make_elementary(*values, nu, OrientedSquare(nu, 6.0, (0, 0)))
        for margin in (0.006, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
            assert compact_deviation(u, ref, margin) == former_compact_deviation(u, ref, margin)

    @pytest.mark.parametrize("nu", [(0.0, 1.0), (0.6, 0.8), (1.0, 2.0)])
    def test_tile_pieces_equal_the_former_per_tile_clip(self, nu):
        from bdlab.ellipticity import (
            counterexample1_competitor,
            insert_competitor,
            tile_construction,
        )
        from bdlab.functions import AffinePiece, skew2

        i, j = (0.0, 0.0), (2.0, 2.0)
        if nu == (0.0, 1.0):
            u = counterexample1_competitor(1.0)
        else:
            cells = [np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])]
            u = insert_competitor(i, j, nu, cells, [AffinePiece(skew2(0.7), (0.3, 0.2))],
                                  half_width=1.0, half_height=1.0)
        v = u.scaled(1.0 / 6.0)
        R = frame_from_normal(unit(nu))
        for h in range(1, 17):
            jumps = tile_construction(v, i, j, nu, h).jump_segments()
            inv_h = 1.0 / h
            corners = np.array([[0.0, 0.0], [inv_h, 0.0], [inv_h, inv_h], [0.0, inv_h]])
            tiles = [Polygon((corners + [-0.5 + n * inv_h, 0.0]) @ R.T) for n in range(h)]
            got = clip_segment_params(jumps.a, jumps.b, tiles)
            want = former_tile_pieces(jumps.a, jumps.b, h, R)
            for name, g, w in zip(("owner", "rows", "t0", "t1", "on_boundary"), got, want):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), (h, name)


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
    """(regions, starts, ends): one to three regions, and free segments,
    segments along an edge's line, segments from a vertex and zero-length
    segments, the edges and vertices those of any region."""
    polys = draw(st.lists(st.sampled_from(CLIP_REGIONS), min_size=1, max_size=3))
    coord = st.floats(-1.5, 3.5)
    frac = st.floats(-0.5, 1.5)
    starts, ends = [], []
    for kind in draw(st.lists(st.sampled_from(("free", "edge", "vertex", "zero")), min_size=1,
                              max_size=10)):
        v = draw(st.sampled_from(polys)).vertices
        vertex = st.integers(0, len(v) - 1)
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
    return polys, np.array(starts, dtype=float), np.array(ends, dtype=float)


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
        want = former_interface_loop(cells, part.tol)
        assert len(itf) == len(want)
        # bit for bit, in the same order
        for name, col in zip(("a", "b", "left", "right", "normal"), zip(*want)):
            got = getattr(itf, name)
            assert got.tobytes() == np.array(col, dtype=got.dtype).tobytes(), name
        assert edge_pairs(itf) == former_interface_edges(cells, part.tol)

    def test_stack_equals_the_former_per_polygon_path(self):
        # the competitors of tools/snapshot.py: every default family at its
        # four normals and both value orders, three seeded rows each
        rng = np.random.default_rng(20201)
        from bdlab.ellipticity import default_families

        checked = 0
        for angle in (0.5 * np.pi, 0.3, 2.2, 4.0):
            nu = np.array([np.cos(angle), np.sin(angle)])
            for values in ORDERS:
                for fam in default_families(*values, nu):
                    kept = 0
                    while kept < 3:
                        params = tuple(float(rng.uniform(lo, hi)) for lo, hi in fam.bounds)
                        try:
                            part = fam.generator(params).partition
                        except (GeometryError, ValueError):
                            continue
                        kept += 1
                        want = former_extract_interfaces(part.cells, part.tol)
                        for name, value in vars(want).items():
                            got = getattr(part.interfaces, name)
                            assert got.dtype == value.dtype, name
                            assert got.tobytes() == value.tobytes(), name
                        checked += 1
        assert checked == 96

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
        assert back.vertices is part.vertices and back.counts is part.counts
        assert back.tol == part.tol
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


# both orders of the values 0 and (2, 2), (below the chord, above it)
ORDERS = (((2.0, 2.0), (0.0, 0.0)), ((0.0, 0.0), (2.0, 2.0)))


@st.composite
def competitor_partitions(draw):
    """The partition of a default-family competitor at a drawn normal."""
    from bdlab.ellipticity import default_families

    angle = draw(st.floats(0.0, 2.0 * np.pi))
    values = draw(st.sampled_from(ORDERS))
    fam = default_families(*values, (np.cos(angle), np.sin(angle)))[draw(st.integers(0, 3))]
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


def _bbox_disjoint(cells1, cells2, tol: float) -> np.ndarray:
    """The oracles' bounding-box test, cell by cell: (len(cells1),
    len(cells2)), whether the bounding boxes of two cells are more than tol
    apart along some axis."""
    lo1, hi1 = np.array([c.bbox for c in cells1]).transpose(1, 0, 2)[:, :, None]
    lo2, hi2 = np.array([c.bbox for c in cells2]).transpose(1, 0, 2)[:, None]
    return ((lo1 > hi2 + tol) | (lo2 > hi1 + tol)).any(axis=-1)


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


def former_interface_loop(cells, tol):
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


def former_extract_interfaces(cells, tol):
    """The oracle: extract_interfaces as it took one Polygon per cell,
    stacking their loops and taking their boxes on each call."""
    from bdlab.geometry import (Interfaces, _edge_pairs, _match_edges, edge_pair_interfaces,
                                edge_vertices)

    counts = np.array([len(p) for p in cells])
    vertices = np.concatenate([p.vertices for p in cells])
    first = np.cumsum(counts) - counts
    lo, hi = np.minimum.reduceat(vertices, first), np.maximum.reduceat(vertices, first)
    far = ((lo[:, None] > hi + tol) | (lo > hi[:, None] + tol)).any(axis=-1)
    near = np.nonzero(np.triu(~far, k=1))
    ia, k, ib, l, _, _ = _match_edges(vertices, counts, *_edge_pairs(counts, *near), tol)
    ends = edge_vertices(counts, ia, k) + edge_vertices(counts, ib, l)
    a, b, normal = edge_pair_interfaces(vertices, *ends)
    return Interfaces(a, b, normal, left=ib, right=ia, left_edge=l, right_edge=k)


def former_interface_edges(cells, tol):
    """The oracle for the edge pairs: (ia, k, ib, l) per interface."""
    return [o[:4] for o in former_cell_overlaps(cells, tol)[0]]


@st.composite
def family_competitors(draw):
    """(function, normal, values): a default-family competitor at a drawn
    normal, order of its values and in-bounds parameters, on the side-6
    square."""
    from bdlab.ellipticity import default_families

    angle = draw(st.floats(0.0, 2.0 * np.pi))
    nu = np.array([np.cos(angle), np.sin(angle)])
    values = draw(st.sampled_from(ORDERS))
    fams = default_families(*values, nu)
    fam = fams[draw(st.integers(0, len(fams) - 1))]
    unit_params = draw(st.lists(st.floats(0.0, 1.0), min_size=fam.dim, max_size=fam.dim))
    params = [lo + t * (hi - lo) for t, (lo, hi) in zip(unit_params, fam.bounds)]
    return fam.generator(params), nu, values


@st.composite
def overlapping_cell_sets(draw):
    """(partition, moved cells): a default-family competitor's partition and
    its cells shifted by a drawn offset, so that cells of the two overlap."""
    part = draw(competitor_partitions())
    shift = np.array(draw(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))))
    return part, [Polygon(c.vertices + shift) for c in part.cells]


def former_convex_clip(subject, clip, tol):
    """The oracle: Sutherland-Hodgman clip of `subject` against convex
    counterclockwise `clip`, one vertex at a time."""
    out = [np.array(p) for p in subject]
    m = len(clip)
    for k in range(m):
        if not out:
            break
        A, B = clip[k], clip[(k + 1) % m]
        e = B - A
        inp = out
        out = []
        prev = inp[-1]
        prev_in = (e[0] * (prev[1] - A[1]) - e[1] * (prev[0] - A[0])) >= -tol
        for cur in inp:
            cur_in = (e[0] * (cur[1] - A[1]) - e[1] * (cur[0] - A[0])) >= -tol
            if cur_in != prev_in:
                d = cur - prev
                denom = e[0] * d[1] - e[1] * d[0]
                if denom != 0.0:
                    t = (e[0] * (A[1] - prev[1]) - e[1] * (A[0] - prev[0])) / denom
                    out.append(prev + np.clip(t, 0.0, 1.0) * d)
            if cur_in:
                out.append(cur)
            prev, prev_in = cur, cur_in
    return np.array(out) if out else np.zeros((0, 2))


def former_polygon_overlap_area(p1, p2, tol=None):
    """The oracle: the intersection area from every pair of triangles of the
    two polygons' triangulations."""
    if tol is None:
        tol = MATCH_TOL * max(p1.diameter, p2.diameter)
    if _bbox_disjoint([p1], [p2], tol)[0, 0]:
        return 0.0
    total = 0.0
    tris2 = triangulate(p2)
    for t1 in triangulate(p1):
        for t2 in tris2:
            clipped = former_convex_clip(t1, t2, tol)
            if len(clipped) >= 3:
                total += abs(signed_area(clipped))
    return total


def former_compact_deviation(v, u, margin):
    """The oracle: compact_deviation as a loop over cell pairs on the
    triangle-pair areas."""
    area_tol = 1e-12 * u.partition.domain.area
    for cell, piece in zip(v.partition.cells, v.pieces):
        deviates = any(
            not (np.array_equal(piece.A, upiece.A) and np.array_equal(piece.b, upiece.b))
            and former_polygon_overlap_area(cell, ucell) > area_tol
            for ucell, upiece in zip(u.partition.cells, u.pieces)
        )
        if deviates and v.partition.domain.boundary_distance(cell.vertices).min() < margin:
            return False
    return True


def former_clip_segment_params(starts, ends, poly, tol=None):
    """The oracle: clip_segment_params against one region, as it was before
    it took a stack of them.  (rows, t0, t1, on_boundary)."""
    from bdlab.geometry import row_norms

    a = np.asarray(starts, dtype=float)
    d = np.asarray(ends, dtype=float) - a
    if tol is None:
        tol = MATCH_TOL * poly.diameter
    L = row_norms(d)
    P = poly.vertices
    e = np.roll(P, -1, axis=0) - P
    e_len = row_norms(e)
    ox, oy = P[:, 0] - a[:, :1], P[:, 1] - a[:, 1:]
    dx, dy = d[:, :1], d[:, 1:]
    denom = dx * e[:, 1] - dy * e[:, 0]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = (ox * e[:, 1] - oy * e[:, 0]) / denom
        s = (ox * dy - oy * dx) / denom
        slack = (tol / L)[:, None]
        hit = ((denom != 0.0) & (-slack <= t) & (t <= 1 + slack)
               & (-tol <= s * e_len) & (s * e_len <= e_len + tol))
        cuts = np.where(hit, np.clip(t, 0.0, 1.0) + 0.0, np.inf)
        cuts = np.concatenate([np.broadcast_to([0.0, 1.0], (len(a), 2)), cuts], axis=1)
        cuts.sort(axis=1)
        cuts[:, 1:][cuts[:, 1:] == cuts[:, :-1]] = np.inf
        cuts.sort(axis=1)
        t0, t1 = cuts[:, :-1], cuts[:, 1:]
        long = np.isfinite(t1) & ((t1 - t0) * L[:, None] > tol)
    rows, k = np.nonzero(long)
    t0, t1 = t0[rows, k], t1[rows, k]
    mid = a[rows] + (0.5 * (t0 + t1))[:, None] * d[rows]
    side = np.array([scalar_contains(poly, x, tol) for x in mid], dtype=int)
    kept = side >= 0
    return rows[kept], t0[kept], t1[kept], side[kept] == 0


def former_tile_pieces(starts, ends, h, R):
    """The oracle: tiling_report's former clip, one tile after the other.
    (owner, rows, t0, t1, on_boundary)."""
    inv_h = 1.0 / h
    parts = []
    for n in range(h):
        c = np.array([-0.5 + n * inv_h, 0.0])
        tile = Polygon(np.array([c, c + [inv_h, 0], c + [inv_h, inv_h], c + [0, inv_h]]) @ R.T)
        rows, t0, t1, on_b = former_clip_segment_params(starts, ends, tile)
        parts.append((np.full(len(rows), n), rows, t0, t1, on_b))
    return tuple(np.concatenate(col) for col in zip(*parts))
