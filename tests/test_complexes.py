import itertools
import math
import random
import re

import numpy as np
import pytest

import persimod.complexes
from persimod.barcode import Bar, Barcode, bottleneck_distance, nu
from persimod.complexes import (FiniteMetricSpace, GridFunction, PointCloud,
                                Triangulation, cech_barcode, cech_complex,
                                circle_complex, drop_top_degree,
                                grid_triangulation, log2_rescale, meb_radius,
                                oscillation, parse_distance_matrix, parse_grid,
                                parse_point_cloud, regular_polygon_points,
                                rips_barcode, rips_complex,
                                sublevel_filtration, torus_grid_complex,
                                tree_metric_net, _nerve, _sorted_rows)
from persimod.filtered_complex import (Cell, FilteredComplex, InvalidComplexError,
                                       _order_key, barcode_of_complex)

INF = math.inf
S3 = math.sqrt(3)


def barcodes_close(got, want, tol=1e-9):
    g, w = sorted(got.bars), sorted(want.bars)
    if len(g) != len(w):
        return False
    for a, b in zip(g, w):
        if a.degree != b.degree:
            return False
        for x, y in ((a.birth, b.birth), (a.death, b.death)):
            if x != y and abs(x - y) > tol:
                return False
    return True


def satisfies_triangle_inequality(x, tol=1e-9):
    d = x.dist
    return not any(np.any(d[i, j] > d[i, :] + d[:, j] + tol)
                   for i in range(x.n) for j in range(x.n))


def test_metric_space_validation():
    with pytest.raises(ValueError):
        FiniteMetricSpace(np.array([[0, 1], [2, 0]]))
    with pytest.raises(ValueError):
        FiniteMetricSpace(np.array([[1.0]]))
    x = FiniteMetricSpace.from_points([[0, 0], [3, 4]])
    assert x.dist[0, 1] == 5
    assert satisfies_triangle_inequality(x)


def test_hexagon_rips():
    x = FiniteMetricSpace.from_points(regular_polygon_points(6))
    bc = rips_barcode(x, 3)
    want = Barcode([Bar(0, 1, 0)] * 5
                   + [Bar(0, INF, 0), Bar(1, S3, 1), Bar(S3, 2, 2)])
    assert barcodes_close(bc, want)


def test_hexagon_cech():
    bc = cech_barcode(PointCloud(regular_polygon_points(6)), 3)
    want = Barcode([Bar(0, 1, 0)] * 5 + [Bar(0, INF, 0), Bar(1, 2, 1)])
    assert barcodes_close(bc, want)


def test_unit_square_rips_loop():
    x = FiniteMetricSpace.from_points([[0, 0], [1, 0], [1, 1], [0, 1]])
    deg1 = [b for b in rips_barcode(x, 2).bars if b.degree == 1]
    assert len(deg1) == 1
    assert abs(deg1[0].birth - 1) < 1e-12
    assert abs(deg1[0].death - math.sqrt(2)) < 1e-12


def test_single_point_rips():
    bc = rips_barcode(FiniteMetricSpace(np.zeros((1, 1))), 2)
    assert bc == Barcode([Bar(0, INF, 0)])


def test_rips_filtration_monotone_under_faces():
    rng = random.Random(2)
    pts = [[rng.uniform(0, 2), rng.uniform(0, 2)] for _ in range(6)]
    c = rips_complex(FiniteMetricSpace.from_points(pts), 3)
    values = {cell.id: cell.value for cell in c.cells}
    for cell in c.cells:
        for face in itertools.combinations(cell.id, len(cell.id) - 1):
            if face:
                assert values[face] <= values[cell.id] + 1e-12


def test_meb_examples():
    assert meb_radius([[1, 2]]) == 0
    assert abs(meb_radius([[0, 0], [0, 4]]) - 2) < 1e-12
    tri = regular_polygon_points(6)[[0, 2, 4]]
    assert abs(meb_radius(tri) - 1.0) < 1e-9
    # obtuse triangle: ball spanned by the long side
    assert abs(meb_radius([[0, 0], [4, 0], [1, 0.3]]) - 2.0088) < 1e-2
    with pytest.raises(ValueError):
        meb_radius(np.zeros((2, 5)))


def test_meb_radius_at_large_coordinates():
    # rounding in the circumcenter grows with the coordinates, past any
    # fixed slack: these two points once had no enclosing ball at all
    pts = np.array([[-157645.59297294688, 14732.436432418597],
                    [-82456.78819804404, 130483.55415439373]])
    half = np.linalg.norm(pts[0] - pts[1]) / 2
    for scale in (1.0, 1e5, 1e140):
        assert meb_radius(pts * scale) == pytest.approx(half * scale, rel=1e-12)
    # squares past the float range: refused, not an infinite radius
    with pytest.raises(ValueError, match="enclosing ball radii must be finite"):
        meb_radius(pts * 1e200)


def test_meb_equilateral_circumradius():
    s = 1.7
    pts = np.array([[0, 0], [s, 0], [s / 2, s * S3 / 2]])
    assert abs(meb_radius(pts) - s / S3) < 1e-9


def test_cech_between_rips_bounds():
    rng = random.Random(5)
    for _ in range(10):
        pts = np.array([[rng.uniform(0, 2), rng.uniform(0, 2)] for _ in range(5)])
        r = rips_complex(FiniteMetricSpace.from_points(pts), 2)
        ce = cech_complex(PointCloud(pts), 2)
        rips_u = {cell.id: cell.value for cell in r.cells}
        for cell in ce.cells:
            if len(cell.id) == 1:
                continue
            assert rips_u[cell.id] <= cell.value + 1e-9
            assert cell.value <= 2 * rips_u[cell.id] + 1e-9


def test_log2_rescale():
    assert log2_rescale(Barcode([Bar(1, 2)])) == Barcode([Bar(0, 1)])
    assert log2_rescale(Barcode([Bar(0, 4)])) == Barcode([Bar(-INF, 2)])
    with pytest.raises(ValueError):
        log2_rescale(Barcode([Bar(-1, 2)]))


def test_random_clouds_log_interleaved():
    rng = random.Random(9)
    for _ in range(8):
        pts = np.array([[rng.uniform(0, 2), rng.uniform(0, 2)]
                        for _ in range(rng.randint(3, 7))])
        r = log2_rescale(rips_barcode(FiniteMetricSpace.from_points(pts), 2))
        ce = log2_rescale(cech_barcode(PointCloud(pts), 2))
        assert bottleneck_distance(r, ce) <= 1.0 + 1e-9


def test_sublevel_filtration():
    t = Triangulation([(0, 1), (1, 2)])
    bc = barcode_of_complex(sublevel_filtration(t, {0: 0.0, 1: 2.0, 2: 1.0}))
    assert bc == Barcode([Bar(0, INF, 0), Bar(1, 2, 0)])
    const = barcode_of_complex(sublevel_filtration(t, {0: 3.0, 1: 3.0, 2: 3.0}))
    assert const == Barcode([Bar(3, INF, 0)])
    with pytest.raises(ValueError):
        sublevel_filtration(t, {0: 0.0})


def test_triangulation_face_closure():
    t = Triangulation([(0, 1, 2)])
    assert (0, 1) in t.simplices and (2,) in t.simplices


@pytest.mark.parametrize("simplices, bad", [([("a", "a"), ("b", "c")], "('a', 'a')"),
                                            ([("a", "a", "b")], "('a', 'a', 'b')")])
def test_triangulation_rejects_repeated_vertices(simplices, bad):
    # a repeated vertex once made a degenerate edge that F_2 and F_3 read
    # differently, or an IndexError in the reduction
    with pytest.raises(ValueError, match=f"simplex {re.escape(bad)} repeats a vertex"):
        Triangulation(simplices)


def test_circle_complex_cos():
    n = 64
    bc = barcode_of_complex(circle_complex(np.cos(2 * np.pi * np.arange(n) / n)))
    assert sorted(bc.bars) == [Bar(-1, INF, 0), Bar(1, INF, 1)]


def test_circle_complex_two_minima():
    n = 64
    f = np.cos(2 * 2 * np.pi * np.arange(n) / n) + 0.1 * np.cos(2 * np.pi * np.arange(n) / n)
    bc = barcode_of_complex(circle_complex(f))
    finite = [b for b in bc.bars if b.finite]
    assert len(finite) == 1 and finite[0].degree == 0
    mins = sorted(f[(np.roll(f, 1) > f) & (np.roll(f, -1) > f)])
    maxs = sorted(f[(np.roll(f, 1) < f) & (np.roll(f, -1) < f)])
    assert abs(finite[0].birth - mins[1]) < 1e-12
    assert abs(finite[0].death - maxs[0]) < 1e-12


def test_circle_complex_constant_and_guard():
    bc = barcode_of_complex(circle_complex([2.0, 2.0, 2.0]))
    assert sorted(bc.bars) == [Bar(2, INF, 0), Bar(2, INF, 1)]
    with pytest.raises(ValueError):
        circle_complex([1.0, 2.0])


def test_torus_grid_constant():
    bc = barcode_of_complex(torus_grid_complex(GridFunction(np.full((5, 4), 1.5))))
    assert sorted(bc.bars) == [Bar(1.5, INF, 0), Bar(1.5, INF, 1),
                               Bar(1.5, INF, 1), Bar(1.5, INF, 2)]


def test_torus_grid_shift_equivariance():
    rng = np.random.default_rng(3)
    vals = rng.normal(size=(5, 5))
    b0 = barcode_of_complex(torus_grid_complex(GridFunction(vals)))
    b1 = barcode_of_complex(torus_grid_complex(GridFunction(vals + 2.5)))
    shifted = sorted(Bar(b.birth + 2.5,
                         b.death + 2.5 if b.death < INF else INF, b.degree)
                     for b in b0.bars)
    assert all(abs(x.birth - y.birth) < 1e-12
               and (x.death == y.death or abs(x.death - y.death) < 1e-12)
               and x.degree == y.degree
               for x, y in zip(shifted, sorted(b1.bars)))


def test_torus_grid_guards():
    with pytest.raises(ValueError):
        torus_grid_complex(GridFunction(np.zeros((3, 8))))


def test_torus_sin_structure():
    m = 16
    xs = 2 * np.pi * np.arange(m) / m
    vals = np.sin(2 * xs)[:, None] + np.sin(2 * xs)[None, :]
    bc = barcode_of_complex(torus_grid_complex(GridFunction(vals)))
    deg0 = [b for b in bc.finite_bars() if b.degree == 0]
    deg1 = [b for b in bc.finite_bars() if b.degree == 1]
    assert len(deg0) == 3 and len(deg1) == 3
    assert all(abs(b.birth + 2) < 1e-9 and abs(b.death) < 1e-9 for b in deg0)
    assert all(abs(b.birth) < 1e-9 and abs(b.death - 2) < 1e-9 for b in deg1)


def test_oscillation():
    t = Triangulation([(0, 1), (1, 2)])
    assert oscillation(t, {0: 0.0, 1: 3.0, 2: 1.0}) == 3.0
    assert oscillation(t, {0: 1.0, 1: 1.0, 2: 1.0}) == 0.0


def test_oscillation_linear_grid():
    m = 8
    g = GridFunction(np.arange(m)[:, None] * np.ones((1, m)), period=float(m))
    tri, values = grid_triangulation(g)
    # slope 1 per unit step; periodic wrap dominates the spread
    assert oscillation(tri, values) == m - 1


def test_nu_against_simplex_count():
    rng = random.Random(12)
    for _ in range(15):
        n = rng.randint(3, 6)
        pts = [(i,) for i in range(n)]
        simplices = [tuple(sorted(rng.sample(range(n), rng.randint(2, 3))))
                     for _ in range(n)]
        t = Triangulation([(i,) for i in range(n)] + simplices)
        values = {i: rng.uniform(0, 1) for i in range(n)}
        bc = barcode_of_complex(sublevel_filtration(t, values))
        osc = oscillation(t, values)
        assert nu(bc, 2 * osc) <= len(t.simplices) / 2


def test_tree_net_rips_bars_short():
    rng = random.Random(8)
    for _ in range(5):
        x, eps = tree_metric_net(rng, n_edges=4, max_len=1.5, spacing=0.5)
        assert satisfies_triangle_inequality(x)
        bc = rips_barcode(x, 2)
        for bar in bc.finite_bars():
            assert bar.length <= 6 * eps + 1e-9


def test_drop_top_degree():
    b = Barcode([Bar(0, 1, 0), Bar(0, 1, 2), Bar(0, 1, None)])
    assert drop_top_degree(b, 2) == Barcode([Bar(0, 1, 0), Bar(0, 1, None)])


def test_csv_parsers():
    cloud = parse_point_cloud("0,0\n1, 0\n# comment\n0 ,1\n")
    assert cloud.n == 3 and cloud.dim == 2
    with pytest.raises(ValueError):
        parse_point_cloud("0,0\n1\n")
    with pytest.raises(ValueError):
        parse_point_cloud("a,b\n")
    with pytest.raises(ValueError):
        parse_point_cloud("")
    for bad in ("nan", "inf", "-inf", "Infinity"):
        with pytest.raises(ValueError, match="line 2: non-finite value"):
            parse_point_cloud(f"0,0\n1,{bad}\n")
    m = parse_distance_matrix("0,1\n1,0\n")
    assert m.n == 2
    with pytest.raises(ValueError):
        parse_distance_matrix("0,1,2\n1,0,1\n")
    g = parse_grid("1,2\n3,4\n5,6\n")
    assert g.nx == 2 and g.ny == 3
    assert g.values[0, 0] == 1 and g.values[1, 0] == 2 and g.values[0, 2] == 5


def test_rips_degree0_deaths_are_mst_weights():
    # independent oracle: components of the Rips filtration merge exactly
    # at the minimum-spanning-tree edge weights
    rng = random.Random(17)
    for _ in range(15):
        n = rng.randint(3, 9)
        pts = [[rng.uniform(0, 3), rng.uniform(0, 3)] for _ in range(n)]
        x = FiniteMetricSpace.from_points(pts)
        # Prim's algorithm
        in_tree = {0}
        weights = []
        while len(in_tree) < n:
            w, pick = min((float(x.dist[i, j]), j)
                          for i in in_tree for j in range(n) if j not in in_tree)
            weights.append(w)
            in_tree.add(pick)
        deg0 = [b for b in rips_barcode(x, 1).bars if b.degree == 0]
        deaths = sorted(b.death for b in deg0 if b.finite)
        assert len([b for b in deg0 if not b.finite]) == 1
        assert np.allclose(deaths, sorted(weights))


def cell_table(c):
    return {cell.id: (cell.degree, cell.value) for cell in c.cells}


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_sorted_rows_are_np_sort(width):
    rng = np.random.default_rng(190 + width)
    # every 0-1 row, which by the 0-1 principle proves the network, and
    # random rows with repeats
    cases = [np.array(list(itertools.product([0, 1], repeat=width))),
             np.array(list(itertools.permutations(range(width)))),
             np.zeros((0, width), np.int64)]
    cases += [rng.integers(0, 5, size=(m, width)) for m in (1, 7, 500)]
    for given in cases:
        got, want = _sorted_rows(given), np.sort(given, axis=1)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


def test_rips_matches_max_pairwise_distance():
    rng = random.Random(21)
    for trial in range(12):
        n = rng.randint(1, 8)
        pts = [[rng.choice([0.0, 1.0, rng.uniform(0, 2)]) for _ in range(2)] for _ in range(n)]
        if n > 1 and trial % 2 == 0:
            pts[-1] = list(pts[0])  # coincident points
        x = FiniteMetricSpace.from_points(pts)
        max_dim = rng.randint(0, 3)
        want = {s: (len(s) - 1, max((x.dist[i, j] for i, j in itertools.combinations(s, 2)),
                                    default=0.0))
                for k in range(1, max_dim + 2) for s in itertools.combinations(range(n), k)}
        assert cell_table(rips_complex(x, max_dim)) == want


def test_cech_matches_max_face_ball():
    rng = random.Random(22)
    for trial in range(8):
        n = rng.randint(1, 6)
        pts = np.array([[rng.uniform(0, 2), rng.uniform(0, 2)] for _ in range(n)])
        if n > 1 and trial % 2 == 0:
            pts[-1] = pts[0]
        want = {s: (len(s) - 1, max(2 * meb_radius(pts[list(f)])
                                    for r in range(1, k + 1)
                                    for f in itertools.combinations(s, r)))
                for k in range(1, 4) for s in itertools.combinations(range(n), k)}
        assert cell_table(cech_complex(PointCloud(pts), 2)) == want


def test_torus_matches_sublevel_of_grid_triangulation(monkeypatch):
    rng = np.random.default_rng(23)
    grids = [GridFunction(rng.choice([0.0, -0.0, 1.0, 0.5, -2.0], size=shape))
             for shape in ((4, 4), (5, 7), (6, 4), (11, 4), (4, 12), (10, 13))]
    sublevels = [sublevel_filtration(*grid_triangulation(g)) for g in grids]

    def torus_matches():
        # the cells of each degree in reduction order, which breaks ties in value by id
        tori = [torus_grid_complex(g) for g in grids]
        return all(t.cells_of_degree(k) == c.cells_of_degree(k)
                   for t, c in zip(tori, sublevels) for k in range(3))

    assert torus_matches()
    # ids order by repr, so (0, 10) comes before (0, 2): a numeric rank fails
    monkeypatch.setattr(persimod.complexes, "_repr_rank", lambda labels: np.arange(len(labels)))
    assert not torus_matches()


@pytest.mark.parametrize("n", range(13))
def test_nerve_enumerates_subsets_as_combinations(n):
    for max_dim in range(n + 3):
        seen = []

        def own(rows):
            seen.append(rows.tolist())
            return np.zeros(len(rows))

        c = _nerve(n, max_dim, own, 2)
        top = min(max_dim, n - 1)
        assert seen == [[list(s) for s in itertools.combinations(range(n), k + 1)]
                        for k in range(1, top + 1)]
        assert c.max_degree == top


def test_circle_matches_sublevel_of_cycle():
    rng = random.Random(24)
    for n in (3, 4, 9):
        samples = [rng.choice([0.0, -0.0, 1.0, rng.uniform(-1, 1)]) for _ in range(n)]
        cycle = Triangulation([(i, (i + 1) % n) for i in range(n)])
        assert cell_table(circle_complex(samples)) == \
            cell_table(sublevel_filtration(cycle, dict(enumerate(samples))))


# 4294967311 > 2^32: products of two coefficients overflow int64
@pytest.mark.parametrize("p", [2, 3, 4294967311])
def test_built_complex_makes_cells_only_when_read(p):
    c = rips_complex(FiniteMetricSpace(np.ones((12, 12)) - np.eye(12)), 2, p)
    assert drop_top_degree(barcode_of_complex(c), 2) == \
        Barcode([Bar(0, 1, 0)] * 11 + [Bar(0, INF, 0)])
    assert not {"cells", "boundary", "_cells"} & set(vars(c))
    # equal values break ties by repr(id), as for hand-made complexes
    assert [cell.id for cell in c.cells_of_degree(1)][:4] == [(0, 1), (0, 10), (0, 11), (0, 2)]
    assert c.boundary == {
        cell.id: {cell.id[:j] + cell.id[j + 1:]: 1 if j % 2 == 0 else p - 1
                  for j in range(len(cell.id))} if len(cell.id) > 1 else {}
        for cell in c.cells}


def test_built_complex_checks_its_arrays():
    def value(k, facet_values):
        return np.array([0.0, 5.0]) if k == 0 else np.array([1.0])

    # the builders skip the array check, so a wrong value goes through until it runs
    c = FilteredComplex._of_simplices(range(2), np.arange(2),
                                      [np.array([[0], [1]]), np.array([[0, 1]])], value, 2)
    with pytest.raises(InvalidComplexError, match=r"filtration increases along boundary of \(0, 1\)"):
        c.__post_init__()


def test_entry_values_keep_the_zero_sign_of_python_max():
    # on a -0.0/0.0 tie Python's max keeps the first value it was given
    circle = circle_complex([-0.0, 0.0, -0.0])
    assert {cell.id: repr(cell.value) for cell in circle.cells_of_degree(1)} == \
        {(0, 1): "-0.0", (1, 2): "0.0", (0, 2): "-0.0"}
    rips = rips_complex(FiniteMetricSpace(np.array([[0.0, -0.0], [-0.0, 0.0]])), 1)
    assert [repr(cell.value) for cell in rips.cells_of_degree(1)] == ["0.0"]


def seeded_builds(p, seed=0):
    """Every builder's output on seeded inputs over F_p: random and tied
    values with signed zeros, and Rips up to dimension 3."""
    rng = np.random.default_rng(seed)
    for trial in range(6):
        tied = trial % 2 == 1
        n = int(rng.integers(1, 12))
        pts = rng.choice([0.0, -0.0, 0.5, 1.0], size=(n, 2)) if tied else rng.normal(size=(n, 2))
        yield rips_complex(FiniteMetricSpace.from_points(pts), int(rng.integers(0, 4)), p)
        yield cech_complex(PointCloud(pts[:6]), 2, p)
        shape = tuple(int(v) for v in rng.integers(4, 11, size=2))
        vals = rng.choice([0.0, -0.0, 1.0, -2.0], size=shape) if tied else rng.normal(size=shape)
        yield torus_grid_complex(GridFunction(vals), p)
        yield sublevel_filtration(*grid_triangulation(GridFunction(vals)), p)
        m = int(rng.integers(3, 15))
        yield circle_complex((rng.choice([0.0, -0.0, 1.0], size=m) if tied
                              else rng.normal(size=m)).tolist(), p)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_every_builder_output_passes_the_array_check(p):
    builds = list(seeded_builds(p))
    assert len(builds) == 30
    for c in builds:
        c.__post_init__()    # faces not above their cell, and d(d) = 0
        for k in range(c.max_degree + 1):
            cells = c.cells_of_degree(k)
            assert [x.id for x in cells] == [x.id for x in sorted(cells, key=_order_key)]


def test_no_builder_runs_the_array_check(monkeypatch):
    calls = []
    check = FilteredComplex.__post_init__
    monkeypatch.setattr(FilteredComplex, "__post_init__", lambda self: calls.append(check(self)))
    for p in (2, 3):
        assert len(list(seeded_builds(p))) == 30
    rips_barcode(FiniteMetricSpace.from_points(regular_polygon_points(6)), 3)
    cech_barcode(PointCloud(regular_polygon_points(5)), 2)
    assert calls == []
    # the hand-made route still runs it, once
    FilteredComplex([Cell("v", 0, 0.0), Cell("e", 1, 1.0)], {"e": {"v": 1}}, 2)
    assert calls == [None]


BUILDERS = {
    "rips_complex": lambda p: rips_complex(FiniteMetricSpace.from_points([[0, 0], [1, 0]]), 1, p),
    "cech_complex": lambda p: cech_complex(PointCloud([[0, 0], [1, 0]]), 1, p),
    "torus_grid_complex": lambda p: torus_grid_complex(GridFunction(np.zeros((4, 4))), p),
    "sublevel_filtration": lambda p: sublevel_filtration(Triangulation([(0, 1)]),
                                                         {0: 0.0, 1: 1.0}, p),
    "circle_complex": lambda p: circle_complex([0.0, 1.0, 2.0], p),
}


@pytest.mark.parametrize("builder", BUILDERS)
@pytest.mark.parametrize("p, message", [(4, "must be prime, got 4"),
                                        (2 ** 63, "must be below 2^63")])
def test_builders_refuse_characteristics_that_are_no_field(builder, p, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        BUILDERS[builder](p)
    assert BUILDERS[builder](5).p == 5


@pytest.mark.parametrize("bad", [math.nan, INF, -INF])
def test_builders_refuse_non_finite_vertex_values(bad):
    grid = np.zeros((4, 5))
    grid[2, 3] = grid[3, 0] = bad
    with pytest.raises(ValueError, match=re.escape(f"vertex (2, 3) has the non-finite value {bad}")):
        GridFunction(grid)
    t = Triangulation([("a", "b"), ("b", "c")])
    with pytest.raises(ValueError, match=re.escape(f"vertex 'b' has the non-finite value {bad}")):
        sublevel_filtration(t, {"a": 0.0, "b": bad, "c": bad})
    with pytest.raises(ValueError, match=re.escape(f"vertex 1 has the non-finite value {bad}")):
        circle_complex([0.0, bad, 1.0, bad])


def test_torus_and_circle_values_are_bit_identical_to_the_sublevel_route():
    # a wrap-around simplex takes its max over its sorted vertices, as a
    # Triangulation's sorted simplices do, so the zero signs agree too
    def bits(c):
        return [[(x.id, x.value.hex()) for x in c.cells_of_degree(k)]
                for k in range(c.max_degree + 1)]

    rng = np.random.default_rng(29)
    negative_zeros = 0
    for shape in ((4, 4), (5, 7), (6, 4), (4, 9), (9, 6)):
        g = GridFunction(rng.choice([0.0, -0.0], size=shape))
        torus = bits(torus_grid_complex(g))
        assert torus == bits(sublevel_filtration(*grid_triangulation(g)))
        negative_zeros += sum(v == "-0x0.0p+0" for cells in torus for _, v in cells)
    for n in (3, 4, 9):
        samples = rng.choice([0.0, -0.0], size=n).tolist()
        cycle = Triangulation([(i, (i + 1) % n) for i in range(n)])
        assert bits(circle_complex(samples)) == \
            bits(sublevel_filtration(cycle, dict(enumerate(samples))))
    assert negative_zeros > 50
    # the wrap-around edge (2, 0) of the circle enters at +0.0, the value of its sorted row
    assert [x.value.hex() for x in circle_complex([0.0, 1.0, -0.0]).cells_of_degree(1)][:1] \
        == ["0x0.0p+0"]


def test_tie_codes_stay_in_int64_at_high_dimensions():
    # the ranks of 17 vertices as base-17 digits would pass 2^63 at degree 15;
    # a code built on the place of the facet stays below 17 times the cells below
    rng = np.random.default_rng(31)
    c = rips_complex(FiniteMetricSpace.from_points(rng.choice([0.0, 1.0], size=(17, 2))), 16)
    assert c.n_cells() == 2 ** 17 - 1
    rank = persimod.complexes._repr_rank(range(17))
    for k, rows in c._vertices.items():
        # values first, then the vertex ranks in turn: the order of the ids' reprs
        keys = [rank[rows[:, t]] for t in range(k, -1, -1)] + [c._block(k).values]
        assert (np.lexsort(keys) == np.arange(len(rows))).all()
