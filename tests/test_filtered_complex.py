import bisect
import itertools
import math
import pickle
import random
import re
from collections import Counter

import numpy as np
import pytest

import persimod.field as ff
from persimod.barcode import Bar, Barcode, boundary_depth
from persimod.complexes import (FiniteMetricSpace, GridFunction, PointCloud,
                                Triangulation, cech_complex, circle_complex, drop_top_degree,
                                rips_complex, sublevel_filtration, torus_grid_complex)
from persimod.filtered_complex import (Cell, FilteredComplex, _coboundary, _dense,
                                       _Block, _cohomology_pairing, _reduce,
                                       _union_find_pairing,
                                       InvalidComplexError, barannikov_reduce,
                                       barcode_of_complex,
                                       boundary_depth_usher, homology_module,
                                       homology_slice_bases,
                                       random_filtered_complex)
from persimod.module_rep import barcode as rep_barcode

INF = math.inf


def heart_sphere(a=(0, 1, 2, 3), p=2):
    return FilteredComplex(
        [Cell("x1", 0, a[0]), Cell("x2", 1, a[1]),
         Cell("x3", 2, a[2]), Cell("x4", 2, a[3])],
        {"x1": {}, "x2": {}, "x3": {"x2": 1}, "x4": {"x2": 1}}, p)


def hollow_triangle():
    return FilteredComplex(
        [Cell(f"v{i}", 0, 0) for i in range(3)] + [Cell(f"e{i}", 1, 1) for i in range(3)],
        {"v0": {}, "v1": {}, "v2": {},
         "e0": {"v0": 1, "v1": 1}, "e1": {"v1": 1, "v2": 1}, "e2": {"v0": 1, "v2": 1}})


def test_validation_dd_zero():
    with pytest.raises(InvalidComplexError, match=re.escape("d(d(c)) != 0")):
        FilteredComplex([Cell("a", 0, 0), Cell("b", 1, 1), Cell("c", 2, 2)],
                        {"a": {}, "b": {"a": 1}, "c": {"b": 1}})


@pytest.mark.parametrize("hits", [1, 2, 3, 4])
def test_validation_dd_zero_over_f2_counts_hits_by_parity(hits):
    # t's boundary is `hits` parallel edges from a to b, so d(d(t)) = hits * (a + b);
    # u hits a and b twice in every case, and 3 = 1 over F_2
    edges = {f"e{i}": {"a": 1, "b": 3} for i in range(4)}
    cells = ([Cell("a", 0, 0), Cell("b", 0, 0)] + [Cell(e, 1, 1) for e in edges]
             + [Cell("t", 2, 2), Cell("u", 2, 2)])
    boundary = {**edges, "t": {f"e{i}": 1 for i in range(hits)}, "u": {"e2": 1, "e3": 3}}
    if hits % 2:
        with pytest.raises(InvalidComplexError, match=re.escape("d(d(t)) != 0")):
            FilteredComplex(cells, boundary, 2)
    else:
        FilteredComplex(cells, boundary, 2)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_validation_dd_zero_catches_one_flipped_sign(p):
    # two filled triangles on a square; flipping one sign in either breaks d(d) = 0
    edges = {e: {e[0]: p - 1, e[1]: 1} for e in ("ab", "bc", "ac", "cd", "ad")}
    faces = {"abc": {"bc": 1, "ac": p - 1, "ab": 1}, "acd": {"cd": 1, "ad": p - 1, "ac": 1}}
    cells = ([Cell(v, 0, 0) for v in "abcd"] + [Cell(e, 1, 1) for e in edges]
             + [Cell("abc", 2, 2), Cell("acd", 2, 2)])
    FilteredComplex(cells, {**edges, **faces}, p)
    for t in faces:
        for e, v in faces[t].items():
            with pytest.raises(InvalidComplexError, match=re.escape(f"d(d({t})) != 0")):
                FilteredComplex(cells, {**edges, **faces, t: {**faces[t], e: p - v}}, p)


def test_validation_filtration_monotone():
    with pytest.raises(InvalidComplexError):
        FilteredComplex([Cell("a", 0, 5), Cell("b", 1, 1)],
                        {"a": {}, "b": {"a": 1}})


def test_validation_names_the_first_raised_face_in_reduction_order():
    # t, e1 and e2 each sit below a face; the array check names the first of
    # them in reduction order (degree, then value), not the first one given
    cells = [Cell("t", 2, 1.0), Cell("e1", 1, 3.0), Cell("e2", 1, 2.0),
             Cell("a", 0, 5.0), Cell("b", 0, 5.0)]
    boundary = {"t": {"e1": 1, "e2": 1}, "e1": {"a": 1, "b": 1}, "e2": {"a": 1, "b": 1}}
    with pytest.raises(InvalidComplexError, match="filtration increases along boundary of e2$"):
        FilteredComplex(cells, boundary, 2)
    # a face whose coefficient vanishes mod p is not in the boundary
    c = FilteredComplex([Cell("a", 0, 5.0), Cell("b", 1, 1.0)], {"b": {"a": 2}}, 2)
    assert not c._block(1).rows.size


def test_validation_degree_gap():
    with pytest.raises(InvalidComplexError):
        FilteredComplex([Cell("a", 0, 0), Cell("b", 2, 1)],
                        {"a": {}, "b": {"a": 1}})


def test_validation_duplicate_ids():
    with pytest.raises(InvalidComplexError, match="duplicate cell ids"):
        FilteredComplex([Cell("a", 0, 0), Cell("a", 1, 1)], {"a": {}})


def test_validation_unknown_face():
    with pytest.raises(InvalidComplexError, match="hits unknown cell z"):
        FilteredComplex([Cell("a", 0, 0), Cell("b", 1, 1)], {"b": {"a": 1, "z": 1}})


def test_validation_unknown_face_with_zero_coefficient():
    # faces are checked before zero coefficients are dropped
    with pytest.raises(InvalidComplexError, match="hits unknown cell z"):
        FilteredComplex([Cell("a", 0, 0), Cell("b", 1, 1)], {"b": {"z": 3}}, p=3)


def test_validation_boundary_of_an_unknown_cell():
    # a boundary keyed by no cell was ignored, leaving s a ray
    cells = [Cell("x", 0, 0.0), Cell("y", 0, 0.0), Cell("s", 1, 1.0)]
    with pytest.raises(InvalidComplexError, match="boundary given for unknown cell S"):
        FilteredComplex(cells, {"S": {"x": 1, "y": 1}}, 2)
    with pytest.raises(InvalidComplexError, match="unknown cell S"):
        FilteredComplex(cells, {"s": {"x": 1, "y": 1}, "S": {}}, 2)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_validation_non_finite_cell_value(value):
    # NaN passed every face check (each comparison with it is false) and
    # failed later, in barcode_of_complex, as a bar (nan, inf]
    with pytest.raises(InvalidComplexError, match=f"cell a has the non-finite value {value}"):
        FilteredComplex([Cell("a", 0, value)], {})
    cells = [Cell("x", 0, 0.0), Cell("y", 0, value), Cell("s", 1, 1.0)]
    with pytest.raises(InvalidComplexError, match="cell y has the non-finite value"):
        FilteredComplex(cells, {"s": {"x": 1, "y": 1}}, 2)


def test_reduction_leaves_the_complex_unchanged():
    c = random_filtered_complex(random.Random(7), max_cells=30, max_degree=3, p=5)
    modules = [homology_module(c, k) for k in range(c.max_degree + 1)]
    blocks = {k: [a.copy() for a in b] for k, b in c._blocks.items()}
    first = barannikov_reduce(c)
    # the F_5 reduction really subtracts columns (a boundary column pairs
    # off its own lowest row), so a mutated boundary would show
    pairing = boundary_pairing(c)
    lows = [(k, j, max(b.rows[a:e])) for k, b in c._blocks.items()
            for j, (a, e) in enumerate(zip(b.indptr, b.indptr[1:])) if a < e]
    assert any(pairing[k].get(j) != low for k, j, low in lows)
    c.cells_of_degree(1).clear()      # a copy, not the stored list
    assert barannikov_reduce(c).pairing == first.pairing
    for k, b in c._blocks.items():
        assert all(np.array_equal(x, y) for x, y in zip(b, blocks[k]))
    for k, want in enumerate(modules):
        again = homology_module(c, k)
        assert again.dims == want.dims
        assert all(np.array_equal(a, b) for a, b in zip(again.maps, want.maps))


def test_single_vertex():
    c = FilteredComplex([Cell("v", 0, 2.5)], {"v": {}})
    assert barcode_of_complex(c) == Barcode([Bar(2.5, INF, 0)])
    jp = barannikov_reduce(c)
    assert jp.unpaired[0] == [0]


def test_heart_sphere_barcode_and_pairing():
    c = heart_sphere()
    bc = barcode_of_complex(c)
    assert bc == Barcode([Bar(0, INF, 0), Bar(1, 2, 1), Bar(3, INF, 2)])
    jp = barannikov_reduce(c)
    # x3 pairs with x2; x4's reduced column closes a cycle
    assert jp.pairing[2] == {0: 0}
    assert jp.unpaired[2] == [1]
    assert jp.unpaired[0] == [0]
    assert boundary_depth(bc) == 1 == boundary_depth_usher(c)


def test_hollow_triangle():
    c = hollow_triangle()
    bc = barcode_of_complex(c)
    assert bc == Barcode([Bar(0, INF, 0), Bar(0, 1, 0), Bar(0, 1, 0), Bar(1, INF, 1)])
    assert boundary_depth_usher(c) == 1


def test_no_boundaries_depth_zero():
    c = FilteredComplex([Cell("a", 0, 0), Cell("b", 0, 3)], {"a": {}, "b": {}})
    assert boundary_depth_usher(c) == 0


def test_equal_value_pairs_emit_no_bar():
    c = FilteredComplex([Cell("v", 0, 1.0), Cell("w", 0, 1.0), Cell("e", 1, 1.0)],
                        {"v": {}, "w": {}, "e": {"v": 1, "w": 1}})
    bc = barcode_of_complex(c)
    assert bc == Barcode([Bar(1, INF, 0)])


def old_order_bars(c):
    """The bars made one at a time, per degree the pairs and then the rays,
    and sorted stably on Bar._key."""
    jp = barannikov_reduce(c)
    values, bars = jp.values, []
    for k in sorted(values):
        for j, low in jp.pairing[k].items():
            if values[k - 1][low] < values[k][j]:
                bars.append(Bar(values[k - 1][low], values[k][j], k - 1))
        bars += [Bar(values[k][j], INF, k) for j in jp.unpaired[k]]
    return sorted(bars, key=Bar._key)


def bits(bars):
    return [(b.birth.hex(), b.death.hex(), type(b.birth), b.degree, type(b.degree))
            for b in bars]


def signed_zero_cliques(p, count):
    """Hand-made complexes on 5 vertices whose values tie between 0.0, -0.0
    and int 0, and between int and float 1."""
    rng = random.Random(80 + p)
    for _ in range(count):
        cells = [Cell(str(v), 0, rng.choice([0.0, -0.0, 0])) for v in range(5)]
        boundary = {}
        for u, v in itertools.combinations(range(5), 2):
            cells.append(Cell(f"{u}{v}", 1, rng.choice([0.0, -0.0, 1, 1.0])))
            boundary[f"{u}{v}"] = {str(u): p - 1, str(v): 1}
        for u, v, w in rng.sample(list(itertools.combinations(range(5), 3)), 4):
            cells.append(Cell(f"{u}{v}{w}", 2, rng.choice([1, 1.0, 2])))
            boundary[f"{u}{v}{w}"] = {f"{v}{w}": 1, f"{u}{w}": p - 1, f"{u}{v}": 1}
        yield FilteredComplex(cells, boundary, p)


@pytest.mark.parametrize("p", [2, 3])
def test_bar_order_is_the_sorted_order_bit_for_bit(p):
    # ties between 0.0 and -0.0 keep the order the bars were made in, and
    # int values come back as float endpoints with int degrees
    signed = 0
    for c in signed_zero_cliques(p, 40):
        bars = barcode_of_complex(c).bars
        assert bits(bars) == bits(sorted(bars, key=Bar._key))
        assert bits(bars) == bits(old_order_bars(c))
        signed += sum(b.birth.hex() == "-0x0.0p+0" for b in bars)
    assert signed


def test_all_cells_at_zero_rays_match_betti():
    c = hollow_triangle()
    cells = [Cell(x.id, x.degree, 0.0) for x in c.cells]
    flat = FilteredComplex(cells, c.boundary)
    bc = barcode_of_complex(flat)
    assert sorted(bc.bars) == [Bar(0, INF, 0), Bar(0, INF, 1)]


def test_tie_shuffle_barcode_invariance():
    c0 = hollow_triangle()
    ref = barcode_of_complex(c0)
    for perm in itertools.permutations(["v0", "v1", "v2"]):
        ren = dict(zip(["v0", "v1", "v2"], perm))
        cells = [Cell(ren.get(x.id, x.id), x.degree, x.value) for x in c0.cells]
        bd = {ren.get(k, k): {ren.get(f, f): v for f, v in d.items()}
              for k, d in c0.boundary.items()}
        assert barcode_of_complex(FilteredComplex(cells, bd)) == ref


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_homology_module_oracle(p):
    # the rank formula shares no code with _reduce, which both pairing routes run
    rng = random.Random(30 + p)
    for _ in range(30):
        c = random_filtered_complex(rng, max_cells=25, max_degree=2, p=p)
        bc = barcode_of_complex(c)
        assert len(bc.finite_bars()) <= c.n_cells() / 2
        for k in range(c.max_degree + 1):
            want = Barcode(sorted(Bar(b.birth, b.death)
                                  for b in bc.bars if b.degree == k))
            assert rep_barcode(homology_module(c, k)) == want
        assert abs(boundary_depth_usher(c) - boundary_depth(bc)) < 1e-12


def slice_bases_by_rank(c, degree):
    """Reference: homology_slice_bases as it was before one elimination per
    level replaced the per-cycle rank test."""
    p = c.p
    cells_k = c.cells_of_degree(degree)
    cells_km1 = c.cells_of_degree(degree - 1)
    cells_kp1 = c.cells_of_degree(degree + 1)
    d_k, d_kp1 = _dense(c, degree), _dense(c, degree + 1)
    out = []
    for level in c.filtration_values():
        sel_k = [i for i, cell in enumerate(cells_k) if cell.value <= level]
        sel_km1 = [i for i, cell in enumerate(cells_km1) if cell.value <= level]
        sel_kp1 = [j for j, cell in enumerate(cells_kp1) if cell.value <= level]
        if not sel_k:
            out.append((ff.zeros(0, 0), ff.zeros(0, 0), sel_k))
            continue
        dk = d_k[np.ix_(sel_km1, sel_k)] if sel_km1 else ff.zeros(0, len(sel_k))
        cycles = ff.kernel_basis(dk, p)
        bnd = d_kp1[np.ix_(sel_k, sel_kp1)] if sel_kp1 else ff.zeros(len(sel_k), 0)
        bnd = ff.column_space_basis(bnd, p)
        reps = []
        cur, r = bnd, ff.rank(bnd, p)
        for col in range(cycles.shape[1]):
            cand = np.hstack([cur, cycles[:, col:col + 1]])
            rr = ff.rank(cand, p)
            if rr > r:
                reps.append(cycles[:, col])
                cur, r = cand, rr
        reps_m = np.array(reps, dtype=np.int64).T if reps else ff.zeros(len(sel_k), 0)
        out.append((reps_m, bnd, sel_k))
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_homology_slice_bases_match_rank_selection(p):
    rng = random.Random(40 + p)
    for _ in range(25):
        c = random_filtered_complex(rng, max_cells=20, max_degree=3, p=p)
        for degree in range(c.max_degree + 1):
            got = homology_slice_bases(c, degree)
            want = slice_bases_by_rank(c, degree)
            assert len(got) == len(want)
            for (g_reps, g_bnd, _), (w_reps, w_bnd, w_sel) in zip(got, want):
                # each level's rows are a prefix of the cells in reduction order
                assert w_sel == list(range(len(w_sel))) and g_reps.shape[0] == len(w_sel)
                assert g_reps.shape == w_reps.shape and np.array_equal(g_reps, w_reps)
                assert g_bnd.shape == w_bnd.shape and np.array_equal(g_bnd, w_bnd)


def module_by_levels(c, degree):
    """Reference: homology_module with one kernel_basis, one row_echelon and
    one solve at every level, repeated levels included."""
    p = c.p
    values = [c._block(k).values.tolist() for k in (degree - 1, degree, degree + 1)]
    d_k, d_kp1 = _dense(c, degree), _dense(c, degree + 1)
    dims, maps, prev = [0], [], ff.zeros(0, 0)
    for level in c.filtration_values():
        n_km1, n_k, n_kp1 = (bisect.bisect_right(v, level) for v in values)
        reps = bnd = ff.zeros(0, 0)
        if n_k:
            cycles = ff.kernel_basis(d_k[:n_km1, :n_k], p)
            bnd = d_kp1[:n_k, :n_kp1]
            piv = np.array(ff.row_echelon(np.hstack([bnd, cycles]), p)[1], dtype=int)
            nb = bnd.shape[1]
            reps, bnd = cycles[:, piv[piv >= nb] - nb], bnd[:, piv[piv < nb]]
        lift = ff.zeros(reps.shape[0], prev.shape[1])
        lift[:prev.shape[0]] = prev
        if reps.shape[1] and lift.shape[1]:
            maps.append(ff.solve(np.hstack([bnd, reps]), lift, p)[bnd.shape[1]:, :])
        else:
            maps.append(ff.zeros(reps.shape[1], lift.shape[1]))
        dims.append(reps.shape[1])
        prev = reps
    return dims, maps


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_homology_module_matches_the_level_by_level_build(p):
    rng = random.Random(70 + p)
    for t in range(40):
        c = random_filtered_complex(rng, max_cells=30, max_degree=3, p=p)
        if t % 2:
            # whole-number values: many cells of every degree enter together
            c = FilteredComplex([Cell(x.id, x.degree, float(math.floor(x.value)))
                                 for x in c.cells], c.boundary, p)
        for degree in range(c.max_degree + 2):
            got = homology_module(c, degree)
            dims, maps = module_by_levels(c, degree)
            assert got.spectrum == c.filtration_values() and got.dims == dims
            assert [(m.dtype, m.shape, m.tobytes()) for m in got.maps] == \
                [(m.dtype, m.shape, m.tobytes()) for m in maps]


@pytest.mark.parametrize("p", [2, 5])
def test_cell_list_order_does_not_matter(p):
    rng = random.Random(40 + p)
    for _ in range(25):
        c = random_filtered_complex(rng, max_cells=20, max_degree=2, p=p)
        cells = list(c.cells)
        rng.shuffle(cells)
        shuffled = FilteredComplex(cells, c.boundary, p)
        assert barcode_of_complex(shuffled) == barcode_of_complex(c)
        assert boundary_depth_usher(shuffled) == boundary_depth_usher(c)
        for k in range(c.max_degree + 1):
            assert rep_barcode(homology_module(shuffled, k)) == rep_barcode(homology_module(c, k))


def boundary_pairing(c):
    """The plain boundary reduction, degree by degree, with no clearing and
    no union-find."""
    pairing = {}
    for k in range(c.max_degree + 1):
        pivots = _reduce(c._block(k), c.p)
        cols = np.flatnonzero(pivots >= 0)
        pairing[k] = dict(zip(cols.tolist(), pivots[cols].tolist()))
    return pairing


def dense_pairing(c):
    """The oracle: low-driven elimination on each dense boundary mod p, one
    column at a time, with no apparent pairs, no clearing and no union-find."""
    pairing = {}
    for k in range(c.max_degree + 1):
        m, pairs, col_of_low = _dense(c, k) % c.p, {}, {}
        for j in range(m.shape[1]):
            while m[:, j].any():
                low = int(np.flatnonzero(m[:, j])[-1])
                i = col_of_low.get(low)
                if i is None:
                    col_of_low[low], pairs[j] = j, low
                    break
                m[:, j] = (m[:, j] - m[low, j] * pow(int(m[low, i]), -1, c.p) * m[:, i]) % c.p
        pairing[k] = pairs
    return pairing


def coboundary_by_stable_sort(c, k):
    """_coboundary as a stable argsort of the entries' columns builds it."""
    below, b = c._block(k), c._block(k + 1)
    t = len(below.values) - 1 - b.rows
    order = np.argsort(t, kind="stable")
    return _Block(below.values[::-1],
                  np.concatenate(([0], np.cumsum(np.bincount(t, minlength=len(below.values))))),
                  (len(b.values) - 1 - b.entry_cols())[order], b.coeffs[order])


def assert_same_pairing(c):
    """The pairing route (union-find and coboundaries with clearing) and
    the boundary reduction both find the pairing of the dense oracle, and
    each coboundary is bit-equal to its stable-sort build."""
    for k in range(c.max_degree):
        for got, want in zip(_coboundary(c, k), coboundary_by_stable_sort(c, k)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    jp = barannikov_reduce(c)
    pairing = dense_pairing(c)
    assert boundary_pairing(c) == pairing
    assert jp.pairing == pairing
    for k in pairing:
        values = sorted(cell.value for cell in c.cells if cell.degree == k)
        assert jp.values[k] == values
        hit = set(pairing[k]) | set(pairing.get(k + 1, {}).values())
        assert jp.unpaired[k] == [j for j in range(len(values)) if j not in hit]
    return jp


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_reduce_without_basis_keeps_the_pairing(p):
    rng = random.Random(50 + p)
    pairs = 0
    for _ in range(125):
        c = random_filtered_complex(rng, max_cells=25, max_degree=3, p=p)
        full = assert_same_pairing(c)
        pairs += sum(len(m) for k, m in full.pairing.items() if k > 1)
    assert pairs > 0    # pairs above degree 1 come from the coboundaries


def builder_complexes(rng, p):
    pts = rng.normal(size=(9, 2))
    yield rips_complex(FiniteMetricSpace.from_points(pts), 3, p)
    yield cech_complex(PointCloud(pts[:7]), 2, p)
    yield torus_grid_complex(GridFunction(rng.normal(size=(5, 6))), p)
    yield circle_complex(rng.normal(size=8).tolist(), p)
    tri = Triangulation([(0, 1, 2), (0, 2, 3), (0, 3, 4), (1, 2, 5), (4, 5), (6,)])
    yield sublevel_filtration(tri, {v: float(x) for v, x in enumerate(rng.normal(size=7))}, p)


@pytest.mark.parametrize("p", [2, 3])
def test_builders_keep_the_pairing_without_basis(p):
    rng = np.random.default_rng(60 + p)
    for _ in range(6):
        for c in builder_complexes(rng, p):
            full = assert_same_pairing(c)
            assert full.pairing[1]    # some component merges


@pytest.mark.parametrize("p", [2, 3])
def test_deferred_bars_match_bars_made_up_front(p, monkeypatch):
    made_bars = []
    make_bar = Bar.__post_init__
    monkeypatch.setattr(Bar, "__post_init__", lambda bar: made_bars.append(make_bar(bar)))
    rng = np.random.default_rng(70 + p)
    hand_made = [heart_sphere(p=p), FilteredComplex([], {}, p), *signed_zero_cliques(p, 10)]
    for c in [*builder_complexes(rng, p), *hand_made]:
        eager = Barcode(old_order_bars(c))
        for max_dim in range(c.max_degree + 2):
            made = barcode_of_complex(c)
            assert bits(made.bars) == bits(eager.bars)
            before = len(made_bars)
            # dropping makes no Bar, whether the bars were made or not
            deferred = drop_top_degree(barcode_of_complex(c), max_dim)
            made = drop_top_degree(made, max_dim)
            assert len(made_bars) == before
            assert bits(deferred.bars) == bits(made.bars)
            assert all(b.degree < max_dim for b in deferred)
        b = barcode_of_complex(c)
        assert b.bars is b.bars and list(b) == b.bars and len(b) == len(eager)
        # each fresh barcode_of_complex(c) has not made its bars yet; b has
        fresh = barcode_of_complex
        assert fresh(c) == eager and eager == fresh(c) and b == eager
        assert repr(fresh(c)) == repr(b) == repr(eager)
        assert pickle.dumps(fresh(c)) == pickle.dumps(b) == pickle.dumps(eager)
        assert bits(pickle.loads(pickle.dumps(fresh(c))).bars) == bits(eager.bars)


def test_union_find_falls_back_on_other_edge_columns():
    vertices = [Cell(v, 0, x) for v, x in zip("uvw", (0, 1, 2))]
    # over F_3 the edges u + v are not of the form a(u - v): the third pairs with u,
    # where the elder rule would close a cycle
    plus = FilteredComplex(vertices + [Cell("uv", 1, 3), Cell("vw", 1, 4), Cell("uw", 1, 5)],
                           {"uv": {"u": 1, "v": 1}, "vw": {"v": 1, "w": 1},
                            "uw": {"u": 1, "w": 1}}, p=3)
    assert assert_same_pairing(plus).pairing[1] == {0: 1, 1: 2, 2: 0}
    assert barcode_of_complex(plus) == Barcode([Bar(1, 3, 0), Bar(2, 4, 0), Bar(0, 5, 0)])
    # an edge with a single vertex kills it
    single = FilteredComplex(vertices + [Cell("e", 1, 3), Cell("uv", 1, 4)],
                             {"e": {"w": 2}, "uv": {"u": 1, "v": 2}}, p=3)
    assert assert_same_pairing(single).pairing[1] == {0: 2, 1: 1}
    assert barcode_of_complex(single) == Barcode([Bar(0, INF, 0), Bar(1, 4, 0), Bar(2, 3, 0)])


def oriented_torus(n, values, p):
    """The periodic n x n grid, each square (i, j) split along its diagonal
    into the counterclockwise triangles (i, j) (i+1, j) (i+1, j+1) and
    (i, j) (i+1, j+1) (i, j+1), with lower-star values.  Each edge meets
    its two triangles with opposite signs, so the degree-1 coboundary is a
    graph over every F_p."""
    at = [float(x) for x in values]
    cells, boundary = [Cell(v, 0, at[v]) for v in range(n * n)], {}

    def edge(x, y):
        e = (min(x, y), max(x, y))
        if e not in boundary:
            cells.append(Cell(e, 1, max(at[x], at[y])))
            boundary[e] = {e[0]: p - 1, e[1]: 1}
        return e, 1 if x < y else p - 1

    def v(i, j):
        return i % n * n + j % n

    for i, j in itertools.product(range(n), repeat=2):
        for tri in ((v(i, j), v(i + 1, j), v(i + 1, j + 1)),
                    (v(i, j), v(i + 1, j + 1), v(i, j + 1))):
            cells.append(Cell(("t", *tri), 2, max(at[x] for x in tri)))
            boundary[("t", *tri)] = dict(edge(x, y) for x, y in zip(tri, tri[1:] + tri[:1]))
    return FilteredComplex(cells, boundary, p)


def assert_forest_is_the_reduction(c, k):
    """The union-find gives _reduce's pivots on the degree-k coboundary,
    with no clearing and with the clearing the pairing route applies."""
    block, n_above = _coboundary(c, k), len(c._block(k + 1).values)
    for cleared in (np.False_, (_cohomology_pairing(c)[k] >= 0)[::-1]):
        forest = _union_find_pairing(block, n_above, c.p, cleared)
        assert forest is not None
        assert np.array_equal(forest, _reduce(block, c.p, cleared))


def torus_rays(c):
    return Counter(b.degree for b in barcode_of_complex(c) if b.death == INF)


def test_torus_coboundary_pairs_through_the_forest_over_f2():
    rng = np.random.default_rng(90)
    for nx, ny in [(4, 4), (5, 7), (8, 6), (12, 12)]:
        # ties from rounding, so equal values order by id
        c = torus_grid_complex(GridFunction(np.round(rng.normal(size=(nx, ny)), 1)), 2)
        assert_forest_is_the_reduction(c, 1)
        assert_same_pairing(c)
        assert torus_rays(c) == {0: 1, 1: 2, 2: 1}


@pytest.mark.parametrize("p", [3, 5, 7])
def test_oriented_torus_pairs_through_the_forest_over_fp(p):
    rng = np.random.default_rng(90 + p)
    for n in (4, 5, 6):
        for _ in range(4):
            c = oriented_torus(n, np.round(rng.normal(size=n * n), 1), p)
            assert _union_find_pairing(c._block(1), n * n, p) is not None
            assert_forest_is_the_reduction(c, 1)
            assert_same_pairing(c)
            assert torus_rays(c) == {0: 1, 1: 2, 2: 1}


def test_builder_torus_falls_back_over_f3():
    # the builder signs a face (-1)^t by position, not by orientation, so
    # over F_3 some edge meets its two triangles with equal signs
    c = torus_grid_complex(GridFunction(np.random.default_rng(93).normal(size=(5, 6))), 3)
    assert _union_find_pairing(_coboundary(c, 1), len(c._block(2).values), 3) is None
    assert_same_pairing(c)
    assert torus_rays(c) == {0: 1, 1: 2, 2: 1}


@pytest.mark.parametrize("p", [2, 5])
def test_parallel_edges_and_ties_keep_the_pairing(p):
    rng = random.Random(95 + p)
    for _ in range(40):
        n = rng.randint(2, 6)
        cells = [Cell(v, 0, rng.choice([0, 1])) for v in range(n)]
        boundary = {}
        for e in range(rng.randint(1, 12)):
            u, v = rng.sample(range(n), 2)    # repeats make parallel edges
            a = rng.randrange(1, p)    # the column a(u - v)
            cells.append(Cell(f"e{e}", 1, rng.choice([1, 2])))
            boundary[f"e{e}"] = {u: a, v: p - a}
        c = FilteredComplex(cells, boundary, p)
        assert _union_find_pairing(c._block(1), n, p) is not None
        assert_same_pairing(c)


def test_long_forest_path_on_a_circle():
    # edge (i, i+1) is the first to touch i+1 and hangs it under i, so the
    # forest holds a path of depth n - 2; the last edge, (n-2, n-1), ties with
    # (0, n-1), comes after it by id, and finds both its rows under root 0
    n = 20000
    samples = np.arange(n) / n
    b = barcode_of_complex(circle_complex(samples.tolist(), 2))
    assert b == Barcode([Bar(samples[0], INF, 0), Bar(samples[-1], INF, 1)])


def test_jordan_pairings_compare_by_their_views():
    c = rips_complex(FiniteMetricSpace.from_points(np.random.default_rng(97).normal(size=(8, 2))),
                     3, 3)
    jp, again = barannikov_reduce(c), barannikov_reduce(c)
    assert "pairing" not in vars(jp) and "unpaired" not in vars(jp)    # views made on first read
    assert jp == again and all(jp.pairing[k] for k in (1, 2, 3))
    assert jp != barannikov_reduce(heart_sphere(p=3)) and jp != jp.pairing
    assert type(jp.pairing) is dict and type(jp.unpaired) is dict
    for k in jp.partner:
        assert all(type(x) is int for pair in jp.pairing[k].items() for x in pair)
        assert type(jp.unpaired[k]) is list
        assert all(type(j) is int for j in jp.unpaired[k])
    assert jp.pairing is jp.pairing and jp.unpaired is jp.unpaired


@pytest.mark.parametrize("p", [2, 3])
def test_pairing_without_basis_on_degenerate_complexes(p):
    empty = FilteredComplex([], {}, p)
    assert assert_same_pairing(empty).pairing == {}
    assert barcode_of_complex(empty) == Barcode([])
    points = FilteredComplex([Cell("v", 0, 1), Cell("w", 0, 0)], {}, p)
    assert assert_same_pairing(points).pairing == {0: {}}
    assert barcode_of_complex(points) == Barcode([Bar(0, INF, 0), Bar(1, INF, 0)])
    # edges 23 and 13 and 03 have no triangle: the coboundary of the edges
    # has empty columns first, last and between non-empty ones
    values = {"23": 1, "01": 2, "12": 3, "13": 3.5, "02": 4, "03": 5}
    edges = {e: {int(e[0]): p - 1, int(e[1]): 1} for e in values}
    holes = FilteredComplex([Cell(v, 0, 0) for v in range(4)] + [Cell("012", 2, 6)]
                            + [Cell(e, 1, x) for e, x in values.items()],
                            {**edges, "012": {"12": 1, "02": p - 1, "01": 1}}, p)
    assert assert_same_pairing(holes).pairing[2] == {0: 4}    # the triangle kills 02
    assert barcode_of_complex(holes) == Barcode(
        [Bar(0, 1, 0), Bar(0, 2, 0), Bar(0, 3, 0), Bar(0, INF, 0),
         Bar(3.5, INF, 1), Bar(4, 6, 1), Bar(5, INF, 1)])
    # cells of degree 2 with no degree-1 cells below them bound nothing
    gap = FilteredComplex([Cell("v", 0, 0), Cell("w", 0, 1), Cell("s", 2, 2), Cell("t", 2, 3)],
                          {"s": {}, "t": {}}, p)
    assert assert_same_pairing(gap).pairing == {0: {}, 1: {}, 2: {}}
    assert barcode_of_complex(gap) == Barcode([Bar(0, INF, 0), Bar(1, INF, 0),
                                               Bar(2, INF, 2), Bar(3, INF, 2)])


def test_filtration_values_come_from_the_arrays():
    # the int values of a hand-made complex come back as equal floats
    c = heart_sphere(a=(3, 1, 2, 3))
    values = c.filtration_values()
    assert values == [1, 2, 3] and all(type(v) is float for v in values)
    assert homology_module(c, 1).spectrum == [1.0, 2.0, 3.0]
    # a built complex gives them without making its cells
    built = circle_complex([2, 0, 1, 0])
    assert built.filtration_values() == [0.0, 1.0, 2.0]
    assert "_cells" not in vars(built) and "cells" not in vars(built)


def test_homology_module_examples():
    c = heart_sphere()
    assert rep_barcode(homology_module(c, 1)) == Barcode([Bar(1, 2)])
    v = homology_module(FilteredComplex([Cell("v", 0, 1.5)], {"v": {}}), 0)
    assert rep_barcode(v) == Barcode([Bar(1.5, INF)])


@pytest.mark.parametrize("p", [2, 5])
def test_homology_module_of_no_cells_is_zero(p):
    c = FilteredComplex([], {}, p)
    for k in range(3):
        v = homology_module(c, k)
        assert (v.spectrum, v.dims, v.maps, v.p) == ([], [0], [], p)
    assert boundary_depth_usher(c) == 0.0
