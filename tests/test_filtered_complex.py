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
                                       _Block, _cohomology_pairing, _reduce, _stable_order,
                                       _subtract, _union_find_pairing,
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


def test_validation_names_the_first_dd_failure_in_reduction_order():
    # late and early both fail d(d) = 0; early enters first, though given last
    cells = [Cell("a", 0, 0.0), Cell("b", 0, 0.0), Cell("e", 1, 1.0),
             Cell("late", 2, 3.0), Cell("early", 2, 2.0)]
    boundary = {"e": {"a": 1, "b": 1}, "late": {"e": 1}, "early": {"e": 1}}
    with pytest.raises(InvalidComplexError, match=re.escape("d(d(early)) != 0")):
        FilteredComplex(cells, boundary, 2)


@pytest.mark.parametrize("p", [2 ** 31 - 1, 2 ** 31 + 11, 2 ** 61 - 1, 2 ** 63 - 25])
def test_dd_check_over_large_primes(p):
    # coefficients near p multiply past 2^63: the d(d) check needs exact
    # products, or a valid complex is refused, and the barcode must agree
    # with the rank-formula module
    rng = random.Random(p % 1000)
    for _ in range(15):
        c = random_filtered_complex(rng, max_cells=30, max_degree=3, p=p)
        bc = barcode_of_complex(c)
        for k in range(c.max_degree + 1):
            assert rep_barcode(homology_module(c, k)) == \
                Barcode(sorted(Bar(b.birth, b.death) for b in bc.bars if b.degree == k))


def test_cells_and_boundary_are_views_of_the_blocks():
    # the complex keeps neither argument: what the caller changes later does
    # not show, cells come in reduction order, coefficients mod p, zeros dropped
    cells = [Cell("e", 1, 1.0), Cell("b", 0, 0.5), Cell("a", 0, 0.0)]
    boundary = {"e": {"a": 4, "b": 3}}
    c = FilteredComplex(cells, boundary, 3)
    boundary["e"]["a"] = 2
    cells.append(Cell("z", 0, 9.0))
    assert c.cells == [Cell("a", 0, 0.0), Cell("b", 0, 0.5), Cell("e", 1, 1.0)]
    assert c.boundary == {"a": {}, "b": {}, "e": {"a": 1}}
    # a built complex and its hand-made copy give the same views, order included
    built = rips_complex(FiniteMetricSpace.from_points([[0, 0], [1, 0], [0, 2], [3, 1]]),
                         max_dim=2, p=5)
    copy = FilteredComplex(built.cells[::-1], built.boundary, 5)
    assert copy.cells == built.cells
    assert list(copy.boundary.items()) == list(built.boundary.items())


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


def with_boundary_bases(c, degree):
    """homology_slice_bases with each slice's boundary basis put back second:
    the pivot columns of d_{k+1} on the cells entered by the level."""
    d_kp1 = _dense(c, degree + 1)
    ends = np.searchsorted(c._block(degree + 1).values, c.filtration_values(), side="right")
    return [(reps, d_kp1[:len(reps), ff.pivot_columns(d_kp1[:len(reps), :n], c.p)], t, classes)
            for (reps, t, classes), n in zip(homology_slice_bases(c, degree), ends.tolist())]


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
            got = with_boundary_bases(c, degree)
            want = slice_bases_by_rank(c, degree)
            assert len(got) == len(want)
            for (g_reps, g_bnd, _, _), (w_reps, w_bnd, w_sel) in zip(got, want):
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


def slice_bases_by_elimination(c: FilteredComplex, degree: int):
    """Reference: homology_slice_bases as it was before one reduction of the
    boundaries in cycle coordinates replaced an elimination per level.

    Per filtration level: (cycle-representative basis, boundary basis,
    transition, class map) of H_degree(C^{<=level}); the rows are the
    degree-k cells entered by then, a prefix of the cells in reduction
    order.  The class map sends a degree-k cycle on those rows to the
    coordinates of its class on the representatives, and the transition is
    the class map applied to the previous level's representatives.

    The representatives complete the boundary basis to a basis of the
    cycle space; homology_module and the equivariant machinery both rely
    on this exact basis choice.  A level at which no cell of degree k or
    k+1 enters repeats the previous level's slice with the identity.
    """
    p, levels = c.p, c.filtration_values()
    d_k, d_kp1 = _dense(c, degree), _dense(c, degree + 1)
    # faces enter no later than their cells, so the rows of d_k[:, :n_k]
    # past the faces entered are zero, and a reduced row-echelon form
    # restricts to column prefixes: each level's cycle basis is the corner
    # of one kernel basis on the free columns below n_k
    kernel = ff.kernel_basis(d_k, p)
    # the basis vector of free column f ends with its 1 at row f and is 0 on
    # the other free rows, so a cycle's coordinates on the kernel basis are
    # its entries on the free rows
    free = np.where(kernel != 0, np.arange(len(kernel))[:, None], -1).max(axis=0, initial=-1)
    # values ascend within a degree, so each level selects a prefix of the
    # cells of degree k and k + 1, and of the kernel basis
    ends_k, ends_kp1 = (np.searchsorted(c._block(k).values, levels, side="right")
                        for k in (degree, degree + 1))
    ends = zip(ends_k.tolist(), ends_kp1.tolist(), np.searchsorted(free, ends_k).tolist())
    out, seen, picked = [], None, free[:0]
    for n_k, n_kp1, m in ends:
        if (n_k, n_kp1) == seen:
            # no cell of degree k or k+1 entered: the slice is unchanged
            out.append((reps, bnd, ff.eye(reps.shape[1]), classes))
            continue
        seen, cycles, bnd = (n_k, n_kp1), kernel[:n_k, :m], d_kp1[:n_k, :n_kp1]
        r, piv = ff.row_echelon(np.hstack([bnd, cycles]), p)
        nb = bisect.bisect_left(piv, n_kp1)    # the pivots ascend
        # row i of R holds the coordinates on pivot i of every column, so
        # coords[:, j] is the class of cycle j on the representatives
        coords = r[nb:len(piv), n_kp1:]
        classes = ff.zeros(len(coords), n_k)
        classes[:, free[:m]] = coords
        # the cells of a level are a prefix of those of the next one, so the
        # previous representatives are the cycles picked there, whose
        # classes are those columns of coords
        transition, picked = coords[:, picked], np.array(piv[nb:], dtype=int) - n_kp1
        reps, bnd = cycles[:, picked], bnd[:, piv[:nb]]
        out.append((reps, bnd, transition, classes))
    return out


def random_simplicial(rng, nv, p):
    """Random simplicial complex on nv vertices with half of the edges and
    half of the triangles those edges allow, each cell at least its faces:
    the shape of the inputs of the benchmark's module-oracle workload."""
    value = {(v,): round(rng.uniform(0, 10), 2) for v in range(nv)}
    edges = list(itertools.combinations(range(nv), 2))
    for e in sorted(rng.sample(edges, len(edges) // 2)):
        value[e] = max(value[(e[0],)], value[(e[1],)], round(rng.uniform(0, 10), 2))
    triangles = [t for t in itertools.combinations(range(nv), 3)
                 if all(t[:j] + t[j + 1:] in value for j in range(3))]
    for t in sorted(rng.sample(triangles, len(triangles) // 2)):
        value[t] = max(max(value[t[:j] + t[j + 1:]] for j in range(3)), round(rng.uniform(0, 10), 2))
    boundary = {s: {s[:j] + s[j + 1:]: (-1) ** j % p for j in range(len(s))} if len(s) > 1 else {}
                for s in value}
    return FilteredComplex([Cell(s, len(s) - 1, u) for s, u in value.items()], boundary, p)


def mirrored_cloud(n, p):
    """Rips complex (dim 2) of n / 2 noisy points on the right half of the
    unit circle and their mirror images in the y axis."""
    rng = np.random.default_rng(n)
    t = rng.uniform(-math.pi / 2, math.pi / 2, n // 2)
    pts = np.c_[np.cos(t), np.sin(t)] + rng.normal(0, 0.1, (n // 2, 2))
    return rips_complex(FiniteMetricSpace.from_points(np.vstack([pts, pts * [-1, 1]])), 2, p)


def slice_cases(p):
    rng = random.Random(90 + p)
    for _ in range(30):
        c = random_filtered_complex(rng, max_cells=40, max_degree=3, p=p)
        yield c
        # whole-number values: many cells of every degree enter together
        yield FilteredComplex([Cell(x.id, x.degree, float(math.floor(x.value)))
                               for x in c.cells], c.boundary, p)
    for nv in (5, 6, 7, 8) * 3:
        yield random_simplicial(rng, nv, p)
    if p > 2:
        yield mirrored_cloud({3: 12, 5: 14, 7: 16, 2 ** 61 - 1: 12}[p], p)
    yield FilteredComplex([], {}, p)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 2 ** 61 - 1])
def test_homology_slice_bases_match_the_elimination_per_level(p):
    def parts(slices):
        return [tuple((m.dtype, m.shape, m.tobytes()) for m in s) for s in slices]

    for c in slice_cases(p):
        for degree in range(-1, c.max_degree + 2):
            assert parts(with_boundary_bases(c, degree)) == \
                parts(slice_bases_by_elimination(c, degree))


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


def reduce_by_rescan(block: _Block, p: int, cleared=np.False_) -> np.ndarray:
    """The rescan oracle: _reduce as it was before its lazy heap, finding
    each lowest row by max() over the column.

    Low-driven column reduction over F_p: each column in turn subtracts
    earlier paired columns until its lowest row is new, and pairs with
    that row, or it vanishes.  Over F_2 a column is a set of rows and each
    subtraction one symmetric difference (sets, not bitmasks: a
    coboundary's rows range over all cells of the degree above, so a
    bitmask column would be as long as that degree); otherwise it is a
    {row: coeff} dict.  Only the columns that pair are kept.  The columns
    set in the boolean mask cleared are known to vanish and are skipped.

    Column j is apparent when no column before it has an entry in its
    lowest row.  The reduced columns before j combine columns before j,
    so none has its low there: j pairs with that row untouched, over any
    field, and is never cleared.  numpy finds these pairs, the loop skips
    them, and an apparent column is made only if a later one subtracts it.

    Returns each column's pivot: the row it pairs with, or -1.
    """
    n, ptr = len(block.values), block.indptr.tolist()
    # reduceat misreads empty segments, so it sees only the non-empty columns
    nonempty = np.flatnonzero(block.indptr[1:] > block.indptr[:-1])
    low = np.full(n, -1)
    low[nonempty] = np.maximum.reduceat(block.rows, block.indptr[nonempty])
    left = np.full(block.rows.max(initial=-1) + 1, n)    # row -> first column with an entry there
    np.minimum.at(left, block.rows, block.entry_cols())
    apparent = np.zeros(n, bool)
    apparent[nonempty] = left[low[nonempty]] == nonempty
    low_to_col, paired = dict(zip(low[apparent].tolist(), np.flatnonzero(apparent).tolist())), {}

    def column(j):
        rows = block.rows[ptr[j]:ptr[j + 1]].tolist()
        return set(rows) if p == 2 else dict(zip(rows, block.coeffs[ptr[j]:ptr[j + 1]].tolist()))

    todo = (low >= 0) & ~apparent & ~cleared    # an empty column vanishes as it is
    low[~apparent] = -1    # from here on low[j] is j's pair, -1 while unpaired
    for j in np.flatnonzero(todo).tolist():
        col = column(j)
        while col:
            r = max(col)
            i = low_to_col.get(r)
            if i is None:
                low_to_col[r], paired[j], low[j] = j, col, r
                break
            other = paired[i] if i in paired else paired.setdefault(i, column(i))
            if p == 2:
                col ^= other
            else:
                _subtract(col, other, col[r] * ff.inv_mod(other[r], p) % p, p)
    return low


def route_blocks(c):
    """The coboundaries the pairing route reduces, with its clearing."""
    partner = _cohomology_pairing(c)
    return [(_coboundary(c, k), (partner[k] >= 0)[::-1]) for k in range(c.max_degree)]


def every_block(c):
    """Every boundary block, and every coboundary with no clearing and with
    the route's."""
    route = route_blocks(c)
    return [(c._block(k), np.False_) for k in range(c.max_degree + 1)] + \
        [(block, np.False_) for block, _ in route] + route


def assert_pivots_match_the_rescan(c, blocks):
    """_reduce gives the rescan oracle's pivot arrays on each (block,
    cleared) pair; returns how many columns pair."""
    paired = 0
    for block, cleared in blocks:
        got = _reduce(block, c.p, cleared)
        assert np.array_equal(got, reduce_by_rescan(block, c.p, cleared))
        paired += np.count_nonzero(got >= 0)
    return paired


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_heap_pivots_match_the_rescan_on_random_complexes(p):
    rng = random.Random(150 + p)
    for _ in range(125):
        c = random_filtered_complex(rng, max_cells=40, max_degree=3, p=p)
        assert_pivots_match_the_rescan(c, every_block(c))


def tied_rips_complexes(rng, p):
    """Rips complexes to dimension 2 on 20 to 60 points: clouds on a small
    integer grid, so distances tie and points coincide, and symmetric
    matrices of small integers, which tie and need not be metric."""
    for n in (20, 33, 47, 60):
        pts = rng.integers(0, 6, size=(n, 2))
        yield rips_complex(FiniteMetricSpace.from_points(pts), 2, p)
        d = np.triu(rng.integers(1, 5, size=(n, n)), 1).astype(float)
        yield rips_complex(FiniteMetricSpace(d + d.T), 2, p)


@pytest.mark.parametrize("p", [2, 3])
def test_heap_pivots_match_the_rescan_on_builders(p):
    rng = np.random.default_rng(160 + p)
    for _ in range(4):
        for c in builder_complexes(rng, p):
            assert assert_pivots_match_the_rescan(c, every_block(c))
    # the full reductions of the larger Rips blocks take seconds with either
    # routine, so these check the blocks the pairing route reduces
    for c in tied_rips_complexes(rng, p):
        assert assert_pivots_match_the_rescan(c, route_blocks(c))


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


@pytest.mark.parametrize("p", [2, 5])
def test_forest_on_isolated_rows_and_disconnected_graphs(p):
    # the elder rule stops once the roots its edges touch are joined: that
    # count must leave out isolated rows and still join every component
    rng = random.Random(170 + p)
    for _ in range(60):
        n = rng.randint(4, 16)
        groups = [g for g in np.array_split(rng.sample(range(n), n), rng.randint(2, 4)) if len(g)]
        cells, boundary = [Cell(v, 0, rng.choice([0, 1, 2])) for v in range(n)], {}
        # the first group stays isolated vertices; edges join vertices of one other group
        for g in (g.tolist() for g in groups[1:] if len(g) > 1):
            for e in range(rng.randint(len(g) - 1, 3 * len(g))):
                u, v = rng.sample(g, 2)
                a = rng.randrange(1, p)
                cells.append(Cell(f"e{u}-{v}-{e}", 1, rng.choice([2, 3, 4])))
                boundary[f"e{u}-{v}-{e}"] = {u: a, v: p - a}
        c = FilteredComplex(cells, boundary, p)
        forest = _union_find_pairing(c._block(1), n, p)
        assert forest is not None
        assert np.array_equal(forest, _reduce(c._block(1), p))
        assert_same_pairing(c)


@pytest.mark.parametrize("n", [300, 70_000])
def test_coboundary_of_a_wide_degree_is_the_stable_sort(n):
    # the column keys take uint16 below 65,536 cells and uint32 above
    c = circle_complex(np.random.default_rng(n).normal(size=n).round(1).tolist(), 2)
    for got, want in zip(_coboundary(c, 0), coboundary_by_stable_sort(c, 0)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_stable_order_is_the_stable_argsort():
    rng = np.random.default_rng(180)
    cases = [np.zeros(0), np.zeros(1), np.array([0.0, -0.0, 0.0, -0.0, -1.0]),
             rng.choice([0.0, -0.0], size=2000), rng.choice([0.0, -0.0, 1.0, 2.5], size=70_000),
             rng.integers(0, 3, size=5000).astype(float), rng.normal(size=3000),
             np.repeat(rng.normal(size=40), 50)]
    for values in cases:
        order = _stable_order(values)
        assert order.dtype == np.int64
        assert np.array_equal(order, np.argsort(values, kind="stable"))
    # a builder orders its cells by it, keeping the zero signs of the stable order
    values = rng.choice([0.0, -0.0, 1.0], size=500)
    c = FilteredComplex._of_simplices(range(500), np.arange(500), [np.arange(500)[:, None]],
                                      lambda k, _: values, 2)
    order = np.argsort(values, kind="stable")
    assert np.array_equal(c._vertices[0][:, 0], order)
    assert c._block(0).values.tobytes() == values[order].tobytes()


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
