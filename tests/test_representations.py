import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest

import persimod.field as ff
import persimod.module_rep as MR
from persimod.barcode import Bar, Barcode, multiplicity_grid_oracle
from persimod.complexes import FiniteMetricSpace, rips_complex
from persimod.filtered_complex import (Cell, FilteredComplex, _dense, homology_slice_bases,
                                       random_filtered_complex)
from persimod.module_rep import ModuleRep, barcode, from_barcode
from persimod.representations import (EquivarianceError, ModuleRepWithAction,
                                      action_from_cell_map,
                                      eigenspace_submodule,
                                      even_multiplicity_check,
                                      simplicial_action_map,
                                      verify_representation,
                                      z4_obstruction_bound)
from persimod.reproduce import rectangle_pmi

INF = math.inf


def doubled_module_with_rotation(bars, p=5):
    """Module on two copies of each bar with the order-4 block action."""
    doubled = Barcode(sorted(bars) * 2)
    v = from_barcode(doubled, p)
    order = sorted(doubled.bars)
    _, slots = MR._slots_for_bars(order, v.spectrum)
    act = [ff.zeros(d, d) for d in v.dims]
    for first in range(0, len(order), 2):
        for i in range(1, len(v.dims) + 1):
            if i in slots[first]:
                a0, a1 = slots[first][i], slots[first + 1][i]
                act[i - 1][a0, a1] = p - 1
                act[i - 1][a1, a0] = 1
    return v, act


def test_rejects_characteristic_two():
    v = from_barcode(Barcode([Bar(0, 1)]), p=2)
    with pytest.raises(ValueError):
        ModuleRepWithAction(v, 2, [ff.eye(d) for d in v.dims])


def test_verify_trivial_and_sign_actions():
    v = from_barcode(Barcode([Bar(0, 1), Bar(0, 3)]), p=5)
    assert verify_representation(ModuleRepWithAction(v, 2, [ff.eye(d) for d in v.dims]))
    neg = [np.mod(4 * ff.eye(d), 5) for d in v.dims]
    assert verify_representation(ModuleRepWithAction(v, 2, neg))


def test_verify_rejects_noncommuting():
    v = from_barcode(Barcode([Bar(0, 2), Bar(1, 2)]), p=5)
    act = [ff.eye(d) for d in v.dims]
    # twist the 2-dimensional slice so the square with the map fails
    two = next(i for i, d in enumerate(v.dims) if d == 2)
    act[two] = ff.asfield([[0, 1], [1, 0]], 5)
    assert not verify_representation(ModuleRepWithAction(v, 2, act))


def test_verify_rejects_wrong_order():
    v = from_barcode(Barcode([Bar(0, 1)]), p=5)
    act = [np.mod(2 * ff.eye(d), 5) for d in v.dims]   # 2 has order 4 in F_5
    assert not verify_representation(ModuleRepWithAction(v, 2, act))
    assert verify_representation(ModuleRepWithAction(v, 4, act))


def test_eigenspace_trivial_action():
    v = from_barcode(Barcode([Bar(0, 1), Bar(0, 3)]), p=5)
    triv = ModuleRepWithAction(v, 2, [ff.eye(d) for d in v.dims])
    assert barcode(eigenspace_submodule(triv, 1)) == Barcode([Bar(0, 1), Bar(0, 3)])
    assert barcode(eigenspace_submodule(triv, 4)) == Barcode([])
    with pytest.raises(ValueError):
        eigenspace_submodule(triv, 2)   # not an order-2 root of unity


def test_eigenspace_dimension_partition():
    rng = random.Random(5)
    for _ in range(20):
        bars = [Bar(round(rng.uniform(0, 2), 2), round(rng.uniform(2.1, 4), 2))
                for _ in range(rng.randint(1, 3))]
        v, act = doubled_module_with_rotation(bars)
        r = ModuleRepWithAction(v, 4, act)
        assert verify_representation(r)
        sq = ModuleRepWithAction(v, 2, [ff.matmul(a, a, 5) for a in act])
        plus = eigenspace_submodule(sq, 1)
        minus = eigenspace_submodule(sq, 4)
        for i, d in enumerate(v.dims):
            assert plus.dims[i] + minus.dims[i] == d


def test_rectangle_pmi_eigenspace():
    r3 = rectangle_pmi(3.0)
    assert verify_representation(r3)
    eig = barcode(eigenspace_submodule(r3, 4))
    assert eig == Barcode([Bar(0, 1), Bar(0, 3)])


def test_rectangle_z4_bound_matches_mu_definition():
    # The multiplicity-function definition values this barcode at 3/4:
    # the window (0,3] keeps single coverage up to the quarter-length
    # cap.  The grid oracle confirms the computed value (see README).
    r3 = rectangle_pmi(3.0)
    bound = z4_obstruction_bound(r3)
    assert bound == 0.75
    eig = barcode(eigenspace_submodule(r3, 4))
    assert abs(multiplicity_grid_oracle(eig, 1) - bound) <= 2e-3 * 3


def test_square_z4_bound_vanishes():
    assert z4_obstruction_bound(rectangle_pmi(1.0)) == 0.0


def test_teeth_sphere():
    teeth = FilteredComplex(
        [Cell("x", 0, 1.0), Cell("y", 0, 1.0), Cell("s", 1, 2.0), Cell("N", 2, 4.0)],
        {"x": {}, "y": {}, "s": {"x": 1, "y": 4}, "N": {}}, p=5)
    cmap = {"x": ("y", 1), "y": ("x", 1), "s": ("s", 4), "N": ("N", 1)}
    r = action_from_cell_map(teeth, cmap, degree=0, order=2)
    assert verify_representation(r)
    eig = barcode(eigenspace_submodule(r, 4))
    assert eig == Barcode([Bar(1, 2)])
    assert z4_obstruction_bound(r) == (2.0 - 1.0) / 4


def test_action_from_cell_map_rejects_non_chain_maps():
    teeth = FilteredComplex(
        [Cell("x", 0, 1.0), Cell("y", 0, 1.0), Cell("s", 1, 2.0)],
        {"x": {}, "y": {}, "s": {"x": 1, "y": 4}}, p=5)
    bad = {"x": ("y", 1), "y": ("x", 1), "s": ("s", 1)}  # missing the sign
    with pytest.raises(EquivarianceError, match="^cell map is not a chain map at s$"):
        action_from_cell_map(teeth, bad, degree=0, order=2)
    # s, t and N all fail; the first of them in reduction order (degree, then
    # value) is named, not the first given
    teeth = FilteredComplex(
        [Cell("N", 2, 4.0), Cell("t", 1, 3.0), Cell("s", 1, 2.0), Cell("x", 0, 1.0),
         Cell("y", 0, 1.0)],
        {"N": {"s": 1, "t": 4}, "t": {"x": 1, "y": 4}, "s": {"x": 1, "y": 4}}, p=5)
    bad = {"N": ("N", 4), "t": "t", "s": "s", "x": "y", "y": "x"}
    with pytest.raises(EquivarianceError, match="^cell map is not a chain map at s$"):
        action_from_cell_map(teeth, bad, degree=1, order=2)


def test_action_from_cell_map_rejects_broken_maps():
    teeth = FilteredComplex(
        [Cell("x", 0, 1.0), Cell("y", 0, 1.0), Cell("z", 0, 1.5), Cell("s", 1, 2.0),
         Cell("N", 2, 4.0)],
        {"x": {}, "y": {}, "z": {}, "s": {"x": 1, "y": 4}, "N": {}}, p=5)
    good = {"x": ("y", 1), "y": ("x", 1), "z": "z", "s": ("s", 4), "N": ("N", 1)}
    assert verify_representation(action_from_cell_map(teeth, good, degree=0, order=2))
    for cell in good:    # a missing cell never becomes a zero column
        omitted = {k: v for k, v in good.items() if k != cell}
        with pytest.raises(KeyError):
            action_from_cell_map(teeth, omitted, degree=0, order=2)
    for broken, error in [({**good, "w": ("x", 1)}, KeyError),      # unknown cell
                          ({**good, "x": ("w", 1)}, KeyError),      # unknown image
                          ({**good, "x": ("s", 1)}, ValueError),    # changes degree
                          ({**good, "x": ("z", 1)}, ValueError),    # changes value
                          ({**good, "x": ("y", 2)}, EquivarianceError)]:
        with pytest.raises(error) as info:
            action_from_cell_map(teeth, broken, degree=0, order=2)
        assert info.type is error    # EquivarianceError is also a ValueError


def test_simplicial_action_signs():
    pts = [[0.0, 0.0], [3.0, 0.0], [3.0, 1.0], [0.0, 1.0]]
    c = rips_complex(FiniteMetricSpace.from_points(pts), max_dim=1, p=5)
    cmap = simplicial_action_map(c, {0: 2, 2: 0, 1: 3, 3: 1})
    # the long diagonal (0, 2) maps to itself with a flip
    assert cmap[(0, 2)] == ((0, 2), 4)
    assert cmap[(0,)] == ((2,), 1)


def test_action_from_cell_map_reads_plain_vertex_tuple_images():
    n, p = 6, 5
    # the hexagon's graph distances, exact, so the rotation keeps every value
    steps = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    c = rips_complex(FiniteMetricSpace(np.minimum(steps, n - steps)), max_dim=2, p=p)
    signed = simplicial_action_map(c, {v: (v + 1) % n for v in range(n)})
    # plain image ids wherever the coefficient is 1: vertex tuples such as (1,)
    plain = {cid: img if coeff == 1 else (img, coeff) for cid, (img, coeff) in signed.items()}
    assert plain[(0,)] == (1,) and plain[(0, 5)] == ((0, 1), p - 1)
    for degree in (0, 1):
        a = action_from_cell_map(c, signed, degree=degree, order=n)
        b = action_from_cell_map(c, plain, degree=degree, order=n)
        assert verify_representation(a) and a.rep.dims == b.rep.dims
        assert all(np.array_equal(x, y) for x, y in zip(a.action, b.action))
        # the rotation permutes the vertex classes; the hexagon's loop it fixes
        moved = any(not np.array_equal(rho, ff.eye(rho.shape[0])) for rho in a.action)
        assert moved == (degree == 0)


def homology_coordinates_by_solve(reps, bnd, cycles, p):
    """Coordinates on reps of the homology classes of cycles, which must
    lie in the span of [bnd | reps]."""
    if not (reps.shape[1] and cycles.shape[1]):
        return ff.zeros(reps.shape[1], cycles.shape[1])
    return ff.solve(np.hstack([bnd, reps]), cycles, p)[bnd.shape[1]:, :]


def action_by_solves(c, cell_map, degree):
    """Reference: action_from_cell_map as it was before one elimination per
    level gave the transitions, with a solve per level for each transition
    and each action, and the identity where a slice object repeats.  Returns
    (dims, maps, action)."""
    p = c.p
    where = {cell.id: (cell, i) for k in c._blocks for i, cell in enumerate(c.cells_of_degree(k))}
    act = {k: ff.zeros(len(b.values), len(b.values)) for k, b in c._blocks.items()}
    for cid, v in cell_map.items():
        img, coeff = v if isinstance(v, tuple) and v not in where else (v, 1)
        (cell, i), (target, j) = where[cid], where[img]
        act[cell.degree][j, i] = coeff % p
    for k in (k for k in act if k - 1 in act):
        d = _dense(c, k)
        assert not (ff.matmul(d, act[k], p) != ff.matmul(act[k - 1], d, p)).any()
    slices = [(reps, bnd) for reps, bnd, _, _ in homology_slice_bases(c, degree)]
    t = act.get(degree, ff.zeros(0, 0))
    action = [ff.zeros(0, 0)]
    for reps, bnd in slices:
        n = reps.shape[0]
        action.append(homology_coordinates_by_solve(reps, bnd, ff.matmul(t[:n, :n], reps, p), p))
    maps, prev = [], ff.zeros(0, 0)
    for reps, bnd in slices:
        if reps is prev:
            maps.append(ff.eye(reps.shape[1]))
            continue
        lift = ff.zeros(reps.shape[0], prev.shape[1])
        lift[:prev.shape[0]] = prev
        maps.append(homology_coordinates_by_solve(reps, bnd, lift, c.p))
        prev = reps
    return [0] + [reps.shape[1] for reps, _ in slices], maps, action


def mirrored_rips(rng, p, max_dim=2):
    """Rips complex of a cloud in the plane and its mirror image in the
    y axis (exact: negation rounds nothing), with the reflection that swaps
    point i and point i + half."""
    half = rng.randint(1, 4)
    pts = np.array([[round(rng.uniform(0.1, 2), 2), round(rng.uniform(-1, 1), 2)]
                    for _ in range(half)])
    c = rips_complex(FiniteMetricSpace.from_points(np.vstack([pts, pts * [-1, 1]])),
                     max_dim=max_dim, p=p)
    return c, simplicial_action_map(c, {v: (v + half) % (2 * half) for v in range(2 * half)})


def rotated_circulant(rng, order, p):
    """Rips complex of points whose distances depend only on the number of
    steps between them around a cycle, as for the hexagon above, with the
    rotation by n / order steps, of that order.  The distances lie in
    [1, 2], so the triangle inequality holds."""
    n = rng.choice([n for n in (4, 6, 8, 9) if n % order == 0])
    steps = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    gaps = np.array([0.0] + [round(rng.uniform(1, 2), 2) for _ in range(n // 2)])
    c = rips_complex(FiniteMetricSpace(gaps[np.minimum(steps, n - steps)]), max_dim=2, p=p)
    return c, simplicial_action_map(c, {v: (v + n // order) % n for v in range(n)})


# orders g of the rotations per field, each with x^g - 1 split over F_p
ROTATION_ORDERS = {3: (), 5: (4,), 7: (3, 6)}


@pytest.mark.parametrize("p", [3, 5, 7])
def test_action_from_cell_map_matches_the_solve_per_level(p):
    rng = random.Random(80 + p)
    cases = [(*mirrored_rips(rng, p), 2) for _ in range(40)]
    cases += [(*rotated_circulant(rng, g, p), g) for g in ROTATION_ORDERS[p] for _ in range(8)]
    moved = Counter()
    for c, cmap, order in cases:
        for degree in (0, 1, 2):
            got = action_from_cell_map(c, cmap, degree=degree, order=order)
            dims, maps, action = action_by_solves(c, cmap, degree)
            assert got.rep.spectrum == c.filtration_values() and got.rep.dims == dims
            for g, w in ((got.rep.maps, maps), (got.action, action)):
                assert [(m.dtype, m.shape, m.tobytes()) for m in g] == \
                    [(m.dtype, m.shape, m.tobytes()) for m in w]
            assert verify_representation(got)
            turned = any(not np.array_equal(rho, ff.eye(len(rho))) for rho in action)
            moved[degree] += turned
            moved[f"order {order}"] += turned
            moved["maps"] += any(not np.array_equal(m, np.eye(*m.shape)) for m in maps[1:])
    # the symmetry moves classes, and classes merge or die along the maps
    assert moved[0] and moved[1] and moved["maps"]
    assert all(moved[f"order {g}"] for g in ROTATION_ORDERS[p])


def action_matching_the_solves(c, cmap, degree, order):
    """action_from_cell_map, checked byte for byte against action_by_solves."""
    got = action_from_cell_map(c, cmap, degree=degree, order=order)
    dims, maps, action = action_by_solves(c, cmap, degree)
    assert got.rep.spectrum == c.filtration_values() and got.rep.dims == dims
    for g, w in ((got.rep.maps, maps), (got.action, action)):
        assert [(m.dtype, m.shape, m.tobytes()) for m in g] == \
            [(m.dtype, m.shape, m.tobytes()) for m in w]
    return got


def test_action_from_cell_map_over_a_large_prime():
    # entries near 2^61 multiply past 2^63: both sides of the chain map check
    # and the images of the representatives need exact products
    p, rng = 2 ** 61 - 1, random.Random(61)
    for _ in range(4):
        c, cmap = mirrored_rips(rng, p, max_dim=3)
        assert p - 1 in {coeff for _, coeff in cmap.values()}
        for degree in range(4):
            assert verify_representation(action_matching_the_solves(c, cmap, degree, 2))
    # three faces going to one: their terms in T_0 d_1 sum to 2p, past 2^63
    p = 2 ** 63 - 25
    fan = FilteredComplex([Cell(v, 0, 0.0) for v in "xyz"] + [Cell("s", 1, 1.0)],
                          {"s": {"x": 1, "y": 1, "z": 1}}, p)
    squash = {"x": ("x", p - 1), "y": ("x", p - 1), "z": ("x", 2), "s": ("s", 0)}
    for degree in range(3):
        action_matching_the_solves(fan, squash, degree, 1)


def test_action_from_cell_map_edge_inputs_match_the_solves():
    teeth = FilteredComplex(
        [Cell("x", 0, 1.0), Cell("y", 0, 1.0), Cell("s", 1, 2.0), Cell("N", 2, 4.0)],
        {"x": {}, "y": {}, "s": {"x": 1, "y": 4}, "N": {}}, p=5)
    # x and y both go to x, so d(s) = x - y goes to 0 and s to 0 * s: the
    # images of two cells add up, in the chain map check and in T * reps
    squash = {"x": "x", "y": "x", "s": ("s", 0), "N": "N"}
    for degree in (-1, 0, 1, 2, 3):
        action_matching_the_solves(teeth, squash, degree, 1)
    assert action_matching_the_solves(teeth, squash, 0, 1).action[1].tolist() == [[1, 1], [0, 0]]
    for degree in (-1, 0, 1):
        r = action_matching_the_solves(FilteredComplex([], {}, p=5), {}, degree, 2)
        assert r.rep.dims == [0] and verify_representation(r)
    # no cells in degrees -1 and max + 1: zero slices at every level
    rng = random.Random(85)
    for c, cmap in [mirrored_rips(rng, 5) for _ in range(6)] + [rotated_circulant(rng, 4, 5)]:
        for degree in (-1, c.max_degree + 1):
            r = action_matching_the_solves(c, cmap, degree, 4)
            assert set(r.rep.dims) == {0} and verify_representation(r)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_class_map_reads_classes_on_the_representatives(p):
    # at every level the class map kills the boundaries, is the identity on
    # the representatives, and gives any cycle the coordinates a solve finds
    rng = random.Random(90 + p)
    complexes = [random_filtered_complex(rng, max_cells=25, max_degree=3, p=p)
                 for _ in range(20)]
    complexes += [mirrored_rips(rng, p)[0] for _ in range(10)]
    for c in complexes:
        for degree in range(c.max_degree + 1):
            d_k = _dense(c, degree)
            for reps, bnd, _, classes in homology_slice_bases(c, degree):
                n, dim = reps.shape
                assert classes.shape == (dim, n)
                assert not ff.matmul(classes, bnd, p).any()
                assert np.array_equal(ff.matmul(classes, reps, p), ff.eye(dim))
                # random cycles, boundaries added
                span = np.hstack([ff.kernel_basis(d_k[:, :n], p), bnd])
                pick = np.array([[rng.randrange(p) for _ in range(4)]
                                 for _ in range(span.shape[1])], dtype=np.int64)
                z = ff.matmul(span, pick.reshape(-1, 4), p)
                assert np.array_equal(ff.matmul(classes, z, p),
                                      homology_coordinates_by_solve(reps, bnd, z, p))


def cycle_walk_sign(image):
    """Sign of the permutation that sorts image, by its even-length cycles."""
    order = sorted(range(len(image)), key=lambda t: image[t])
    sign, seen = 1, [False] * len(order)
    for start in range(len(order)):
        length, t = 0, start
        while not seen[t]:
            seen[t] = True
            t = order[t]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


@pytest.mark.parametrize("p", [3, 5])
def test_simplicial_action_sign_is_the_permutation_sign(p):
    for n in range(1, 6):
        # every pair at distance 1: all subsets are cells, every permutation a symmetry
        c = rips_complex(FiniteMetricSpace(1.0 - np.eye(n)), max_dim=n - 1, p=p)
        for perm in itertools.permutations(range(n)):
            cmap = simplicial_action_map(c, dict(enumerate(perm)))
            for cell in c.cells:
                image = [perm[v] for v in cell.id]
                assert cmap[cell.id] == (tuple(sorted(image)), cycle_walk_sign(image) % p)
            if n <= 4:    # and a chain map, so the action is defined
                r = action_from_cell_map(c, cmap, degree=0, order=math.factorial(n))
                assert verify_representation(r)


def all_windows_parity(b):
    """The parity condition read off directly: every window (lo, hi]
    between two endpoint values lies under an even number of bars."""
    ends = sorted({e for bar in b.bars for e in (bar.birth, bar.death)})
    for i, lo in enumerate(ends):
        for hi in ends[i + 1:]:
            if sum(1 for bar in b.bars if bar.birth <= lo and hi <= bar.death) % 2:
                return False
    return True


def test_even_multiplicity_check():
    assert even_multiplicity_check(Barcode([Bar(0, 1), Bar(0, 1)]))
    assert not even_multiplicity_check(Barcode([Bar(0, 2), Bar(0, 1)]))
    assert even_multiplicity_check(Barcode([]))
    assert even_multiplicity_check(Barcode([Bar(0, INF), Bar(0, INF)]))
    # -0.0 and 0.0 are one endpoint value, so these two bars are a pair
    assert even_multiplicity_check(Barcode([Bar(-0.0, 1), Bar(0.0, 1)]))
    rng = random.Random(13)
    pool = [-INF, -1.0, -0.0, 0.0, 1.0, 2.0, INF]
    seen = set()
    for _ in range(2000):
        bars = []
        for _ in range(rng.randint(0, 5)):
            birth, death = rng.choice(pool), rng.choice(pool)
            if birth < death:
                bars += [Bar(birth, death)] * rng.choice([1, 2, 2, 3, 4])
        b = Barcode(bars)
        assert even_multiplicity_check(b) == all_windows_parity(b), bars
        seen.add(all_windows_parity(b))
    assert seen == {True, False}


def test_z4_square_has_even_eigenspace():
    rng = random.Random(7)
    for _ in range(15):
        bars = [Bar(round(rng.uniform(0, 2), 2), round(rng.uniform(2.1, 4), 2))
                for _ in range(rng.randint(1, 3))]
        v, act = doubled_module_with_rotation(bars)
        sq = ModuleRepWithAction(v, 2, [ff.matmul(a, a, 5) for a in act])
        eig = barcode(eigenspace_submodule(sq, 4))
        assert even_multiplicity_check(eig)
        assert z4_obstruction_bound(sq) == 0.0


def test_z4_bound_conjugation_invariant():
    r3 = rectangle_pmi(3.0)
    base = z4_obstruction_bound(r3)
    rng = random.Random(11)
    for _ in range(5):
        # conjugate by a random module automorphism: diagonal unit scalars
        # plus a legal nilpotent interval morphism added to the identity
        v = r3.rep
        scal = rng.choice([1, 2, 3, 4])
        conj = [np.mod(scal * ff.eye(d), 5) for d in v.dims]
        inv = [np.mod(ff.inv_mod(scal, 5) * ff.eye(d), 5) for d in v.dims]
        action = [ff.matmul(a, ff.matmul(rho, b, 5), 5)
                  for a, rho, b in zip(conj, r3.action, inv)]
        assert z4_obstruction_bound(ModuleRepWithAction(v, 2, action)) == base


def test_z4_bound_requires_involution():
    v = from_barcode(Barcode([Bar(0, 1)]), p=5)
    act = [np.mod(2 * ff.eye(d), 5) for d in v.dims]
    with pytest.raises(ValueError):
        z4_obstruction_bound(ModuleRepWithAction(v, 4, act))
