import bisect
import dataclasses
import inspect
import math
import pickle
import random
import sys
import warnings

import numpy as np
import pytest

from persimod.barcode import (Bar, Barcode, Matching, _augment,
                              _corner_windows, _cost_matrix, _feasible_matching_at,
                              _greedy_start, _neighbours, _ray_signature,
                              bar_match_cost, beta_k,
                              bottleneck_bruteforce, bottleneck_candidates,
                              bottleneck_distance,
                              boundary_depth, ell, infinite_endpoint_spectrum,
                              interval_interleaving_distance, is_delta_matching,
                              matching_lemma, matching_lemma_bruteforce,
                              multiplicity_function, multiplicity_grid_oracle,
                              mu_odd, nu, optimal_matching, persistent_betti,
                              shift_barcode)

INF = math.inf


def random_barcode(rng, max_bars=4, rays=True):
    bars = []
    for _ in range(rng.randint(0, max_bars)):
        birth = round(rng.uniform(0, 3), 3)
        death = INF if (rays and rng.random() < 0.25) else round(rng.uniform(3.001, 6), 3)
        bars.append(Bar(birth, death))
    return Barcode(bars)


def test_bar_validation():
    with pytest.raises(ValueError):
        Bar(2, 1)
    with pytest.raises(ValueError):
        Bar(1, 1)
    for birth, death in ((INF, INF), (-INF, -INF), (INF, 1.0), (1.0, -INF)):
        with pytest.raises(ValueError, match="birth < death"):
            Bar(birth, death)
    assert Bar(-INF, INF).length == INF


def test_bar_is_a_frozen_hashable_value():
    bar = Bar(0.5, 2.0, 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        bar.death = 3.0
    assert bar == Bar(0.5, 2.0, 1) and hash(bar) == hash(Bar(0.5, 2.0, 1))
    assert bar != Bar(0.5, 2.0) and bar != Bar(0.5, 2.0, 0)
    assert len({bar, Bar(0.5, 2.0, 1), Bar(0.5, 2.0)}) == 2
    assert pickle.loads(pickle.dumps(bar)) == bar


def test_bar_match_cost():
    assert bar_match_cost(Bar(1, 2), Bar(1, 2)) == 0
    assert bar_match_cost(Bar(1, 2), Bar(2, 3)) == 1
    assert bar_match_cost(Bar(0.5, INF), Bar(2.0, INF)) == 1.5
    assert bar_match_cost(Bar(1, 2), Bar(1, INF)) == INF
    assert bar_match_cost(Bar(-INF, 0), Bar(-INF, 2)) == 2


def test_is_delta_matching():
    b = Barcode([Bar(0, 1), Bar(0, 4)])
    c = Barcode([Bar(0.5, 4.5)])
    # empty matching works once every long bar is discardable
    assert is_delta_matching(b, c, Matching([]), 2.26)
    assert not is_delta_matching(b, c, Matching([]), 1.0)
    assert is_delta_matching(b, c, Matching([(1, 0)]), 0.5)
    assert not is_delta_matching(b, c, Matching([(0, 0)]), 0.5)
    with pytest.raises(IndexError):
        is_delta_matching(b, c, Matching([(5, 0)]), 1.0)
    # NaN compares false to everything, so "delta < 0" let it through
    with pytest.raises(ValueError, match="delta must be >= 0"):
        is_delta_matching(Barcode([Bar(0, 10)]), Barcode([]), Matching([]), math.nan)


def test_matching_partial_bijection():
    with pytest.raises(ValueError):
        Matching([(0, 0), (0, 1)])


def test_bottleneck_interval_table():
    assert bottleneck_distance(Barcode([Bar(1, 2)]), Barcode([Bar(1, 3)])) == 1
    assert bottleneck_distance(Barcode([Bar(1, 2)]), Barcode([Bar(2, 3)])) == 0.5
    assert bottleneck_distance(Barcode([Bar(1, 4)]), Barcode([Bar(2, 5)])) == 1
    assert bottleneck_distance(Barcode([]), Barcode([])) == 0


def test_bottleneck_infinite_ray_mismatch():
    assert bottleneck_distance(Barcode([Bar(0, INF)]), Barcode([])) == INF
    assert bottleneck_distance(Barcode([Bar(0, INF)]),
                               Barcode([Bar(0, INF), Bar(1, INF)])) == INF
    assert bottleneck_distance(Barcode([Bar(-INF, 3)]), Barcode([Bar(0, 3)])) == INF


def test_bottleneck_matches_bruteforce():
    rng = random.Random(11)
    for _ in range(120):
        b = random_barcode(rng, max_bars=4)
        c = random_barcode(rng, max_bars=4)
        fast = bottleneck_distance(b, c)
        slow = bottleneck_bruteforce(b, c)
        assert fast == slow or abs(fast - slow) < 1e-12, (b.bars, c.bars)


def test_bottleneck_symmetry_and_triangle():
    rng = random.Random(5)
    for _ in range(60):
        a, b, c = (random_barcode(rng, max_bars=3, rays=False) for _ in range(3))
        dab = bottleneck_distance(a, b)
        assert dab == bottleneck_distance(b, a)
        assert dab <= bottleneck_distance(a, c) + bottleneck_distance(c, b) + 1e-12


def test_bottleneck_nondegeneracy():
    rng = random.Random(6)
    for _ in range(60):
        a = random_barcode(rng)
        b = random_barcode(rng)
        d = bottleneck_distance(a, b)
        if a == b:
            assert d == 0
        elif d == 0:
            assert a == b
    a = Barcode([Bar(0, 1), Bar(0, 1)])
    assert bottleneck_distance(a, a) == 0
    assert bottleneck_distance(a, Barcode([Bar(0, 1)])) > 0


def test_bottleneck_per_degree_pools():
    b = Barcode([Bar(0, 2, 0), Bar(0, 2, 1)])
    c = Barcode([Bar(0, 2, 0), Bar(1, 3, 1)])
    assert bottleneck_distance(b, c) == 1.0
    # untagged pooling can do better by crossing degrees
    assert bottleneck_distance(b.untagged(), c.untagged()) == 1.0
    b2 = Barcode([Bar(0, 2, 0), Bar(5, 7, 1)])
    c2 = Barcode([Bar(5, 7, 0), Bar(0, 2, 1)])
    assert bottleneck_distance(b2.untagged(), c2.untagged()) == 0
    assert bottleneck_distance(b2, c2) > 0


def test_optimal_matching_certifies():
    rng = random.Random(7)
    for _ in range(50):
        b = random_barcode(rng)
        c = random_barcode(rng)
        if bottleneck_distance(b, c) == INF:
            continue
        d, m = optimal_matching(b, c)
        assert is_delta_matching(b, c, m, d)


def test_matching_lemma():
    assert matching_lemma([0], [5]) == 5
    assert matching_lemma([0, 1], [0.5, 3]) == 2
    assert matching_lemma([1, 2, 3], [1, 2, 3]) == 0
    with pytest.raises(ValueError):
        matching_lemma([1], [1, 2])
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, 6)
        b = [rng.uniform(-4, 4) for _ in range(n)]
        c = [rng.uniform(-4, 4) for _ in range(n)]
        assert matching_lemma(b, c) == matching_lemma_bruteforce(b, c)


def test_interval_interleaving_distance():
    assert interval_interleaving_distance(Bar(1, 2), Bar(1, 3)) == 1
    assert interval_interleaving_distance(Bar(1, 2), Bar(2, 3)) == 0.5
    assert interval_interleaving_distance(Bar(0, 4), Bar(0, 4)) == 0
    with pytest.raises(ValueError):
        interval_interleaving_distance(Bar(0, INF), Bar(0, 1))


def test_shift_barcode():
    b = Barcode([Bar(0, 1), Bar(2, INF), Bar(-INF, 5)])
    assert shift_barcode(b, 0) == b
    shifted = shift_barcode(b, 2)
    assert shifted == Barcode([Bar(2, 3), Bar(4, INF), Bar(-INF, 7)])


def test_boundary_depth_and_beta_k():
    heart = Barcode([Bar(0, INF, 0), Bar(1, 2, 1), Bar(3, INF, 2)])
    assert boundary_depth(heart) == 1
    assert boundary_depth(Barcode([Bar(0, INF), Bar(1, INF)])) == 0
    b = Barcode([Bar(0, 5), Bar(0, 3), Bar(0, INF)])
    assert beta_k(b, 1) == 5
    assert beta_k(b, 2) == 3
    assert beta_k(b, 3) == 0
    with pytest.raises(ValueError):
        beta_k(b, 0)


def test_ell():
    assert ell(Barcode([Bar(0, INF)]), 0, 1) == 1
    assert ell(Barcode([]), 0, 1) == 0
    assert ell(Barcode([Bar(0, 2), Bar(5, 6)]), 1, 5.5) == 1.5
    with pytest.raises(ValueError):
        ell(Barcode([]), 1, 0)


def test_nu():
    b = Barcode([Bar(0, 1), Bar(0, 1), Bar(0, INF)])
    assert nu(b, 0) == 2
    assert nu(b, 0.999) == 2
    assert nu(b, 1) == 0
    with pytest.raises(ValueError):
        nu(b, -1)


def test_nu_ell_inequality():
    rng = random.Random(9)
    for _ in range(50):
        b = random_barcode(rng, rays=False)
        if not b.finite_bars():
            continue
        lo = min(bar.birth for bar in b.finite_bars())
        hi = max(bar.death for bar in b.finite_bars())
        for c in (0.1, 0.5, 1.0, 2.0):
            assert c * nu(b, c) <= ell(b, lo, hi) + 1e-12


def test_persistent_betti():
    b = Barcode([Bar(0, 3), Bar(1, 2)])
    assert persistent_betti(b, Bar(0, 3)) == 1
    assert persistent_betti(b, Bar(1, 2)) == 2
    assert persistent_betti(b, Bar(4, 5)) == 0
    with pytest.raises(ValueError):
        persistent_betti(b, Bar(0, INF))


def test_infinite_endpoint_spectrum():
    assert infinite_endpoint_spectrum(Barcode([])) == []
    b = Barcode([Bar(0, INF), Bar(0, INF), Bar(3, INF), Bar(1, 2)])
    assert infinite_endpoint_spectrum(b) == [0, 0, 3]


def test_infinite_endpoint_lower_bound():
    rng = random.Random(10)
    for _ in range(40):
        b = random_barcode(rng)
        c = random_barcode(rng)
        sb, sc = infinite_endpoint_spectrum(b), infinite_endpoint_spectrum(c)
        if len(sb) != len(sc):
            continue
        d = bottleneck_distance(b, c)
        assert matching_lemma(sb, sc) <= d + 1e-12


def test_multiplicity_function_values():
    # two bars sharing a birth: the big window caps at its quarter length
    assert multiplicity_function(Barcode([Bar(0, 1), Bar(0, 3)]), 1) == 0.75
    assert multiplicity_function(Barcode([Bar(2, 5)]), 1) == 0.75
    assert multiplicity_function(Barcode([Bar(0, 4), Bar(1.9, 2.1)]), 1) == 0.95
    assert multiplicity_function(Barcode([Bar(0, INF), Bar(1, INF)]), 1) == 0.5
    assert multiplicity_function(Barcode([]), 1) == 0
    assert multiplicity_function(Barcode([Bar(0, 1)]), 2) == 0
    assert multiplicity_function(Barcode([Bar(-INF, INF)]), 1) == INF
    with pytest.raises(ValueError):
        multiplicity_function(Barcode([]), 0)


def test_mu_of_windows_wider_than_the_float_range():
    # y - x overflows to inf for these windows and gaps; their quarters and halves do not
    assert multiplicity_function(Barcode([Bar(-1e308, 1e308)]), 1) == 5e307
    wide = Barcode([Bar(-1e308, 1e308), Bar(1e308, 1.7e308), Bar(-1.7e308, -1e308)])
    assert multiplicity_function(wide, 1) == mu_odd(wide) == 5e307
    assert multiplicity_function(wide, 2) == 0


def test_mu_odd():
    assert mu_odd(Barcode([Bar(0, 1), Bar(0, 1)])) == 0
    assert mu_odd(Barcode([Bar(0, 4)])) == 1.0
    assert mu_odd(Barcode([])) == 0


def test_multiplicity_grid_oracle_agreement():
    rng = random.Random(13)
    for _ in range(25):
        b = random_barcode(rng, max_bars=5, rays=False)
        if not b.bars:
            continue
        span = max(b.finite_endpoints()) - min(b.finite_endpoints())
        for k in (1, 2):
            exact = multiplicity_function(b, k)
            approx = multiplicity_grid_oracle(b, k)
            assert abs(exact - approx) <= 2e-3 * max(span, 1.0)


def test_mu_with_rays_against_oracle():
    rng = random.Random(14)
    for _ in range(15):
        b = random_barcode(rng, max_bars=4, rays=True)
        if not b.finite_endpoints():
            continue
        span = max(b.finite_endpoints()) - min(b.finite_endpoints())
        if span == 0:
            continue
        for k in (1, 2):
            exact = multiplicity_function(b, k)
            approx = multiplicity_grid_oracle(b, k)
            if exact == INF:
                continue
            assert abs(exact - approx) <= 2e-3 * max(span, 1.0), (b.bars, k)


def proper_barcode(rng, max_bars):
    """Bars on a coarse grid (so endpoints tie), some born at -inf, some
    dying at +inf, a few full lines."""
    bars = []
    for _ in range(rng.randint(0, max_bars)):
        birth = rng.randint(0, 8) / 4
        death = birth + rng.randint(1, 8) / 4
        r = rng.random()
        if r < 0.15:
            death = INF
        elif r < 0.25:
            birth = -INF
        elif r < 0.28:
            birth, death = -INF, INF
        bars.append(Bar(birth, death))
    return Barcode(bars)


def _mu_candidate_cs(b: Barcode) -> list[float]:
    ends = b.finite_endpoints()
    cands = {0.0}
    for e1 in ends:
        for e2 in ends:
            d = e1 - e2
            if d > 0:
                cands.add(d / 2)
                cands.add(d / 4)
    return sorted(cands)


def _mu_feasible(b: Barcode, k: int, c: float) -> bool:
    """Is there a window I, len > 4c, with exactly k bars over I and over
    the 2c-shrink of I?

    The admissible (x, y) region is a union of half-open boxes whose
    closed corners have x in {births} u {births - 2c} and y in
    {deaths} u {deaths + 2c}; sentinels far below/above all finite
    endpoints stand in for the unbounded window regimes that appear once
    the barcode has rays or bars born at -inf.
    """
    ends = b.finite_endpoints()
    lo = (min(ends) if ends else 0.0) - 4 * c - 1.0
    hi = (max(ends) if ends else 0.0) + 4 * c + 1.0
    births = {bar.birth for bar in b.bars if bar.birth > -INF}
    deaths = {bar.death for bar in b.bars if bar.death < INF}
    xs = np.array(sorted({lo} | births | {v - 2 * c for v in births}))
    ys = np.array(sorted({hi} | deaths | {v + 2 * c for v in deaths}))
    all_b = np.array([bar.birth for bar in b.bars])
    all_d = np.array([bar.death for bar in b.bars])
    cov_x = all_b[:, None] <= xs[None, :]            # (bars, xs)
    cov_y = all_d[:, None] >= ys[None, :]            # (bars, ys)
    m_outer = np.einsum("bx,by->xy", cov_x.astype(np.int32), cov_y.astype(np.int32))
    cov_x2 = all_b[:, None] <= (xs + 2 * c)[None, :]
    cov_y2 = all_d[:, None] >= (ys - 2 * c)[None, :]
    m_inner = np.einsum("bx,by->xy", cov_x2.astype(np.int32), cov_y2.astype(np.int32))
    long_enough = ys[None, :] - xs[:, None] > 4 * c
    return bool(np.any((m_outer == k) & (m_inner == k) & long_enough))


def mu_by_midpoint_scan(b, k):
    """mu_k by probing every midpoint between consecutive candidates."""
    if len(b.bars) < k or not _mu_feasible(b, k, 0.0):
        return 0.0
    cands = _mu_candidate_cs(b)
    if _mu_feasible(b, k, cands[-1] + 1.0):
        return INF
    sup = 0.0
    for prev, cur in zip(cands, cands[1:]):
        if _mu_feasible(b, k, (prev + cur) / 2):
            sup = cur
    if _mu_feasible(b, k, cands[-1]):
        sup = cands[-1]
    return sup


def test_mu_closed_form_equals_midpoint_scan():
    # float.hex tells the bits apart, the sign of a zero and inf included
    rng = random.Random(17)
    for _ in range(500):
        b = proper_barcode(rng, max_bars=8)
        for k in range(1, 7):
            assert multiplicity_function(b, k).hex() == mu_by_midpoint_scan(b, k).hex(), (b.bars, k)


def test_mu_odd_equals_per_odd_k_scan():
    rng = random.Random(18)
    for _ in range(150):
        b = proper_barcode(rng, max_bars=8)
        want = max([0.0] + [mu_by_midpoint_scan(b, k) for k in range(1, len(b.bars) + 1, 2)])
        assert mu_odd(b).hex() == want.hex(), b.bars


def test_mu_on_a_barcode_too_large_for_one_window_chunk():
    """160 spread bars and one long bar born last, so the windows split
    into several chunks of births and mu_1 sits in the last of them.  The
    midpoint scan is too slow here; probes on both sides pin each value."""
    rng = random.Random(21)
    bars = [Bar(b, b + rng.uniform(0.1, 3.0)) for b in (rng.uniform(0, 10) for _ in range(160))]
    b = Barcode(bars + [Bar(12.0, 40.0)])
    assert multiplicity_function(b, 1) == 7.0
    cands = _mu_candidate_cs(b)
    for k in (1, 2, 3):
        mu = multiplicity_function(b, k)
        i = cands.index(mu)
        assert i > 0 and _mu_feasible(b, k, (cands[i - 1] + mu) / 2), k
        assert not _mu_feasible(b, k, (mu + cands[i + 1]) / 2), k
    # no other bar reaches past 13, so no window beats the long bar's
    assert mu_odd(b) == 7.0


def test_bottleneck_candidates_are_finite_costs_and_half_lengths():
    rng = random.Random(19)
    for _ in range(60):
        b, c = proper_barcode(rng, max_bars=6), proper_barcode(rng, max_bars=6)
        rows = [[bar_match_cost(x, y) for y in c.bars] for x in b.bars]
        assert _cost_matrix(b, c).tolist() == rows
        costs = {cost for row in rows for cost in row}
        halves = {bar.length / 2 for bar in b.bars + c.bars if bar.finite}
        want = sorted({0.0} | {d for d in costs if d < INF} | halves)
        assert bottleneck_candidates(b, c) == want, (b.bars, c.bars)


def test_identity_matching_at_zero():
    b = Barcode([Bar(0, 2), Bar(1, INF)])
    ident = Matching([(0, 0), (1, 1)])
    assert is_delta_matching(b, b, ident, 0.0)


def test_persistent_betti_hexagon_window():
    import numpy as np
    from persimod.complexes import (FiniteMetricSpace, regular_polygon_points,
                                    rips_barcode)
    bc = rips_barcode(FiniteMetricSpace.from_points(regular_polygon_points(6)), 3)
    deg1 = bc.restrict_degree(1)
    assert persistent_betti(deg1, Bar(1.2, 1.5)) == 1
    assert persistent_betti(bc.restrict_degree(0), Bar(1.2, 1.5)) == 1  # the ray


def test_bottleneck_bruteforce_with_proper_bars():
    rng = random.Random(23)
    for _ in range(60):
        def proper_barcode():
            bars = []
            for _ in range(rng.randint(0, 3)):
                birth = rng.choice([-INF, round(rng.uniform(0, 2), 2)])
                death = rng.choice([INF, round(rng.uniform(2.1, 4), 2)])
                bars.append(Bar(birth, death))
            return Barcode(bars)
        b, c = proper_barcode(), proper_barcode()
        fast = bottleneck_distance(b, c)
        slow = bottleneck_bruteforce(b, c)
        assert fast == slow or abs(fast - slow) < 1e-12, (b.bars, c.bars)


def test_bottleneck_tagged_equals_per_degree_bruteforce():
    rng = random.Random(29)
    for _ in range(40):
        def tagged():
            return Barcode([Bar(round(rng.uniform(0, 2), 2),
                                round(rng.uniform(2.1, 4), 2),
                                rng.choice([0, 1]))
                            for _ in range(rng.randint(1, 3))])
        b, c = tagged(), tagged()
        per_degree = max(
            bottleneck_bruteforce(b.restrict_degree(d), c.restrict_degree(d))
            for d in (0, 1))
        assert bottleneck_distance(b, c) == per_degree


def test_shift_is_close_in_bottleneck():
    rng = random.Random(31)
    for _ in range(30):
        b = random_barcode(rng)
        delta = round(rng.uniform(0, 1), 3)
        assert bottleneck_distance(b, shift_barcode(b, delta)) <= delta + 1e-12


def probe_pair(rng):
    """Two barcodes of 0-60 bars each, of one of three kinds: spread bars,
    stacked near-equal bars shifted by a little, or bars on a coarse grid
    with tied endpoints.  Rays and -inf births come in matched numbers
    most of the time, so that the probes are not all infeasible."""
    kind = rng.choice(["spread", "near-equal", "grid"])
    rays = [(rng.uniform(0, 2), INF) for _ in range(rng.randint(0, 3))]
    rays += [(-INF, rng.uniform(1, 3)) for _ in range(rng.randint(0, 3))]
    rays += [(-INF, INF)] * rng.randint(0, 1)

    def side():
        n = rng.randint(0, 60)
        if kind == "spread":
            pts = [(x, x + rng.uniform(0.01, 4)) for x in (rng.uniform(0, 8) for _ in range(n))]
        elif kind == "near-equal":
            shift = rng.choice([0.0, 1e-3, 2e-3])
            pts = [(shift + rng.randint(0, 2) * 1e-4, 1 + shift + i * 1e-6) for i in range(n)]
        else:
            pts = [(x / 4, x / 4 + rng.randint(1, 6) / 4)
                   for x in (rng.randint(0, 8) for _ in range(n))]
        own = rays if rng.random() < 0.8 else rays[:len(rays) // 2]
        return Barcode([Bar(b, d) for b, d in rng.sample(pts + own, len(pts) + len(own))])

    return side(), side()


# -- the bisection probe, kept as the oracle for the least-cover search ------


def _delta_feasible(cost: np.ndarray, len_b: np.ndarray, len_c: np.ndarray, delta: float) -> bool:
    """Whether _feasible_matching_at finds a delta-matching, without its merge
    (len_*: float lengths).  Each side augments from the mandatory bars that
    a greedy start left unmatched; any start is a matching, so it is exact."""
    close = cost <= delta
    for mask, lengths in ((close, len_b), (close.T, len_c)):
        adj = _neighbours(mask[np.flatnonzero(lengths / 2 > delta)])
        partner, unmatched = _greedy_start(adj, mask.shape[1])
        if _augment(unmatched, adj, partner) is None:
            return False
    return True


def _candidates_above(floor: float, cost: np.ndarray, len_b: np.ndarray,
                      len_c: np.ndarray) -> list[float]:
    """Sorted distinct finite pair costs and half-lengths above *floor*."""
    values = np.concatenate([cost.ravel(), len_b / 2, len_c / 2])
    return np.unique(values[(values > floor) & (values < INF)]).tolist()


def test_probe_equals_the_matching_search():
    # the bisection probe must answer exactly what building the matching
    # answers, at every candidate delta
    rng = random.Random(37)
    checked = {False: 0, True: 0}
    for _ in range(24):
        b, c = probe_pair(rng)
        cost = _cost_matrix(b, c)
        len_b, len_c = (np.array([bar.length for bar in x.bars], dtype=float) for x in (b, c))
        for delta in bottleneck_candidates(b, c):
            want = _feasible_matching_at(cost, len_b, len_c, delta) is not None
            assert _delta_feasible(cost, len_b, len_c, delta) == want, (b.bars, c.bars, delta)
            checked[want] += 1
    assert min(checked.values()) > 1000


def bottleneck_by_full_bisection(b, c):
    """Oracle: the plain bisection over every candidate of each pool, with
    no floor probed first; bottleneck_distance must agree bit for bit."""
    def single_pool(b, c):
        if _ray_signature(b) != _ray_signature(c):
            return INF
        candidates = bottleneck_candidates(b, c)
        cost = _cost_matrix(b, c)
        len_b, len_c = (np.array([x.death for x in bars], dtype=float)
                        - np.array([x.birth for x in bars], dtype=float) for bars in (b.bars, c.bars))
        # Largest candidate is always feasible once ray counts agree (and no
        # cost overflows, which probe_pair inputs never do).
        return candidates[bisect.bisect_left(
            candidates, True, hi=len(candidates) - 1,
            key=lambda delta: _delta_feasible(cost, len_b, len_c, delta))]

    if len(b.bars) == 0 and len(c.bars) == 0:
        return 0.0
    if b.fully_tagged() and c.fully_tagged():
        degrees = {bar.degree for bar in b.bars} | {bar.degree for bar in c.bars}
        return max(single_pool(b.restrict_degree(d), c.restrict_degree(d)) for d in degrees)
    return single_pool(b.untagged(), c.untagged())


def cheapest_exit_floor(b, c):
    """Largest over the bars of both sides of min(half-length, cost of the
    nearest bar on the other side)."""
    exits = [min([bar.length / 2] + [bar_match_cost(bar, other) for other in others])
             for bars, others in ((b.bars, c.bars), (c.bars, b.bars)) for bar in bars]
    return max(exits, default=0.0)


def test_distance_is_bit_identical_to_the_full_bisection():
    rng = random.Random(41)
    tagged = empty = infinite = 0
    for i in range(2100):
        b, c = probe_pair(rng)
        if i % 3 == 1:             # per-degree pools, some empty on one side
            b, c = (Barcode([Bar(x.birth, x.death, rng.randint(0, 2)) for x in side.bars])
                    for side in (b, c))
            tagged += 1
        elif i % 20 == 2:
            b, c = (b, Barcode()) if i % 40 == 2 else (Barcode(), c)
        want, got = bottleneck_by_full_bisection(b, c), bottleneck_distance(b, c)
        assert type(got) is float and got.hex() == want.hex(), (b.bars, c.bars)
        empty += not b.bars or not c.bars
        infinite += got == INF
    assert tagged >= 700 and empty >= 50 and infinite >= 100


def test_no_candidate_below_the_floor_is_feasible():
    # the floor's bar must be matched below it and has no partner in reach,
    # so the floor is a lower bound; pools answered by the floor itself and
    # pools whose search raises delta above it must both occur
    rng = random.Random(43)
    at_floor = above = 0
    for _ in range(40):
        b, c = probe_pair(rng)
        if _ray_signature(b) != _ray_signature(c):
            continue
        floor = cheapest_exit_floor(b, c)
        cost = _cost_matrix(b, c)
        len_b, len_c = (np.array([bar.length for bar in x.bars], dtype=float) for x in (b, c))
        candidates = bottleneck_candidates(b, c)
        assert floor in candidates
        for delta in candidates[:bisect.bisect_left(candidates, floor)]:
            assert not _delta_feasible(cost, len_b, len_c, delta), (b.bars, c.bars, delta)
        d = bottleneck_distance(b, c)
        assert d >= floor
        at_floor += d == floor
        above += d > floor
    assert at_floor >= 5 and above >= 5


def test_probe_follows_a_path_as_long_as_the_pool():
    # row i < n-1 reaches columns i and i+1, row n-1 only column 0: the
    # greedy start gives row i column i and leaves row n-1 out, and its one
    # augmenting path runs through every row to the free column n-1 (and
    # the transpose's, from column n-1 back to row n-1, through every
    # column); each must cost no interpreter stack depth
    n = 1500
    cost = np.full((n, n), 2.0)
    cost[np.arange(n - 1), np.arange(n - 1)] = cost[np.arange(n - 1), np.arange(1, n)] = 0.0
    cost[n - 1, 0] = 0.0
    lengths = np.full(n, 3.0)                    # every bar mandatory at delta 1
    adj = _neighbours(cost <= 1.0)
    assert _greedy_start(adj, n)[1] == [n - 1]
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        assert _delta_feasible(cost, lengths, lengths, 1.0)
        cost[n - 2, n - 1] = 2.0                 # the free column's one edge
        assert not _delta_feasible(cost, lengths, lengths, 1.0)
    finally:
        sys.setrecursionlimit(old_limit)


def same_as_full_bisection(b, c):
    got = bottleneck_distance(b, c)
    assert got.hex() == bottleneck_by_full_bisection(b, c).hex(), (b.bars, c.bars)
    return got


def test_staircase_raises_delta_once_per_step():
    # bars of length 152, b_i dying at 100 i and c_i at 100 i + 50 + i/4,
    # shifted along the diagonal, so b_i - c_i costs 50 + i/4 and
    # b_(i+1) - c_i 50 - i/4; c_(k-1) is shorter (half-length 50) and close
    # only to b_(k-1).  At the floor, 50, b_0 takes c_0 and b_i c_(i-1); b_1
    # is left, and its one search gets stuck k - 1 times: each step lets in
    # the edge b_i - c_i and leads on to the row holding c_i, until c_(k-1)
    # is free.  Each next step is the cheapest exit of the whole visited
    # tree; the root's own is 100 more
    k = 100
    b = Barcode([Bar(100.0 * i - 152, 100.0 * i) for i in range(k)])
    c = Barcode([Bar(100.0 * i + 50 + i / 4 - 152, 100.0 * i + 50 + i / 4) for i in range(k - 1)]
                + [Bar(100.0 * (k - 1) - 77.25, 100.0 * (k - 1) + 22.75)])
    assert cheapest_exit_floor(b, c) == 50.0
    assert same_as_full_bisection(b, c) == 50 + (k - 1) / 4
    cost = _cost_matrix(b, c)
    len_b, len_c = b._lengths(), c._lengths()
    for i in range(k - 1):                # a Hall violator at each step
        assert not _delta_feasible(cost, len_b, len_c, 50 + i / 4)


@pytest.mark.parametrize("b, c", [
    # b_0 takes c_0 at the floor, 1, and the search from b_1 is stuck with
    # no exit but the half-lengths: 3 is b_0's, a visited row, which gives
    # up c_0 to b_1 ...
    ([(0, 6), (0, 8)], [(0, 7)]),
    # ... and 3 is b_1's own, the root's, which ends its search
    ([(0, 8), (0, 6)], [(0, 7)]),
])
def test_a_stuck_search_rises_to_a_half_length(b, c):
    b, c = Barcode([Bar(*x) for x in b]), Barcode([Bar(*x) for x in c])
    assert cheapest_exit_floor(b, c) == 1.0
    assert same_as_full_bisection(b, c) == 3.0 == bottleneck_bruteforce(b, c)


def test_a_list_made_before_a_raise_never_lowers_delta():
    # at the floor, 1, A takes a, r takes w and R is stuck behind A; R's
    # exit to w raises delta to 3, and w leads on to r, whose list was made
    # at 1 and lacks x (cost 2.75; x is short).  The search is stuck again
    # with an exit of 2.75, which the raise let in but no list had: delta
    # stays 3, and r moves on to x
    A, r, R = Bar(0, 13), Bar(0, 7), Bar(0, 11)
    a, w, x = Bar(0, 12), Bar(0, 8), Bar(2.75, 4.75)
    b, c = Barcode([A, r, R]), Barcode([a, w, x])
    assert cheapest_exit_floor(b, c) == 1.0
    assert same_as_full_bisection(b, c) == 3.0 == bottleneck_bruteforce(b, c)


def test_search_follows_a_path_as_long_as_the_pool():
    # bars of length 4 one apart along the diagonal, in the order b_(n-1),
    # c_0, b_0, c_1, b_1, ..., b_(n-2), c_(n-1); every bar but the last
    # mandatory.  The greedy start gives b_i c_i and leaves b_(n-1) out,
    # and its one augmenting path runs through every row.  Once c_(n-1) is
    # made short and moved (cost 1.5 from b_(n-2)), the search is stuck at
    # the floor, 1, with every row in its tree, and goes on after a raise to
    # 1.5 from the deepest of them.  Neither may cost interpreter stack depth
    n = 1500
    b = Barcode([Bar(2.0 * i - 2, 2.0 * i + 2) for i in range(n - 1)] + [Bar(-4.0, 0.0)])
    for last, want in ((Bar(2.0 * n - 5, 2.0 * n - 1), 1.0), (Bar(2 * n - 4.5, 2 * n - 3.5), 1.5)):
        c = Barcode([Bar(2.0 * j - 3, 2.0 * j + 1) for j in range(n - 1)] + [last])
        assert cheapest_exit_floor(b, c) == 1.0
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 100)
        try:
            got = bottleneck_distance(b, c)
        finally:
            sys.setrecursionlimit(old_limit)
        assert got.hex() == bottleneck_by_full_bisection(b, c).hex() == want.hex()


def test_huge_endpoints_warn_nothing_and_match_the_bruteforce():
    # differences of endpoints near +-1e308 overflow to +inf, which is the
    # right cost and length; the distance must still be the bruteforce's
    ends = [-INF, -1e308, -0.6e308, -1.0, 0.0, 0.5e308, 0.9e308, 1e308, INF]
    rng = random.Random(47)
    finite = 0
    for i in range(3000):
        def side():                    # odd i: every bar tagged degree 1
            bars = [sorted(rng.sample(ends, 2)) for _ in range(rng.randint(0, 3))]
            return Barcode([Bar(x, y, i % 2 or None) for x, y in bars if x < INF and y > -INF])
        b, c = side(), side()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = bottleneck_distance(b, c)
        assert got == bottleneck_bruteforce(b, c), (b.bars, c.bars)
        finite += got < INF
    assert finite > 500


@pytest.mark.parametrize("b, c, pairs", [
    ([(0.5, INF), (1.5, 2), (0.5, 3), (1, INF), (1.5, 3), (0.5, 3.5)],
     [(0.5, 3.5), (0.5, INF), (1, 3.5), (0.5, 2.5), (1, INF), (0, 2.5)],
     [(0, 4), (2, 5), (3, 1), (4, 2), (5, 0)]),
    ([(1.5, INF), (1, 2), (0, 2.5), (0, 3.5), (0, 3), (0.5, INF), (0.5, INF)],
     [(1.5, INF), (1, 2.5), (0.5, INF), (0, INF)],
     [(0, 3), (3, 1), (5, 2), (6, 0)]),
    ([(1.5, 3), (0.5, 3), (1.5, 3), (0.5, 3), (0.5, INF), (0.5, INF)],
     [(0.5, 2.5), (1, INF), (0, INF), (1.5, 2.5), (1, 3.5)],
     [(1, 4), (3, 0), (4, 2), (5, 1)]),
    ([(1.5, 3.5), (0, 3), (1, 2.5), (0, 3), (1.5, INF), (0, 2.5), (1.5, 2)],
     [(0.5, 3), (0, 3), (0.5, 2), (1.5, 3.5), (1, 2), (1, 2), (0.5, INF)],
     [(1, 2), (3, 1), (4, 6), (5, 0)]),
    ([(0, INF), (0.5, 3.5), (0.5, INF), (0.5, 2.5), (0, 3), (1.5, 3.5), (1, INF)],
     [(1.5, 2), (0, INF), (1, 3), (0.5, 2.5), (1, INF), (0.5, 3), (0.5, INF), (1.5, 2.5)],
     [(0, 6), (1, 5), (2, 4), (4, 2), (6, 1)]),
    ([(0, 2, 0), (0.5, 2, 0), (0, INF, 0), (1, 3, 1), (1, 2.5, 1)],
     [(0.5, 2.5, 0), (0, 2, 0), (0.5, INF, 0), (1, 2.5, 1), (1.5, 3, 1), (1, 3, 1)],
     [(0, 1), (1, 0), (2, 2), (3, 5)]),
])
def test_optimal_matching_pairs_are_pinned(b, c, pairs):
    # tied endpoints leave many optimal matchings; the one returned is
    # the plain Kuhn search's, and callers may have stored it
    b, c = Barcode([Bar(*x) for x in b]), Barcode([Bar(*x) for x in c])
    assert optimal_matching(b, c)[1].pairs == pairs


def test_optimal_matching_names_why_no_finite_matching_exists():
    for b, c in ((Barcode([Bar(0, INF)]), Barcode([])),
                 (Barcode([Bar(-INF, 1)]), Barcode([Bar(0, INF)])),
                 (Barcode([Bar(0, INF, 0)]), Barcode([Bar(0, INF, 1)]))):    # per degree
        with pytest.raises(ValueError, match="infinite-ray counts differ"):
            optimal_matching(b, c)
    # no rays on either side, but one bar of length 2e308 (overflowed to
    # inf) is left over and no finite delta lets it go unmatched
    b = Barcode([Bar(-1e308, 1e308)] * 3)
    c = Barcode([Bar(-1e308, -0.5e308), Bar(-1e308, -0.6e308)])
    assert bottleneck_distance(b, c) == INF
    with pytest.raises(ValueError, match="bar lengths or costs overflow to inf"):
        optimal_matching(b, c)


# -- the list-based queries as they were before Barcode held arrays ----------
# Each query on the arrays must give these values bit for bit.


def old_finite_endpoints(bars):
    out = []
    for b in bars:
        if b.birth > -INF:
            out.append(b.birth)
        if b.death < INF:
            out.append(b.death)
    return sorted(set(out))


def old_cost_matrix(b, c):
    def diff(x, y):
        x = np.array(x, dtype=float)[:, None]
        y = np.array(y, dtype=float)[None, :]
        with np.errstate(invalid="ignore", over="ignore"):
            return np.where(x == y, 0.0, np.abs(x - y))

    return np.maximum(diff([bar.birth for bar in b], [bar.birth for bar in c]),
                      diff([bar.death for bar in b], [bar.death for bar in c]))


def old_pool_arrays(b, c):
    with np.errstate(over="ignore"):
        len_b, len_c = (np.array([x.death for x in bars], dtype=float)
                        - np.array([x.birth for x in bars], dtype=float) for bars in (b, c))
    return old_cost_matrix(b, c), len_b, len_c


def old_ray_signature(bars):
    birth_inf = sum(1 for b in bars if b.birth == -INF and b.death < INF)
    death_inf = sum(1 for b in bars if b.death == INF and b.birth > -INF)
    both = sum(1 for b in bars if b.birth == -INF and b.death == INF)
    return birth_inf, death_inf, both


def old_single_pool(b, c):
    if old_ray_signature(b) != old_ray_signature(c):
        return INF
    cost, len_b, len_c = old_pool_arrays(b, c)
    floor = max(np.minimum(len_b / 2, cost.min(axis=1, initial=INF)).max(initial=0.0),
                np.minimum(len_c / 2, cost.min(axis=0, initial=INF)).max(initial=0.0)).item()
    if _delta_feasible(cost, len_b, len_c, floor):
        return floor
    candidates = _candidates_above(floor, cost, len_b, len_c) + [INF]
    return candidates[bisect.bisect_left(
        candidates, True, hi=len(candidates) - 1,
        key=lambda delta: _delta_feasible(cost, len_b, len_c, delta))]


def old_pools(b, c):
    """(bar indices of b, of c) per pool."""
    if all(x.degree is not None for x in b + c):
        return [([i for i, x in enumerate(b) if x.degree == d],
                 [j for j, y in enumerate(c) if y.degree == d])
                for d in {x.degree for x in b} | {y.degree for y in c}]
    return [(list(range(len(b))), list(range(len(c))))]


def old_bottleneck_distance(b, c):
    if not b and not c:
        return 0.0
    return max(old_single_pool([b[i] for i in bi], [c[j] for j in ci])
               for bi, ci in old_pools(b, c))


def old_matching_pairs(b, c, delta):
    pairs = []
    for bi, ci in old_pools(b, c):
        sub_b, sub_c = [b[i] for i in bi], [c[j] for j in ci]
        cost = old_cost_matrix(sub_b, sub_c)
        lengths = [np.array([x.length for x in bars], dtype=float) for bars in (sub_b, sub_c)]
        sub = _feasible_matching_at(cost, *lengths, delta)
        pairs.extend((bi[u], ci[v]) for u, v in sub)
    return pairs


def old_ell(bars, lo, hi):
    total = 0.0
    for bar in bars:
        left = max(bar.birth, lo)
        right = min(bar.death, hi)
        if right > left:
            total += right - left
    return total


def old_corner_windows(bars):
    """The covering counts and caps, from the windows of the bars scaled by
    1/4, whose widths and gaps stay in the float range; scaling by a power
    of two is exact, so the caps times 4 are those of the bars themselves."""
    bars = [Bar(bar.birth / 4, bar.death / 4) for bar in bars]
    births = np.array([bar.birth for bar in bars])
    deaths = np.array([bar.death for bar in bars])
    xs = np.array(sorted({bar.birth for bar in bars}))
    ys = np.array(sorted({bar.death for bar in bars}))
    with np.errstate(invalid="ignore"):
        gap_d = np.where(deaths[:, None] == ys, -INF, ys - deaths[:, None])
    covers_y = deaths[:, None] >= ys
    counts = np.empty((xs.size, ys.size), dtype=np.int64)
    caps = np.empty((xs.size, ys.size))
    for start in range(xs.size):
        x = xs[start:start + 1]
        with np.errstate(invalid="ignore"):
            gap_b = np.where(births[:, None] == x, -INF, births[:, None] - x)
        covers_x = births[:, None] <= x
        inside = covers_x[:, :, None] & covers_y[:, None, :]
        counts[start:start + 1] = inside.sum(axis=0)
        thr = np.maximum(gap_b[:, :, None], gap_d[:, None, :]) / 2
        thr[inside] = INF
        caps[start:start + 1] = np.minimum((ys - x[:, None]) / 4, thr.min(axis=0))
    return counts, caps * 4


def old_shift(bars, delta):
    try:
        return [Bar(b.birth if b.birth == -INF else b.birth + delta,
                    b.death if b.death == INF else b.death + delta, b.degree) for b in bars]
    except ValueError as e:
        return str(e)


def new_shift(b, delta):
    try:
        return shift_barcode(b, delta).bars
    except ValueError as e:
        return str(e)


def old_queries(bars, other):
    """Every query on the bar list *bars* (and *other*, for the pair queries)."""
    finite = [b for b in bars if b.birth > -INF and b.death < INF]
    lengths = sorted((b.length for b in finite), reverse=True)
    out = {
        "len": len(bars),
        "finite_bars": finite,
        "fully_tagged": all(b.degree is not None for b in bars),
        "finite_endpoints": old_finite_endpoints(bars),
        "untagged": [Bar(b.birth, b.death) for b in bars],
        "ray_signature": old_ray_signature(bars),
        "spectrum": sorted(b.birth for b in bars if b.death == INF),
        "cost": old_cost_matrix(bars, other),
    }
    for d in QUERY_DEGREES:
        out[f"restrict {d}"] = [b for b in bars if b.degree == d]
    for k in (1, 2, 3, 5):
        out[f"beta {k}"] = lengths[k - 1] if k <= len(lengths) else 0.0
    for c in (0, 0.25, 1, 2.5):
        out[f"nu {c}"] = sum(1 for b in finite if b.length > c)
    for lo, hi in ELL_WINDOWS:
        out[f"ell {lo} {hi}"] = old_ell(bars, lo, hi)
    for w in BETTI_WINDOWS:
        out[f"betti {w}"] = sum(1 for b in bars if b.birth <= w.birth and w.death <= b.death)
    for delta in SHIFTS:
        out[f"shift {delta}"] = old_shift(bars, delta)
    out["bottleneck"] = delta = old_bottleneck_distance(bars, other)
    out["matching"] = None if delta == INF else old_matching_pairs(bars, other, delta)
    return out


QUERY_DEGREES = (None, 0, 1, 2, -1, 2 ** 31, 10 ** 30)
ELL_WINDOWS = ((0, 1), (-INF, INF), (-0.0, 2.5), (0.5, 0.5), (-2, 10 ** 3))
BETTI_WINDOWS = (Bar(0, 1), Bar(0.25, 0.5), Bar(-0.0, 0.0001), Bar(1, 3))
SHIFTS = (0.5, -0.0, 3, 1e308, -INF)       # the last two can close a bar: same error


def new_queries(b, c):
    out = {
        "len": len(b),
        "finite_bars": b.finite_bars(),
        "fully_tagged": b.fully_tagged(),
        "finite_endpoints": b.finite_endpoints(),
        "untagged": b.untagged().bars,
        "ray_signature": _ray_signature(b),
        "spectrum": infinite_endpoint_spectrum(b),
        "cost": _cost_matrix(b, c),
    }
    for d in QUERY_DEGREES:
        out[f"restrict {d}"] = b.restrict_degree(d).bars
    for k in (1, 2, 3, 5):
        out[f"beta {k}"] = beta_k(b, k)
    for t in (0, 0.25, 1, 2.5):
        out[f"nu {t}"] = nu(b, t)
    for lo, hi in ELL_WINDOWS:
        out[f"ell {lo} {hi}"] = ell(b, lo, hi)
    for w in BETTI_WINDOWS:
        out[f"betti {w}"] = persistent_betti(b, w)
    for delta in SHIFTS:
        out[f"shift {delta}"] = new_shift(b, delta)
    out["bottleneck"] = delta = bottleneck_distance(b, c)
    out["matching"] = None if delta == INF else optimal_matching(b, c)[1].pairs
    return out


def canon(value):
    """Bits and types: floats by float.hex (the sign of a zero and inf
    included), ints and bools as themselves, bars by their endpoints'
    bits and their degree, arrays by their bytes."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (list, tuple)):
        return [canon(v) for v in value]
    if isinstance(value, Bar):
        return canon(value.birth), canon(value.death), value.degree
    if isinstance(value, float):
        return "float", value.hex()
    return type(value).__name__, value


def floats(key, value):
    """An answer as the arrays hold it: int endpoints as floats, for the
    queries whose answers are endpoints, lengths or Bars."""
    if not key.startswith(("finite", "untagged", "spectrum", "restrict", "beta", "shift")):
        return value
    if isinstance(value, str):             # a ValueError's message
        return value
    if isinstance(value, list):
        return [floats(key, v) for v in value]
    if isinstance(value, Bar):
        return Bar(float(value.birth), float(value.death), value.degree)
    return float(value)


EQUIVALENCE_ENDS = {
    # ties, signed zeros, int endpoints, rays, lines
    "grid": [-INF, -1, -0.0, 0.0, 0, 0.25, 0.5, 1, 1.0, 1.5, 2, INF],
    # overflowing lengths and costs
    "huge": [-INF, -1e308, -0.6e308, -1.0, -0.0, 0.0, 0.5e308, 0.9e308, 1e308, INF],
}


def equivalence_bars(rng, kind, tags):
    """0-40 bars of one kind: endpoints from a small pool, or spread floats
    whose sums round.  tags: "none", "all" or "mixed" degrees."""
    bars = []
    for _ in range(rng.choice([0, 1, 3, 6, 12, 40])):
        if kind == "spread":
            x = rng.choice([-INF, -0.0, 0.0] + [rng.uniform(-1, 3)] * 6)
            y = rng.choice([INF, x + rng.uniform(0.01, 2)] if x > -INF else [INF, 1.0])
        else:
            x, y = sorted(rng.sample(EQUIVALENCE_ENDS[kind], 2))
        if not x < y:
            continue
        degree = {"none": None, "all": rng.randint(0, 2),
                  "mixed": rng.choice([None, 0, 1])}[tags]
        bars.append(Bar(x, y, degree))
    return bars


def with_the_same_rays(rng, bars, kind, tags):
    """Other bars with the rays of *bars*, so that most distances are finite."""
    out = [x for x in bars if not x.finite] + [
        x for x in equivalence_bars(rng, kind, tags) if x.finite]
    rng.shuffle(out)
    return out


def of_columns(bars):
    return Barcode._of_columns(np.array([b.birth for b in bars], dtype=float),
                               np.array([b.death for b in bars], dtype=float),
                               np.array([-1 if b.degree is None else b.degree for b in bars],
                                        dtype=np.int64))


def test_array_queries_equal_the_list_queries():
    rng = random.Random(53)
    seen = {"-0.0": 0, "int": 0, "rays": 0, "mixed": 0, "empty": 0, "inf distance": 0,
            "finite distance": 0, "shift error": 0, "wide window": 0}
    for i in range(1200):
        kind = ("grid", "spread", "huge")[i % 3]
        tags = ("none", "all", "mixed", "all")[i // 3 % 4]
        bars = equivalence_bars(rng, kind, tags)
        if i % 2:
            other = with_the_same_rays(rng, bars, kind, tags)
        else:
            other = equivalence_bars(rng, kind, tags)
        want = old_queries(bars, other)
        b, c = Barcode(bars), Barcode(other)
        got = new_queries(b, c)
        assert got.keys() == want.keys()
        for key in want:
            # finite_bars and restrict_degree hand back the given Bars; every
            # other value comes from the arrays, which hold floats
            own = key == "finite_bars" or key.startswith("restrict")
            assert canon(got[key]) == canon(want[key] if own else floats(key, want[key])), \
                (key, bars, other)
        # the same bars from columns give the same answers; their Bars hold floats
        cols = new_queries(of_columns(bars), of_columns(other))
        assert {k: canon(v) for k, v in cols.items()} == \
            {k: canon(floats(k, v)) for k, v in got.items()}
        counts, caps = _corner_windows(b)
        old_counts, old_caps = old_corner_windows(bars)
        assert counts.tolist() == old_counts.tolist() and canon(caps) == canon(old_caps)
        assert canon(_corner_windows(of_columns(bars))) == canon((counts, caps))
        for k in (1, 2, 3):
            old_mu = max(0.0, float(old_caps[old_counts == k].max(initial=0.0)))
            assert canon(multiplicity_function(b, k)) == canon(old_mu)
        old_odd = max(0.0, float(old_caps[old_counts % 2 == 1].max(initial=0.0)))
        assert canon(mu_odd(b)) == canon(old_odd)
        seen["wide window"] += kind == "huge" and any(
            x.birth < -0.5e308 and x.death > 0.5e308 for x in bars)
        seen["-0.0"] += any(math.copysign(1, e) < 0 for e in want["finite_endpoints"] if e == 0)
        seen["int"] += any(type(e) is int for e in want["finite_endpoints"])
        seen["rays"] += any(x != 0 for x in want["ray_signature"])
        seen["mixed"] += not want["fully_tagged"] and any(x.degree is not None for x in bars)
        seen["empty"] += not bars
        seen["inf distance"] += want["bottleneck"] == INF
        seen["finite distance"] += want["bottleneck"] < INF
        seen["shift error"] += isinstance(want[f"shift {1e308}"], str)
    assert min(seen.values()) >= 50, seen
