"""
Named desk-scale scenarios with pinned expected values; each checks one
acceptance criterion and reports expected vs computed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import field as ff
from .barcode import (GRID_RESOLUTION, Bar, Barcode, beta_k, bottleneck_distance,
                      ell, interval_interleaving_distance, matching_lemma,
                      matching_lemma_bruteforce, multiplicity_function,
                      multiplicity_grid_oracle, mu_odd, nu, optimal_matching,
                      persistent_betti)
from .complexes import (FiniteMetricSpace, GridFunction, PointCloud,
                        cech_barcode, log2_rescale, regular_polygon_points,
                        rips_barcode, rips_complex, torus_grid_complex,
                        tree_metric_net)
from .filtered_complex import (Cell, FilteredComplex, barcode_of_complex,
                               boundary_depth_usher, homology_module,
                               random_filtered_complex)
from .function_theory import (circle_ell_identity, random_trig_polynomial,
                              verify_length_inequality)
from .metric_geometry import gh_bruteforce
from .module_rep import (ModuleMorphism, barcode as rep_barcode, from_barcode,
                         induced_matching, induced_matching_inj,
                         induced_matching_sur, interleaving_from_matching,
                         rank_invariant)
from .representations import (action_from_cell_map, eigenspace_submodule,
                              simplicial_action_map, z4_obstruction_bound)
from .symplectic import (EllipsoidSpec, cz_rotation_index, ellipsoid_sh_degree,
                         ellipsoid_sh_degree_via_cz, sbm_lower_bound)
from .barcode import boundary_depth

INF = math.inf


@dataclass
class ScenarioResult:
    name: str
    passed: bool
    lines: list[str] = dc_field(default_factory=list)

    def expect(self, label: str, cond: bool, detail: str = "") -> None:
        self.passed &= bool(cond)
        mark = "ok" if cond else "MISMATCH"
        self.lines.append(f"{label}: {mark}" + (f" ({detail})" if detail else ""))

    def report(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        body = "\n".join("  " + ln for ln in self.lines)
        return f"[{status}] {self.name}\n{body}" if body else f"[{status}] {self.name}"


def _barcodes_close(got: Barcode, want: Barcode) -> bool:
    g, w = sorted(got.bars), sorted(want.bars)
    if len(g) != len(w):
        return False
    for a, b in zip(g, w):
        if a.degree != b.degree:
            return False
        for x, y in ((a.birth, b.birth), (a.death, b.death)):
            if x != y and abs(x - y) > 1e-9:
                return False
    return True


def _fmt_barcode(b: Barcode) -> str:
    return "{" + ", ".join(
        f"({bar.birth:.6g},{bar.death:.6g}]" + (f"_{bar.degree}" if bar.degree is not None else "")
        for bar in sorted(b.bars)) + "}"


def heart_sphere_complex() -> FilteredComplex:
    return FilteredComplex(
        [Cell("x1", 0, 0.0), Cell("x2", 1, 1.0),
         Cell("x3", 2, 2.0), Cell("x4", 2, 3.0)],
        {"x1": {}, "x2": {}, "x3": {"x2": 1}, "x4": {"x2": 1}}, 2)


def rectangle_pmi(a: float):
    pts = [[0.0, 0.0], [a, 0.0], [a, 1.0], [0.0, 1.0]]   # x1, y2, x2, y1
    c = rips_complex(FiniteMetricSpace.from_points(pts), max_dim=1, p=5)
    cmap = simplicial_action_map(c, {0: 2, 2: 0, 1: 3, 3: 1})
    return action_from_cell_map(c, cmap, degree=0, order=2)


# ---------------------------------------------------------------------------
# scenarios (numbered as in the acceptance list); each records its checks
# in the ScenarioResult it is given


def _scn_hexagon(chk, seed, slack):
    bc = rips_barcode(FiniteMetricSpace.from_points(regular_polygon_points(6)), 3)
    want = Barcode([Bar(0, 1, 0)] * 5
                   + [Bar(0, INF, 0), Bar(1, math.sqrt(3), 1), Bar(math.sqrt(3), 2, 2)])
    chk.expect("hexagon Rips barcode", _barcodes_close(bc, want),
               f"got {_fmt_barcode(bc)}")


def _scn_hexagon_cech(chk, seed, slack):
    pts = regular_polygon_points(6)
    rips = rips_barcode(FiniteMetricSpace.from_points(pts), 3)
    cech = cech_barcode(PointCloud(pts), 3)
    want = Barcode([Bar(0, 1, 0)] * 5 + [Bar(0, INF, 0), Bar(1, 2, 1)])
    chk.expect("hexagon Cech barcode", _barcodes_close(cech, want),
               f"got {_fmt_barcode(cech)}")
    d = bottleneck_distance(log2_rescale(rips), log2_rescale(cech))
    chk.expect("log2-scale d_bot(Rips, Cech) <= 1", d <= 1.0, f"d = {d:.6g}")


def _scn_heart_sphere(chk, seed, slack):
    c = heart_sphere_complex()
    bc = barcode_of_complex(c)
    want = Barcode([Bar(0, INF, 0), Bar(1, 2, 1), Bar(3, INF, 2)])
    chk.expect("heart-sphere barcode", bc == want, f"got {_fmt_barcode(bc)}")
    beta = boundary_depth(bc)
    usher = boundary_depth_usher(c)
    chk.expect("boundary depth = 1", beta == 1.0, f"beta = {beta}")
    chk.expect("filtration-lookup depth agrees", usher == beta, f"usher = {usher}")


def _scn_interval_distances(chk, seed, slack):
    table = [((1, 2), (1, 3), 1.0), ((1, 2), (2, 3), 0.5), ((1, 4), (2, 5), 1.0)]
    for (a, b), (c, d), want in table:
        i, j = Bar(a, b), Bar(c, d)
        closed = interval_interleaving_distance(i, j)
        bot = bottleneck_distance(Barcode([i]), Barcode([j]))
        chk.expect(f"({a},{b}] vs ({c},{d}] closed form", closed == want,
                   f"{closed} vs {want}")
        chk.expect(f"({a},{b}] vs ({c},{d}] bottleneck", bot == want,
                   f"{bot} vs {want}")


def _scn_reduction_oracle(chk, seed, slack):
    rng = random.Random(seed)
    bad = 0
    count_bad = 0
    for t in range(500):
        p = 2 if t % 2 == 0 else 5
        c = random_filtered_complex(rng, max_cells=30, max_degree=2, p=p)
        bc = barcode_of_complex(c)
        if len(bc.finite_bars()) > c.n_cells() / 2:
            count_bad += 1
        for k in range(c.max_degree + 1):
            want = Barcode(sorted(Bar(b.birth, b.death)
                                  for b in bc.bars if b.degree == k))
            if rep_barcode(homology_module(c, k)) != want:
                bad += 1
                break
    chk.expect("triangular reduction = rank-formula homology, 500 complexes",
               bad == 0, f"{bad} mismatches")
    chk.expect("finite bars <= cells/2 always", count_bad == 0)


def _scn_normal_form(chk, seed, slack):
    rng = random.Random(seed)
    bad = 0
    for _ in range(1000):
        bars = []
        for _ in range(rng.randint(0, 8)):
            birth = round(rng.uniform(0, 5), 2)
            death = rng.choice([INF, round(rng.uniform(5.01, 9), 2)])
            bars.append(Bar(birth, death))
        bc = Barcode(bars)
        if rep_barcode(from_barcode(bc)) != bc:
            bad += 1
    chk.expect("barcode(from_barcode(B)) = B, 1000 random barcodes", bad == 0,
               f"{bad} failures")
    ray = from_barcode(Barcode([Bar(2.0, INF)]))
    b22 = rank_invariant(ray, 2, 2)
    m12 = b22 + rank_invariant(ray, 1, 3) - rank_invariant(ray, 2, 3) \
        - rank_invariant(ray, 1, 2)
    chk.expect("single-ray multiplicity m12 = 1", m12 == 1 and b22 == 1,
               f"m12 = {m12}, b22 = {b22}")


def _scn_matching_lemma(chk, seed, slack):
    rng = random.Random(seed)
    bad = 0
    for _ in range(500):
        n = rng.randint(1, 6)
        b = sorted(round(rng.uniform(-5, 5), 3) for _ in range(n))
        c = sorted(round(rng.uniform(-5, 5), 3) for _ in range(n))
        if matching_lemma(b, c) != matching_lemma_bruteforce(b, c):
            bad += 1
    chk.expect("sorted pairing = brute-force optimum, 500 trials", bad == 0,
               f"{bad} failures")


def _random_barcode(rng, max_bars=5, allow_rays=False) -> Barcode:
    bars = []
    for _ in range(rng.randint(1, max_bars)):
        birth = round(rng.uniform(0, 2), 3)
        death = INF if (allow_rays and rng.random() < 0.2) \
            else round(rng.uniform(2.001, 4), 3)
        bars.append(Bar(birth, death))
    return Barcode(bars)


def _scn_stability(chk, seed, slack):
    rng = random.Random(seed)
    bad_grid = 0
    for _ in range(200):
        f = random_trig_polynomial(rng, 4).on_grid(12)
        g = random_trig_polynomial(rng, 4).on_grid(12)
        diff = float(np.abs(f.values - g.values).max())
        bf = barcode_of_complex(torus_grid_complex(f))
        bg = barcode_of_complex(torus_grid_complex(g))
        if bottleneck_distance(bf, bg) > diff + 1e-9:
            bad_grid += 1
    chk.expect("d_bot(sublevel barcodes) <= sup-norm gap, 200 grid pairs",
               bad_grid == 0, f"{bad_grid} violations")
    bad_beta = bad_mu = 0
    for _ in range(500):
        b1 = _random_barcode(rng)
        b2 = _random_barcode(rng)
        d = bottleneck_distance(b1, b2)
        for k in (1, 2, 3):
            if abs(beta_k(b1, k) - beta_k(b2, k)) > 2 * d + 1e-9:
                bad_beta += 1
            if abs(multiplicity_function(b1, k) - multiplicity_function(b2, k)) > d + 1e-9:
                bad_mu += 1
    chk.expect("beta_k is 2-Lipschitz, 500 pairs", bad_beta == 0, f"{bad_beta}")
    chk.expect("mu_k is 1-Lipschitz, 500 pairs", bad_mu == 0, f"{bad_mu}")


def _thin_injective(rng, target: Barcode) -> Barcode:
    """A barcode admitting an injection into target: drop bars, move
    births right (same deaths)."""
    bars = []
    for bar in target.bars:
        if rng.random() < 0.6:
            hi = bar.death if bar.death < INF else bar.birth + 3
            birth = rng.uniform(bar.birth, (bar.birth + hi) / 2)
            bars.append(Bar(round(birth, 4), bar.death))
    return Barcode(bars)


def _thin_surjective(rng, source: Barcode) -> Barcode:
    """A barcode receiving a surjection from source: drop bars, move
    deaths left (same births)."""
    bars = []
    for bar in source.bars:
        if rng.random() < 0.6:
            hi = bar.death if bar.death < INF else bar.birth + 3
            death = rng.uniform((bar.birth + hi) / 2, hi)
            bars.append(Bar(bar.birth, round(death, 4)))
    return Barcode(bars)


def _scn_induced_matchings(chk, seed, slack):
    rng = random.Random(seed)
    bad_inj = bad_sur = 0
    for _ in range(200):
        w = _random_barcode(rng, max_bars=6, allow_rays=True)
        v = _thin_injective(rng, w)
        u = _thin_injective(rng, v)
        lhs = induced_matching_inj(u, w)
        rhs = induced_matching_inj(v, w).compose(induced_matching_inj(u, v))
        if sorted(lhs.pairs) != sorted(rhs.pairs):
            bad_inj += 1
        uu = _random_barcode(rng, max_bars=6, allow_rays=True)
        vv = _thin_surjective(rng, uu)
        ww = _thin_surjective(rng, vv)
        lhs = induced_matching_sur(uu, ww)
        rhs = induced_matching_sur(vv, ww).compose(induced_matching_sur(uu, vv))
        if sorted(lhs.pairs) != sorted(rhs.pairs):
            bad_sur += 1
    chk.expect("injective functoriality, 200 chains", bad_inj == 0, f"{bad_inj}")
    chk.expect("surjective functoriality, 200 chains", bad_sur == 0, f"{bad_sur}")

    # the counterexample: f(s,t) = (s,0), g(s,t) = t on a doubled interval
    interval = Bar(0.0, 1.0)
    u = from_barcode(Barcode([interval, interval]))
    w = from_barcode(Barcode([interval]))
    f = ModuleMorphism(u, u, [np.array([[1, 0], [0, 0]])[:d, :d] for d in u.dims])
    g = ModuleMorphism(u, w, [np.array([[0, 1]])[:dw, :du]
                              for du, dw in zip(u.dims, w.dims)])
    from .module_rep import compose
    mu_f, mu_g = induced_matching(f), induced_matching(g)
    mu_gf = induced_matching(compose(g, f))
    composed = mu_g.compose(mu_f)
    chk.expect("counterexample: mu(g o f) empty", len(mu_gf.pairs) == 0,
               f"{mu_gf.pairs}")
    chk.expect("counterexample: mu(g) o mu(f) nonempty", len(composed.pairs) == 1,
               f"{composed.pairs}")


def _scn_interleaving(chk, seed, slack):
    rng = random.Random(seed)
    bad = 0
    for _ in range(200):
        b = _random_barcode(rng, max_bars=4)
        c = _random_barcode(rng, max_bars=4)
        d, m = optimal_matching(b, c)
        try:
            interleaving_from_matching(b, c, m, d)
        except AssertionError:
            bad += 1
    chk.expect("interleaving compositions equal the 2d shifts, 200 cases",
               bad == 0, f"{bad} failures")


def torus_sin_grid() -> GridFunction:
    """sin 2x1 + sin 2x2 on the 128 x 128 grid of the 2 pi torus."""
    xs = 2 * math.pi * np.arange(128) / 128
    return GridFunction(np.sin(2 * xs)[:, None] + np.sin(2 * xs)[None, :])


def _scn_torus_n2(chk, seed, slack):
    n = 2    # the frequency torus_sin_grid samples
    g = torus_sin_grid()
    bc = barcode_of_complex(c := torus_grid_complex(g))
    c.__post_init__()    # the array check, which builders skip: raises if the complex is wrong
    count = nu(bc, 1.9)
    chk.expect("nu(p, 1.9) = 2n^2 - 2 = 6", count == 2 * n * n - 2, f"nu = {count}")
    lo, hi = float(g.values.min()), float(g.values.max())
    length = ell(bc, lo, hi)
    chk.expect("ell within 2% of 4n^2 + 4 = 20", abs(length - 20.0) <= 0.02 * 20,
               f"ell = {length:.6g}")
    deg0 = [b for b in bc.finite_bars() if b.degree == 0]
    deg1 = [b for b in bc.finite_bars() if b.degree == 1]
    ok_mult = (len(deg0) == n * n - 1 == len(deg1)
               and all(abs(b.birth + 2) < 0.05 and abs(b.death) < 0.05 for b in deg0)
               and all(abs(b.birth) < 0.05 and abs(b.death - 2) < 0.05 for b in deg1))
    chk.expect("bars (-2,0] and (0,2] with multiplicity n^2-1 each", ok_mult,
               f"{len(deg0)} deg-0 and {len(deg1)} deg-1 finite bars")
    rep = verify_length_inequality(g, slack=0.0)
    rhs_target = 6 * math.pi * (n * n + 1)
    chk.expect("length inequality holds", rep["holds"],
               f"ell = {rep['ell']:.6g} <= {rep['rhs']:.6g}")
    chk.expect("right-hand side = 6*pi*(n^2+1)",
               abs(rep["rhs"] - rhs_target) <= 0.02 * rhs_target,
               f"{rep['rhs']:.6g} vs {rhs_target:.6g}")


def _scn_length_inequality(chk, seed, slack):
    rng = random.Random(seed)
    bad = 0
    for _ in range(20):
        g = random_trig_polynomial(rng, 9).on_grid(64)
        rep = verify_length_inequality(g, slack=max(slack, 0.05))
        if not rep["holds"]:
            bad += 1
    chk.expect("ell(f) <= 3(|f|_2 + |Lap f|_2)(1+5%), 20 random polynomials",
               bad == 0, f"{bad} violations")


def _scn_rectangle_pmi(chk, seed, slack):
    r3 = rectangle_pmi(3.0)
    eig = rep_barcode(eigenspace_submodule(r3, 4))
    chk.expect("eigenspace barcode {(0,1], (0,3]}",
               eig == Barcode([Bar(0, 1), Bar(0, 3)]), _fmt_barcode(eig))
    bound = z4_obstruction_bound(r3)
    # mu_k is the sup of c with a window of length > 4c covered by exactly
    # k bars, as is its 2c-shrink.  Lower half: for c < 3/4 the window
    # (0,3] and its shrink (2c, 3-2c] are covered by (0,3] alone, since
    # 3-2c > 1.  Upper half: mu_k is 1-Lipschitz and the even barcode
    # E = 2 x (3/4, 9/4] has mu_odd 0 at bottleneck distance 3/4.
    chk.expect("mu_odd = 0.75 exactly", bound == 0.75, f"computed {bound}")
    even = Barcode([Bar(0.75, 2.25), Bar(0.75, 2.25)])
    mu_even, d_even = mu_odd(even), bottleneck_distance(eig, even)
    chk.expect("upper half: mu_odd(E) = 0 and d_bot(eig, E) = 0.75, E = 2 x (3/4,9/4]",
               mu_even == 0.0 and d_even == 0.75,
               f"mu_odd(E) {mu_even}, d_bot {d_even}")
    ends = eig.finite_endpoints()
    step = GRID_RESOLUTION * (max(ends) - min(ends))   # the oracle's grid step
    approx = multiplicity_grid_oracle(eig, 1)
    chk.expect("lower half: mu_1 grid oracle within one grid step of 0.75",
               abs(approx - 0.75) <= step, f"oracle {approx}")
    bad = []
    for a in (1.5, 2.0, 3.0, 5.0):
        got = z4_obstruction_bound(rectangle_pmi(a))
        if got != min((a - 1) / 2, a / 4):
            bad.append(f"a={a:g}: {got}")
    chk.expect("closed form min((a-1)/2, a/4), a in {1.5, 2, 3, 5}",
               not bad, "; ".join(bad))
    r1 = rectangle_pmi(1.0)
    chk.expect("square (a=1) gives 0", z4_obstruction_bound(r1) == 0.0,
               f"{z4_obstruction_bound(r1)}")


def _scn_gh_chain(chk, seed, slack):
    rng = random.Random(seed)
    bad = 0
    for _ in range(100):
        a = FiniteMetricSpace.from_points(
            [[rng.uniform(0, 2), rng.uniform(0, 2)] for _ in range(4)])
        b = FiniteMetricSpace.from_points(
            [[rng.uniform(0, 2), rng.uniform(0, 2)] for _ in range(4)])
        dgh = gh_bruteforce(a, b)
        dbot = bottleneck_distance(rips_barcode(a, 2), rips_barcode(b, 2))
        if dgh < dbot / 2 - 1e-9:
            bad += 1
    chk.expect("d_GH >= d_bot/2 on Rips barcodes, 100 random 4-point pairs",
               bad == 0, f"{bad} violations")


def _scn_mu_grid(chk, seed, slack):
    rng = random.Random(seed)
    bad = 0
    worst = 0.0
    for _ in range(100):
        bc = _random_barcode(rng, max_bars=5)
        span = max(bc.finite_endpoints()) - min(bc.finite_endpoints())
        tol = 2e-3 * max(span, 1.0)
        for k in (1, 2, 3):
            exact = multiplicity_function(bc, k)
            approx = multiplicity_grid_oracle(bc, k)
            worst = max(worst, abs(exact - approx))
            if abs(exact - approx) > tol:
                bad += 1
    chk.expect("mu_k matches the 1e-3 grid oracle within 2e-3, 100 barcodes",
               bad == 0, f"{bad} mismatches, worst gap {worst:.2e}")


def _scn_tree_rips(chk, seed, slack):
    rng = random.Random(seed)
    bad = 0
    for _ in range(10):
        x, eps = tree_metric_net(rng, n_edges=5, max_len=1.6, spacing=0.5)
        bc = rips_barcode(x, 2)
        for bar in bc.finite_bars():
            if bar.length > 6 * eps + 1e-9:
                bad += 1
    chk.expect("tree-net Rips finite bars have length <= 6 eps", bad == 0,
               f"{bad} long bars")


def _scn_circle_identity(chk, seed, slack):
    rng = random.Random(seed)
    bad = 0
    for _ in range(100):
        samples = [round(rng.uniform(-3, 3), 3) for _ in range(rng.randint(3, 24))]
        lhs, rhs = circle_ell_identity(samples)
        if abs(lhs - rhs) > 1e-9:
            bad += 1
    chk.expect("ell = half total variation, 100 cyclic sample sequences",
               bad == 0, f"{bad} failures")


def _scn_manifold_circle(chk, seed, slack):
    pts = np.stack([np.cos(2 * np.pi * np.arange(60) / 60),
                    np.sin(2 * np.pi * np.arange(60) / 60)], axis=1)
    bc = log2_rescale(rips_barcode(FiniteMetricSpace.from_points(pts), 2))
    loop_bars = [b for b in bc.bars if b.degree == 1 and b.finite]
    chk.expect("one long degree-1 bar", len(loop_bars) >= 1)
    main = max(loop_bars, key=lambda b: b.length)
    chk.expect("degree-1 log bar longer than 4", main.length > 4,
               f"length {main.length:.4g}")
    gap = (main.length - 4) / 2
    window = Bar(main.birth + gap, main.birth + gap + 4)
    b0 = persistent_betti(bc.restrict_degree(0), window)
    b1 = persistent_betti(bc.restrict_degree(1), window)
    chk.expect("window Betti numbers b0 = 1, b1 = 1", (b0, b1) == (1, 1),
               f"got ({b0}, {b1})")


def _scn_symplectic(chk, seed, slack):
    for (n, N) in [(1, 1), (2, 8)]:
        for a in (0.5, 1.5, 2.5):
            direct = ellipsoid_sh_degree(a, n, N)
            via_cz = ellipsoid_sh_degree_via_cz(a, n, N)
            want = -2 * abs(math.ceil(-a)) - 2 * (n - 1) * abs(math.ceil(-a / N))
            chk.expect(f"degree(a={a}, n={n}, N={N}) = {want}",
                       direct == want == via_cz,
                       f"direct {direct}, via rotation indices {via_cz}")
    d = sbm_lower_bound(EllipsoidSpec(1, 8, 2), EllipsoidSpec(2, 4, 2))
    chk.expect("coarse lower bound E(1,8) vs E(2,4) = ln 2",
               abs(d - math.log(2)) <= 1e-12, f"{d!r}")
    chk.expect("rotation index table", (cz_rotation_index(0.5),
                                        cz_rotation_index(1.5),
                                        cz_rotation_index(-0.5)) == (1, 3, -1))


SCENARIOS = {
    "hexagon": _scn_hexagon,
    "hexagon-cech": _scn_hexagon_cech,
    "heart-sphere": _scn_heart_sphere,
    "interval-distances": _scn_interval_distances,
    "reduction-oracle": _scn_reduction_oracle,
    "normal-form": _scn_normal_form,
    "matching-lemma": _scn_matching_lemma,
    "stability": _scn_stability,
    "induced-matchings": _scn_induced_matchings,
    "interleaving": _scn_interleaving,
    "torus-n2": _scn_torus_n2,
    "length-inequality": _scn_length_inequality,
    "rectangle-pmi": _scn_rectangle_pmi,
    "gh-chain": _scn_gh_chain,
    "mu-grid": _scn_mu_grid,
    "tree-rips": _scn_tree_rips,
    "circle-identity": _scn_circle_identity,
    "manifold-circle": _scn_manifold_circle,
    "symplectic": _scn_symplectic,
}


def run_scenario(name: str, seed: int = 0, slack: float = 0.05) -> ScenarioResult:
    if name not in SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}; known: {', '.join(sorted(SCENARIOS))}")
    result = ScenarioResult(name, True)
    SCENARIOS[name](result, seed, slack)
    return result
