"""Seeded inputs, operations and output checks of the four workloads.

Every input is built here, before any timing, from `random.Random` seeded
by (workload, seed, op index) and from `math` functions, so the same seed
gives bit-identical inputs whatever the library does.  The library's own
generators (`random_trig_polynomial`, `random_filtered_complex`, the
`reproduce` helpers) are deliberately not used: a later change to them
must not change the inputs under a benchmark comparison.

An op calls the library through module attributes (`complexes.rips_complex`
and so on), so the tracer's wrappers are seen when tracing is on.

Each workload is a list of rounds with a fixed schedule of op kinds and
sizes; only the contents are seeded.  The timed loop stops on round
boundaries, so every run sees the same mix.  The round shapes also keep the
median and p90 latency inside one size class rather than on the edge
between two (see README.md).
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

from persimod import barcode, complexes, filtered_complex, function_theory, module_rep
from persimod.barcode import Bar, Barcode
from persimod.filtered_complex import Cell

INF = math.inf


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    # raw output -> (canonical output for the digest, failed checks, output stats)
    check: Callable[[object], tuple[object, list[str], Counter]]
    stats: Counter  # input statistics


@dataclass
class Workload:
    pinned: list[Op]          # ops run once per run, before the rounds
    rounds: list[list[Op]]    # the first pass; the timed loop repeats it

    def first_pass(self) -> list[Op]:
        return self.pinned + [op for r in self.rounds for op in r]


def digest(canon) -> str:
    return hashlib.sha256(repr(canon).encode()).hexdigest()[:16]


def _hex(x: float) -> str:
    return float(x).hex()


def _canon_barcode(b: Barcode) -> tuple:
    return tuple(sorted((_hex(bar.birth), _hex(bar.death), bar.degree) for bar in b.bars))


def _rng(workload: str, seed: int, i: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{i}")


def _bar_stats(b: Barcode) -> Counter:
    out = Counter()
    for bar in b.bars:
        out[f"bars_d{bar.degree}"] += 1
    return out


def _cell_stats(c) -> Counter:
    return Counter(f"cells_d{cell.degree}" for cell in c.cells)


def _rays_by_degree(b: Barcode) -> dict:
    return dict(Counter(bar.degree for bar in b.bars if bar.death == INF))


# ---------------------------------------------------------------------------
# grid-sublevel: the torus length-inequality pipeline

GRID_SIZES = (12, 12, 16, 16, 24, 32, 64)   # p50 inside the 16² class, p90 inside 64²
GRID_ROUNDS = 15
GRID_LAMBDA = 9      # frequencies n1² + n2² <= 9, as in the length-inequality scenario
PINNED_N = 128       # sin 2x1 + sin 2x2, the paper's torus example


def _trig_grid(rng: random.Random, n: int) -> complexes.GridFunction:
    cap = math.isqrt(GRID_LAMBDA)
    terms = [(n1, n2, rng.uniform(-1, 1), rng.uniform(-1, 1))
             for n1 in range(-cap, cap + 1) for n2 in range(-cap, cap + 1)
             if 0 < n1 * n1 + n2 * n2 <= GRID_LAMBDA and (n1, n2) > (0, 0)]
    xs = [2 * math.pi * i / n for i in range(n)]
    return complexes.GridFunction(np.array(
        [[sum(a * math.cos(n1 * x + n2 * y) + b * math.sin(n1 * x + n2 * y)
              for n1, n2, a, b in terms) for y in xs] for x in xs]))


def _pinned_grid() -> complexes.GridFunction:
    s = [math.sin(2 * 2 * math.pi * i / PINNED_N) for i in range(PINNED_N)]
    return complexes.GridFunction(np.array([[u + v for v in s] for u in s]))


def _grid_op(g: complexes.GridFunction, pinned: bool) -> Op:
    lo, hi = float(g.values.min()), float(g.values.max())
    threshold = 0.475 * (hi - lo)    # 1.9 on the pinned torus

    def run():
        c = complexes.torus_grid_complex(g)
        b = filtered_complex.barcode_of_complex(c)
        return (c, b, barcode.ell(b, lo, hi), barcode.nu(b, threshold),
                function_theory.grid_norms(g))

    def check(out):
        c, b, length, count, norms = out
        problems = []
        if _rays_by_degree(b) != {0: 1, 1: 2, 2: 1}:
            problems.append(f"torus rays {_rays_by_degree(b)} != (1, 2, 1)")
        if pinned and count != 6:
            problems.append(f"pinned torus nu(., 1.9) = {count} != 6")
        if pinned and abs(length - 20.0) > 0.02 * 20.0:
            problems.append(f"pinned torus ell = {length!r} not within 2% of 20")
        canon = (_canon_barcode(b), _hex(length), count,
                 tuple(_hex(v) for v in (norms.sup, norms.l2, norms.laplacian_l2,
                                         norms.gradient_sup)))
        return canon, problems, _cell_stats(c) + _bar_stats(b)

    return Op("pinned-128" if pinned else f"grid-{g.nx}", run, check,
              Counter({f"grid_{g.nx}": 1}))


def grid_sublevel(seed: int) -> Workload:
    rounds, i = [], 0
    for _ in range(GRID_ROUNDS):
        rnd = []
        for n in GRID_SIZES:
            rnd.append(_grid_op(_trig_grid(_rng("grid-sublevel", seed, i), n), False))
            i += 1
        rounds.append(rnd)
    return Workload([_grid_op(_pinned_grid(), True)], rounds)


# ---------------------------------------------------------------------------
# rips-circle: Rips to dimension 2 on noisy circles, degree-2 bars dropped

RIPS_SIZES = (20, 24, 28, 32, 40)   # p50 inside the n = 28 class, p90 inside n = 40
RIPS_ROUND = RIPS_SIZES * 4         # op i runs over F_3 when i % 4 == 3, so a round
RIPS_ROUNDS = 5                     # has one F_3 op of each size
RIPS_DIM = 2


def _noisy_circle(rng: random.Random, n: int) -> complexes.FiniteMetricSpace:
    pts = []
    for _ in range(n):
        a = rng.uniform(0, 2 * math.pi)
        r = 1.0 + rng.gauss(0, 0.1)
        pts.append((r * math.cos(a), r * math.sin(a)))
    return complexes.FiniteMetricSpace(np.array([[math.dist(p, q) for q in pts] for p in pts]))


def _rips_op(x: complexes.FiniteMetricSpace, p: int) -> Op:
    def run():
        c = complexes.rips_complex(x, RIPS_DIM, p)
        return c, complexes.drop_top_degree(filtered_complex.barcode_of_complex(c), RIPS_DIM)

    def check(out):
        c, b = out
        problems = []
        h0 = [bar for bar in b.bars if bar.degree == 0]
        rays = sum(1 for bar in h0 if bar.death == INF)
        if rays != 1 or len(h0) - rays != x.n - 1:
            problems.append(f"H0 has {rays} rays and {len(h0) - rays} finite bars, "
                            f"want 1 and {x.n - 1}")
        if any(bar.degree >= RIPS_DIM for bar in b.bars):
            problems.append("degree-2 bars survived drop_top_degree")
        return _canon_barcode(b), problems, _cell_stats(c) + _bar_stats(b)

    return Op(f"rips-{x.n}-F{p}", run, check, Counter({f"rips_n{x.n}": 1, f"F{p}": 1}))


def rips_circle(seed: int) -> Workload:
    rounds, i = [], 0
    for _ in range(RIPS_ROUNDS):
        rnd = []
        for n in RIPS_ROUND:
            p = 3 if i % 4 == 3 else 2
            rnd.append(_rips_op(_noisy_circle(_rng("rips-circle", seed, i), n), p))
            i += 1
        rounds.append(rnd)
    return Workload([], rounds)


# ---------------------------------------------------------------------------
# barcode-queries: bottleneck distance and mu_k, no complex at all

BOTTLENECK_BARS = 60
MU_BARS = 16
PERTURBATION = 0.01
BARCODE_KINDS = ("random", "perturbed", "mu1", "random", "perturbed", "mu2")
BARCODE_ROUNDS = 17


def _spread_barcode(rng: random.Random, m: int) -> Barcode:
    bars = []
    for _ in range(m):
        birth = rng.uniform(0, 1)
        bars.append(Bar(birth, birth + rng.uniform(0.05, 1.5)))
    return Barcode(bars)


def _clustered_barcode(rng: random.Random, m: int) -> Barcode:
    """Near-equal bars: at the answer every bar has many partners."""
    return Barcode([Bar(rng.uniform(0, 0.3), rng.uniform(1.0, 1.3)) for _ in range(m)])


def _perturbed(rng: random.Random, b: Barcode) -> tuple[Barcode, float]:
    """Shift every endpoint by at most PERTURBATION; also return the largest
    shift as floats see it, which bounds the bottleneck distance."""
    bars, worst = [], 0.0
    for bar in b.bars:
        moved = Bar(bar.birth + rng.uniform(-PERTURBATION, PERTURBATION),
                    bar.death + rng.uniform(-PERTURBATION, PERTURBATION))
        worst = max(worst, abs(moved.birth - bar.birth), abs(moved.death - bar.death))
        bars.append(moved)
    return Barcode(bars), worst


def _bottleneck_op(kind: str, b: Barcode, c: Barcode, bound: float) -> Op:
    def run():
        return barcode.bottleneck_distance(b, c)

    def check(d):
        problems = [] if 0.0 <= d <= bound else [f"{kind} bottleneck {d!r} exceeds {bound!r}"]
        return _hex(d), problems, Counter()

    return Op(kind, run, check, Counter({"bars": len(b) + len(c)}))


def _mu_op(b: Barcode, k: int) -> Op:
    bound = max(bar.length for bar in b.bars) / 4

    def run():
        return barcode.multiplicity_function(b, k)

    def check(mu):
        problems = [] if 0.0 <= mu <= bound else [f"mu_{k} = {mu!r} exceeds {bound!r}"]
        return _hex(mu), problems, Counter()

    return Op(f"mu{k}", run, check, Counter({"bars": len(b)}))


def barcode_queries(seed: int) -> Workload:
    rounds, i = [], 0
    for _ in range(BARCODE_ROUNDS):
        rnd = []
        for kind in BARCODE_KINDS:
            rng = _rng("barcode-queries", seed, i)
            i += 1
            if kind == "random":
                b, c = _spread_barcode(rng, BOTTLENECK_BARS), _spread_barcode(rng, BOTTLENECK_BARS)
                # leaving every bar unmatched always works
                bound = max(bar.length / 2 for bar in itertools.chain(b, c))
                rnd.append(_bottleneck_op(kind, b, c, bound))
            elif kind == "perturbed":
                b = _clustered_barcode(rng, BOTTLENECK_BARS)
                c, worst = _perturbed(rng, b)
                rnd.append(_bottleneck_op(kind, b, c, worst))
            else:
                # a window with k bars over it lies inside a bar, so mu_k <= longest/4
                rnd.append(_mu_op(_spread_barcode(rng, MU_BARS), int(kind[2:])))
        rounds.append(rnd)
    return Workload([], rounds)


# ---------------------------------------------------------------------------
# module-oracle: reduction against the rank-formula module, and interleavings

# (field, vertices) per op of a round; None is an interleaving op.  Sizes are
# fixed so the p50 (6 vertices) and p90 (8 vertices) classes do not depend on
# the seed.
ORACLE_ROUND = ((2, 5), (5, 6), (2, 7), (5, 8), None)
ORACLE_ROUNDS = 80


def _random_simplicial(rng: random.Random, nv: int, p: int) -> tuple[list[Cell], dict]:
    """Random simplicial complex on nv vertices with half of the edges and
    half of the triangles those edges allow, and a monotone filtration (each
    cell at least its faces)."""
    value = {(v,): round(rng.uniform(0, 10), 2) for v in range(nv)}
    edges = list(itertools.combinations(range(nv), 2))
    for e in sorted(rng.sample(edges, len(edges) // 2)):
        value[e] = max(value[(e[0],)], value[(e[1],)], round(rng.uniform(0, 10), 2))
    triangles = [t for t in itertools.combinations(range(nv), 3)
                 if all(t[:j] + t[j + 1:] in value for j in range(3))]
    for t in sorted(rng.sample(triangles, len(triangles) // 2)):
        faces = [t[:j] + t[j + 1:] for j in range(3)]
        value[t] = max(max(value[f] for f in faces), round(rng.uniform(0, 10), 2))
    cells = [Cell(s, len(s) - 1, u) for s, u in value.items()]
    boundary = {s: {s[:j] + s[j + 1:]: (1 if j % 2 == 0 else p - 1) for j in range(len(s))}
                if len(s) > 1 else {} for s in value}
    return cells, boundary


def _oracle_op(cells: list[Cell], boundary: dict, p: int) -> Op:
    def run():
        c = filtered_complex.FilteredComplex(cells, boundary, p)
        b = filtered_complex.barcode_of_complex(c)
        return b, [module_rep.barcode(filtered_complex.homology_module(c, k))
                   for k in range(c.max_degree + 1)]

    def check(out):
        b, modules = out
        problems = []
        for k, mb in enumerate(modules):
            want = Barcode(sorted(Bar(bar.birth, bar.death) for bar in b.bars if bar.degree == k))
            if mb != want:
                problems.append(f"degree {k}: reduction and rank formula disagree")
        canon = (_canon_barcode(b), tuple(_canon_barcode(mb) for mb in modules))
        return canon, problems, Counter(f"cells_d{cell.degree}" for cell in cells) + _bar_stats(b)

    nv = sum(1 for cell in cells if cell.degree == 0)
    return Op(f"complex-{nv}-F{p}", run, check, Counter({f"F{p}": 1, "cells": len(cells)}))


def _small_barcode(rng: random.Random) -> Barcode:
    bars = []
    for _ in range(rng.randint(1, 4)):
        birth = round(rng.uniform(0, 2), 3)
        bars.append(Bar(birth, round(rng.uniform(2.001, 4), 3)))
    return Barcode(bars)


def _interleave_op(b: Barcode, c: Barcode) -> Op:
    def run():
        d, m = barcode.optimal_matching(b, c)
        f, g = module_rep.interleaving_from_matching(b, c, m, d)
        return d, m, f, g

    def check(out):
        d, m, f, g = out
        problems = [] if barcode.is_delta_matching(b, c, m, d) else ["not a delta-matching"]
        canon = (_hex(d), tuple(sorted(m.pairs)),
                 tuple(x.shape for x in f.components), tuple(x.shape for x in g.components))
        return canon, problems, Counter()

    return Op("interleave", run, check, Counter({"bars": len(b) + len(c)}))


def module_oracle(seed: int) -> Workload:
    rounds, i = [], 0
    for _ in range(ORACLE_ROUNDS):
        rnd = []
        for slot in ORACLE_ROUND:
            rng = _rng("module-oracle", seed, i)
            i += 1
            if slot is None:
                rnd.append(_interleave_op(_small_barcode(rng), _small_barcode(rng)))
            else:
                p, nv = slot
                rnd.append(_oracle_op(*_random_simplicial(rng, nv, p), p))
        rounds.append(rnd)
    return Workload([], rounds)


WORKLOADS = {
    "grid-sublevel": grid_sublevel,
    "rips-circle": rips_circle,
    "barcode-queries": barcode_queries,
    "module-oracle": module_oracle,
}
