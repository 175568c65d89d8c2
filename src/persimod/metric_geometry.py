"""
Correspondence distortion and brute-force (equivariant) Gromov-Hausdorff
distance on tiny metric spaces.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .complexes import FiniteMetricSpace

DEFAULT_SIZE_GUARD = 20


class SizeGuardError(ValueError):
    """Instance too large for exact enumeration."""


def distortion(c, x: FiniteMetricSpace, y: FiniteMetricSpace) -> float:
    """max |rho(x,x') - r(y,y')| over pairs of the correspondence.

    The correspondence is an iterable of index pairs; it must be
    surjective onto both sides.
    """
    pairs = [(int(i), int(j)) for i, j in c]
    if {i for i, _ in pairs} != set(range(x.n)) or \
            {j for _, j in pairs} != set(range(y.n)):
        raise ValueError("correspondence must be surjective onto both spaces")
    worst = 0.0
    for (i, j), (i2, j2) in itertools.combinations_with_replacement(pairs, 2):
        worst = max(worst, abs(float(x.dist[i, i2]) - float(y.dist[j, j2])))
    return worst


def _maps(n: int, m: int) -> np.ndarray:
    """Every map range(n) -> range(m), one per row."""
    return np.array(list(itertools.product(range(m), repeat=n)), dtype=np.intp)


def _min_distortion(x: FiniteMetricSpace, y: FiniteMetricSpace,
                    f_pairs: tuple[np.ndarray, np.ndarray],
                    g_pairs: tuple[np.ndarray, np.ndarray]) -> float:
    """Half the smallest distortion of a union of one correspondence from
    each family.  A family is a pair (i, j) of equally shaped arrays whose
    row r lists the index pairs (i[r, t], j[r, t]) of its r-th member.
    The enumeration is vectorised per block of the first family."""
    (pf_i, pf_j), (pg_i, pg_j) = f_pairs, g_pairs

    def self_distortion(pi, pj):
        return np.abs(x.dist[pi[:, :, None], pi[:, None, :]]
                      - y.dist[pj[:, :, None], pj[:, None, :]]).max(axis=(1, 2))

    self_f, self_g = self_distortion(pf_i, pf_j), self_distortion(pg_i, pg_j)
    best = math.inf
    chunk = max(1, int(4e6 // max(1, pg_i.shape[0] * pf_i.shape[1] * pg_i.shape[1])))
    for s in range(0, pf_i.shape[0], chunk):
        # cross terms |rho(i, i') - r(j, j')| between the two members' pairs
        rho = x.dist[pf_i[s:s + chunk, None, :, None], pg_i[None, :, None, :]]
        r = y.dist[pf_j[s:s + chunk, None, :, None], pg_j[None, :, None, :]]
        cross = np.abs(rho - r).max(axis=(2, 3))
        dis = np.maximum(np.maximum(self_f[s:s + chunk, None], self_g[None, :]), cross)
        best = min(best, float(dis.min()))
    return best / 2


def gh_bruteforce(x: FiniteMetricSpace, y: FiniteMetricSpace,
                  size_guard: int = DEFAULT_SIZE_GUARD) -> float:
    """Exact d_GH = half the minimal distortion over surjective
    correspondences.

    Restricting the minimum to correspondences of the form
    graph(f) u graph(g)^T is lossless: any surjective correspondence
    contains such a union, and shrinking a correspondence cannot raise
    the distortion.
    """
    if x.n * y.n > size_guard:
        raise SizeGuardError(f"|X|*|Y| = {x.n * y.n} exceeds guard {size_guard}")
    fs, gs = _maps(x.n, y.n), _maps(y.n, x.n)
    return _min_distortion(x, y, (np.broadcast_to(np.arange(x.n), fs.shape), fs),
                           (gs, np.broadcast_to(np.arange(y.n), gs.shape)))


def _check_involution(x: FiniteMetricSpace, a: tuple[int, ...]) -> None:
    n = x.n
    if sorted(a) != list(range(n)):
        raise ValueError("action must be a permutation")
    if any(a[a[i]] != i for i in range(n)):
        raise ValueError("action must be an involution")
    for i in range(n):
        for j in range(n):
            if abs(x.dist[a[i], a[j]] - x.dist[i, j]) > 1e-12:
                raise ValueError("action must be an isometry")


def gh_equivariant(x: FiniteMetricSpace, a, y: FiniteMetricSpace, b,
                   size_guard: int = DEFAULT_SIZE_GUARD) -> float:
    """Half the minimal distortion over Z2-equivariant surjective
    correspondences ((p,q) in C implies (a p, b q) in C).

    The equivariant closure of graph(f) u graph(g)^T is the union of the
    two graphs and their conjugates, so enumerating map pairs again
    suffices.
    """
    a = tuple(int(v) for v in a)
    b = tuple(int(v) for v in b)
    _check_involution(x, a)
    _check_involution(y, b)
    if x.n * y.n > size_guard:
        raise SizeGuardError(f"|X|*|Y| = {x.n * y.n} exceeds guard {size_guard}")
    n, m = x.n, y.n
    fs, gs = _maps(n, m), _maps(m, n)
    av = np.array(a, dtype=np.intp)
    bv = np.array(b, dtype=np.intp)
    # closure pair lists: graph(f) u graph(BfA) on the x side, dually for g
    pf_i = np.concatenate([np.broadcast_to(np.arange(n), fs.shape)] * 2, axis=1)
    pf_j = np.concatenate([fs, bv[fs[:, av]]], axis=1)
    pg_j = np.concatenate([np.broadcast_to(np.arange(m), gs.shape)] * 2, axis=1)
    pg_i = np.concatenate([gs, av[gs[:, bv]]], axis=1)
    return _min_distortion(x, y, (pf_i, pf_j), (pg_i, pg_j))
