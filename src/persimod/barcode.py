"""
Barcodes, delta-matchings, bottleneck distance and scalar barcode
invariants.

A bar is the half-open interval (birth, death]; births of -inf and
deaths of +inf are allowed (proper barcodes).  Multiplicity is by
repetition in the bar list.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

INF = math.inf


@dataclass(frozen=True, slots=True)
class Bar:
    """Half-open interval (birth, death] with an optional degree tag."""

    birth: float
    death: float
    degree: Optional[int] = None

    def __post_init__(self):
        if not self.birth < self.death:
            raise ValueError(f"bar needs birth < death, got ({self.birth}, {self.death}]")

    def _key(self):
        return (self.birth, self.death, self.degree is not None, self.degree or 0)

    def __lt__(self, other: "Bar"):
        return self._key() < other._key()

    @property
    def length(self) -> float:
        return self.death - self.birth

    @property
    def finite(self) -> bool:
        return self.birth > -INF and self.death < INF

    def shifted(self, delta: float) -> "Bar":
        b = self.birth if self.birth == -INF else self.birth + delta
        d = self.death if self.death == INF else self.death + delta
        return Bar(b, d, self.degree)


class Barcode:
    """Finite multiset of bars, stored as a list; one made by _of_columns
    makes its bars from sorted columns when bars is first read."""

    def __init__(self, bars: Optional[list[Bar]] = None):
        self.bars = [] if bars is None else bars

    @classmethod
    def _of_columns(cls, birth: np.ndarray, death: np.ndarray, degree: np.ndarray) -> Barcode:
        for i in np.flatnonzero(~(birth < death))[:1].tolist():
            Bar(birth[i].item(), death[i].item())    # raises the error a Bar raises
        out = cls.__new__(cls)
        out._columns = birth, death, degree
        return out

    @cached_property
    def bars(self) -> list[Bar]:
        return list(map(Bar, *(x.tolist() for x in self._columns)))

    def __repr__(self):
        return f"Barcode(bars={self.bars!r})"

    def __getstate__(self):    # pickles as the bar list alone, made or not
        return {"bars": self.bars}

    def __iter__(self):
        return iter(self.bars)

    def __len__(self):
        return len(self.bars)

    def __eq__(self, other):
        if not isinstance(other, Barcode):
            return NotImplemented
        return sorted(self.bars, key=Bar._key) == sorted(other.bars, key=Bar._key)

    def finite_bars(self) -> list[Bar]:
        return [b for b in self.bars if b.finite]

    def fully_tagged(self) -> bool:
        return all(b.degree is not None for b in self.bars)

    def restrict_degree(self, degree: Optional[int]) -> "Barcode":
        return Barcode([b for b in self.bars if b.degree == degree])

    def untagged(self) -> "Barcode":
        return Barcode([Bar(b.birth, b.death) for b in self.bars])

    def finite_endpoints(self) -> list[float]:
        out = []
        for b in self.bars:
            if b.birth > -INF:
                out.append(b.birth)
            if b.death < INF:
                out.append(b.death)
        return sorted(set(out))


@dataclass
class Matching:
    """Partial bijection between two barcodes, as index pairs."""

    pairs: list[tuple[int, int]] = field(default_factory=list)

    def __post_init__(self):
        left = [i for i, _ in self.pairs]
        right = [j for _, j in self.pairs]
        if len(set(left)) != len(left) or len(set(right)) != len(right):
            raise ValueError("matching reuses an index; must be a partial bijection")

    def __len__(self):
        return len(self.pairs)

    def left_indices(self) -> set[int]:
        return {i for i, _ in self.pairs}

    def right_indices(self) -> set[int]:
        return {j for _, j in self.pairs}

    def compose(self, other: "Matching") -> "Matching":
        """self after other: pairs (i, k) with other i->j and self j->k."""
        follow = dict(self.pairs)
        return Matching([(i, follow[j]) for i, j in other.pairs if j in follow])


def _endpoint_diff(a: float, b: float) -> float:
    if a == b:
        return 0.0  # covers +inf/+inf and -inf/-inf
    if math.isinf(a) or math.isinf(b):
        return INF
    return abs(a - b)


def bar_match_cost(i: Bar, j: Bar) -> float:
    """Smallest delta for which the pair (i, j) is delta-matched.

    Equals max(|birth diff|, |death diff|) with infinite-vs-infinite
    differences counting 0 and mixed finite/infinite counting +inf.
    """
    return max(_endpoint_diff(i.birth, j.birth), _endpoint_diff(i.death, j.death))


def _cost_matrix(b: list[Bar], c: list[Bar]) -> np.ndarray:
    """The len(b) x len(c) matrix of bar_match_cost values, by the same
    rules: 0 for equal endpoints (inf/inf too), inf when exactly one is
    infinite, the IEEE abs(a - b) otherwise (inf when it overflows)."""
    def diff(x, y):
        x = np.array(x, dtype=float)[:, None]
        y = np.array(y, dtype=float)[None, :]
        with np.errstate(invalid="ignore", over="ignore"):   # inf - inf; masked below
            return np.where(x == y, 0.0, np.abs(x - y))

    return np.maximum(diff([bar.birth for bar in b], [bar.birth for bar in c]),
                      diff([bar.death for bar in b], [bar.death for bar in c]))


def is_delta_matching(b: Barcode, c: Barcode, m: Matching, delta: float) -> bool:
    """Check the three delta-matching conditions.

    (i) every bar of *b* longer than 2*delta is matched, (ii) same for
    *c*, (iii) every matched pair has cost <= delta.  "Longer" is tested as
    length / 2 > delta, which no overflow of 2*delta can flip.
    """
    if delta < 0:
        raise ValueError("delta must be >= 0")
    for i, j in m.pairs:
        if not (0 <= i < len(b.bars) and 0 <= j < len(c.bars)):
            raise IndexError("matching refers to a bar index out of range")
    matched_left = m.left_indices()
    matched_right = m.right_indices()
    for idx, bar in enumerate(b.bars):
        if bar.length / 2 > delta and idx not in matched_left:
            return False
    for idx, bar in enumerate(c.bars):
        if bar.length / 2 > delta and idx not in matched_right:
            return False
    return all(bar_match_cost(b.bars[i], c.bars[j]) <= delta for i, j in m.pairs)


def _greedy_start(adj: list[list[int]], n_other: int) -> tuple[list[int], list[int]]:
    """Greedy start: each vertex takes its first free neighbour."""
    partner, unmatched = [-1] * n_other, []
    for u, row in enumerate(adj):
        for v in row:
            if partner[v] == -1:
                partner[v] = u
                break
        else:
            unmatched.append(u)
    return partner, unmatched


def _augment(roots: list[int], adj: list[list[int]], partner: list[int]) -> Optional[list[int]]:
    """Kuhn's search: augment *partner* from each root in turn, or None at
    the first root with no augmenting path (no later augmentation adds one)."""
    stamp = [-1] * len(partner)              # stamp[v] == root: v seen from root
    for root in roots:
        # depth-first search on an explicit stack of (vertex, its untried
        # edges), so no recursion limit applies; stack[d] reached stack[d + 1]
        # through the other-side vertex taken[d]
        stack, taken = [(root, iter(adj[root]))], []
        while stack:
            for v in stack[-1][1]:
                if stamp[v] != root:
                    break
            else:                    # dead end: back up one step
                stack.pop()
                if taken:
                    taken.pop()
                continue
            stamp[v] = root
            taken.append(v)
            if partner[v] == -1:     # augment along the path
                for (u, _), w in zip(stack, taken):
                    partner[w] = u
                break
            stack.append((partner[v], iter(adj[partner[v]])))
        else:
            return None
    return partner


def _neighbours(mask: np.ndarray) -> list[list[int]]:
    """For each row i, the ascending column indices j with mask[i, j]."""
    flat = np.nonzero(mask)[1].tolist()          # row-major: rows in turn
    ends = np.cumsum(mask.sum(axis=1)).tolist()
    return [flat[start:end] for start, end in zip([0] + ends, ends)]


def _feasible_matching_at(b: list[Bar], c: list[Bar], delta: float,
                          cost: np.ndarray) -> Optional[list[tuple[int, int]]]:
    """A delta-matching between bar lists, or None if none exists; only
    optimal_matching builds one, as bisection probes ask _delta_feasible.

    *cost* is _cost_matrix(b, c).  Every bar of length > 2*delta on either
    side must be matched, at cost <= delta.  A matching covering both
    mandatory sets exists iff each side can be covered on its own
    (Mendelsohn-Dulmage); Kuhn's search from an empty matching covers each,
    and flipping alternating paths merges them, dropping only short bars.
    """
    n_b, n_c = len(b), len(c)
    close = cost <= delta
    adj = _neighbours(close)
    long_b = [i for i in range(n_b) if b[i].length / 2 > delta]
    long_c = [j for j in range(n_c) if c[j].length / 2 > delta]
    m1_partner = _augment(long_b, adj, [-1] * n_c)            # c index -> b index
    if m1_partner is None:
        return None
    radj = _neighbours(close.T)
    m2_partner = _augment(long_c, radj, [-1] * n_b)           # b index -> c index
    if m2_partner is None:
        return None

    # merge: start from M1; steal each uncovered mandatory c bar's M2
    # partner, re-seating displaced c bars along their own M2 edges until
    # one without an M2 edge (necessarily short) drops out
    match_b = [-1] * n_b                                      # b index -> c index
    match_c = [-1] * n_c
    for v, u in enumerate(m1_partner):
        if u != -1:
            match_b[u], match_c[v] = v, u
    m2_of_c = [-1] * n_c
    for u, v in enumerate(m2_partner):
        if v != -1:
            m2_of_c[v] = u
    for v0 in long_c:
        if match_c[v0] != -1:
            continue
        v = v0
        while v != -1:
            u = m2_of_c[v]
            displaced = match_b[u]
            match_b[u], match_c[v] = v, u
            if displaced != -1:
                match_c[displaced] = -1
                if m2_of_c[displaced] == -1:
                    break              # short bar by construction; drop it
            v = displaced
    return [(u, v) for u, v in enumerate(match_b) if v != -1]


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


def _pool_arrays(b: list[Bar], c: list[Bar]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cost matrix of two bar lists and their float lengths (inf for
    rays, and for finite bars whose length overflows)."""
    with np.errstate(over="ignore"):
        len_b, len_c = (np.array([x.death for x in bars], dtype=float)
                        - np.array([x.birth for x in bars], dtype=float) for bars in (b, c))
    return _cost_matrix(b, c), len_b, len_c


def _candidates_above(floor: float, cost: np.ndarray, len_b: np.ndarray,
                      len_c: np.ndarray) -> list[float]:
    """Sorted distinct finite pair costs and half-lengths above *floor*."""
    values = np.concatenate([cost.ravel(), len_b / 2, len_c / 2])
    return np.unique(values[(values > floor) & (values < INF)]).tolist()


def bottleneck_candidates(b: Barcode, c: Barcode) -> list[float]:
    """Sorted deltas where feasibility can change: 0, the finite pair
    costs and the finite half-lengths."""
    return [0.0] + _candidates_above(0.0, *_pool_arrays(b.bars, c.bars))


def _ray_signature(bars: Iterable[Bar]) -> tuple[int, int, int]:
    birth_inf = sum(1 for b in bars if b.birth == -INF and b.death < INF)
    death_inf = sum(1 for b in bars if b.death == INF and b.birth > -INF)
    both = sum(1 for b in bars if b.birth == -INF and b.death == INF)
    return birth_inf, death_inf, both


def _bottleneck_single_pool(b: Barcode, c: Barcode) -> float:
    if _ray_signature(b.bars) != _ray_signature(c.bars):
        return INF
    cost, len_b, len_c = _pool_arrays(b.bars, c.bars)
    # Floor: the largest cheapest exit, min(half-length, nearest partner),
    # over the bars of both sides.  Below it the bar attaining it is
    # mandatory with no partner in reach, so it is the first candidate
    # that can be feasible, and often the answer.
    floor = max(np.minimum(len_b / 2, cost.min(axis=1, initial=INF)).max(initial=0.0),
                np.minimum(len_c / 2, cost.min(axis=0, initial=INF)).max(initial=0.0)).item()
    if _delta_feasible(cost, len_b, len_c, floor):
        return floor
    # Bisect above the floor; +inf, where no bar is mandatory, closes the
    # list, since overflowed costs can leave every finite candidate infeasible.
    candidates = _candidates_above(floor, cost, len_b, len_c) + [INF]
    return candidates[bisect.bisect_left(
        candidates, True, hi=len(candidates) - 1,
        key=lambda delta: _delta_feasible(cost, len_b, len_c, delta))]


def bottleneck_distance(b: Barcode, c: Barcode) -> float:
    """Exact bottleneck distance.

    The infimum is attained on the finite candidate set of pair costs and
    half-lengths; feasibility at a candidate is a bipartite matching
    problem.  Each pool first probes its floor, the largest cheapest exit
    of a bar, and bisects over the candidates above it only if that probe
    fails.  Returns +inf when infinite-ray counts differ.  If both
    barcodes are fully degree-tagged the distance is computed per degree
    and combined by maximum, otherwise as a single pool.
    """
    if len(b.bars) == 0 and len(c.bars) == 0:
        return 0.0
    if b.fully_tagged() and c.fully_tagged():
        degrees = {bar.degree for bar in b.bars} | {bar.degree for bar in c.bars}
        return max(_bottleneck_single_pool(b.restrict_degree(d), c.restrict_degree(d))
                   for d in degrees)
    return _bottleneck_single_pool(b.untagged(), c.untagged())


def optimal_matching(b: Barcode, c: Barcode) -> tuple[float, Matching]:
    """Bottleneck distance together with a certifying matching."""
    delta = bottleneck_distance(b, c)
    if delta == INF:
        raise ValueError("no finite-cost matching: infinite-ray counts differ")
    if b.fully_tagged() and c.fully_tagged():
        pairs = []
        degrees = {bar.degree for bar in b.bars} | {bar.degree for bar in c.bars}
        for d in degrees:
            bi = [i for i, bar in enumerate(b.bars) if bar.degree == d]
            ci = [j for j, bar in enumerate(c.bars) if bar.degree == d]
            sub_b, sub_c = [b.bars[i] for i in bi], [c.bars[j] for j in ci]
            sub = _feasible_matching_at(sub_b, sub_c, delta, _cost_matrix(sub_b, sub_c))
            pairs.extend((bi[u], ci[v]) for u, v in sub)
        return delta, Matching(pairs)
    pairs = _feasible_matching_at(b.bars, c.bars, delta, _cost_matrix(b.bars, c.bars))
    return delta, Matching(pairs)


def bottleneck_bruteforce(b: Barcode, c: Barcode) -> float:
    """Minimise max(pair costs, unmatched half-lengths) over all partial
    bijections.  Exponential; oracle for small inputs."""
    nb, nc = len(b.bars), len(c.bars)
    best = INF

    def unmatched_penalty(bars, used):
        pen = 0.0
        for idx, bar in enumerate(bars):
            if idx not in used:
                pen = max(pen, bar.length / 2)
        return pen

    right = list(range(nc))
    for k in range(0, min(nb, nc) + 1):
        for left in itertools.combinations(range(nb), k):
            for perm in itertools.permutations(right, k):
                cost = 0.0
                for i, j in zip(left, perm):
                    cost = max(cost, bar_match_cost(b.bars[i], c.bars[j]))
                cost = max(cost,
                           unmatched_penalty(b.bars, set(left)),
                           unmatched_penalty(c.bars, set(perm)))
                best = min(best, cost)
    return best


def matching_lemma(b: Sequence[float], c: Sequence[float]) -> float:
    """max_i |b_i - c_i| over the sorted lists; the monotone pairing is
    optimal among all permutations (matching_lemma_bruteforce is the
    oracle that checks this)."""
    if len(b) != len(c):
        raise ValueError("matching_lemma needs equally long lists")
    return max((abs(x - y) for x, y in zip(sorted(b), sorted(c))), default=0.0)


def matching_lemma_bruteforce(b: Sequence[float], c: Sequence[float]) -> float:
    if len(b) != len(c):
        raise ValueError("matching_lemma needs equally long lists")
    best = INF
    for perm in itertools.permutations(c):
        best = min(best, max((abs(x - y) for x, y in zip(b, perm)), default=0.0))
    return best if best < INF else 0.0


def interval_interleaving_distance(i: Bar, j: Bar) -> float:
    """Closed-form interleaving distance between two finite interval
    modules: min(max of half-lengths, max of endpoint differences)."""
    if not (i.finite and j.finite):
        raise ValueError("closed form needs finite bars; use bar_match_cost")
    return min(max(i.length / 2, j.length / 2),
               max(abs(i.birth - j.birth), abs(i.death - j.death)))


def shift_barcode(b: Barcode, delta: float) -> Barcode:
    """Translate every endpoint by delta; infinite endpoints stay put."""
    return Barcode([bar.shifted(delta) for bar in b.bars])


def boundary_depth(b: Barcode) -> float:
    """Length of the longest finite bar (0 if there is none)."""
    return beta_k(b, 1)


def beta_k(b: Barcode, k: int) -> float:
    """k-th longest finite-bar length; 0 when fewer than k finite bars."""
    if k < 1:
        raise ValueError("k must be >= 1")
    lengths = sorted((bar.length for bar in b.finite_bars()), reverse=True)
    return lengths[k - 1] if k <= len(lengths) else 0.0


def ell(b: Barcode, lo: float, hi: float) -> float:
    """Total length of the barcode clipped to [lo, hi]."""
    if not lo <= hi:
        raise ValueError("need lo <= hi")
    total = 0.0
    for bar in b.bars:
        left = max(bar.birth, lo)
        right = min(bar.death, hi)
        if right > left:
            total += right - left
    return total


def nu(b: Barcode, c: float) -> int:
    """Number of finite bars of length > c."""
    if not c >= 0:
        raise ValueError("threshold must be >= 0")
    return sum(1 for bar in b.finite_bars() if bar.length > c)


def persistent_betti(b: Barcode, window: Bar) -> int:
    """Number of bars containing the window (birth <= w.birth, death >= w.death)."""
    if not window.finite:
        raise ValueError("window must be finite")
    return sum(1 for bar in b.bars if bar.birth <= window.birth and window.death <= bar.death)


def infinite_endpoint_spectrum(b: Barcode) -> list[float]:
    """Sorted multiset of births of the death-infinite bars."""
    return sorted(bar.birth for bar in b.bars if bar.death == INF)


def _corner_windows(b: Barcode) -> tuple[np.ndarray, np.ndarray]:
    """Covering counts and caps of the windows (x, y], x a birth and y a death.

    Returns two (xs, ys) arrays over the distinct births xs and deaths ys:
    how many bars cover (x, y], and the cap min((y - x)/4, min over the
    bars not covering it of max(b - x, y - d)/2), the supremal c whose
    2c-shrink no further bar covers.  Every window of a given covering
    set S widens to (latest birth in S, earliest death in S] without
    gaining a bar and without lowering its cap, so these corner windows
    attain mu_k.  A gap between equal endpoints is -inf: that end of the
    bar never leaves the shrink, which also covers -inf births and +inf
    deaths.
    """
    births = np.array([bar.birth for bar in b.bars])
    deaths = np.array([bar.death for bar in b.bars])
    xs = np.array(sorted({bar.birth for bar in b.bars}))
    ys = np.array(sorted({bar.death for bar in b.bars}))
    with np.errstate(invalid="ignore"):
        gap_d = np.where(deaths[:, None] == ys, -INF, ys - deaths[:, None])    # (bars, ys)
    covers_y = deaths[:, None] >= ys
    counts = np.empty((xs.size, ys.size), dtype=np.int64)
    caps = np.empty((xs.size, ys.size))
    chunk = max(1, int(2e6 // max(1, births.size * ys.size)))
    for start in range(0, xs.size, chunk):
        x = xs[start:start + chunk]
        with np.errstate(invalid="ignore"):
            gap_b = np.where(births[:, None] == x, -INF, births[:, None] - x)    # (bars, cx)
        covers_x = births[:, None] <= x
        inside = covers_x[:, :, None] & covers_y[:, None, :]                     # (bars, cx, ys)
        counts[start:start + chunk] = inside.sum(axis=0)
        thr = np.maximum(gap_b[:, :, None], gap_d[:, None, :]) / 2
        thr[inside] = INF
        caps[start:start + chunk] = np.minimum((ys - x[:, None]) / 4, thr.min(axis=0))
    return counts, caps


def _best_cap(caps: np.ndarray) -> float:
    """Largest cap, or +0.0 when none is above 0."""
    return max(0.0, float(caps.max(initial=0.0)))


def multiplicity_function(b: Barcode, k: int) -> float:
    """mu_k: supremum of c admitting a window of length > 4c with exactly
    k bars over it and over its 2c-shrink; 0 when no window exists.

    A window admits exactly the c below its cap, so mu_k is the largest
    cap among the corner windows covered by exactly k bars; it is +inf
    when such a window has no cap (e.g. a barcode of k full lines).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    counts, caps = _corner_windows(b)
    return _best_cap(caps[counts == k])


def mu_odd(b: Barcode) -> float:
    """max over odd k of mu_k."""
    counts, caps = _corner_windows(b)
    return _best_cap(caps[counts % 2 == 1])


GRID_RESOLUTION = 1e-3    # multiplicity_grid_oracle's grid step, as a share of the endpoint span


def multiplicity_grid_oracle(b: Barcode, k: int) -> float:
    """Dense-grid estimate of mu_k, independent of the candidate search.

    Scans windows (x, y] with both ends on a grid of step GRID_RESOLUTION
    times the endpoint span.  For each window covered by exactly k
    bars the supremal admissible c is min(len/4, smallest shrink at which
    an extra bar covers the window); the oracle reports the max over
    windows.  The grid is padded by 2.5 spans so unbounded-window regimes
    next to rays are seen.
    """
    ends = b.finite_endpoints()
    if not ends:
        return 0.0
    span = max(ends) - min(ends)
    if span == 0:
        return 0.0
    step = GRID_RESOLUTION * span
    # Windows reach past the finite endpoints only where an infinite
    # endpoint keeps coverage alive out there.
    pad_lo = 2.5 * span if any(bar.birth == -INF for bar in b.bars) else step
    pad_hi = 2.5 * span if any(bar.death == INF for bar in b.bars) else step
    grid = np.arange(min(ends) - pad_lo, max(ends) + pad_hi + step, step)
    births = np.array([bar.birth for bar in b.bars])
    deaths = np.array([bar.death for bar in b.bars])
    n = grid.size
    best = 0.0
    chunk = max(1, int(2e6 // max(1, len(b.bars) * n)))
    for start in range(0, n, chunk):
        xs = grid[start:start + chunk]                     # (cx,)
        covers_x = births[:, None, None] <= xs[None, :, None]   # (bars, cx, 1)
        covers_y = deaths[:, None, None] >= grid[None, None, :]  # (bars, 1, n)
        inside = covers_x & covers_y                        # (bars, cx, n)
        counts = inside.sum(axis=0)
        length_ok = grid[None, :] > xs[:, None]
        window_ok = (counts == k) & length_ok
        if not window_ok.any():
            continue
        cap = (grid[None, :] - xs[:, None]) / 4.0
        thr_b = (births[:, None, None] - xs[None, :, None]) / 2.0
        thr_d = (grid[None, None, :] - deaths[:, None, None]) / 2.0
        thr = np.maximum(thr_b, thr_d)
        thr = np.where(inside, np.inf, thr)
        cap = np.minimum(cap, thr.min(axis=0))
        cap = np.where(window_ok, cap, -np.inf)
        best = max(best, float(cap.max()))
    return max(best, 0.0)
