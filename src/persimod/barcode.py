"""
Barcodes, delta-matchings, bottleneck distance and scalar barcode
invariants.

A bar is the half-open interval (birth, death]; births of -inf and
deaths of +inf are allowed (proper barcodes).  Multiplicity is by
repetition in the bar list.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

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


UNTAGGED = -1          # the degree array's entry for a bar without a degree
DEGREE_LIMIT = 2 ** 31  # degrees are 0 .. DEGREE_LIMIT - 1, so none is UNTAGGED


def check_degree(i: int, d) -> None:
    """Refuse the degree d of bar i unless it is None or an int (not a bool,
    nor a numpy integer, which JSON cannot hold) in 0 .. DEGREE_LIMIT - 1."""
    if d is not None and (isinstance(d, bool) or not isinstance(d, int)):
        raise ValueError(f"bar {i}: degree must be an integer or null")
    if d is not None and not 0 <= d < DEGREE_LIMIT:
        raise ValueError(f"bar {i}: degree {d} is outside 0 .. {DEGREE_LIMIT - 1}")


class Barcode:
    """Finite multiset of bars, held as three arrays in bar order: float64
    births and deaths, and int64 degrees (UNTAGGED for a bar without one).
    bars is a view of them: the list given to Barcode(bars), or made from
    the arrays when first read."""

    def __init__(self, bars: Optional[list[Bar]] = None):
        bars = [] if bars is None else bars
        tags = [bar.degree for bar in bars]
        for i, d in enumerate(tags):
            check_degree(i, d)
        self._fill(np.array([bar.birth for bar in bars], dtype=float),
                   np.array([bar.death for bar in bars], dtype=float),
                   np.array([UNTAGGED if d is None else d for d in tags], dtype=np.int64), bars)

    @classmethod
    def _of_columns(cls, birth: np.ndarray, death: np.ndarray, degree: np.ndarray) -> Barcode:
        for i in np.flatnonzero(~(birth < death))[:1].tolist():
            Bar(birth[i].item(), death[i].item())    # raises the error a Bar raises
        return cls.__new__(cls)._fill(birth, death, degree, None)

    def _fill(self, birth: np.ndarray, death: np.ndarray, degree: np.ndarray,
              bars: Optional[list[Bar]]) -> Barcode:
        self.births, self.deaths, self.degrees, self._bars = birth, death, degree, bars
        return self

    def _take(self, idx: np.ndarray) -> Barcode:
        """The bars at the indices idx, with the Bars themselves if made."""
        bars = None if self._bars is None else [self._bars[i] for i in idx.tolist()]
        return Barcode.__new__(Barcode)._fill(
            self.births[idx], self.deaths[idx], self.degrees[idx], bars)

    @property
    def bars(self) -> list[Bar]:
        if self._bars is None:
            tags = [None if d == UNTAGGED else d for d in self.degrees.tolist()]
            self._bars = list(map(Bar, self.births.tolist(), self.deaths.tolist(), tags))
        return self._bars

    def __repr__(self):
        return f"Barcode(bars={self.bars!r})"

    def __getstate__(self):    # pickles as the bar list alone, made or not
        return {"bars": self.bars}

    def __setstate__(self, state):
        self.__init__(state["bars"])

    def __iter__(self):
        return iter(self.bars)

    def __len__(self):
        return len(self.births)

    def __eq__(self, other):
        if not isinstance(other, Barcode):
            return NotImplemented
        return sorted(self.bars, key=Bar._key) == sorted(other.bars, key=Bar._key)

    def _finite(self) -> np.ndarray:
        return (self.births > -INF) & (self.deaths < INF)

    def _lengths(self) -> np.ndarray:
        """death - birth: inf for rays, and for finite bars whose length overflows."""
        with np.errstate(over="ignore"):
            return self.deaths - self.births

    def finite_bars(self) -> list[Bar]:
        bars = self.bars
        return [bars[i] for i in np.flatnonzero(self._finite()).tolist()]

    def fully_tagged(self) -> bool:
        return bool((self.degrees != UNTAGGED).all())

    def restrict_degree(self, degree: Optional[int]) -> "Barcode":
        keep = self.degrees == (UNTAGGED if degree is None else degree)
        # no bar has a degree outside the range, UNTAGGED included
        return self._take(np.flatnonzero(keep & (degree is None or 0 <= degree < DEGREE_LIMIT)))

    def untagged(self) -> "Barcode":
        return Barcode._of_columns(self.births, self.deaths, np.full(len(self), UNTAGGED))

    def finite_endpoints(self) -> list[float]:
        ends = np.column_stack([self.births, self.deaths]).ravel()    # bar by bar
        return _distinct(ends[np.isfinite(ends)]).tolist()


def _distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values, as sorted(set(values)) gives them: a zero has
    the sign of the first zero in *values*, which np.unique does not keep."""
    out = np.unique(values)
    out[out == 0] = values[np.flatnonzero(values == 0)[:1]]
    return out


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


def _cost_matrix(b: Barcode, c: Barcode) -> np.ndarray:
    """The len(b) x len(c) matrix of bar_match_cost values, by the same
    rules: 0 for equal endpoints (inf/inf too), inf when exactly one is
    infinite, the IEEE abs(a - b) otherwise (inf when it overflows)."""
    def diff(x, y):    # in place, so that at most two matrices are alive
        with np.errstate(invalid="ignore", over="ignore"):   # inf - inf; masked below
            out = np.subtract.outer(x, y)
        np.abs(out, out=out)
        out[np.equal.outer(x, y)] = 0.0
        return out

    out = diff(b.births, c.births)
    return np.maximum(out, diff(b.deaths, c.deaths), out=out)


def is_delta_matching(b: Barcode, c: Barcode, m: Matching, delta: float) -> bool:
    """Check the three delta-matching conditions.

    (i) every bar of *b* longer than 2*delta is matched, (ii) same for
    *c*, (iii) every matched pair has cost <= delta.  "Longer" is tested as
    length / 2 > delta, which no overflow of 2*delta can flip.
    """
    if not delta >= 0:
        raise ValueError("delta must be >= 0")
    if not all(0 <= i < len(b) and 0 <= j < len(c) for i, j in m.pairs):
        raise IndexError("matching refers to a bar index out of range")
    for bars, matched in ((b.bars, {i for i, _ in m.pairs}), (c.bars, {j for _, j in m.pairs})):
        if any(bar.length / 2 > delta and i not in matched for i, bar in enumerate(bars)):
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


def _kuhn(root: int, adj, partner: list[int], came: list[int], stamp: list[int],
          seen: list[int], stack: list) -> int:
    """Kuhn's depth-first search from *root* for a free column, on an
    explicit stack of (row, its untried columns), so no recursion limit
    applies.  Each column reached is stamped root, appended to *seen*, and
    keeps in *came* the row it was reached from; a held column leads on to
    its holder's row.  Returns the free column found, or -1 once every
    column in reach is held."""
    while stack:
        u, untried = stack[-1]
        for v in untried:
            if stamp[v] != root:
                break
        else:                    # dead end: back up one step
            stack.pop()
            continue
        stamp[v], came[v] = root, u
        seen.append(v)
        if partner[v] == -1:
            return v
        stack.append((partner[v], iter(adj[partner[v]])))
    return -1


def _flip(v: int, root: int, came: list[int], partner: list[int], match: list[int]) -> None:
    """Augment along the path _kuhn found to the free column v: each row on
    it, back up to root, takes the column it reached."""
    while True:
        u = came[v]
        partner[v], match[u], v = u, v, match[u]
        if u == root:
            return


def _augment(roots: list[int], adj: list[list[int]], partner: list[int]) -> Optional[list[int]]:
    """Kuhn's search: augment *partner* from each root in turn, or None at
    the first root with no augmenting path (no later augmentation adds one)."""
    stamp, came, match = [-1] * len(partner), [-1] * len(partner), [-1] * len(adj)
    for v, u in enumerate(partner):
        if u != -1:
            match[u] = v
    for root in roots:
        v = _kuhn(root, adj, partner, came, stamp, [], [(root, iter(adj[root]))])
        if v == -1:
            return None
        _flip(v, root, came, partner, match)
    return partner


def _neighbours(mask: np.ndarray) -> list[list[int]]:
    """For each row i, the ascending column indices j with mask[i, j]."""
    flat = np.nonzero(mask)[1].tolist()          # row-major: rows in turn
    ends = np.cumsum(mask.sum(axis=1)).tolist()
    return [flat[start:end] for start, end in zip([0] + ends, ends)]


def _feasible_matching_at(cost: np.ndarray, len_b: np.ndarray, len_c: np.ndarray,
                          delta: float) -> Optional[list[tuple[int, int]]]:
    """A delta-matching between two pools, or None if none exists; only
    optimal_matching builds one, at the distance bottleneck_distance found.

    *cost* is _cost_matrix(b, c), len_* the float lengths.  Every bar of
    length > 2*delta on either side must be matched, at cost <= delta.  A
    matching covering both mandatory sets exists iff each side can be covered
    on its own (Mendelsohn-Dulmage); Kuhn's search from an empty matching
    covers each, and flipping alternating paths merges them, dropping only
    short bars.
    """
    n_b, n_c = cost.shape
    close = cost <= delta
    adj = _neighbours(close)
    long_b = np.flatnonzero(len_b / 2 > delta).tolist()
    long_c = np.flatnonzero(len_c / 2 > delta).tolist()
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


def bottleneck_candidates(b: Barcode, c: Barcode) -> list[float]:
    """Sorted deltas where feasibility can change: 0, the finite pair
    costs and the finite half-lengths."""
    values = np.concatenate([_cost_matrix(b, c).ravel(), b._lengths() / 2, c._lengths() / 2])
    return [0.0] + np.unique(values[(values > 0.0) & (values < INF)]).tolist()


class _Reach(dict):
    """Row k -> the ascending columns j with cost[rows[k], j] <= delta, for
    _least_cover: each list is made when first read, at the delta of then."""

    def __init__(self, cost: np.ndarray, rows: np.ndarray, delta: float, lists: list[list[int]]):
        super().__init__(enumerate(lists))
        self.cost, self.rows, self.delta = cost, rows.tolist(), delta

    def __missing__(self, k: int) -> list[int]:
        self[k] = out = (self.cost[self.rows[k]] <= self.delta).nonzero()[0].tolist()
        return out


def _least_cover(cost: np.ndarray, half: np.ndarray, delta: float) -> float:
    """The least delta' >= delta at which the rows with half > delta' can be
    matched to distinct columns at cost <= delta' (half: the rows'
    half-lengths).  As delta' rises, rows only leave and edges only join,
    so this is a threshold, and it is delta, a cost or a half-length.

    A greedy start, then Kuhn's search from each unmatched row.  A stuck
    search has visited rows S whose columns in reach T are all held by S
    minus its root: a Hall violator until delta reaches S's cheapest exit,
    min(cheapest cost from S to a column outside T, smallest half-length in
    S), so delta rises to that.  Rows whose half-length it reaches give up
    their columns, and the root's ends its search; else the search goes on
    from its visited tree, along the edges the raise let in.  Until the
    search ends, lists made before a raise lack those edges, so a later exit
    may be one of them, at or below delta: the search follows it, and delta
    never goes down.
    """
    rows, n_cols = np.flatnonzero(half > delta), cost.shape[1]    # rows: only fewer later
    lists = _neighbours((cost <= delta)[rows])
    partner, roots = _greedy_start(lists, n_cols)    # column -> row
    if not roots:
        return delta
    cost = np.ascontiguousarray(cost)    # rows are read one by one from here on
    h = half[rows].tolist()
    by_half, kept = np.argsort(half[rows], kind="stable").tolist(), 0    # by_half[kept:] mandatory
    match = [-1] * len(rows)                         # row -> column
    for v, u in enumerate(partner):
        if u != -1:
            match[u] = v
    adj = _Reach(cost, rows, delta, lists)
    stamp, came, in_tree = [-1] * n_cols, [-1] * n_cols, np.zeros(n_cols, dtype=bool)
    for root in roots:
        if h[root] <= delta:
            continue
        seen, stack, folded, slack = [], [(root, iter(adj[root]))], 0, None
        while (v := _kuhn(root, adj, partner, came, stamp, seen, stack)) == -1:
            # fold the rows reached since the last raise into S's cheapest
            # exits: slack[j] over the columns j, and low over the half-lengths
            new = [partner[w] for w in seen[folded:]]
            if slack is None:
                new.append(root)
                slack, via, low = np.full(n_cols, INF), np.zeros(n_cols, dtype=np.int64), INF
            in_tree[seen[folded:]] = True
            folded = len(seen)
            sub = cost[rows[new]]
            best = sub.argmin(axis=0)
            cheapest = sub[best, np.arange(n_cols)]
            better = cheapest < slack
            slack[better], via[better] = cheapest[better], np.array(new)[best[better]]
            low = min(low, min(h[u] for u in new))
            delta = max(delta, min(np.where(in_tree, INF, slack).min(initial=INF).item(), low))
            if delta == INF:
                return INF
            adj.delta = delta
            while kept < len(by_half) and h[by_half[kept]] <= delta:
                u, kept = by_half[kept], kept + 1
                if match[u] != -1:
                    partner[match[u]] = -1
                    match[u] = -1
            if h[root] <= delta:
                break
            # the first freed column in visiting order has no freed one above it
            v = next((w for w in seen if partner[w] == -1), -1)
            if v != -1:
                break
            ws = np.flatnonzero(~in_tree & (slack <= delta))[::-1]    # first on top
            stack = [(u, iter((w,))) for u, w in zip(via[ws].tolist(), ws.tolist())]
        if v != -1:
            _flip(v, root, came, partner, match)
        if slack is not None:    # delta rose: drop the stale lists
            in_tree[seen] = False
            adj.clear()
    return delta


def _ray_signature(b: Barcode) -> tuple[int, int, int]:
    """How many bars are born at -inf only, die at +inf only, and both."""
    birth_inf, death_inf = b.births == -INF, b.deaths == INF
    masks = (birth_inf & ~death_inf, death_inf & ~birth_inf, birth_inf & death_inf)
    return tuple(int(np.count_nonzero(m)) for m in masks)


def _pools(b: Barcode, c: Barcode) -> list[tuple[Barcode, Barcode, Sequence[int], Sequence[int]]]:
    """The pools that are matched apart, with the indices of their bars:
    one per degree if both barcodes are fully tagged, else all bars."""
    if not (b.fully_tagged() and c.fully_tagged()):
        return [(b, c, range(len(b)), range(len(c)))]
    idx = [(np.flatnonzero(b.degrees == d), np.flatnonzero(c.degrees == d))
           for d in set(b.degrees.tolist()) | set(c.degrees.tolist())]
    return [(b._take(ib), c._take(ic), ib.tolist(), ic.tolist()) for ib, ic in idx]


def _bottleneck_single_pool(b: Barcode, c: Barcode) -> float:
    if _ray_signature(b) != _ray_signature(c):
        return INF
    cost, len_b, len_c = _cost_matrix(b, c), b._lengths(), c._lengths()
    # Floor: the largest cheapest exit, min(half-length, nearest partner),
    # over the bars of both sides; below it the bar attaining it is
    # mandatory with no partner in reach.
    floor = max(np.minimum(len_b / 2, cost.min(axis=1, initial=INF)).max(initial=0.0),
                np.minimum(len_c / 2, cost.min(axis=0, initial=INF)).max(initial=0.0)).item()
    # A delta-matching exists iff each side's mandatory bars can be covered
    # on its own (Mendelsohn-Dulmage), so the distance is the larger of the
    # two sides' least covers: b's from the floor, then c's from b's.
    return _least_cover(cost.T, len_c / 2, _least_cover(cost, len_b / 2, floor))


def bottleneck_distance(b: Barcode, c: Barcode) -> float:
    """Exact bottleneck distance.

    The infimum is attained at a pair cost or a half-length.  A
    delta-matching exists iff the long bars of each side can be matched on
    their own, so each pool's distance is the larger of two one-sided
    thresholds (_least_cover).  Each is searched from the pool's floor, the
    largest cheapest exit of a bar, by Kuhn's augmenting paths; a stuck
    search proves a Hall violator and raises delta to its cheapest exit, a
    pair cost or a half-length, with no bisection and no list of candidates.
    Returns +inf when infinite-ray counts differ, or when lengths and costs
    overflow.  If both barcodes are fully degree-tagged the distance is
    computed per degree and combined by maximum, otherwise as a single pool.
    """
    return max((_bottleneck_single_pool(x, y) for x, y, _, _ in _pools(b, c)), default=0.0)


def optimal_matching(b: Barcode, c: Barcode) -> tuple[float, Matching]:
    """Bottleneck distance together with a certifying matching."""
    delta = bottleneck_distance(b, c)
    pools = _pools(b, c)
    if delta == INF:
        rays = any(_ray_signature(x) != _ray_signature(y) for x, y, _, _ in pools)
        raise ValueError("no finite-cost matching: " + (
            "infinite-ray counts differ" if rays else "bar lengths or costs overflow to inf"))
    pairs = []
    for x, y, ix, iy in pools:
        sub = _feasible_matching_at(_cost_matrix(x, y), x._lengths(), y._lengths(), delta)
        pairs.extend((ix[u], iy[v]) for u, v in sub)
    return delta, Matching(pairs)


def bottleneck_bruteforce(b: Barcode, c: Barcode) -> float:
    """Minimise max(pair costs, unmatched half-lengths) over all partial
    bijections.  Exponential; oracle for small inputs."""
    best = INF
    for k in range(min(len(b), len(c)) + 1):
        for left in itertools.combinations(range(len(b)), k):
            for right in itertools.permutations(range(len(c)), k):
                cost = max([0.0] + [bar_match_cost(b.bars[i], c.bars[j])
                                    for i, j in zip(left, right)]
                           + [x.length / 2 for i, x in enumerate(b.bars) if i not in left]
                           + [y.length / 2 for j, y in enumerate(c.bars) if j not in right])
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
    with np.errstate(invalid="ignore", over="ignore"):    # -inf + inf is put back below
        return Barcode._of_columns(np.where(b.births == -INF, -INF, b.births + delta),
                                   np.where(b.deaths == INF, INF, b.deaths + delta), b.degrees)


def boundary_depth(b: Barcode) -> float:
    """Length of the longest finite bar (0 if there is none)."""
    return beta_k(b, 1)


def beta_k(b: Barcode, k: int) -> float:
    """k-th longest finite-bar length; 0 when fewer than k finite bars."""
    if k < 1:
        raise ValueError("k must be >= 1")
    lengths = np.sort(b._lengths()[b._finite()])
    return lengths[-k].item() if k <= lengths.size else 0.0


def ell(b: Barcode, lo: float, hi: float) -> float:
    """Total length of the barcode clipped to [lo, hi]."""
    if not lo <= hi:
        raise ValueError("need lo <= hi")
    total = 0.0
    for left, right in zip(np.maximum(b.births, lo).tolist(), np.minimum(b.deaths, hi).tolist()):
        if right > left:
            total += right - left    # in bar order, as the digests pin the bits
    return total


def nu(b: Barcode, c: float) -> int:
    """Number of finite bars of length > c."""
    if not c >= 0:
        raise ValueError("threshold must be >= 0")
    return int(np.count_nonzero(b._finite() & (b._lengths() > c)))


def persistent_betti(b: Barcode, window: Bar) -> int:
    """Number of bars containing the window (birth <= w.birth, death >= w.death)."""
    if not window.finite:
        raise ValueError("window must be finite")
    return int(np.count_nonzero((b.births <= window.birth) & (window.death <= b.deaths)))


def infinite_endpoint_spectrum(b: Barcode) -> list[float]:
    """Sorted multiset of births of the death-infinite bars."""
    return np.sort(b.births[b.deaths == INF], kind="stable").tolist()


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
    deaths.  Differences are of halves and quarters, so they never overflow.
    """
    births, deaths = b.births, b.deaths
    xs, ys = _distinct(births), _distinct(deaths)
    with np.errstate(invalid="ignore"):
        gap_d = np.where(deaths[:, None] == ys, -INF, ys / 2 - deaths[:, None] / 2)    # (bars, ys)
    covers_y = deaths[:, None] >= ys
    counts = np.empty((xs.size, ys.size), dtype=np.int64)
    caps = np.empty((xs.size, ys.size))
    chunk = max(1, int(2e6 // max(1, births.size * ys.size)))
    for start in range(0, xs.size, chunk):
        x = xs[start:start + chunk]
        with np.errstate(invalid="ignore"):
            gap_b = np.where(births[:, None] == x, -INF, births[:, None] / 2 - x / 2)  # (bars, cx)
        covers_x = births[:, None] <= x
        inside = covers_x[:, :, None] & covers_y[:, None, :]                     # (bars, cx, ys)
        counts[start:start + chunk] = inside.sum(axis=0)
        thr = np.maximum(gap_b[:, :, None], gap_d[:, None, :])
        thr[inside] = INF
        caps[start:start + chunk] = np.minimum(ys / 4 - x[:, None] / 4, thr.min(axis=0))
    return counts, caps


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
    return max(0.0, caps[counts == k].max(initial=0.0).item())    # +0.0 when none is above


def mu_odd(b: Barcode) -> float:
    """max over odd k of mu_k."""
    counts, caps = _corner_windows(b)
    return max(0.0, caps[counts % 2 == 1].max(initial=0.0).item())


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
    births, deaths = b.births, b.deaths
    pad_lo = 2.5 * span if (births == -INF).any() else step
    pad_hi = 2.5 * span if (deaths == INF).any() else step
    grid = np.arange(min(ends) - pad_lo, max(ends) + pad_hi + step, step)
    n = grid.size
    best = 0.0
    chunk = max(1, int(2e6 // max(1, len(b) * n)))
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
