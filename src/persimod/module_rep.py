"""
Concrete persistence modules over a prime field: finite spectrum,
per-interval dimensions and transition matrices.

A ModuleRep with spectrum a_1 < ... < a_N describes vector spaces over
the intervals Q_1 = (-inf, a_1], ..., Q_i = (a_{i-1}, a_i], ...,
Q_{N+1} = (a_N, +inf) and maps p_i : V^i -> V^{i+1}.  Standard modules
have dims[0] == 0; a positive dims[0] encodes a proper module whose
classes are born at -inf.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import field as ff
from .barcode import Bar, Barcode, Matching, is_delta_matching

INF = math.inf
SNAP_TOL = 1e-9    # interleaving_from_matching's snap radius, relative to the endpoint scale


class InconsistentModuleError(ValueError):
    """Rank data of the input violates the module axioms."""


class InvalidMorphismError(ValueError):
    """Component matrices do not commute with the transition maps."""


class NoInjectionWitnessError(ValueError):
    """Counting inequalities rule out an injection (or surjection)."""


@dataclass
class ModuleRep:
    spectrum: list[float]
    dims: list[int]
    maps: list[np.ndarray]
    p: int = ff.DEFAULT_P

    def __post_init__(self):
        ff.check_characteristic(self.p)
        if any(not (a < b) for a, b in zip(self.spectrum, self.spectrum[1:])):
            raise ValueError("spectrum must be strictly increasing")
        if any(not math.isfinite(a) for a in self.spectrum):
            raise ValueError("spectrum points must be finite")
        if len(self.dims) != len(self.spectrum) + 1:
            raise ValueError("need one dimension per interval (N+1 of them)")
        if len(self.maps) != len(self.spectrum):
            raise ValueError("need one transition map per spectral point")
        if any(d < 0 for d in self.dims):
            raise ValueError("dimensions must be >= 0")
        for i, m in enumerate(self.maps):
            if m.shape != (self.dims[i + 1], self.dims[i]):
                raise ValueError(
                    f"map {i} has shape {m.shape}, expected "
                    f"({self.dims[i + 1]}, {self.dims[i]})")

    def dim_at_infinity(self) -> int:
        return self.dims[-1]

    def composite(self, i: int, j: int) -> np.ndarray:
        """Matrix of p_{i,j} : V^i -> V^j (1-based, i <= j)."""
        if not 1 <= i <= j <= len(self.dims):
            raise IndexError("composite indices out of range")
        m = ff.eye(self.dims[i - 1])
        for k in range(i - 1, j - 1):
            m = ff.matmul(self.maps[k], m, self.p)
        return m


def zero_module(p: int = ff.DEFAULT_P) -> ModuleRep:
    return ModuleRep([], [0], [], p)


def rank_invariant(v: ModuleRep, i: int, j: int) -> int:
    """b_{ij} = rank of p_{i,j}; indices outside 1..N+1 (or j < i) give 0."""
    n1 = len(v.dims)
    if i < 1 or j > n1 or j < i:
        return 0
    return ff.rank(v.composite(i, j), v.p)


def barcode(v: ModuleRep) -> Barcode:
    """Barcode via the rank multiplicity formula.

    m_ij = b_{i+1,j} + b_{i,j+1} - b_{i,j} - b_{i+1,j+1} counts bars
    (a_i, a_j]; i = 0 (a_0 = -inf) collects the proper bars and
    j = N+1 (a_{N+1} = +inf) the rays.  A negative multiplicity means
    the input was not a persistence module.
    """
    n1 = len(v.dims)
    identity = [np.array_equal(m, ff.eye(len(m))) for m in v.maps]
    # b[i, j] = rank p_{i,j}, zero outside 1 <= i <= j <= N+1
    b = np.zeros((n1 + 2, n1 + 2), dtype=np.int64)
    for i in range(n1, 0, -1):
        if i < n1 and identity[i - 1]:
            # p_i is the identity, so p_{i,j} = p_{i+1,j}
            b[i] = b[i + 1]
            b[i, i] = v.dims[i - 1]
            continue
        # m is a column basis of the image of p_{i,j}
        m = ff.eye(v.dims[i - 1])
        b[i, i] = v.dims[i - 1]
        for j in range(i + 1, n1 + 1):
            if not b[i, j - 1]:
                # p_{i,j-1} = 0, and every later composite factors through it
                break
            if identity[j - 2]:
                b[i, j] = b[i, j - 1]
                continue
            m = ff.matmul(v.maps[j - 2], m, v.p)
            m = m[:, ff.pivot_columns(m, v.p)]
            b[i, j] = m.shape[1]

    # mult[i, j - 1] = m_ij for 0 <= i < j <= N+1
    mult = np.triu(b[1:-1, 1:-1] + b[:-2, 2:] - b[:-2, 1:-1] - b[1:-1, 2:])
    endpoints = [-INF] + list(v.spectrum) + [INF]
    negative = np.argwhere(mult < 0)
    if len(negative):
        i, j = negative[0].tolist()
        raise InconsistentModuleError(
            f"negative multiplicity {int(mult[i, j])} for interval "
            f"({endpoints[i]}, {endpoints[j + 1]}]")
    bars = []
    for i, j in np.argwhere(mult).tolist():
        bars.extend([Bar(endpoints[i], endpoints[j + 1])] * int(mult[i, j]))
    return Barcode(sorted(bars, key=Bar._key))


def _slots_for_bars(bars: list[Bar], spectrum: list[float]) -> tuple[list[int], list[dict[int, int]]]:
    """Occupancy of each interval Q_i by each bar.

    Returns (dims, slots) where slots[bar_index] maps 1-based interval
    index to the row taken by that bar in V^i.
    """
    n1 = len(spectrum) + 1
    endpoints = [-INF] + list(spectrum) + [INF]
    dims = [0] * n1
    slots: list[dict[int, int]] = [dict() for _ in bars]
    for bi, bar in enumerate(bars):
        for i in range(1, n1 + 1):
            lo, hi = endpoints[i - 1], endpoints[i]
            if bar.birth <= lo and hi <= bar.death:
                slots[bi][i] = dims[i - 1]
                dims[i - 1] += 1
    return dims, slots


def _interval_module(spectrum: list[float], dims: list[int],
                     slots: list[dict[int, int]], p: int) -> ModuleRep:
    """Direct sum of the interval modules of bars with these dims and
    slots (as _slots_for_bars gives them)."""
    maps = [ff.zeros(dims[i + 1], dims[i]) for i in range(len(spectrum))]
    for slot in slots:
        for i in range(1, len(dims)):
            if i in slot and i + 1 in slot:
                maps[i - 1][slot[i + 1], slot[i]] = 1
    return ModuleRep(list(spectrum), dims, maps, p)


def from_barcode(b: Barcode, p: int = ff.DEFAULT_P) -> ModuleRep:
    """Direct sum of interval modules realising the barcode."""
    spectrum = b.finite_endpoints()
    return _interval_module(spectrum, *_slots_for_bars(sorted(b.bars, key=Bar._key), spectrum), p)


def refine_spectra(v: ModuleRep, w: ModuleRep) -> tuple[ModuleRep, ModuleRep]:
    """Re-express both modules over the union spectrum."""
    if v.p != w.p:
        raise ValueError("cannot mix field characteristics in one pipeline")
    union = sorted(set(v.spectrum) | set(w.spectrum))
    return refine_to(v, union), refine_to(w, union)


def refine_to(v: ModuleRep, spectrum: Sequence[float]) -> ModuleRep:
    """Re-express v over a finer spectrum (identities at the new points)."""
    new = sorted(set(spectrum) | set(v.spectrum))
    # a new interval (lo, hi] sits in the old interval whose right endpoint
    # is the smallest old endpoint >= hi (0-based: Q_1 is 0)
    old_of_new = [bisect.bisect_left(v.spectrum, hi) for hi in new + [INF]]
    dims = [v.dims[j] for j in old_of_new]
    maps = []
    for i in range(len(new)):
        a, b = old_of_new[i], old_of_new[i + 1]
        if a == b:
            maps.append(ff.eye(dims[i]))
        else:
            maps.append(v.maps[a].copy())
    return ModuleRep(new, dims, maps, v.p)


def shift(v: ModuleRep, delta: float) -> ModuleRep:
    """delta-shift: (V[delta])_t = V_{t+delta}; spectrum moves by -delta."""
    return ModuleRep([a - delta for a in v.spectrum],
                     list(v.dims), [m.copy() for m in v.maps], v.p)


def direct_sum(v: ModuleRep, w: ModuleRep) -> ModuleRep:
    v2, w2 = refine_spectra(v, w)
    dims = [dv + dw for dv, dw in zip(v2.dims, w2.dims)]
    maps = []
    for i in range(len(v2.spectrum)):
        m = ff.zeros(dims[i + 1], dims[i])
        m[:v2.dims[i + 1], :v2.dims[i]] = v2.maps[i]
        m[v2.dims[i + 1]:, v2.dims[i]:] = w2.maps[i]
        maps.append(m)
    return ModuleRep(v2.spectrum, dims, maps, v.p)


def truncate(v: ModuleRep, window: Bar) -> ModuleRep:
    """Zero the module outside (window.birth, window.death]."""
    cut = [e for e in (window.birth, window.death) if math.isfinite(e)]
    r = refine_to(v, sorted(set(v.spectrum) | set(cut)))
    endpoints = [-INF] + r.spectrum + [INF]
    keep = [window.birth <= endpoints[i - 1] and endpoints[i] <= window.death
            for i in range(1, len(r.dims) + 1)]
    dims = [d if k else 0 for d, k in zip(r.dims, keep)]
    maps = []
    for i in range(len(r.spectrum)):
        if keep[i] and keep[i + 1]:
            maps.append(r.maps[i].copy())
        else:
            maps.append(ff.zeros(dims[i + 1], dims[i]))
    return ModuleRep(r.spectrum, dims, maps, r.p)


@dataclass
class ModuleMorphism:
    source: ModuleRep
    target: ModuleRep
    components: list[np.ndarray]

    def __post_init__(self):
        if self.source.p != self.target.p:
            raise ValueError("cannot mix field characteristics in one pipeline")
        if self.source.spectrum != self.target.spectrum:
            raise ValueError("morphism needs a shared spectrum; refine first")
        if len(self.components) != len(self.source.dims):
            raise ValueError("need one component per interval")
        for i, a in enumerate(self.components):
            if a.shape != (self.target.dims[i], self.source.dims[i]):
                raise ValueError(f"component {i} has wrong shape {a.shape}")
        p = self.source.p
        for i in range(len(self.source.spectrum)):
            left = ff.matmul(self.components[i + 1], self.source.maps[i], p)
            right = ff.matmul(self.target.maps[i], self.components[i], p)
            if not np.array_equal(left, right):
                raise InvalidMorphismError(f"square {i} does not commute")

    @property
    def p(self) -> int:
        return self.source.p


def identity_morphism(v: ModuleRep) -> ModuleMorphism:
    return ModuleMorphism(v, v, [ff.eye(d) for d in v.dims])


def zero_morphism(v: ModuleRep, w: ModuleRep) -> ModuleMorphism:
    v2, w2 = refine_spectra(v, w)
    return ModuleMorphism(v2, w2, [ff.zeros(dw, dv)
                                   for dv, dw in zip(v2.dims, w2.dims)])


def compose(g: ModuleMorphism, f: ModuleMorphism) -> ModuleMorphism:
    if f.target.dims != g.source.dims or f.target.spectrum != g.source.spectrum:
        raise ValueError("morphisms are not composable")
    comps = [ff.matmul(gc, fc, f.p) for gc, fc in zip(g.components, f.components)]
    return ModuleMorphism(f.source, g.target, comps)


def _restrict(v: ModuleRep, bases: list[np.ndarray]) -> ModuleRep:
    """The submodule of v spanned slice by slice by the columns of bases,
    in their coordinates.  Raises ValueError if a transition map carries a
    basis out of the next slice's span."""
    p = v.p
    dims = [b.shape[1] for b in bases]
    maps = []
    for i in range(len(v.spectrum)):
        img = ff.matmul(v.maps[i], bases[i], p)
        if dims[i + 1]:
            maps.append(ff.coordinates_in_basis(bases[i + 1], img, p))
        elif img.any():
            raise ValueError("transition map leaves the submodule")
        else:
            maps.append(ff.zeros(0, dims[i]))
    return ModuleRep(list(v.spectrum), dims, maps, p)


def kernel(f: ModuleMorphism) -> ModuleRep:
    """Kernel submodule in deterministic reduced bases."""
    return _restrict(f.source, [ff.kernel_basis(a, f.p) for a in f.components])


def image(f: ModuleMorphism) -> ModuleRep:
    """Image submodule in deterministic reduced bases."""
    return _restrict(f.target, [ff.column_space_basis(a, f.p) for a in f.components])


# ---------------------------------------------------------------------------
# induced matchings


def _induced_pairs(full: list[Bar], other: list[Bar], end: str, key, kind: str):
    """Pairs (i, j) of full[i] and other[j] with the same `end`, in key order
    per group: every bar of full is matched.  Raises when counting fails, if a
    group of full outnumbers other's or a bar precedes its partner by key."""
    groups: tuple[dict, dict] = ({}, {})
    for bars, group in zip((full, other), groups):
        for i, bar in enumerate(bars):
            group.setdefault(getattr(bar, end), []).append(i)
    pairs = []
    for e in {getattr(bar, end) for bar in full}:
        fi = sorted(groups[0][e], key=lambda i: (key(full[i]), i))
        oi = sorted(groups[1].get(e, []), key=lambda j: (key(other[j]), j))
        if len(fi) > len(oi) or any(key(full[i]) < key(other[j]) for i, j in zip(fi, oi)):
            raise NoInjectionWitnessError(f"no {kind} can exist: counting fails at {end} {e}")
        pairs.extend(zip(fi, oi))
    return pairs


def induced_matching_inj(b: Barcode, c: Barcode) -> Matching:
    """Matching induced by any injection: per death value, match bars
    longest-first.  Raises when the counting inequalities fail."""
    return Matching(_induced_pairs(b.bars, c.bars, "death", lambda bar: bar.birth, "injection"))


def induced_matching_sur(b: Barcode, c: Barcode) -> Matching:
    """Matching induced by any surjection: per birth value, match bars
    longest-first (every bar of c ends up matched)."""
    pairs = _induced_pairs(c.bars, b.bars, "birth", lambda bar: -bar.death, "surjection")
    return Matching([(i, j) for j, i in pairs])


def induced_matching(f: ModuleMorphism) -> Matching:
    """mu(f) = mu_inj o mu_sur through the barcode of im f.

    Indices refer to the canonically sorted barcodes of source and
    target (as returned by barcode()).
    """
    im = image(f)
    b_im = barcode(im)
    mu_sur = induced_matching_sur(barcode(f.source), b_im)
    mu_inj = induced_matching_inj(b_im, barcode(f.target))
    return mu_inj.compose(mu_sur)


# ---------------------------------------------------------------------------
# interleavings


def _interval_morphism_entry(src: Bar, dst: Bar) -> int:
    """1 iff the canonical map F(src) -> F(dst) is nonzero, which is when
    dst.birth <= src.birth < dst.death <= src.death; it is then the
    identity on every interval both bars cover, and 0 elsewhere."""
    return int(dst.birth <= src.birth < dst.death <= src.death)


def _matched_pair_matrices(src, dst, pairs):
    """Components of the map sending each src bar of a pair to its dst bar
    by the canonical interval map; src and dst are (bars, dims, slots)
    over one spectrum."""
    (src_bars, dims_src, src_slots), (dst_bars, dims_dst, dst_slots) = src, dst
    comps = [ff.zeros(dims_dst[i], dims_src[i]) for i in range(len(dims_src))]
    for si, di in pairs:
        entry = _interval_morphism_entry(src_bars[si], dst_bars[di])
        for i in src_slots[si].keys() & dst_slots[di].keys():
            comps[i - 1][dst_slots[di][i], src_slots[si][i]] = entry
    return comps


def _snap_function(values: list[float], tol: float):
    """Merge values closer than tol into cluster representatives.

    Shifting endpoints by delta in floating point misses coincidences the
    real-number construction relies on (c - delta == a up to 1 ulp), which
    would create sliver intervals and break the exact matrix identities.
    """
    reps: list[float] = []
    for v in sorted(values):
        if not reps or v - reps[-1] > tol:
            reps.append(v)

    def snap(v: float) -> float:
        if v == INF or v == -INF:
            return v
        return reps[bisect.bisect_left(reps, v - tol, hi=len(reps) - 1)]

    return snap


def interleaving_from_matching(b: Barcode, c: Barcode, m: Matching,
                               delta: float) -> tuple[ModuleMorphism, ModuleMorphism]:
    """Build delta-interleaving morphisms F : V -> W[delta] and
    G : W -> V[delta] from a delta-matching of the barcodes.

    Matched bars carry the canonical nonzero interval morphisms, unmatched
    (necessarily short) bars map to zero.  Both compositions are verified
    to equal the 2*delta shift morphisms as exact matrix identities.
    Endpoints closer than SNAP_TOL (relative to the endpoint scale) are
    identified so float shifts cannot produce spurious sliver intervals.
    """
    if not is_delta_matching(b, c, m, delta):
        raise ValueError("matching is not a delta-matching at this delta")
    if not math.isfinite(delta):
        raise ValueError("delta must be finite")
    raw = [e for bar in itertools.chain(b.bars, c.bars)
           for e in (bar.birth, bar.death) if math.isfinite(e)]
    scale = max((abs(e) for e in raw), default=1.0) + 2 * abs(delta)
    shifts = (0.0, -delta, -2 * delta)
    snap = _snap_function([e + s for e in raw for s in shifts],
                          SNAP_TOL * max(1.0, scale))

    def snapped(bar: Bar, s: float) -> Bar:
        lo = bar.birth if bar.birth == -INF else snap(bar.birth + s)
        hi = bar.death if bar.death == INF else snap(bar.death + s)
        if not lo < hi:
            raise ValueError(f"at delta {delta}, the shift by {s} makes {bar} "
                             "shorter than the snap tolerance")
        return Bar(lo, hi)

    # (side, s): the bars of V (side 0) or W (side 1) shifted by -s * delta,
    # so (1, 1) are the bars of W[delta] and (0, 2) those of V[2 delta]
    bars = {(side, s): [snapped(bar, shifts[s]) for bar in x.bars]
            for side, x in enumerate((b, c)) for s in range(3)}
    spectrum = sorted({e for same in bars.values() for bar in same
                       for e in (bar.birth, bar.death) if math.isfinite(e)})
    table = {key: (same, *_slots_for_bars(same, spectrum)) for key, same in bars.items()}

    def module(key) -> ModuleRep:
        return _interval_module(spectrum, *table[key][1:], ff.DEFAULT_P)

    def matrices(src, dst, pairs) -> list[np.ndarray]:
        return _matched_pair_matrices(table[src], table[dst], pairs)

    pairs, flipped = m.pairs, [(j, i) for i, j in m.pairs]
    f = ModuleMorphism(module((0, 0)), module((1, 1)), matrices((0, 0), (1, 1), pairs))
    g = ModuleMorphism(module((1, 0)), module((0, 1)), matrices((1, 0), (0, 1), flipped))
    # shifted copies of f and g over the same spectrum
    g_shift = matrices((1, 1), (0, 2), flipped)
    f_shift = matrices((0, 1), (1, 2), pairs)
    phi_v = matrices((0, 0), (0, 2), [(i, i) for i in range(len(b.bars))])
    phi_w = matrices((1, 0), (1, 2), [(j, j) for j in range(len(c.bars))])
    for i in range(len(f.components)):
        lhs = ff.matmul(g_shift[i], f.components[i], ff.DEFAULT_P)
        if not np.array_equal(lhs, phi_v[i]):
            raise AssertionError("G[delta] o F != 2*delta shift morphism")
        lhs = ff.matmul(f_shift[i], g.components[i], ff.DEFAULT_P)
        if not np.array_equal(lhs, phi_w[i]):
            raise AssertionError("F[delta] o G != 2*delta shift morphism")
    return f, g


def interleaving_distance(v: ModuleRep, w: ModuleRep) -> float:
    """Computed through the barcode (isometry theorem route)."""
    from .barcode import bottleneck_distance
    return bottleneck_distance(barcode(v), barcode(w))


# ---------------------------------------------------------------------------
# characteristic exponents


def characteristic_exponent(v: ModuleRep, vector: np.ndarray) -> float:
    """c(vec) = inf of parameters s with vec in the image of p_{s,inf};
    -inf for the zero vector (and anything alive since -inf)."""
    vec = np.mod(np.asarray(vector, dtype=np.int64).reshape(-1), v.p)
    n1 = len(v.dims)
    if vec.shape[0] != v.dims[-1]:
        raise ValueError("vector must live in the terminal space V_inf")
    endpoints = [-INF] + list(v.spectrum)
    # the images of p_{i,inf} grow with i, so walk i down from n1 (the
    # identity) with a running product until vec leaves the image
    r = ff.eye(v.dims[-1])
    for i in range(n1 - 1, 0, -1):
        r = ff.matmul(r, v.maps[i - 1], v.p)    # p_{i,inf} = p_{i+1,inf} p_i
        if not ff.in_span(vec, r, v.p):
            return endpoints[i]
    return endpoints[0]


def characteristic_exponent_spectrum(v: ModuleRep) -> list[float]:
    """Multiset of exponents over a basis adapted to the image flag;
    equals the sorted births of the infinite bars."""
    n1 = len(v.dims)
    endpoints = [-INF] + list(v.spectrum)
    # rank of p_{i,inf} counts classes alive from Q_i on; differences give
    # the number of infinite bars born exactly at a_{i-1}
    r = ff.eye(v.dims[-1])
    ranks = [ff.rank(r, v.p)]
    for m in reversed(v.maps):
        r = ff.matmul(r, m, v.p)    # p_{i,inf} = p_{i+1,inf} p_i
        ranks.append(ff.rank(r, v.p))
    ranks.reverse()
    values: list[float] = []
    for i in range(n1):
        values.extend([endpoints[i]] * (ranks[i] - (ranks[i - 1] if i else 0)))
    return sorted(values)


# ---------------------------------------------------------------------------
# constructive normal form (cross-check oracle, small instances only)


def normal_form_constructive(v: ModuleRep) -> Barcode:
    """Barcode via the semi-surjective submodule recursion.

    Grows a submodule one interval summand at a time; exponential-ish
    bookkeeping, intended as an independent oracle for small spectra.
    """
    p = v.p
    n1 = len(v.dims)
    endpoints = [-INF] + list(v.spectrum) + [INF]
    bases = [ff.zeros(d, 0) for d in v.dims]
    bars: list[Bar] = []
    for _ in range(sum(v.dims) + 1):
        i0 = next((i for i in range(n1)
                   if bases[i].shape[1] < v.dims[i]), None)
        if i0 is None:
            break
        # first standard basis vector outside the current span
        z = None
        for col in range(v.dims[i0]):
            cand = ff.zeros(v.dims[i0], 1)
            cand[col, 0] = 1
            if not ff.in_span(cand[:, 0], bases[i0], p):
                z = cand
                break
        zs = {i0: z}
        cur = z
        j0 = None
        for j in range(i0 + 1, n1):
            cur = ff.matmul(v.maps[j - 1], cur, p)
            zs[j] = cur
            if ff.in_span(cur[:, 0], bases[j], p):
                j0 = j
                break
        if j0 is None:
            bars.append(Bar(endpoints[i0], INF))
            for j in range(i0, n1):
                bases[j] = np.hstack([bases[j], zs[j]])
        else:
            # pull z^{j0} back through the (surjective on W) composite
            comp = v.composite(i0 + 1, j0 + 1)
            restricted = ff.matmul(comp, bases[i0], p)
            alpha = ff.solve(restricted, zs[j0][:, 0], p) \
                if bases[i0].shape[1] else ff.zeros(0, 1)[:, 0]
            x = ff.matmul(bases[i0], alpha.reshape(-1, 1), p)
            y = np.mod(zs[i0] - x, p)
            bars.append(Bar(endpoints[i0], endpoints[j0]))
            cur = y
            for j in range(i0, j0):
                bases[j] = np.hstack([bases[j], cur])
                cur = ff.matmul(v.maps[j], cur, p)
    return Barcode(sorted(bars, key=Bar._key))
