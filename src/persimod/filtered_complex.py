"""
Filtered chain complexes with a preferred basis and their barcodes.

Cells are sorted degree-major, then by filtration value, then by id, so
the boundary operator is strictly upper triangular.  Its graded Jordan
pairing (within degree k, paired cells mapping injectively onto degree
k-1 cells, the rest closing cycles) is unique, and one route finds it:
degree 0 pairs by union-find, and each higher degree by reducing the
coboundary from low degree to high, skipping the columns that already
paired one degree down (persistent cohomology with clearing); the top
degree is never reduced.  Most columns are apparent: no earlier column
has an entry in their lowest row, so they pair there unreduced (Ripser's
apparent pairs); numpy finds them before any loop.  Graph-shaped blocks
(d_1, the coboundary of a closed surface) pair by the elder rule through
a forest of apparent pairs.  Pairings travel as index arrays.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from . import field as ff
from .barcode import Barcode
from .module_rep import ModuleRep

INF = math.inf


class InvalidComplexError(ValueError):
    """Boundary fails to square to zero or raises the filtration."""


@dataclass(frozen=True)
class Cell:
    id: object
    degree: int
    value: float


class _Block(NamedTuple):
    """The cells of one degree in reduction order: float64 values and the
    boundary as CSR columns; column j holds rows[indptr[j]:indptr[j + 1]]
    (indices into the degree below) with coeffs (nonzero mod p)."""

    values: np.ndarray
    indptr: np.ndarray
    rows: np.ndarray
    coeffs: np.ndarray

    def entry_cols(self) -> np.ndarray:
        return np.repeat(np.arange(len(self.values)), self.indptr[1:] - self.indptr[:-1])

    def columns(self) -> list[dict[int, int]]:
        rows, coeffs, ptr = self.rows.tolist(), self.coeffs.tolist(), self.indptr.tolist()
        return [dict(zip(rows[a:b], coeffs[a:b])) for a, b in zip(ptr, ptr[1:])]


_NO_CELLS = _Block(np.zeros(0), np.zeros(1, np.int64), np.zeros(0, np.int64),
                   np.zeros(0, np.int64))


def _product(a: _Block, b: _Block, n_rows: int, p: int):
    """The terms of a·b, unsummed, for CSR blocks a (n_rows rows) and b:
    entry (r, j, v) of b meets entry (r2, r, v2) of a in the term v2·v mod p
    at the key j·n_rows + r2.  Returns (keys, terms)."""
    n = (a.indptr[1:] - a.indptr[:-1])[b.rows]
    end = np.cumsum(n)
    sub = np.repeat(a.indptr[b.rows] - end + n, n) + np.arange(n.sum())
    dtype = np.int64 if p < 2 ** 31 else object    # products past 2^63 need Python ints
    terms = np.repeat(b.coeffs, n).astype(dtype) * a.coeffs[sub].astype(dtype) % p
    return np.repeat(b.entry_cols(), n) * n_rows + a.rows[sub], terms


def _nonzero_sums(keys: np.ndarray, terms: np.ndarray, p: int) -> np.ndarray:
    """The keys whose terms sum to nonzero mod p, in ascending order."""
    order = np.argsort(keys, kind="stable")    # fast on keys grouped by column
    keys = keys[order]
    start = np.flatnonzero(np.diff(keys, prepend=-1))    # the keys are >= 0
    return keys[start[np.add.reduceat(terms[order], start) % p != 0]]


class FilteredComplex:
    """Graded cells with filtration values and a field-coefficient boundary.

    boundary maps a cell id to {face id: coefficient}; faces must live in
    the degree right below and at a filtration value <= the cell's own.

    Every consumer reads one array form, a _Block per degree: the values
    in reduction order and the boundary as CSR columns mod p.
    FilteredComplex(cells, boundary, p) checks the face ids and degrees
    one by one, converts to it and checks the arrays, keeping neither
    argument.  The builders fill it unchecked through _of_simplices and
    keep vertex-index rows.  For both, cells and boundary are views of the
    blocks made when first read: reduction order, coefficients mod p and
    no zero entries.
    """

    def __init__(self, cells: list[Cell], boundary: dict, p: int = ff.DEFAULT_P):
        self.p = ff.check_characteristic(p)
        self._cells, self._blocks = _convert(cells, boundary, p)
        self.__post_init__()

    @classmethod
    def _of_simplices(cls, labels, rank, simplices: list, value, p: int) -> FilteredComplex:
        """The complex of a closed set of simplices on range(len(labels)),
        unchecked: faces are looked up in the degree below, and the facet
        without vertex t of a sorted row has the sign (-1)^t, so d(d) = 0.
        simplices[k] holds the degree-k ones as rows of sorted vertex
        indices, in any order (degree 0: each vertex once).  They enter at
        value(k, facet_values), no lower than any column: column t holds the
        values of the facets without vertex t (None for vertices).  Ties in
        value break by the ranks of a row's vertices in turn, where rank[v]
        is the place of repr(labels[v]) among the labels' reprs: the
        _order_key order of the label-tuple ids.  One int64 code carries
        them: the tie place of the row without its last vertex, times n,
        plus that vertex's rank."""
        ff.check_characteristic(p)
        n = len(labels)
        c = cls.__new__(cls)
        c.p, c._labels, c._blocks, c._vertices = p, labels, {}, {}
        keys = []    # keys[k]: the sorted tie codes of degree k (see _index)
        for k, rows in enumerate(simplices):
            if not len(rows):
                break
            ranked = rank[rows]
            if k:    # faces[:, t]: the tie place of the facet without vertex t
                faces = np.stack([_index(keys, np.delete(ranked, t, axis=1), n)
                                  for t in range(k + 1)], axis=1)
            tie = faces[:, k] * n + ranked[:, -1] if k else ranked[:, 0]
            by_tie = np.argsort(tie)    # the codes are distinct
            keys.append(tie[by_tie])
            values = value(k, values[faces] if k else None)[by_tie]
            place = _stable_order(values)
            order = by_tie[place]    # reduction index -> row
            m = k + 1 if k else 0    # faces per cell
            face_rows = where[faces.take(order, axis=0)].ravel() if k else np.zeros(0, np.int64)
            c._blocks[k] = _Block(values[place], np.arange(len(rows) + 1) * m, face_rows,
                                  np.tile(np.where(np.arange(m) % 2, p - 1, 1), len(rows)))
            c._vertices[k] = rows.take(order, axis=0)
            where = np.empty(len(rows), np.int64)    # tie place -> reduction index
            where[place] = np.arange(len(rows))
        return c

    def __post_init__(self):
        """The array check: faces not above their cell's value, and
        d(d) = 0.  Hand-made complexes run it; the tests run it on built ones."""
        p, dd_fail = self.p, None    # the first cell in reduction order with d(d) != 0
        for k in sorted(self._blocks):
            b, below = self._blocks[k], self._block(k - 1)
            if not b.rows.size:
                continue
            cols = b.entry_cols()
            raised = below.values[b.rows] > b.values[cols]
            if raised.any():
                raise InvalidComplexError(
                    f"filtration increases along boundary of {self._cells[k][cols[raised][0]].id}")
            if dd_fail is not None or not below.rows.size:    # found, or faces without faces
                continue
            n2 = len(self._block(k - 2).values)
            hit = _nonzero_sums(*_product(below, b, n2, p), p)
            if hit.size:    # ascending, so hit[0] // n2 is the first cell
                dd_fail = self._cells[k][hit[0] // n2]
        if dd_fail is not None:
            raise InvalidComplexError(f"d(d({dd_fail.id})) != 0")

    @cached_property
    def _cells(self) -> dict[int, list[Cell]]:
        """Cells of each degree in reduction order; only a built complex
        makes them here, FilteredComplex(cells, ...) stores the ones given."""
        return {k: [Cell(tuple([self._labels[v] for v in row]), k, value)
                    for row, value in zip(self._vertices[k].tolist(), b.values.tolist())]
                for k, b in self._blocks.items()}

    @cached_property
    def cells(self) -> list[Cell]:
        return [cell for k in sorted(self._cells) for cell in self._cells[k]]

    @cached_property
    def boundary(self) -> dict:
        return {cell.id: {self._cells[k - 1][r].id: v for r, v in col.items()}
                for k, b in self._blocks.items()
                for cell, col in zip(self._cells[k], b.columns())}

    def _block(self, k: int) -> _Block:
        return self._blocks.get(k, _NO_CELLS)

    @property
    def max_degree(self) -> int:
        return max(self._blocks, default=-1)

    def n_cells(self) -> int:
        return sum(len(b.values) for b in self._blocks.values())

    def filtration_values(self) -> list[float]:
        return sorted({v for b in self._blocks.values() for v in b.values.tolist()})

    def cells_of_degree(self, k: int) -> list[Cell]:
        """Cells of degree k in reduction order (value, then id)."""
        return list(self._cells.get(k, []))


def _index(keys: list, ranked: np.ndarray, n: int) -> np.ndarray:
    """Tie place of each simplex among those of its size, from the ranks of
    its sorted vertices; keys[d] holds the sorted tie codes of degree d."""
    idx = ranked[:, 0]
    for d in range(1, ranked.shape[1]):
        idx = np.searchsorted(keys[d], idx * n + ranked[:, d])
    return idx


def _stable_order(values: np.ndarray) -> np.ndarray:
    """np.argsort(values, kind="stable") for values without NaN, from two
    unstable sorts: the values', which numbers the runs of equal values in
    order, then the sort of run number * 2^s + index, with 2^s > len(values),
    whose keys are distinct.  Each temporary is freed once the next is made."""
    s = len(values).bit_length()
    first = np.argsort(values)
    ranked = values[first]
    # each place's run number; the first place (a False, or nothing) opens run 0
    code = np.concatenate((ranked[:1] != ranked[:1], ranked[1:] != ranked[:-1])).cumsum()
    del ranked
    code <<= s
    code |= first
    del first
    code.sort()
    code &= (1 << s) - 1
    return code


def _order_key(cell: Cell):
    """Reduction order: degree-major, then filtration value, then id."""
    return (cell.degree, cell.value, str(type(cell.id)), repr(cell.id))


def _convert(cells: list[Cell], boundary: dict, p: int):
    """Check cell values, and the ids and degrees of the faces in the order
    given, and convert them: the cells of each degree in reduction order,
    and their blocks.  Face values are left to the array check."""
    for cell in cells:    # NaN would pass every face check below
        if not math.isfinite(cell.value):
            raise InvalidComplexError(f"cell {cell.id} has the non-finite value {cell.value}")
    cells_of: dict[int, list[Cell]] = {}
    where: dict = {}  # cell id -> (cell, index within its degree)
    for cell in sorted(cells, key=_order_key):
        same = cells_of.setdefault(cell.degree, [])
        where[cell.id] = (cell, len(same))
        same.append(cell)
    if len(where) != len(cells):
        raise InvalidComplexError("duplicate cell ids")
    for key in boundary:
        if key not in where:
            raise InvalidComplexError(f"boundary given for unknown cell {key}")
    columns = {k: [None] * len(same) for k, same in cells_of.items()}
    for c in cells:
        col = {}
        for face_id, coeff in boundary.get(c.id, {}).items():
            hit = where.get(face_id)
            if hit is None:
                raise InvalidComplexError(f"boundary of {c.id} hits unknown cell {face_id}")
            face, row = hit
            if face.degree != c.degree - 1:
                raise InvalidComplexError(
                    f"boundary of {c.id} (degree {c.degree}) hits degree {face.degree}")
            if coeff % p:
                col[row] = coeff % p
        columns[c.degree][where[c.id][1]] = col
    return cells_of, {k: _Block(np.array([cell.value for cell in same], dtype=float),
                                np.array([0, *itertools.accumulate(map(len, columns[k]))]),
                                np.array([r for col in columns[k] for r in col], dtype=np.int64),
                                np.array([v for col in columns[k] for v in col.values()],
                                         dtype=np.int64))
                      for k, same in cells_of.items()}


@dataclass(eq=False)
class JordanPairing:
    """The graded Jordan pairing of a filtered complex.

    partner[k][j] is the index of the degree-(k-1) partner of degree-k
    cell j, or -1.  pairing[k] (paired degree-k index -> partner index)
    and unpaired[k] (the cycle-closing indices not hit from above) are
    made from the arrays on first read, and == compares them.
    order[k] and values[k], the degree-k cell ids and filtration values in
    reduction order, are made from the complex on each access.
    """

    partner: dict[int, np.ndarray]
    complex: FilteredComplex = field(repr=False)

    def __eq__(self, other):
        return isinstance(other, JordanPairing) and (
            self.pairing, self.unpaired) == (other.pairing, other.unpaired)

    def _pairs(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        # in the order the pairs were found, which orders bars equal up to the sign
        # of a zero: by cell from d_1, by partner descending from a coboundary
        partner = self.partner[k]
        j = np.flatnonzero(partner >= 0)
        j = j[np.argsort(-partner[j])] if k > 1 else j
        return j, partner[j]

    def _unpaired(self, k: int) -> np.ndarray:
        hit, up = self.partner[k] >= 0, self.partner.get(k + 1, np.zeros(0, np.int64))
        hit[up[up >= 0]] = True
        return np.flatnonzero(~hit)

    @cached_property
    def pairing(self) -> dict[int, dict[int, int]]:
        return {k: dict(zip(*(x.tolist() for x in self._pairs(k)))) for k in self.partner}

    @cached_property
    def unpaired(self) -> dict[int, list[int]]:
        return {k: self._unpaired(k).tolist() for k in self.partner}

    @property
    def order(self) -> dict[int, list]:
        return {k: [cell.id for cell in self.complex.cells_of_degree(k)]
                for k in range(self.complex.max_degree + 1)}

    @property
    def values(self) -> dict[int, list[float]]:
        return {k: self.complex._block(k).values.tolist()
                for k in range(self.complex.max_degree + 1)}


def _dense(c: FilteredComplex, k: int) -> np.ndarray:
    """d_k as a dense matrix: rows the degree k-1 cells, columns the degree k cells."""
    b = c._block(k)
    m = ff.zeros(len(c._block(k - 1).values), len(b.values))
    m[b.rows, b.entry_cols()] = b.coeffs
    return m


def _subtract(col: dict[int, int], other: dict[int, int], lam: int, p: int) -> None:
    """col -= lam * other over F_p, in place, dropping zero entries."""
    for r, v in other.items():
        nv = (col.get(r, 0) - lam * v) % p
        if nv:
            col[r] = nv
        else:
            col.pop(r, None)


def _reduce(block: _Block, p: int, cleared=np.False_) -> np.ndarray:
    """Low-driven column reduction over F_p: each column in turn subtracts
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

    A looped column finds its lowest row in a lazy max-heap of its negated
    rows (Ripser's working coboundary): each subtraction pushes the rows
    it brings in, and a row it cancels stays in the heap until it reaches
    the top and is popped there.  Every row of the column is in the heap,
    so its first top still in the column is the column's lowest row.

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
        heap = [-r for r in col]
        heapq.heapify(heap)
        while col:
            r = -heap[0]
            if r not in col:
                heapq.heappop(heap)
                continue
            i = low_to_col.get(r)
            if i is None:
                low_to_col[r], paired[j], low[j] = j, col, r
                break
            other = paired[i] if i in paired else paired.setdefault(i, column(i))
            if p == 2:
                fresh = other - col
                col ^= other
            else:    # a row absent from col comes in with a nonzero coefficient
                fresh = [x for x in other if x not in col]
                _subtract(col, other, col[r] * ff.inv_mod(other[r], p) % p, p)
            for x in fresh:
                heapq.heappush(heap, -x)
    return low


def _coboundary(c: FilteredComplex, k: int) -> _Block:
    """d_{k+1} anti-transposed: column t is the coboundary of degree-k cell
    n_k-1-t, and row r is degree-(k+1) cell n_{k+1}-1-r."""
    below, b = c._block(k), c._block(k + 1)
    t = len(below.values) - 1 - b.rows
    # the narrowest unsigned type that holds t, which numpy radix-sorts up to 16 bits
    order = np.argsort(t.astype(np.min_scalar_type(len(below.values))), kind="stable")
    return _Block(below.values[::-1],
                  np.concatenate(([0], np.cumsum(np.bincount(t, minlength=len(below.values))))),
                  (len(b.values) - 1 - b.entry_cols())[order], b.coeffs[order])


def _union_find_pairing(edges: _Block, n_vertices: int, p: int,
                        cleared=np.False_) -> Optional[np.ndarray]:
    """_reduce's pivots of a graph-shaped block, by the elder rule: an edge
    joining two components pairs with the younger root (the larger row),
    which hangs under the older one.  None unless every column is a(u - v):
    two entries whose coefficients sum to 0 mod p.

    An apparent edge, the first to touch its larger row, finds that row
    alone: it pairs there and hangs the row under its other row.  Pointer
    jumping roots this forest.  On a row's path to its root every edge
    comes before any edge that touches the row, so an edge whose rows
    share a root pairs with nothing, nor does a cleared one.  The elder
    rule then runs on the roots of the edges left, in column order, and
    stops once it has joined all the roots they touch: every later edge
    closes a cycle."""
    counts = edges.indptr[1:] - edges.indptr[:-1]
    if (counts != 2).any() or (edges.coeffs[::2] != p - edges.coeffs[1::2]).any():
        return None
    a, b = edges.rows[::2], edges.rows[1::2]
    lo, hi, n, live = np.minimum(a, b), np.maximum(a, b), len(a), ~cleared
    first = np.full(n_vertices, n)    # row -> the first live edge touching it
    np.minimum.at(first, edges.rows, np.repeat(np.where(live, np.arange(n), n), 2))
    apparent = first[hi] == np.arange(n)
    pivots, root = np.where(apparent, hi, -1), np.arange(n_vertices)
    root[hi[apparent]] = lo[apparent]
    while (root[root] != root).any():
        root = root[root]
    a, b = root[lo], root[hi]
    left = np.flatnonzero(live & ~apparent & (a != b))
    a, b = a[left], b[left]
    touched = np.zeros(n_vertices, bool)
    touched[a] = touched[b] = True
    joins = np.count_nonzero(touched) - 1    # the merges that join all the touched roots
    parent = list(range(n_vertices))
    for j, u, v in zip(left.tolist(), a.tolist(), b.tolist()):
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            if u < v:
                u, v = v, u
            parent[u] = v
            pivots[j] = u
            joins -= 1
            if not joins:
                break
    return pivots


def _cohomology_pairing(c: FilteredComplex) -> dict[int, np.ndarray]:
    """JordanPairing's partner arrays, found without reducing the boundary:
    degree 0 by union-find on d_1 where it applies, then each coboundary
    below the top degree with clearing, by union-find where every cell has
    two cofaces with opposite coefficients (a closed surface over F_2, or a
    consistently oriented one over F_p), and by _reduce otherwise."""
    sizes = [len(c._block(k).values) for k in range(c.max_degree + 2)]
    partner = {k: np.full(sizes[k], -1) for k in range(c.max_degree + 1)}
    for k in range(c.max_degree):
        if k == 0 and (found := _union_find_pairing(c._block(1), sizes[0], c.p)) is not None:
            partner[1] = found
            continue
        # a degree-k cell paired with a degree-(k-1) cell has a vanishing coboundary column
        block, cleared = _coboundary(c, k), (partner[k] >= 0)[::-1]
        pivots = _union_find_pairing(block, sizes[k + 1], c.p, cleared)
        if pivots is None:
            pivots = _reduce(block, c.p, cleared)
        t = np.flatnonzero(pivots >= 0)
        partner[k + 1][sizes[k + 1] - 1 - pivots[t]] = sizes[k] - 1 - t
    return partner


def barannikov_reduce(c: FilteredComplex) -> JordanPairing:
    """The graded Jordan pairing that Barannikov's triangular change of
    basis brings the filtered boundary to.  No basis is changed or
    returned: the pairing is unique, so _cohomology_pairing finds it
    without reducing the boundary."""
    return JordanPairing(_cohomology_pairing(c), c)


def barcode_of_complex(c: FilteredComplex) -> Barcode:
    """Degree-tagged barcode of the homology persistence module.

    Pairs with equal filtration values produce no bar (non-essential);
    cycle classes never hit from above become rays.
    """
    jp = barannikov_reduce(c)
    parts = [(np.zeros(0), np.zeros(0), np.zeros(0, np.int64))]
    for k in range(c.max_degree + 1):
        (j, i), values = jp._pairs(k), c._block(k).values
        a, b = c._block(k - 1).values[i], values[j]
        rays, keep = values[jp._unpaired(k)], a < b
        parts += [(a[keep], b[keep], np.full(keep.sum(), k - 1)),
                  (rays, np.full(len(rays), INF), np.full(len(rays), k))]
    birth, death, degree = (np.concatenate(x) for x in zip(*parts))
    # a stable sort on Bar._key, so bars appear in the order sorted(key=Bar._key) gives
    order = np.lexsort((degree, death, birth))
    return Barcode._of_columns(birth[order], death[order], degree[order])


def boundary_depth_usher(c: FilteredComplex) -> float:
    """Usher's b(C, d): smallest alpha such that boundaries entering at
    level lam are boundaries of chains of level <= lam + alpha, checked
    directly over the finite filtration-value set."""
    p = c.p
    values = c.filtration_values()
    if not values:
        return 0.0
    # d of all degrees at once, rows and columns in degree-major reduction order
    degrees = sorted(c._blocks)
    cell_level = np.concatenate([c._blocks[k].values for k in degrees])
    image = np.block([[_dense(c, j) if j == i + 1 else
                       ff.zeros(len(c._blocks[i].values), len(c._blocks[j].values))
                       for j in degrees] for i in degrees])

    # basis of (im d) cap C^lam per level: solve for image vectors supported in C^lam
    boundaries_at = []
    for lam in values:
        outside = cell_level > lam
        ker = ff.kernel_basis(image[outside, :], p) if outside.any() else ff.eye(len(cell_level))
        inter = ff.matmul(image, ker, p)
        if inter.any():
            boundaries_at.append((lam, inter))

    def feasible(alpha: float) -> bool:
        for lam, inter in boundaries_at:
            # value - lam <= alpha, not value <= lam + alpha: the candidate
            # alphas are exactly these differences, so compare the same way
            target = image[:, cell_level - lam <= alpha]
            # inter lies in the span of target iff none of its columns is a pivot
            pivots = ff.pivot_columns(np.hstack([target, inter]), p)
            if pivots and pivots[-1] >= target.shape[1]:
                return False
        return True

    # target only gains columns as alpha grows, so feasibility is upward
    # closed; at the largest candidate every target is the whole image
    candidates = sorted({0.0} | {b - a for a in values for b in values if b > a})
    return candidates[bisect.bisect_left(candidates, True, hi=len(candidates) - 1, key=feasible)]


def homology_slice_bases(c: FilteredComplex, degree: int):
    """Per filtration level: (cycle-representative basis, transition, class
    map) of H_degree(C^{<=level}); the rows are the degree-k cells entered
    by then, a prefix of the cells in reduction order.  The class map sends
    a degree-k cycle on those rows to the coordinates of its class on the
    representatives, and the transition is the class map applied to the
    previous level's representatives.

    The representatives are the cycles among the pivot columns of
    [boundaries | cycles], a choice that homology_module and the
    equivariant machinery both rely on; the boundaries, read from the
    block of d_{k+1}, are reduced inside the class map.  A level at which
    no cell of degree k or k+1 enters repeats the previous level's slice
    with the identity.
    """
    p, levels = c.p, c.filtration_values()
    # faces enter no later than their cells, so each level's cycles are a
    # corner of one kernel basis, whose vectors are the identity on the free
    # rows: a cycle's (or boundary's) coordinates on it are its entries there
    kernel = ff.kernel_basis(_dense(c, degree), p)
    free = np.where(kernel != 0, np.arange(len(kernel))[:, None], -1).max(axis=0, initial=-1)
    # d_{k+1} in kernel coordinates: a row off the free rows reads table's zero last column
    block, at = c._block(degree + 1), np.full(len(kernel), len(free))
    at[free] = np.arange(len(free))
    place, ptr = at[block.rows], block.indptr.tolist()
    # values ascend within a degree, so each level selects a prefix of the
    # cells of degree k and k + 1, and of the kernel basis
    ends_k, ends_kp1 = (np.searchsorted(c._block(k).values, levels, side="right")
                        for k in (degree, degree + 1))
    ends = zip(ends_k.tolist(), ends_kp1.tolist(), np.searchsorted(free, ends_k).tolist())
    # table is the class map on kernel coordinates: the boundaries entered
    # reduce to rows w_l, 1 at their low l (last nonzero entry) and 0 at the
    # other lows; column l is e_l - w_l, and e_l at a kept cycle (diagonal 1)
    out, seen, picked = [], (-1, 0), free[:0]
    table = np.eye(len(free), len(free) + 1, dtype=np.int64, order="F")
    for n_k, n_kp1, m in ends:
        if (n_k, n_kp1) == seen:
            out.append((reps, ff.eye(reps.shape[1]), classes))
            continue
        for a, b in itertools.pairwise(ptr[seen[1]:n_kp1 + 1]):
            # x - sum of x[l] w_l: the boundary x reduced by the rows so far
            col = ff.matmul(table[:, place[a:b]], block.coeffs[a:b], p)
            if (nonzero := col.nonzero()[0]).size:
                # the new row col / col[low], back-substituted (column low's too)
                low = nonzero[-1]
                hit = table[low].nonzero()[0]
                scale = ff.matmul(np.array([[ff.inv_mod(col[low], p)]]), table[low:low + 1, hit], p)
                table[:, hit] = (table[:, hit] - ff.matmul(col[:, None], scale, p)) % p
        seen, now = (n_k, n_kp1), table.diagonal()[:m].nonzero()[0]
        classes = ff.zeros(len(now), n_k)
        classes[:, free[:m]] = coords = table[now, :m]
        # the previous level's representatives are the cycles picked there
        transition, picked, reps = coords[:, picked], now, kernel[:n_k, now]
        out.append((reps, transition, classes))
    return out


def homology_module(c: FilteredComplex, degree: int) -> ModuleRep:
    """Persistence module of H_degree over the filtration, with
    inclusion-induced maps; independent of the reduction route."""
    return _module_of_slices(c, homology_slice_bases(c, degree))


def _module_of_slices(c: FilteredComplex, slices) -> ModuleRep:
    """The homology module in the bases homology_slice_bases chose."""
    return ModuleRep(c.filtration_values(), [0] + [reps.shape[1] for reps, _, _ in slices],
                     [transition for _, transition, _ in slices], c.p)


def random_filtered_complex(rng, max_cells: int = 30, max_degree: int = 2,
                            p: int = ff.DEFAULT_P) -> FilteredComplex:
    """Random abstract filtered complex with d*d = 0 by construction:
    each new cell's boundary is a random cycle among older cells of the
    degree below, and its value dominates the cycle's support."""
    cells: list[Cell] = []
    boundary: dict = {}
    by_degree: dict[int, list[Cell]] = {k: [] for k in range(max_degree + 1)}
    n = rng.randint(1, max_cells)
    for i in range(n):
        k = rng.randint(0, max_degree)
        if k == 0:
            cell = Cell(f"c{i}", 0, round(rng.uniform(0, 10), 3))
            cells.append(cell)
            by_degree[0].append(cell)
            boundary[cell.id] = {}
            continue
        below = by_degree[k - 1]
        if not below:
            continue
        # boundary = random element of ker(d_{k-1})
        if k >= 2:
            rows = {cell.id: t for t, cell in enumerate(by_degree[k - 2])}
            d = ff.zeros(len(rows), len(below))
            for j, x in enumerate(below):
                for f, v in boundary[x.id].items():
                    d[rows[f], j] = v
            ker = ff.kernel_basis(d, p)
        else:
            ker = ff.eye(len(below))
        if ker.shape[1] == 0:
            continue
        pick = np.array([[rng.randrange(p)] for _ in range(ker.shape[1])])
        coeffs = ff.matmul(ker, pick, p)[:, 0]
        support = {below[t].id: int(coeffs[t]) for t in range(len(below)) if coeffs[t]}
        base = max((c2.value for c2 in below if c2.id in support), default=0.0)
        cell = Cell(f"c{i}", k, round(base + rng.uniform(0, 3), 3))
        cells.append(cell)
        by_degree[k].append(cell)
        boundary[cell.id] = support
    return FilteredComplex(cells, boundary, p)
