"""
Filtered chain complexes with a preferred basis and their barcodes via
triangular (Barannikov-style) reduction.

Cells are sorted degree-major, then by filtration value, then by id, so
the boundary operator is strictly upper triangular.  The reduction works
degree by degree and produces a graded Jordan pairing: within degree k a
set of paired cells mapping injectively onto degree k-1 cells, the rest
closing cycles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import field as ff
from .barcode import Bar, Barcode
from .module_rep import ModuleRep

INF = math.inf


class InvalidComplexError(ValueError):
    """Boundary fails to square to zero or raises the filtration."""


@dataclass(frozen=True)
class Cell:
    id: object
    degree: int
    value: float


@dataclass
class FilteredComplex:
    """Graded cells with filtration values and a field-coefficient boundary.

    boundary maps a cell id to {face id: coefficient}; faces must live in
    the degree right below and at a filtration value <= the cell's own.
    cells and boundary are read once, at construction, which validates
    them and stores what every consumer reads: per degree, the cells in
    reduction order and their boundary columns {row: coeff mod p} (rows
    index the degree below), and a map id -> (cell, index in its degree).
    """

    cells: list[Cell]
    boundary: dict
    p: int = ff.DEFAULT_P

    def __post_init__(self):
        ff.check_characteristic(self.p)
        p = self.p
        cells_of: dict[int, list[Cell]] = {}
        where: dict = {}  # cell id -> (cell, index within its degree)
        for cell in sorted(self.cells, key=_order_key):
            same = cells_of.setdefault(cell.degree, [])
            where[cell.id] = (cell, len(same))
            same.append(cell)
        if len(where) != len(self.cells):
            raise InvalidComplexError("duplicate cell ids")
        columns = {k: [None] * len(same) for k, same in cells_of.items()}
        for c in self.cells:
            col = {}
            for face_id, coeff in self.boundary.get(c.id, {}).items():
                hit = where.get(face_id)
                if hit is None:
                    raise InvalidComplexError(f"boundary of {c.id} hits unknown cell {face_id}")
                face, row = hit
                if face.degree != c.degree - 1:
                    raise InvalidComplexError(
                        f"boundary of {c.id} (degree {c.degree}) hits degree {face.degree}")
                if face.value > c.value:
                    raise InvalidComplexError(
                        f"filtration increases along boundary of {c.id}")
                if coeff % p:
                    col[row] = coeff % p
            columns[c.degree][where[c.id][1]] = col
        for c in self.cells:
            below = columns.get(c.degree - 1)
            acc: dict = {}
            for row, coeff in columns[c.degree][where[c.id][1]].items():
                for r2, c2 in below[row].items():
                    acc[r2] = (acc.get(r2, 0) + coeff * c2) % p
            if any(acc.values()):
                raise InvalidComplexError(f"d(d({c.id})) != 0")
        self._degree_cells, self._degree_columns, self._where = cells_of, columns, where

    @property
    def max_degree(self) -> int:
        return max(self._degree_cells, default=-1)

    def n_cells(self) -> int:
        return len(self.cells)

    def filtration_values(self) -> list[float]:
        return sorted({c.value for c in self.cells})

    def cells_of_degree(self, k: int) -> list[Cell]:
        """Cells of degree k in reduction order (value, then id)."""
        return list(self._degree_cells.get(k, []))


def _order_key(cell: Cell):
    """Reduction order: degree-major, then filtration value, then id."""
    return (cell.degree, cell.value, str(type(cell.id)), repr(cell.id))


@dataclass
class JordanPairing:
    """Output of the triangular reduction.

    order[k] lists the degree-k cell ids in reduction order; pairing[k]
    maps the index of a paired degree-k cell to the index of its partner
    in degree (k-1); unpaired[k] are the cycle-closing indices that are
    not hit from above.  basis[k][j], when tracked, gives the triangular
    change of basis as {index: coeff} over the original degree-k cells.
    """

    order: dict[int, list]
    values: dict[int, list[float]]
    pairing: dict[int, dict[int, int]]
    unpaired: dict[int, list[int]]
    basis: Optional[dict[int, list[dict[int, int]]]] = None


def _dense(columns: list[dict[int, int]], n_rows: int) -> np.ndarray:
    m = ff.zeros(n_rows, len(columns))
    for j, col in enumerate(columns):
        for r, v in col.items():
            m[r, j] = v
    return m


def _bits(mask: int) -> dict[int, int]:
    out = {}
    while mask:
        low_bit = mask & -mask
        out[low_bit.bit_length() - 1] = 1
        mask ^= low_bit
    return out


def _subtract(col: dict[int, int], other: dict[int, int], lam: int, p: int) -> None:
    """col -= lam * other over F_p, in place, dropping zero entries."""
    for r, v in other.items():
        nv = (col.get(r, 0) - lam * v) % p
        if nv:
            col[r] = nv
        else:
            col.pop(r, None)


def _reduce(columns: list[dict[int, int]], p: int, want_basis: bool):
    """Low-driven column reduction over F_p: each column in turn subtracts
    earlier reduced columns until its lowest row is new, and pairs with
    that row, or it vanishes.  Over F_2 columns are bitmasks and each
    subtraction is one xor; otherwise copies of the {row: coeff} columns
    are reduced in place, so the input columns are never changed.

    Returns (pairing, reduced, basis): pairing maps column j to its lowest
    row.  With want_basis, reduced[j] is the reduced column and basis[j]
    the triangular combination of input columns that gives it, both as
    {index: coeff}; without it both are None.
    """
    low_to_col: dict[int, int] = {}
    if p == 2:
        cols = [sum(1 << r for r in col) for col in columns]
        basis = [1 << j for j in range(len(cols))] if want_basis else None
        for j in range(len(cols)):
            col = cols[j]
            while col:
                low = col.bit_length() - 1
                i = low_to_col.get(low)
                if i is None:
                    low_to_col[low] = j
                    break
                col ^= cols[i]
                if want_basis:
                    basis[j] ^= basis[i]
            cols[j] = col
        if want_basis:
            cols, basis = [_bits(m) for m in cols], [_bits(m) for m in basis]
    else:
        cols = [dict(col) for col in columns]
        basis = [{j: 1} for j in range(len(cols))] if want_basis else None
        for j, col in enumerate(cols):
            while col:
                low = max(col)
                i = low_to_col.get(low)
                if i is None:
                    low_to_col[low] = j
                    break
                lam = (col[low] * ff.inv_mod(cols[i][low], p)) % p
                _subtract(col, cols[i], lam, p)
                if want_basis:
                    _subtract(basis[j], basis[i], lam, p)
    pairing = {j: low for low, j in low_to_col.items()}
    return pairing, (cols if want_basis else None), basis


def barannikov_reduce(c: FilteredComplex, want_basis: bool = True) -> JordanPairing:
    """Triangular change of basis bringing the filtered boundary to
    Jordan form, degree by degree.

    The recursion subtracts the already-paired part of each new column
    and pairs what survives with its maximal-index term; that is exactly
    the low-driven column reduction of _reduce.
    """
    order: dict[int, list] = {}
    values: dict[int, list[float]] = {}
    pairing: dict[int, dict[int, int]] = {}
    basis: Optional[dict[int, list[dict[int, int]]]] = {} if want_basis else None
    for k in range(c.max_degree + 1):
        cells = c._degree_cells.get(k, [])
        order[k] = [cell.id for cell in cells]
        values[k] = [cell.value for cell in cells]
        pairing[k], reduced, basis_k = _reduce(c._degree_columns.get(k, []), c.p, want_basis)
        if want_basis:
            basis[k] = basis_k
            # replacement step: the partner's basis vector becomes d(f_j)
            for j, low in pairing[k].items():
                basis[k - 1][low] = reduced[j]

    unpaired: dict[int, list[int]] = {}
    for k in order:
        hit_from_above = set(pairing.get(k + 1, {}).values())
        unpaired[k] = [j for j in range(len(order[k]))
                       if j not in pairing[k] and j not in hit_from_above]
    return JordanPairing(order, values, pairing, unpaired, basis)


def barcode_of_complex(c: FilteredComplex) -> Barcode:
    """Degree-tagged barcode of the homology persistence module.

    Pairs with equal filtration values produce no bar (non-essential);
    cycle classes never hit from above become rays.
    """
    jp = barannikov_reduce(c, want_basis=False)
    bars: list[Bar] = []
    for k in sorted(jp.order):
        for j, low in jp.pairing.get(k, {}).items():
            a = jp.values[k - 1][low]
            b = jp.values[k][j]
            if a < b:
                bars.append(Bar(a, b, degree=k - 1))
        for j in jp.unpaired[k]:
            bars.append(Bar(jp.values[k][j], INF, degree=k))
    return Barcode(sorted(bars))


def boundary_depth_usher(c: FilteredComplex) -> float:
    """Usher's b(C, d): smallest alpha such that boundaries entering at
    level lam are boundaries of chains of level <= lam + alpha, checked
    directly over the finite filtration-value set."""
    p = c.p
    values = c.filtration_values()
    if not values:
        return 0.0
    # all cells in degree-major reduction order, rows offset to match
    offset: dict[int, int] = {}
    cells: list[Cell] = []
    for k in sorted(c._degree_cells):
        offset[k] = len(cells)
        cells += c._degree_cells[k]
    image = _dense([{offset[k - 1] + r: v for r, v in col.items()}
                    for k in offset for col in c._degree_columns[k]], len(cells))
    cell_level = np.array([cell.value for cell in cells])

    # basis of (im d) cap C^lam per level: solve for image vectors supported in C^lam
    boundaries_at = []
    for lam in values:
        outside = cell_level > lam
        ker = ff.kernel_basis(image[outside, :], p) if outside.any() else ff.eye(len(cells))
        inter = ff.matmul(image, ker, p)
        if inter.any():
            boundaries_at.append((lam, inter))

    def feasible(alpha: float) -> bool:
        for lam, inter in boundaries_at:
            # value - lam <= alpha, not value <= lam + alpha: the candidate
            # alphas are exactly these differences, so compare the same way
            target = image[:, cell_level - lam <= alpha]
            # inter lies in the span of target iff appending it keeps the rank
            if ff.rank(np.hstack([target, inter]), p) != ff.rank(target, p):
                return False
        return True

    # target only gains columns as alpha grows, so feasibility is upward
    # closed; at the largest candidate every target is the whole image
    candidates = sorted({0.0} | {b - a for a in values for b in values if b > a})
    lo, hi = 0, len(candidates) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(candidates[mid]):
            hi = mid
        else:
            lo = mid + 1
    return candidates[lo]


def homology_slice_bases(c: FilteredComplex, degree: int):
    """Per filtration level: (cycle-representative basis, boundary basis,
    selected degree-k cell indices) of H_degree(C^{<=level}).

    The representatives complete the boundary basis to a basis of the
    cycle space; homology_module and the equivariant machinery both rely
    on this exact basis choice.
    """
    p = c.p
    cells_k = c._degree_cells.get(degree, [])
    cells_km1 = c._degree_cells.get(degree - 1, [])
    cells_kp1 = c._degree_cells.get(degree + 1, [])
    d_k = _dense(c._degree_columns.get(degree, []), len(cells_km1))
    d_kp1 = _dense(c._degree_columns.get(degree + 1, []), len(cells_k))
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
        # a column is a pivot of [bnd | cycles] exactly when it lies outside
        # the span of the columns before it
        piv = np.array(ff.row_echelon(np.hstack([bnd, cycles]), p)[1], dtype=int)
        nb = bnd.shape[1]
        out.append((cycles[:, piv[piv >= nb] - nb], bnd[:, piv[piv < nb]], sel_k))
    return out


def homology_module(c: FilteredComplex, degree: int) -> ModuleRep:
    """Persistence module of H_degree over the filtration, with
    inclusion-induced maps; independent of the reduction route."""
    return _module_of_slices(c, homology_slice_bases(c, degree))


def _module_of_slices(c: FilteredComplex, reps_by_level) -> ModuleRep:
    """The homology module in the bases homology_slice_bases chose."""
    p = c.p
    levels = c.filtration_values()
    dims = [0] + [reps.shape[1] for reps, _, _ in reps_by_level]
    maps = [ff.zeros(dims[1], 0)]
    for t in range(len(levels) - 1):
        reps_s, _, sel_s = reps_by_level[t]
        reps_t, bnd_t, sel_t = reps_by_level[t + 1]
        m = ff.zeros(dims[t + 2], dims[t + 1])
        if dims[t + 1] and dims[t + 2]:
            pos = {g: i for i, g in enumerate(sel_t)}
            lift = ff.zeros(len(sel_t), reps_s.shape[1])
            lift[[pos[g] for g in sel_s]] = reps_s
            sol = ff.solve(np.hstack([bnd_t, reps_t]), lift, p)
            m = sol[bnd_t.shape[1]:, :]
        elif dims[t + 1] and not dims[t + 2]:
            m = ff.zeros(0, dims[t + 1])
        maps.append(m)
    return ModuleRep(list(levels), dims, maps, p)


# ---------------------------------------------------------------------------
# text format: one line per cell `id degree u : id1 id2 ...` (coefficients
# implicit 1 over F_2, `id:coeff` pairs for odd characteristic)


def parse_complex(text: str, p: int = ff.DEFAULT_P) -> FilteredComplex:
    cells: list[Cell] = []
    boundary: dict = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, _, tail = line.partition(":")
        parts = head.split()
        if len(parts) != 3:
            raise ValueError(f"line {ln}: expected `id degree u : faces`")
        cid, deg_s, u_s = parts
        try:
            deg, u = int(deg_s), float(u_s)
        except ValueError as e:
            raise ValueError(f"line {ln}: {e}") from None
        bd = {}
        for tok in tail.split():
            if ":" in tok:
                fid, coeff_s = tok.rsplit(":", 1)
                try:
                    bd[fid] = int(coeff_s) % p
                except ValueError:
                    raise ValueError(f"line {ln}: bad coefficient in {tok!r}") from None
            else:
                bd[tok] = (bd.get(tok, 0) + 1) % p
        cells.append(Cell(cid, deg, u))
        boundary[cid] = bd
    return FilteredComplex(cells, boundary, p)


def format_complex(c: FilteredComplex) -> str:
    lines = []
    for k in sorted(c._degree_cells):
        for cell, col in zip(c._degree_cells[k], c._degree_columns[k]):
            bd = sorted(((c._degree_cells[k - 1][r].id, v) for r, v in col.items()),
                        key=lambda t: str(t[0]))
            # over F_2 every stored coefficient is 1, so it is left implicit
            faces = " ".join(str(f) if c.p == 2 else f"{f}:{v}" for f, v in bd)
            lines.append(f"{cell.id} {cell.degree} {cell.value!r} : {faces}".rstrip())
    return "\n".join(lines) + "\n"


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
            ker = ff.kernel_basis(_dense([{rows[f]: v for f, v in boundary[x.id].items()}
                                          for x in below], len(rows)), p)
        else:
            ker = ff.eye(len(below))
        if ker.shape[1] == 0:
            continue
        coeffs = np.mod(ker @ np.array([rng.randrange(p) for _ in range(ker.shape[1])]), p)
        support = {below[t].id: int(coeffs[t]) for t in range(len(below)) if coeffs[t]}
        base = max((c2.value for c2 in below if c2.id in support), default=0.0)
        cell = Cell(f"c{i}", k, round(base + rng.uniform(0, 3), 3))
        cells.append(cell)
        by_degree[k].append(cell)
        boundary[cell.id] = support
    return FilteredComplex(cells, boundary, p)
