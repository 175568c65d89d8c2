"""
Cyclic-group actions on persistence modules: eigenspace sub-barcodes,
the complex-structure parity obstruction and the Z4 lower bound.

Eigenspace arguments need -1 != 1 and, for order-4 checks, a square root
of -1, so representations live over an odd characteristic; F_5 works
(2^2 = 4 = -1) and is the default.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import field as ff
from .barcode import Bar, Barcode, mu_odd
from .filtered_complex import FilteredComplex, _module_of_slices, homology_slice_bases
from .module_rep import ModuleRep, _restrict, barcode

DEFAULT_REP_P = 5


class EquivarianceError(ValueError):
    """Action fails to commute with the transition maps."""


@dataclass
class ModuleRepWithAction:
    """A persistence module with a per-slice action of Z_g."""

    rep: ModuleRep
    order: int
    action: list[np.ndarray]

    def __post_init__(self):
        if self.rep.p == 2:
            raise ValueError("representations need odd characteristic "
                             "(eigenvalue -1 must differ from 1)")
        if self.order < 1:
            raise ValueError("group order must be >= 1")
        if len(self.action) != len(self.rep.dims):
            raise ValueError("need one action matrix per interval")
        for i, rho in enumerate(self.action):
            if rho.shape != (self.rep.dims[i], self.rep.dims[i]):
                raise ValueError(f"action slice {i} has wrong shape")

    @property
    def p(self) -> int:
        return self.rep.p


def verify_representation(r: ModuleRepWithAction) -> bool:
    """rho^order = 1 on every slice and rho commutes with the maps."""
    p = r.p
    for i, rho in enumerate(r.action):
        power = ff.eye(rho.shape[0])
        for _ in range(r.order):
            power = ff.matmul(rho, power, p)
        if not np.array_equal(power, ff.eye(rho.shape[0])):
            return False
    for i in range(len(r.rep.spectrum)):
        left = ff.matmul(r.action[i + 1], r.rep.maps[i], p)
        right = ff.matmul(r.rep.maps[i], r.action[i], p)
        if not np.array_equal(left, right):
            return False
    return True


def eigenspace_submodule(r: ModuleRepWithAction, xi: int) -> ModuleRep:
    """Subrepresentation on ker(rho - xi) slice by slice; well-defined
    because the action commutes with the transition maps."""
    p = r.p
    if pow(int(xi) % p, r.order, p) != 1:
        raise ValueError(f"{xi} is not an order-{r.order} root of unity mod {p}")
    bases = [ff.kernel_basis(np.mod(rho - int(xi) % p * ff.eye(rho.shape[0]), p), p)
             for rho in r.action]
    try:
        return _restrict(r.rep, bases)
    except ValueError:
        raise EquivarianceError("transition leaves the eigenspace") from None


def even_multiplicity_check(b: Barcode) -> bool:
    """True iff the number of bars over every window between consecutive
    endpoint values is even (the complex-structure parity condition)."""
    ends = sorted({e for bar in b.bars for e in (bar.birth, bar.death)})
    for i, lo in enumerate(ends):
        for hi in ends[i + 1:]:
            count = sum(1 for bar in b.bars if bar.birth <= lo and hi <= bar.death)
            if count % 2:
                return False
    return True


def z4_obstruction_bound(r: ModuleRepWithAction) -> float:
    """mu_odd of the (-1)-eigenspace barcode: a lower bound for the
    Z2-interleaving distance from r to every Z4-induced involution."""
    if r.order != 2:
        raise ValueError("the obstruction is defined for involutions (order 2)")
    if not verify_representation(r):
        raise EquivarianceError("input is not a persistence representation")
    minus_one = r.p - 1
    return mu_odd(barcode(eigenspace_submodule(r, minus_one)))


# ---------------------------------------------------------------------------
# actions coming from cell symmetries of filtered complexes


def simplicial_action_map(c: FilteredComplex, vertex_map: dict) -> dict:
    """Signed cell map induced by a vertex permutation on a simplicial
    filtered complex (cells are sorted vertex tuples).

    Reordering the image vertices contributes the permutation sign, which
    matters over odd characteristic.
    """
    p = c.p
    out = {}
    for cell in c.cells:
        image = [vertex_map[v] for v in cell.id]
        order = sorted(range(len(image)), key=lambda t: image[t])
        sign = 1
        seen = [False] * len(order)
        for start in range(len(order)):
            if seen[start]:
                continue
            length, t = 0, start
            while not seen[t]:
                seen[t] = True
                t = order[t]
                length += 1
            if length % 2 == 0:
                sign = -sign
        out[cell.id] = (tuple(sorted(image)), sign % p)
    return out


def action_from_cell_map(c: FilteredComplex, cell_map: dict, degree: int,
                         order: int) -> ModuleRepWithAction:
    """Push a (signed) cell permutation through homology.

    cell_map sends a cell id to (image id, coefficient); plain image ids
    mean coefficient 1.  The map must be a filtration-preserving chain
    map; its action on each homology slice is computed in the same bases
    as homology_module, so the result pairs with that module.
    """
    p = c.p
    norm = {}
    for k, v in cell_map.items():
        norm[k] = v if isinstance(v, tuple) else (v, 1)
    cells = {k: c.cells_of_degree(k) for k in c._blocks}
    where = {cell.id: (cell, i) for same in cells.values() for i, cell in enumerate(same)}
    columns = {k: b.columns() for k, b in c._blocks.items()}
    for cid, (img, coeff) in norm.items():
        if where[cid][0].degree != where[img][0].degree:
            raise ValueError("cell map must preserve degree")
        if where[cid][0].value != where[img][0].value:
            raise ValueError("cell map must preserve the filtration")
    # chain map check: d(T e) = T(d e), on the boundary columns
    for cid, (img, coeff) in norm.items():
        (cell, i), j = where[cid], where[img][1]
        col, faces = columns[cell.degree], cells.get(cell.degree - 1)
        diff = {r: coeff * v for r, v in col[j].items()}
        for r, v in col[i].items():
            fi, fc = norm[faces[r].id]
            row = where[fi][1]
            diff[row] = diff.get(row, 0) - v * fc
        if any(x % p for x in diff.values()):
            raise EquivarianceError(f"cell map is not a chain map at {cid}")

    slices = homology_slice_bases(c, degree)
    cells_k = cells.get(degree, [])
    perm = ff.zeros(len(cells_k), len(cells_k))
    for i, cell in enumerate(cells_k):
        img, coeff = norm[cell.id]
        perm[where[img][1], i] = coeff % p

    # express the action in the exact homology bases of homology_module
    action = [ff.zeros(0, 0)]
    for reps, bnd, sel in slices:
        if reps.shape[1] == 0:
            action.append(ff.zeros(0, 0))
            continue
        sub_perm = perm[np.ix_(sel, sel)]
        mapped = ff.matmul(sub_perm, reps, p)
        sol = ff.solve(np.hstack([bnd, reps]), mapped, p)
        action.append(sol[bnd.shape[1]:, :])
    return ModuleRepWithAction(_module_of_slices(c, slices), order, action)
