"""
Cyclic-group actions on persistence modules: eigenspace sub-barcodes,
the complex-structure parity obstruction and the Z4 lower bound.

Eigenspace arguments need -1 != 1 and, for order-4 checks, a square root
of -1, so representations live over an odd characteristic; F_5 works
(2^2 = 4 = -1).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import field as ff
from .barcode import Bar, Barcode, mu_odd
from .filtered_complex import FilteredComplex, _dense, _module_of_slices, homology_slice_bases
from .module_rep import ModuleRep, _restrict, barcode

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
    """True iff, for every pair lo < hi of endpoint values (consecutive or
    not), an even number of bars cover (lo, hi] (the complex-structure
    parity condition).  By inclusion-exclusion over those windows this
    holds exactly when every (birth, death) occurs an even number of
    times, which is what is counted."""
    return all(n % 2 == 0 for n in Counter((bar.birth, bar.death) for bar in b.bars).values())


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

    Reordering the image vertices contributes the permutation sign, the
    parity of its inversions, which matters over odd characteristic.
    """
    out = {}
    for cell in c.cells:
        image = [vertex_map[v] for v in cell.id]
        inversions = sum(a > b for a, b in itertools.combinations(image, 2))
        out[cell.id] = (tuple(sorted(image)), (-1) ** inversions % c.p)
    return out


def action_from_cell_map(c: FilteredComplex, cell_map: dict, degree: int,
                         order: int) -> ModuleRepWithAction:
    """Push a signed cell map through homology.

    cell_map sends every cell id to (image id, coefficient) or to a plain
    image id, meaning coefficient 1; a value that is itself a cell id is
    read as a plain image, so vertex-tuple ids of built complexes work in
    both forms.  Any filtration-preserving chain map that sends each cell
    to a multiple of one cell will do, not only a permutation.  Its action
    on each homology slice is computed in the same bases as homology_module,
    so the result pairs with that module.
    """
    p = c.p
    dtype = np.int64 if p < 2 ** 31 else object    # products past 2^63 need Python ints
    where = {cell.id: (cell, i) for k in c._blocks for i, cell in enumerate(c.cells_of_degree(k))}
    image = {k: np.zeros(len(c._block(k).values), np.int64) for k in {*c._blocks, degree}}
    coeff = {k: np.zeros(len(rows), dtype) for k, rows in image.items()}    # the products' dtype
    for cid, v in cell_map.items():
        img, a = v if isinstance(v, tuple) and v not in where else (v, 1)
        (cell, i), (target, j) = where[cid], where[img]
        if cell.degree != target.degree:
            raise ValueError("cell map must preserve degree")
        if cell.value != target.value:
            raise ValueError("cell map must preserve the filtration")
        image[cell.degree][i], coeff[cell.degree][i] = j, int(a % p)
    if len(cell_map) < len(where):
        raise KeyError(next(cid for cid in where if cid not in cell_map))

    def push(k: int, m: np.ndarray) -> np.ndarray:
        """T_k m for m on the first len(m) cells of degree k; shared images add up."""
        out = np.zeros(m.shape, dtype)
        np.add.at(out, image[k][:len(m)], coeff[k][:len(m), None] * m % p)
        return (out % p).astype(np.int64)
    # chain map check: d_k T_k = T_{k-1} d_k, T_k a column gather
    for k in (k for k in c._blocks if k - 1 in c._blocks):
        d = _dense(c, k)
        bad = (d[:, image[k]] * coeff[k] % p != push(k - 1, d)).any(axis=0)
        if bad.any():
            raise EquivarianceError(
                f"cell map is not a chain map at {c.cells_of_degree(k)[bad.argmax()].id}")
    # each slice's class map read on the images of its representatives
    slices = homology_slice_bases(c, degree)
    action = [ff.matmul(classes, push(degree, reps), p) for reps, _, _, classes in slices]
    return ModuleRepWithAction(_module_of_slices(c, slices), order, [ff.zeros(0, 0)] + action)
