"""
Function-theoretic invariants of barcodes: discrete norms, the torus
length inequality, the circle total-variation identity, alternance and
perturbation bounds.

Grid quadrature stands in for the smooth objects; the error is O(h^2)
for smooth inputs and every inequality check carries an explicit slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .barcode import Barcode, ell, nu
from .complexes import GridFunction, circle_complex, torus_grid_complex
from .filtered_complex import barcode_of_complex

INF = math.inf


@dataclass
class FunctionNorms:
    sup: float
    l2: float
    laplacian_l2: float
    gradient_sup: float


@dataclass
class TrigPolynomial2D:
    """Real trig polynomial sum of a_{n} cos(n1 x1 + n2 x2) +
    b_{n} sin(n1 x1 + n2 x2) over frequencies with n1^2 + n2^2 <= lam."""

    coeffs: dict[tuple[int, int], tuple[float, float]]
    lam: float

    def __post_init__(self):
        for (n1, n2) in self.coeffs:
            if n1 * n1 + n2 * n2 > self.lam:
                raise ValueError(f"frequency {(n1, n2)} exceeds the cap {self.lam}")

    def __call__(self, x1, x2):
        out = np.zeros(np.broadcast(x1, x2).shape)
        for (n1, n2), (a, b) in self.coeffs.items():
            phase = n1 * np.asarray(x1) + n2 * np.asarray(x2)
            out = out + a * np.cos(phase) + b * np.sin(phase)
        return out

    def on_grid(self, n: int) -> GridFunction:
        """Samples on the n x n grid of the 2 pi torus."""
        xs = 2 * math.pi * np.arange(n) / n
        return GridFunction(self(xs[:, None], xs[None, :]))


def random_trig_polynomial(rng, lam: float) -> TrigPolynomial2D:
    """Random polynomial in T_lam with coefficients uniform in [-1, 1].

    Frequencies (0,0) aside, only one of each +-n pair is kept (the other
    is redundant for real polynomials).
    """
    coeffs = {}
    cap = int(math.isqrt(int(lam)))
    for n1 in range(-cap, cap + 1):
        for n2 in range(-cap, cap + 1):
            if n1 * n1 + n2 * n2 > lam or (n1, n2) <= (0, 0):
                continue
            coeffs[(n1, n2)] = (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
    return TrigPolynomial2D(coeffs, lam)


def grid_norms(g: GridFunction) -> FunctionNorms:
    """Midpoint-rule uniform and L2 norms plus the 5-point Laplacian."""
    v = g.values
    hx = g.period / g.nx
    hy = g.period / g.ny
    area = hx * hy
    lap = ((np.roll(v, -1, 0) - 2 * v + np.roll(v, 1, 0)) / hx ** 2
           + (np.roll(v, -1, 1) - 2 * v + np.roll(v, 1, 1)) / hy ** 2)
    gx = (np.roll(v, -1, 0) - np.roll(v, 1, 0)) / (2 * hx)
    gy = (np.roll(v, -1, 1) - np.roll(v, 1, 1)) / (2 * hy)
    return FunctionNorms(
        sup=float(np.abs(v).max()),
        l2=float(math.sqrt((v ** 2).sum() * area)),
        laplacian_l2=float(math.sqrt((lap ** 2).sum() * area)),
        gradient_sup=float(np.sqrt(gx ** 2 + gy ** 2).max()),
    )


def barcode_range(b: Barcode) -> tuple[float, float]:
    """[min f, max f] recovered from a sublevel barcode: smallest birth to
    largest critical value (finite death or ray birth)."""
    births = [bar.birth for bar in b.bars if bar.birth > -INF]
    tops = [bar.death for bar in b.bars if bar.death < INF] + births
    if not births:
        return 0.0, 0.0
    return min(births), max(tops)


def total_length(b: Barcode) -> float:
    """ell over the barcode's own range."""
    lo, hi = barcode_range(b)
    return ell(b, lo, hi)


def verify_length_inequality(g: GridFunction, slack: float = 0.0) -> dict:
    """Check ell(f) <= 3 (||f||_2 + ||Delta f||_2) (1 + slack) on the
    torus pipeline; returns both sides."""
    bc = barcode_of_complex(torus_grid_complex(g))
    lhs = total_length(bc)
    norms = grid_norms(g)
    rhs = 3 * (norms.l2 + norms.laplacian_l2)
    return {"ell": lhs, "rhs": rhs, "slack": slack,
            "holds": lhs <= rhs * (1 + slack), "norms": norms, "barcode": bc}


def circle_ell_identity(samples: Sequence[float]) -> tuple[float, float]:
    """(ell of the cyclic sample barcode, half total variation); the two
    agree exactly for piecewise-monotone cyclic samples."""
    bc = barcode_of_complex(circle_complex(samples))
    lo, hi = min(samples), max(samples)
    lhs = ell(bc, lo, hi)
    tv = sum(abs(float(samples[(i + 1) % len(samples)]) - float(samples[i]))
             for i in range(len(samples)))
    return lhs, tv / 2


def alternance_bound(h_barcode: Barcode, q_crit_count: int, c: float,
                     zeta: int) -> Optional[float]:
    """c/2 when an approximant with q_crit_count critical points is ruled
    out by the bar count: q_crit_count < 2 nu(h, c) + zeta."""
    if c <= 0:
        raise ValueError("need c > 0")
    if q_crit_count < 2 * nu(h_barcode, c) + zeta:
        return c / 2
    return None


def perturbation_inequalities(f_barcode: Barcode, h_barcode: Barcode,
                              sup_diff: float, zeta: int) -> dict:
    """Check ell(f) - ell(h) <= (2 nu(f) + zeta) ||f-h||_0 and
    nu(f, c) >= nu(h, c + 2||f-h||_0) across all candidate thresholds."""
    lf, lh = total_length(f_barcode), total_length(h_barcode)
    nf = nu(f_barcode, 0.0)
    ell_ok = lf - lh <= (2 * nf + zeta) * sup_diff + 1e-12
    lengths = sorted({bar.length for bar in f_barcode.finite_bars()}
                     | {bar.length for bar in h_barcode.finite_bars()} | {0.0})
    cs = [c for L in lengths for c in (max(0.0, L - 2 * sup_diff - 1e-9),
                                       L, L + 1e-9)]
    nu_ok = all(nu(f_barcode, c) >= nu(h_barcode, c + 2 * sup_diff) for c in cs)
    return {"ell_f": lf, "ell_h": lh, "nu_f": nf,
            "ell_bound": (2 * nf + zeta) * sup_diff,
            "ell_holds": ell_ok, "nu_holds": nu_ok}
