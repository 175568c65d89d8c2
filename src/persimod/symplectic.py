"""
Closed-form symplectic quantities: rotation-path Conley-Zehnder indices,
filtered-homology degrees of round ellipsoids, their degree-0 proper
bars and the induced lower bounds on the coarse domain distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .barcode import Bar, Barcode, bottleneck_distance

INF = math.inf


class DegeneratePathError(ValueError):
    """Rotation number (or action window) sits on the degeneracy locus."""


def cz_rotation_index(alpha: float) -> int:
    """Index of the rotation path generated by pi*alpha*|z|^2 on the
    plane: 2 floor(alpha) + 1 for alpha > 0, -2 |ceil(alpha)| - 1 below."""
    if alpha == int(alpha):
        raise DegeneratePathError(f"integer rotation number {alpha} is degenerate")
    if alpha > 0:
        return 2 * math.floor(alpha) + 1
    return -2 * abs(math.ceil(alpha)) - 1


def normalized_index(mu_cz: int, n: int) -> int:
    """Grading normalisation: n - mu_cz."""
    return n - mu_cz


@dataclass(frozen=True)
class EllipsoidSpec:
    """Round ellipsoid E(r, rN, ..., rN) in complex dimension n."""

    r: float
    N: float = 1.0
    n: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.r) and math.isfinite(self.N)):
            raise ValueError("capacity and aspect must be finite")
        if self.r <= 0:
            raise ValueError("first capacity must be positive")
        if self.N < 1:
            raise ValueError("aspect must be >= 1")
        if self.n < 1:
            raise ValueError("complex dimension must be >= 1")


def ellipsoid_sh_degree(a: float, n: int, N: float) -> int:
    """The unique degree carrying the rank-one filtered homology of
    E(1, N, .., N) in the window (a, inf):
    -2|ceil(-a)| - 2(n-1)|ceil(-a/N)|."""
    if a <= 0:
        raise ValueError("window parameter must be positive")
    if a == int(a) or (a / N) == int(a / N):
        raise DegeneratePathError(f"window {a} touches the action spectrum")
    return -2 * abs(math.ceil(-a)) - 2 * (n - 1) * abs(math.ceil(-a / N))


def ellipsoid_sh_degree_via_cz(a: float, n: int, N: float) -> int:
    """Same degree through the per-coordinate rotation indices of the
    near-maximum quadratic model (rotation numbers a and a/N)."""
    mu = cz_rotation_index(a) + (n - 1) * cz_rotation_index(a / N)
    return normalized_index(mu, n)


def ellipsoid_degree0_bar(e: EllipsoidSpec) -> Bar:
    """Degree-0 proper bar: (-inf, 0] for the unit ellipsoid, shifted by
    ln r under rescaling.  The source interval is open at its right end;
    it is stored right-closed since all downstream costs are
    endpoint-metric and never see the difference."""
    return Bar(-INF, math.log(e.r), degree=0)


def sbm_lower_bound(e1: EllipsoidSpec, e2: EllipsoidSpec) -> float:
    """Coarse-distance lower bound: bottleneck distance of the degree-0
    barcodes, which comes to |ln r1 - ln r2|."""
    if e1.n != e2.n:
        raise ValueError("lower bound needs equal complex dimensions")
    b1 = Barcode([ellipsoid_degree0_bar(e1)])
    b2 = Barcode([ellipsoid_degree0_bar(e2)])
    return bottleneck_distance(b1, b2)
