"""
Dense exact linear algebra over a prime field F_p (default p = 2).

Matrices pass in and out as numpy int64 arrays with entries reduced
mod p, so p must be below 2^63.  Elimination runs on Python ints, which
are exact for every such p: over F_2 each row is one int whose bit c is
column c, over F_p each row is a list of ints.  It uses a fixed pivot
order (first nonzero entry in column scan) so reduced bases are
reproducible across runs.
"""

from __future__ import annotations

import numpy as np

DEFAULT_P = 2

# Miller-Rabin with these witnesses decides primality for every p < 3.3e24
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(p: int) -> bool:
    if p in _WITNESSES:
        return True
    if p < 2 or any(p % q == 0 for q in _WITNESSES):
        return False
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def check_characteristic(p: int) -> int:
    if p >= 2 ** 63:
        raise ValueError(f"field characteristic must be below 2^63 (entries are int64), got {p}")
    if not is_prime(p):
        raise ValueError(f"field characteristic must be prime, got {p}")
    return p


def asfield(m, p: int = DEFAULT_P) -> np.ndarray:
    """Copy *m* into an int64 array with entries reduced mod p."""
    a = np.array(m, dtype=np.int64)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    return np.mod(a, p)


def inv_mod(x: int, p: int) -> int:
    return pow(int(x) % p, p - 2, p)


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.int64)


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def matmul(a: np.ndarray, b: np.ndarray, p: int = DEFAULT_P) -> np.ndarray:
    """Product over F_p.  Uses object dtype above the int64-safe bound."""
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    # Worst-case accumulator: inner * (p-1)^2 must not overflow int64.
    if a.shape[1] * (p - 1) ** 2 < 2 ** 62:
        return np.mod(a @ b, p)
    return np.mod(a.astype(object) @ b.astype(object), p).astype(np.int64)


def row_echelon(m: np.ndarray, p: int = DEFAULT_P):
    """Row-reduce over F_p.

    Returns (R, pivot_cols) with R in reduced row-echelon form (pivots
    normalised to 1, eliminated above and below).  *m* is not modified.
    """
    r = np.mod(np.array(m, dtype=np.int64), p)
    if r.size == 0:
        return r, []
    if p == 2:
        rows = _pack_rows(r)
        pivot_cols = _eliminate_gf2(rows)
        return _unpack_rows(rows, r.shape[1]), pivot_cols
    rows = r.tolist()
    pivot_cols = _eliminate_fp(rows, p)
    return np.array(rows, dtype=np.int64), pivot_cols


def _eliminate_gf2(rows: list[int]) -> list[int]:
    """Reduce rows packed as ints (bit c = column c) in place; return the pivots."""
    pivot_cols: list[int] = []
    for row in range(len(rows)):
        rest = 0
        for x in rows[row:]:
            rest |= x
        if not rest:
            break
        bit = rest & -rest    # the leftmost column with an entry at or below row
        pr = next(i for i in range(row, len(rows)) if rows[i] & bit)
        rows[row], rows[pr] = rows[pr], rows[row]
        piv = rows[row]
        rows[:] = [x ^ piv if x & bit else x for x in rows]
        rows[row] = piv
        pivot_cols.append(bit.bit_length() - 1)
    return pivot_cols


def _eliminate_fp(rows: list[list[int]], p: int) -> list[int]:
    """Reduce rows of ints in [0, p) in place; return the pivots."""
    pivot_cols: list[int] = []
    row = 0
    for col in range(len(rows[0])):
        if row == len(rows):
            break
        pr = next((i for i in range(row, len(rows)) if rows[i][col]), None)
        if pr is None:
            continue
        rows[row], rows[pr] = rows[pr], rows[row]
        # the pivot row is 0 left of col, so every operation starts at col
        inv = inv_mod(rows[row][col], p)
        piv = [x * inv % p for x in rows[row][col:]]
        rows[row][col:] = piv
        for i, x in enumerate(rows):
            f = x[col]
            if f and i != row:
                x[col:] = [(a - f * b) % p for a, b in zip(x[col:], piv)]
        pivot_cols.append(col)
        row += 1
    return pivot_cols


def _pack_rows(r: np.ndarray) -> list[int]:
    """Rows of a 0/1 matrix with at least one column as ints, bit c = column c."""
    packed = np.packbits(r.astype(np.uint8), axis=1, bitorder="little")
    width, buf = packed.shape[1], packed.tobytes()
    return [int.from_bytes(buf[i:i + width], "little") for i in range(0, len(buf), width)]


def _unpack_rows(rows: list[int], n_cols: int) -> np.ndarray:
    width = (n_cols + 7) // 8
    buf = np.frombuffer(b"".join(x.to_bytes(width, "little") for x in rows), dtype=np.uint8)
    return np.unpackbits(buf.reshape(len(rows), width), axis=1, count=n_cols,
                         bitorder="little").astype(np.int64)


def rank(m: np.ndarray, p: int = DEFAULT_P) -> int:
    """Rank over F_p via Gaussian elimination."""
    return len(pivot_columns(m, p))


def in_span(v: np.ndarray, m: np.ndarray, p: int = DEFAULT_P) -> bool:
    """True iff column vector *v* lies in the column span of *m*."""
    v = np.mod(np.asarray(v, dtype=np.int64).reshape(-1), p)
    if v.shape[0] != m.shape[0]:
        raise ValueError("vector length must equal matrix row count")
    if not v.any():
        return True
    # v is outside the span iff it adds a pivot, which can only be the last column
    pivots = pivot_columns(np.hstack([m, v.reshape(-1, 1)]), p)
    return not pivots or pivots[-1] < m.shape[1]


def kernel_basis(m: np.ndarray, p: int = DEFAULT_P) -> np.ndarray:
    """Columns form a deterministic basis of ker(m); count = cols - rank."""
    n_cols = m.shape[1]
    if n_cols == 0:
        return zeros(0, 0)
    if m.shape[0] == 0:
        return eye(n_cols)
    r, pivots = row_echelon(m, p)
    free = [c for c in range(n_cols) if c not in pivots]
    basis = zeros(n_cols, len(free))
    basis[free, np.arange(len(free))] = 1
    basis[pivots] = (-r[:len(pivots)][:, free]) % p
    return basis


def column_space_basis(m: np.ndarray, p: int = DEFAULT_P) -> np.ndarray:
    """Deterministic basis of the column space (pivot columns of m)."""
    if m.size == 0:
        return zeros(m.shape[0], 0)
    return m[:, pivot_columns(m, p)]


def solve(a: np.ndarray, b: np.ndarray, p: int = DEFAULT_P) -> np.ndarray:
    """Solve a @ x = b over F_p (b may have several columns).

    Raises ValueError if any column of b is outside the span of a.
    Free variables are set to 0, so the solution is deterministic.
    """
    b = np.mod(np.asarray(b, dtype=np.int64), p)
    single = b.ndim == 1
    if single:
        b = b.reshape(-1, 1)
    if a.shape[0] != b.shape[0]:
        raise ValueError("incompatible shapes in solve")
    aug = np.hstack([a, b])
    r, pivots = row_echelon(aug, p)
    n = a.shape[1]
    if any(c >= n for c in pivots):
        raise ValueError("inconsistent linear system over F_p")
    x = zeros(n, b.shape[1])
    x[pivots] = r[:len(pivots), n:]
    return x[:, 0] if single else x


def coordinates_in_basis(basis: np.ndarray, vectors: np.ndarray,
                         p: int = DEFAULT_P) -> np.ndarray:
    """Express *vectors* (columns) in terms of the columns of *basis*."""
    return solve(basis, vectors, p)


def pivot_columns(m: np.ndarray, p: int = DEFAULT_P) -> list[int]:
    """The pivot columns of row_echelon(m, p), without building R."""
    r = np.mod(np.asarray(m, dtype=np.int64), p)
    if r.size == 0:
        return []
    if p == 2:
        return _eliminate_gf2(_pack_rows(r))
    return _eliminate_fp(r.tolist(), p)
