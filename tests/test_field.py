import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from persimod import field as ff


def test_rank_identity_and_zero():
    assert ff.rank(ff.eye(3)) == 3
    assert ff.rank(ff.zeros(2, 2)) == 0


def test_rank_gf2_collapse():
    assert ff.rank(ff.asfield([[1, 1], [1, 1]]), 2) == 1


def test_rank_depends_on_characteristic():
    m = ff.asfield([[1, 1], [1, 4]], 5)
    assert ff.rank(m, 5) == 2
    assert ff.rank(np.mod(m, 3), 3) == 1  # over F_3 the rows coincide


def test_in_span_basics():
    assert ff.in_span(np.array([0, 0]), ff.zeros(2, 0))
    assert ff.in_span(np.array([1, 0]), ff.eye(2))
    assert not ff.in_span(np.array([1, 0]), ff.asfield([[0], [1]]))


def test_kernel_basis_examples():
    assert ff.kernel_basis(ff.eye(4)).shape[1] == 0
    kb = ff.kernel_basis(ff.zeros(3, 3))
    assert np.array_equal(kb, ff.eye(3))
    kb = ff.kernel_basis(ff.asfield([[1, 1]]), 2)
    assert kb.shape == (2, 1)
    assert list(kb[:, 0]) == [1, 1]


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.integers(1, 6), st.sampled_from([2, 3, 5]),
       st.integers(0, 10 ** 6))
def test_rank_nullity(rows, cols, p, seed):
    rng = np.random.default_rng(seed)
    m = rng.integers(0, p, size=(rows, cols))
    assert ff.rank(m, p) + ff.kernel_basis(m, p).shape[1] == cols


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5),
       st.sampled_from([2, 5]), st.integers(0, 10 ** 6))
def test_rank_submultiplicative(a, b, c, p, seed):
    rng = np.random.default_rng(seed)
    m = rng.integers(0, p, size=(a, b))
    n = rng.integers(0, p, size=(b, c))
    assert ff.rank(ff.matmul(m, n, p), p) <= min(ff.rank(m, p), ff.rank(n, p))


def test_kernel_columns_annihilate():
    rng = np.random.default_rng(0)
    for _ in range(30):
        p = int(rng.choice([2, 5]))
        m = rng.integers(0, p, size=(4, 7))
        kb = ff.kernel_basis(m, p)
        assert not ff.matmul(m, kb, p).any()


def test_solve_and_coordinates():
    rng = np.random.default_rng(1)
    for p in (2, 5):
        basis = ff.asfield(rng.integers(0, p, size=(5, 3)), p)
        coeff = ff.asfield(rng.integers(0, p, size=(3, 2)), p)
        target = ff.matmul(basis, coeff, p)
        x = ff.solve(basis, target, p)
        assert np.array_equal(ff.matmul(basis, x, p), target)


def test_solve_inconsistent_raises():
    with pytest.raises(ValueError):
        ff.solve(ff.zeros(2, 2), np.array([1, 0]), 2)


def test_characteristic_validation():
    with pytest.raises(ValueError):
        ff.check_characteristic(4)
    assert ff.check_characteristic(7) == 7
    # a prime, but past the int64 entries
    with pytest.raises(ValueError, match="below 2\\^63"):
        ff.check_characteristic(18446744073709551557)


def row_echelon_by_rows(m, p):
    """Reference: the one-row-at-a-time elimination row_echelon replaced."""
    r = np.mod(np.array(m, dtype=np.int64), p)
    n_rows, n_cols = r.shape
    pivot_cols = []
    row = 0
    for col in range(n_cols):
        if row == n_rows:
            break
        hits = np.nonzero(r[row:, col])[0]
        if hits.size == 0:
            continue
        pr = row + int(hits[0])
        if pr != row:
            r[[row, pr]] = r[[pr, row]]
        r[row] = np.mod(r[row] * ff.inv_mod(r[row, col], p), p)
        for i in np.nonzero(r[:, col])[0]:
            if i != row:
                r[i] = np.mod(r[i] - r[i, col] * r[row], p)
        pivot_cols.append(col)
        row += 1
    return r, pivot_cols


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 12), st.integers(0, 70),
       st.sampled_from([2, 3, 5, 7, 11, 13, 31, 97, 101]),
       st.floats(0.0, 1.0), st.integers(0, 10 ** 6))
# empty shapes, and F_2 rows that cross a 64-bit word or end mid-byte
@example(0, 0, 2, 1.0, 0)
@example(0, 9, 2, 1.0, 0)
@example(5, 0, 3, 1.0, 0)
@example(12, 64, 2, 0.5, 1)
@example(12, 65, 2, 0.5, 2)
@example(12, 70, 2, 0.9, 3)
@example(12, 67, 5, 0.5, 4)
def test_row_echelon_matches_row_loop(rows, cols, p, density, seed):
    rng = np.random.default_rng(seed)
    # negative and unreduced entries as well as residues
    m = rng.integers(-3 * p, 3 * p, size=(rows, cols)) * (rng.random((rows, cols)) < density)
    before = m.copy()
    r, piv = ff.row_echelon(m, p)
    want_r, want_piv = row_echelon_by_rows(m, p)
    assert np.array_equal(m, before)
    assert r.dtype == np.int64 and r.shape == m.shape
    assert piv == want_piv
    assert np.array_equal(r, want_r)


# characteristics whose entry products pass 2^63: one that int64 products
# wrap for, and 2^61 - 1, the largest Mersenne prime below the int64 bound
LARGE_PRIMES = [4294967311, 2 ** 61 - 1]


def row_echelon_by_python_ints(rows, p):
    """Reference (R, pivot_cols): Gauss-Jordan on lists of Python ints."""
    rows, rank, pivots = [[x % p for x in r] for r in rows], 0, []
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
    return rows, pivots


def product_by_python_ints(a, b, p):
    return [[sum(int(x) * int(y) for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]


@pytest.mark.parametrize("p", LARGE_PRIMES)
def test_large_characteristic_against_python_ints(p):
    rng = np.random.default_rng(p % 1000)
    for _ in range(200):
        # n x 3 matrices whose third column combines the first two
        n = int(rng.integers(2, 7))
        a, b = ([int(x) for x in rng.integers(0, p, n)] for _ in range(2))
        s, t = (int(x) for x in rng.integers(0, p, 2))
        rows = [[a[i], b[i], (s * a[i] + t * b[i]) % p] for i in range(n)]
        m = np.array(rows, dtype=np.int64)
        assert ff.rank(m, p) == len(row_echelon_by_python_ints(rows, p)[1]) == 2
        kb = ff.kernel_basis(m, p)
        assert kb.shape == (3, 1)
        assert product_by_python_ints(rows, kb.tolist(), p) == [[0]] * n
        x = ff.solve(m, m[:, 2], p)
        assert product_by_python_ints(rows, x.reshape(-1, 1).tolist(), p) == m[:, 2:].tolist()
        # the full reduced form, on the same matrix and on one of random shape
        shape = tuple(int(x) for x in rng.integers(1, 9, 2))
        sparse = (rng.integers(0, p, shape) * (rng.random(shape) < rng.random())).tolist()
        for case in (rows, sparse):
            r, piv = ff.row_echelon(np.array(case, dtype=np.int64), p)
            assert r.dtype == np.int64
            assert (r.tolist(), piv) == row_echelon_by_python_ints(case, p)


def test_is_prime_matches_trial_division():
    small = [q for q in range(2, 3000) if all(q % d for d in range(2, int(q ** 0.5) + 1))]
    assert [q for q in range(-2, 3000) if ff.is_prime(q)] == small
    # 3215031751 passes the witnesses 2, 3, 5 and 7; 2^61 + 1 is a multiple of 3
    for composite in (3215031751, 2 ** 61 + 1, 4294967311 * 4294967291):
        assert not ff.is_prime(composite)
    for prime in LARGE_PRIMES + [18446744073709551557]:
        assert ff.is_prime(prime)
