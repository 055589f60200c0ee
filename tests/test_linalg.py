import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from geproci import linalg
from geproci.linalg import (
    PANEL,
    NotSquare,
    as_matrix,
    det,
    interpolate,
    inv_matrix,
    kernel_basis,
    mat_mul,
    rank,
    rref,
)

from oracles import (det_cofactor, rank_det_by_columns, rank_minors,
                     rref_by_columns, solve_vandermonde)

P = 1073741827


def _small_matrix(rng, m, n):
    return [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(m)]


def test_det_matches_cofactor_oracle():
    import random
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randrange(1, 5)
        M = _small_matrix(rng, n, n)
        assert det(as_matrix(M, P), P) == det_cofactor(M, P)


def test_rank_matches_minor_oracle():
    import random
    rng = random.Random(11)
    for _ in range(40):
        m, n = rng.randrange(1, 5), rng.randrange(1, 5)
        M = _small_matrix(rng, m, n)
        assert rank(as_matrix(M, P), P) == rank_minors(M, P)


def test_det_requires_square():
    with pytest.raises(NotSquare):
        det(as_matrix([[1, 2, 3], [4, 5, 6]], P), P)


def test_kernel_vectors_annihilate():
    import random
    rng = random.Random(13)
    for _ in range(30):
        m, n = rng.randrange(1, 6), rng.randrange(1, 6)
        M = as_matrix(_small_matrix(rng, m, n), P)
        ker = kernel_basis(M, P)
        assert len(ker) == n - rank(M, P)
        for v in ker:
            assert not mat_mul(M, v.reshape(-1, 1), P).any()


def test_inv_matrix_round_trip():
    M = as_matrix([[2, 1, 0], [1, 3, 1], [0, 1, 4]], P)
    Minv = inv_matrix(M, P)
    assert np.array_equal(mat_mul(M, Minv, P), np.eye(3, dtype=np.int64))


def test_inv_matrix_singular_raises():
    M = as_matrix([[1, 2], [2, 4]], P)
    with pytest.raises(ValueError):
        inv_matrix(M, P)


def test_rref_pivots_are_unit_columns():
    M = as_matrix([[2, 4, 1], [1, 2, 3], [3, 6, 4]], P)
    R, pivots = rref(M, P)
    for r, c in enumerate(pivots):
        col = R[:, c]
        assert col[r] == 1
        assert sum(int(x) for x in col) == 1


def test_mat_mul_large_entries_no_overflow():
    # entries close to the prime; the 16-bit split must stay exact
    a = P - 2
    A = as_matrix([[a] * 64], P)
    B = as_matrix([[a]] * 64, P)
    got = mat_mul(A, B, P)[0, 0]
    assert got == (64 * a * a) % P


def test_mat_mul_exact_past_inner_dimension_2_to_16():
    # the int64 16-bit split this product once used overflowed here. All
    # entries lie just below P // 2: as balanced residues they are near
    # their largest, (P - 1)/2, and all of one sign, so B's high limbs are
    # too, and one float64 sum over all k terms would pass 2**53
    k = 2**16 + 1
    rng = np.random.default_rng(3)
    A = P // 2 - rng.integers(0, 2**8, (2, k))
    B = P // 2 - rng.integers(0, 2**20, (k, 3))
    want = (A.astype(object) @ B.astype(object)) % P
    assert mat_mul(A, B, P).tolist() == want.tolist()


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_det_multiplicative(n, seed):
    import random
    rng = random.Random(seed)
    A = as_matrix(_small_matrix(rng, n, n), P)
    B = as_matrix(_small_matrix(rng, n, n), P)
    assert det(mat_mul(A, B, P), P) == det(A, P) * det(B, P) % P


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_rank_bounded_by_shape(seed):
    import random
    rng = random.Random(seed)
    m, n = rng.randrange(1, 6), rng.randrange(1, 6)
    M = as_matrix(_small_matrix(rng, m, n), P)
    r = rank(M, P)
    assert 0 <= r <= min(m, n)
    assert rank(M.T.copy(), P) == r


P31 = 2**31 - 1   # largest prime the library accepts


@pytest.mark.parametrize("p", [P, P31])
def test_inv_matrix_round_trip_across_panels(p):
    # rref([A | I]) of a 150 x 150 matrix has 150 pivots in three panels,
    # so the bottom-up solve crosses panel boundaries and recurses
    A = np.random.default_rng(p % 1000).integers(0, p, (150, 150))
    assert rank(A, p) == 150
    Ainv = inv_matrix(A, p)
    eye = np.eye(150, dtype=np.int64)
    assert np.array_equal(mat_mul(A, Ainv, p), eye)
    assert np.array_equal(mat_mul(Ainv, A, p), eye)
    A[149] = (A[3] + 5 * A[70]) % p
    assert rank(A, p) == 149
    with pytest.raises(ValueError, match="singular"):
        inv_matrix(A, p)


@st.composite
def _blocked_cases(draw):
    """(p, M): matrices with more than PANEL columns, wide or tall, so the
    blocked path of rank and det runs one or more trailing updates."""
    p = draw(st.sampled_from([7, P, P31]))
    cols = draw(st.integers(PANEL + 1, 2 * PANEL + 20))
    shape = draw(st.sampled_from(["wide", "square", "tall"]))
    rows = draw({"wide": st.integers(1, cols - 1), "square": st.just(cols),
                 "tall": st.integers(cols + 1, cols + 40)}[shape])
    kind = draw(st.sampled_from(["product", "repeats", "all p-1", "flats"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "all p-1":
        return p, np.full((rows, cols), p - 1, dtype=np.int64)
    if kind == "flats":
        return p, _flat_rows(draw, rng, p)
    if kind == "product":
        # rank at most k; small left factor, so X @ Y fits int64
        k = draw(st.integers(0, min(rows, cols)))
        X = rng.integers(-3, 4, (rows, k))
        return p, X @ rng.integers(0, p, (k, cols)) % p
    M = rng.integers(0, p, (rows, cols))
    for axis, size in ((0, rows), (1, cols)):
        M = np.moveaxis(M, axis, 0)
        zero = rng.choice(size, draw(st.integers(0, size // 4)))
        src = rng.choice(size, draw(st.integers(0, size // 2)))
        dst = rng.choice(size, src.size)
        M[dst] = M[src]
        M[zero] = 0
        M = np.moveaxis(M, 0, axis)
    return p, M


def _flat_rows(draw, rng, p):
    """Wide and block sparse, like the evaluation matrices of flat unions:
    the degree-t monomials (70 to 120 columns) at points on coordinate
    lines and planes of P^n. A line imposes at most t + 1 conditions and
    the first t + 2 points lie on one, so the rank is below the row
    count."""
    n, t = draw(st.sampled_from([(4, 4), (3, 6), (3, 7)]))
    exps = np.array([e for e in itertools.product(range(t + 1), repeat=n + 1)
                     if sum(e) == t])
    flats = [s for k in (2, 3) for s in itertools.combinations(range(n + 1), k)]
    rows = draw(st.integers(len(exps) // 2, len(exps) - 1))
    M = np.empty((rows, len(exps)), dtype=np.int64)
    for i in range(rows):
        coords = [0] * (n + 1)
        f = 0 if i < t + 2 else draw(st.integers(0, len(flats) - 1))
        for j in flats[f]:
            coords[j] = int(rng.integers(1, p))
        M[i] = [math.prod(pow(c, int(e), p) for c, e in zip(coords, ex)) % p
                for ex in exps]
    return M


@given(_blocked_cases())
@settings(max_examples=40, deadline=None)
def test_blocked_rank_and_det_match_column_loop(case):
    p, M = case
    want_rank, want_det = rank_det_by_columns(M, p)
    assert rank(M, p) == want_rank
    assert rank(M - p, p) == want_rank   # unreduced entries are reduced
    if want_det is not None:
        assert det(M, p) == want_det


@st.composite
def _small_cases(draw):
    """(p, M): at most 6 x 6, rows fresh, repeated from a small pool or
    zero, so the matrices are often rank-deficient; zero rows allowed."""
    p = draw(st.sampled_from([7, P]))
    k = draw(st.integers(0, 6))
    m = draw(st.integers(1, 6))
    entry = st.integers(-3, 3) | st.integers(0, p - 1)
    fresh = st.lists(entry, min_size=m, max_size=m)
    pool = draw(st.lists(fresh, min_size=1, max_size=2)) + [[0] * m]
    rows = draw(st.lists(fresh | st.sampled_from(pool), min_size=k,
                         max_size=k))
    return p, np.array(rows, dtype=np.int64).reshape(k, m)


@given(_blocked_cases() | _small_cases())
@settings(max_examples=80, deadline=None)
# wide with rows <= PANEL: the first panel uses up every row, and only the
# trailing update's triangular solve finishes the rows right of it
@example((P, np.random.default_rng(1).integers(0, P, (20, 2 * PANEL))))
def test_rref_and_kernel_match_gauss_jordan(case):
    p, M = case
    want, want_pivots = rref_by_columns(M, p)
    R, pivots = rref(M, p)
    assert pivots == want_pivots
    assert np.array_equal(R, want)
    # the kernel basis is the one that is e_f on the free columns
    free = [c for c in range(M.shape[1]) if c not in pivots]
    K = np.array(kernel_basis(M, p), dtype=np.int64).reshape(-1, M.shape[1])
    assert np.array_equal(K[:, free], np.eye(len(free), dtype=np.int64))
    assert not mat_mul(M, K.T, p).any()


@st.composite
def _samples(draw):
    """(p, ys): values at x = 1 .. n, with n < p so the x are distinct."""
    p = draw(st.sampled_from([7, P, P31]))
    n = draw(st.integers(1, min(p - 1, 12)))
    return p, draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))


@given(_samples())
@settings(max_examples=60, deadline=None)
def test_interpolate_matches_lagrange(case):
    p, ys = case
    xs = list(range(1, len(ys) + 1))
    assert interpolate(ys, p).tolist() == solve_vandermonde(xs, ys, p)


def test_trailing_product_exact_at_its_bound():
    # 2**8 terms of one sign, near the largest the docstring allows:
    # L entry (p + 1)/2 is -(p - 1)/2 balanced, and U's limbs are
    # hi = 1 - 2**14 and lo in [-2**15, -2**14]. Row p - 2 is small only
    # once balanced; unbalanced, its lo sum would be an odd integer near
    # 2**54, which float64 cannot hold.
    p, k = P31, 2**8
    lo_limbs = np.random.default_rng(3).integers(-2**15, -2**14, k)
    lo_limbs[0] += 1 - lo_limbs.sum() % 2
    U = ((1 - 2**14) * 2**16 + lo_limbs + p)[:, None] * np.ones(3, np.int64)
    U[:, 2] = 1
    L = np.array([[(p + 1) // 2] * k, [p - 2] * k], dtype=np.int64)
    T = np.array([[0, 1, p - 1], [5, 0, 7]], dtype=np.int64)
    want = (T.astype(object) - L.astype(object) @ U.astype(object)) % p
    hi, lo = linalg._limbs(U, p)
    assert np.array_equal(lo[:, 0], lo_limbs)
    linalg._sub_product(T, L, hi, lo, p)
    assert T.tolist() == want.tolist()


def test_sub_mat_mul_chunks_a_long_inner_dimension():
    # 600 > 2**8 terms near the limbs' extremes: one float64 product over
    # all of them would pass 2**53, so only the chunks keep it exact
    p, k = P31, 600
    rng = np.random.default_rng(5)
    lo_limbs = rng.integers(-2**15, -2**14, k)
    U = ((1 - 2**14) * 2**16 + lo_limbs + p)[:, None] * np.ones(3, np.int64)
    U[:, 2] = rng.integers(0, p, k)
    L = np.array([[(p + 1) // 2] * k, rng.integers(0, p, k)],
                 dtype=np.int64)
    T = np.array([[0, 1, p - 1], [5, 0, 7]], dtype=np.int64)
    want = (T.astype(object) - L.astype(object) @ U.astype(object)) % p
    linalg.sub_mat_mul(T, L, U, p)
    assert T.tolist() == want.tolist()


def test_rank_memory_stays_within_twice_the_input():
    # rank works in place on its one reduced copy; the trailing update
    # goes in strips, so no second full-size array is made
    M = np.random.default_rng(0).integers(0, P, (660, 1001))
    tracemalloc.start()
    try:
        r = rank(M, P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r == 660
    assert peak <= 2 * M.nbytes
