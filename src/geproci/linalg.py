"""Dense exact linear algebra mod p on numpy int64 arrays.

All entries live in [0, p) with p < 2**31, so any product of two entries
fits in int64 and a single % p after each multiply keeps everything exact.
Pivoting always takes the first nonzero entry in a column, which makes
every result deterministic.
"""

import numpy as np

MAX_INNER_DIM = 2 ** 16   # largest inner dimension mat_mul keeps exact


class NotSquare(ValueError):
    pass


def as_matrix(rows, p):
    A = np.asarray(rows, dtype=np.int64)
    if A.ndim == 1:
        A = A.reshape(1, -1)
    return A % p


def _eliminate(A, p, reduced):
    """In-place echelon reduction. Returns (pivot_cols, det_unit, sign).

    det_unit is the product of the pivot values encountered (before row
    normalization); together with the swap sign it gives the determinant
    of a square matrix of full rank.
    """
    rows, cols = A.shape
    r = 0
    pivots = []
    det_unit = 1
    sign = 1
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            A[[r, i]] = A[[i, r]]
            sign = -sign
        piv = int(A[r, c])
        det_unit = det_unit * piv % p
        A[r, c:] = A[r, c:] * pow(piv, p - 2, p) % p
        if reduced:
            sel = np.nonzero(A[:, c])[0]
            sel = sel[sel != r]
        else:
            below = np.nonzero(A[r + 1:, c])[0]
            sel = below + r + 1
        if sel.size:
            A[sel, c:] = (A[sel, c:] - A[sel, c:c + 1] * A[r, c:]) % p
        pivots.append(c)
        r += 1
    return pivots, det_unit, sign


def rref(M, p):
    """Reduced row echelon form; returns (R, pivot_columns)."""
    A = as_matrix(M, p).copy()
    pivots, _, _ = _eliminate(A, p, reduced=True)
    return A, pivots


def rank(M, p) -> int:
    A = as_matrix(M, p).copy()
    pivots, _, _ = _eliminate(A, p, reduced=False)
    return len(pivots)


def det(M, p) -> int:
    A = as_matrix(M, p).copy()
    n, m = A.shape
    if n != m:
        raise NotSquare(f"determinant of a {n}x{m} matrix")
    pivots, det_unit, sign = _eliminate(A, p, reduced=False)
    if len(pivots) < n:
        return 0
    return det_unit * sign % p


def kernel_basis(M, p):
    """Basis of the right null space, as a list of int64 vectors."""
    A, pivots = rref(M, p)
    cols = A.shape[1]
    pivot_set = set(pivots)
    basis = []
    for f in range(cols):
        if f in pivot_set:
            continue
        v = np.zeros(cols, dtype=np.int64)
        v[f] = 1
        v[pivots] = (-A[:len(pivots), f]) % p
        basis.append(v)
    return basis


def inv_matrix(M, p):
    A = as_matrix(M, p)
    n, m = A.shape
    if n != m:
        raise NotSquare(f"inverse of a {n}x{m} matrix")
    aug = np.concatenate([A.copy(), np.eye(n, dtype=np.int64)], axis=1)
    R, pivots = rref(aug, p)
    if len(pivots) < n or pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return R[:, n:]


def mat_mul(A, B, p):
    """Exact A @ B mod p; splits B into 16-bit halves to dodge overflow.

    A low-half dot product sums terms below 2**31 * 2**16, so it stays
    under 2**63 only for inner dimensions up to MAX_INNER_DIM."""
    A = as_matrix(A, p)
    B = as_matrix(B, p)
    if A.shape[1] > MAX_INNER_DIM:
        raise ValueError(f"inner dimension {A.shape[1]} exceeds 2**16, "
                         f"the int64 limit of the 16-bit split")
    b_hi, b_lo = np.divmod(B, 1 << 16)
    hi = A @ b_hi % p
    lo = A @ b_lo % p
    return (hi * (1 << 16) + lo) % p


def mat_vec(A, v, p):
    return mat_mul(A, np.asarray(v, dtype=np.int64).reshape(-1, 1), p).ravel()


def interpolate(ys, p):
    """Ascending coefficients of the polynomial of degree < len(ys) whose
    value at x = 1, 2, ..., len(ys) is ys[x - 1] (a Vandermonde solve)."""
    n = len(ys)
    V = np.array([[pow(x, k, p) for k in range(n)] for x in range(1, n + 1)],
                 dtype=np.int64)
    return mat_vec(inv_matrix(V, p), ys, p)
