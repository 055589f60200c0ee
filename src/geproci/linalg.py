"""Dense exact linear algebra mod p on numpy int64 arrays.

All entries live in [0, p) with p < 2**31. There is one elimination,
the blocked LU of _eliminate with unit pivot rows, and one triangular
solve: rank and det read their answers off the LU, and rref finishes it
with the same solve, which kernel_basis, inv_matrix and interpolate
build on. The per-column loop stays in int64: a product of two entries
is below 2**62, and a single % p after each multiply keeps everything
exact. Block products go through float64 BLAS: balanced residues
(|x| < 2**30) times signed 16-bit limbs give terms below 2**45, so a
sum of up to 2**8 of them stays below 2**53, where float64 is exact.
The panel width PANEL = 64 bounds the trailing update's sums, and
sub_mat_mul cuts longer ones into LIMB_CHUNK terms.
mat_mul is the same exact product, on a zero target.
Pivoting always takes the first nonzero entry in a column, which makes
every result deterministic. rank takes a wide matrix on its short side:
with more than PANEL columns and more columns than rows it eliminates
the transpose, which has the same rank.
"""

import numpy as np

PANEL = 64                # columns per panel of the blocked LU in _eliminate
STRIP = 128               # rows per exact product of its trailing update
LIMB_CHUNK = 2 ** 8       # inner terms per exact float64 limb product


class NotSquare(ValueError):
    pass


def as_matrix(rows, p):
    A = np.asarray(rows, dtype=np.int64)
    if A.ndim == 1:
        A = A.reshape(1, -1)
    return A % p


def _eliminate(A, p):
    """In-place blocked LU. Returns (pivot_cols, det_unit, sign).

    det_unit is the product of the pivot values encountered (before row
    normalization); together with the swap sign it gives the determinant
    of a square matrix of full rank.

    The per-column loop runs on a panel of PANEL columns and leaves each
    multiplier where it would have written a zero, and _update_trailing
    then applies the panel's row operations to the columns right of it.
    With cols <= PANEL this is the loop alone. Pivot choices equal the
    unblocked loop's. Each pivot row is scaled whole to a unit pivot, so
    the panel's lower triangle has a unit diagonal. Row i < len(pivot_cols)
    of A ends as the echelon row U_i, 1 at pivot_cols[i]; left of that
    pivot, and in the rows below the rank, A holds multipliers.
    """
    rows, cols = A.shape
    r = 0
    pivots = []
    det_unit = 1
    sign = 1
    for c0 in range(0, cols, PANEL):
        if r == rows:
            break
        c1 = min(c0 + PANEL, cols)
        r0 = r
        for c in range(c0, c1):
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
            A[r] = A[r] * pow(piv, -1, p) % p
            sel = nz[1:] + r
            if sel.size:
                A[sel, c + 1:c1] = (A[sel, c + 1:c1]
                                    - A[sel, c:c + 1] * A[r, c + 1:c1]) % p
            pivots.append(c)
            r += 1
        if c1 < cols and r > r0:
            _update_trailing(A, p, r0, r, pivots[r0:], c1)
    return pivots, det_unit, sign


def _update_trailing(A, p, r0, r1, pcols, c1):
    """Apply a panel's row operations to the columns c1: of A, in place.

    The panel left its pivot rows r0:r1 scaled to a unit pivot, and the
    multiplier of row j for pivot i in A[j, pcols[i]]. A unit triangular
    solve first finishes the pivot rows (U12), which rref reads even
    when no row below needs an update. The rows below then take
    A22 <- A22 - L21 U12 in strips of STRIP rows, each strip one exact
    product (_sub_product), so no full-size temporary is made. Rows
    whose multipliers are all zero are left alone, as the loop leaves
    them.
    """
    U = A[r0:r1, c1:]
    _unit_lower_solve(A, p, r0, pcols, U)
    sel = r1 + np.flatnonzero(A[r1:, pcols].any(axis=1))
    if sel.size == 0:
        return
    hi, lo = _limbs(U, p)
    for s in range(0, sel.size, STRIP):
        rows = sel[s:s + STRIP]
        T = A[rows, c1:]
        _sub_product(T, A[rows[:, None], pcols], hi, lo, p)
        A[rows, c1:] = T


def _unit_lower_solve(A, p, r0, pcols, U):
    """U <- L^-1 U in place, L the unit lower triangle that the rows
    r0:r0 + k of A hold on the columns pcols, k = len(pcols). By recursive
    halving: the bottom half takes the solved top half in one exact
    product (sub_mat_mul, as rref's halves can pass 2**8 rows), and only
    blocks of at most 16 rows run row by row."""
    k = len(pcols)
    if k > 16:
        h = k // 2
        _unit_lower_solve(A, p, r0, pcols[:h], U[:h])
        sub_mat_mul(U[h:], A[r0 + h:r0 + k, pcols[:h]], U[:h], p)
        _unit_lower_solve(A, p, r0 + h, pcols[h:], U[h:])
        return
    for j in range(k - 1):
        below = U[j + 1:]
        below -= A[r0 + j + 1:r0 + k, pcols[j], None] * U[j]
        below %= p


def _limbs(U, p):
    """Balanced residues of U split as hi * 2**16 + lo, both float64, with
    -2**15 <= lo < 2**15 and |hi| <= 2**14."""
    B = np.where(U > p // 2, U - p, U)
    lo = (B + (1 << 15) & 0xFFFF) - (1 << 15)
    B -= lo
    B >>= 16
    return B.astype(np.float64), lo.astype(np.float64)


def _sub_product(T, L, hi, lo, p):
    """T <- (T - L @ (hi * 2**16 + lo)) mod p, exactly and in place.

    L is taken as balanced residues, |l| <= (p - 1)/2 < 2**30, so each
    term of either float64 product has |l * limb| <= 2**45 and a sum of
    k <= 2**8 terms stays within 2**53: every partial sum is an integer
    that float64 holds exactly, whatever order BLAS adds in. PANEL keeps
    k <= 64; sub_mat_mul cuts longer sums into LIMB_CHUNK = 2**8. The
    sums are reduced as int64, where % is far cheaper than on float64;
    T - (hi-sum mod p) * 2**16 - lo-sum stays below 2**54.
    """
    Lf = np.where(L > p // 2, L - p, L).astype(np.float64)
    f = Lf @ hi
    h = f.astype(np.int64)
    h %= p
    h <<= 16
    T -= h
    np.matmul(Lf, lo, out=f)          # both buffers reused for the lo limb
    np.copyto(h, f, casting="unsafe")
    T -= h
    T %= p


def sub_mat_mul(T, L, U, p):
    """T <- (T - L @ U) mod p, exactly and in place, for entries in [0, p)
    and any inner dimension: one _sub_product per LIMB_CHUNK columns of L,
    the most terms its float64 sums hold exactly."""
    for k in range(0, L.shape[1], LIMB_CHUNK):
        hi, lo = _limbs(U[k:k + LIMB_CHUNK], p)
        _sub_product(T, L[:, k:k + LIMB_CHUNK], hi, lo, p)


def rref(M, p):
    """Reduced row echelon form; returns (R, pivot_columns).

    _eliminate leaves the echelon rows U = T R, T the unit upper
    triangular block of U on the pivot columns. With the rows below the
    rank and the multipliers left of each pivot cleared, the pivot rows
    taken bottom-up hold T reversed, a unit lower triangle on the
    reversed pivot columns, so the LU's own solve gives R = T^-1 U.
    A reduced echelon form is unique, so R is the one the Gauss-Jordan
    column loop gives.
    """
    A = as_matrix(M, p)
    pivots, _, _ = _eliminate(A, p)
    k = len(pivots)
    A[k:] = 0
    A[:k][np.arange(A.shape[1]) < np.array(pivots)[:, None]] = 0
    # L and U share storage here. That is safe: the solve copies each
    # multiplier it reads before changing its row, and each row is zero
    # on the pivot columns of the rows after it, so a solved block never
    # changes a multiplier still to be read.
    W = A[:k][::-1]
    _unit_lower_solve(W, p, 0, pivots[::-1], W)
    return A, pivots


def _inv_stack(x, p):
    """Elementwise x**(p-2) mod p (Fermat inverse of nonzero entries) by
    square-and-multiply over the bits of p - 2."""
    out = np.ones_like(x)
    base = x % p
    e = p - 2
    while e:
        if e & 1:
            out = out * base % p
        base = base * base % p
        e >>= 1
    return out


def rank(M, p) -> int:
    """Rank mod p. rank(M) = rank(M^T), so a matrix with more than PANEL
    columns and more columns than rows is eliminated as its transpose,
    reduced into one C-order copy: the panels then run along the short
    side, and the row operations act on short rows."""
    M = np.asarray(M, dtype=np.int64)
    if M.ndim == 2 and M.shape[1] > max(M.shape[0], PANEL):
        A = np.remainder(M.T, p, out=np.empty(M.shape[::-1], np.int64))
    else:
        A = as_matrix(M, p)
    pivots, _, _ = _eliminate(A, p)
    return len(pivots)


def det(M, p) -> int:
    A = as_matrix(M, p)
    n, m = A.shape
    if n != m:
        raise NotSquare(f"determinant of a {n}x{m} matrix")
    pivots, det_unit, sign = _eliminate(A, p)
    if len(pivots) < n:
        return 0
    return det_unit * sign % p


def kernel_basis(M, p):
    """Basis of the right null space, as a list of int64 vectors: for each
    free column f, e_f with -R[:, f] on the pivot columns."""
    A, pivots = rref(M, p)
    if len(pivots) == A.shape[1]:
        return []
    free = np.delete(np.arange(A.shape[1]), pivots)
    K = np.zeros((free.size, A.shape[1]), dtype=np.int64)
    K[np.arange(free.size), free] = 1
    K[:, pivots] = -A[:len(pivots), free].T % p
    return list(K)


def inv_matrix(M, p):
    A = as_matrix(M, p)
    n, m = A.shape
    if n != m:
        raise NotSquare(f"inverse of a {n}x{m} matrix")
    aug = np.concatenate([A, np.eye(n, dtype=np.int64)], axis=1)
    R, pivots = rref(aug, p)
    if len(pivots) < n or pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return R[:, n:]


def mat_mul(A, B, p):
    """Exact A @ B mod p, for any inner dimension: sub_mat_mul on a zero
    target with -A."""
    A = as_matrix(A, p)
    B = as_matrix(B, p)
    T = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    sub_mat_mul(T, -A % p, B, p)
    return T


def interpolate(ys, p):
    """Ascending coefficients of the polynomial of degree < len(ys) whose
    value at x = 1, 2, ..., len(ys) is ys[x - 1]: the last column of
    rref([V | ys]), V the Vandermonde matrix of those points."""
    n = len(ys)
    V = np.array([[pow(x, k, p) for k in range(n)] for x in range(1, n + 1)],
                 dtype=np.int64)
    R, _ = rref(np.column_stack([V, np.asarray(ys, dtype=np.int64)]), p)
    return R[:, n]
