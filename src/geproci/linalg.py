"""Dense exact linear algebra mod p on numpy int64 arrays.

All entries live in [0, p) with p < 2**31. There is one elimination,
the blocked LU of _eliminate: rank and det read their answers off it,
and rref finishes it by back-substitution, which kernel_basis,
inv_matrix and interpolate build on. Its per-column loop stays in int64:
a product of two entries is below 2**62, and a single % p after each
multiply keeps everything exact. Its trailing update multiplies through
float64 BLAS instead: balanced residues (|x| < 2**30) times signed 16-bit
limbs give terms below 2**45, so a sum of up to 2**8 of them (the panel
width PANEL = 64 bounds it) stays below 2**53, where float64 is exact.
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
    unblocked loop's. Row i < len(pivot_cols) of A ends as the echelon
    row U_i, normalised to 1 at pivot_cols[i]; left of that pivot, and
    in the rows below the rank, A holds multipliers.
    """
    rows, cols = A.shape
    r = 0
    pivots = []
    invs = []
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
            inv = pow(piv, -1, p)
            A[r, c:c1] = A[r, c:c1] * inv % p
            sel = nz[1:] + r
            if sel.size:
                A[sel, c + 1:c1] = (A[sel, c + 1:c1]
                                    - A[sel, c:c + 1] * A[r, c + 1:c1]) % p
            pivots.append(c)
            invs.append(inv)
            r += 1
        if c1 < cols and r > r0:
            _update_trailing(A, p, r0, r, pivots[r0:], invs[r0:], c1)
    return pivots, det_unit, sign


def _update_trailing(A, p, r0, r1, pcols, invs, c1):
    """Apply a panel's row operations to the columns c1: of A, in place.

    The panel left its pivot rows r0:r1 normalised only left of c1, and
    the multiplier of row j for pivot i in A[j, pcols[i]]. A triangular
    solve first finishes the pivot rows (U12), which rref reads even
    when no row below needs an update. The rows below then take
    A22 <- A22 - L21 U12 in strips of STRIP rows, each strip one exact
    product (_sub_product), so no full-size temporary is made. Rows
    whose multipliers are all zero are left alone, as the loop leaves
    them.
    """
    U = A[r0:r1, c1:]
    _solve_pivot_rows(A, p, r0, pcols, invs, U)
    sel = r1 + np.flatnonzero(A[r1:, pcols].any(axis=1))
    if sel.size == 0:
        return
    hi, lo = _limbs(U, p)
    for s in range(0, sel.size, STRIP):
        rows = sel[s:s + STRIP]
        T = A[rows, c1:]
        _sub_product(T, A[rows[:, None], pcols], hi, lo, p)
        A[rows, c1:] = T


def _solve_pivot_rows(A, p, r0, pcols, invs, U):
    """U <- L11^-1 U in place: the panel loop's forward substitution on
    the pivot rows r0:r0 + k, L11 their lower triangle on the columns
    pcols (pivot values 1 / invs on the diagonal, multipliers below). By
    recursive halving: the bottom half takes the solved top half in one
    exact product, and only blocks of at most 8 rows run row by row."""
    k = len(invs)
    if k > 8:
        h = k // 2
        _solve_pivot_rows(A, p, r0, pcols[:h], invs[:h], U[:h])
        hi, lo = _limbs(U[:h], p)
        _sub_product(U[h:], A[r0 + h:r0 + k, pcols[:h]], hi, lo, p)
        _solve_pivot_rows(A, p, r0 + h, pcols[h:], invs[h:], U[h:])
        return
    for j, inv in enumerate(invs):
        U[j] *= inv
        U[j] %= p
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
    rank and the multipliers left of each pivot cleared, R = T^-1 U
    takes one row operation per pivot, bottom up, on the rows above it.
    A reduced echelon form is unique, so R is the one the Gauss-Jordan
    column loop gives.
    """
    A = as_matrix(M, p)
    pivots, _, _ = _eliminate(A, p)
    k = len(pivots)
    A[k:] = 0
    A[:k][np.arange(A.shape[1]) < np.array(pivots)[:, None]] = 0
    for i in range(k - 1, 0, -1):
        c = pivots[i]
        above = A[:i, c:]
        above -= A[:i, c, None] * A[i, c:]
        above %= p
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
