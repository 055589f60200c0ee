"""Graded pieces of ideals of (fat) point schemes via evaluation matrices.

A degree-t form vanishing on a scheme of fat points corresponds to a
kernel vector of a matrix whose rows evaluate monomials (and their
partial derivatives, for multiplicities) at the points. Everything here
is exact arithmetic mod p.
"""

import math
from functools import lru_cache

import numpy as np

from . import linalg
from .projgeom import ProjPoint


class CharTooSmall(ValueError):
    pass


class ZeroForm(ValueError):
    pass


@lru_cache(maxsize=None)
def monomials(nvars: int, degree: int):
    """Exponent vectors of the degree-d monomials in nvars variables.

    Ordered lexicographically descending in (e0, e1, ...), so the first
    monomial is x0^d and the last is x_{n}^d.
    """
    if nvars == 1:
        return ((degree,),)
    out = []
    for e0 in range(degree, -1, -1):
        for rest in monomials(nvars - 1, degree - e0):
            out.append((e0,) + rest)
    return tuple(out)


def num_monomials(nvars: int, degree: int) -> int:
    if degree < 0:
        return 0
    return math.comb(degree + nvars - 1, nvars - 1)


def _power_rows(coords, exps, p):
    """Rows (M_1(P), ..., M_N(P)) for every coordinate tuple P, in one pass.

    One table of powers per point and coordinate, shape
    (points, nvars, degree + 1), is indexed by the exponent columns.
    Every product is of two residues below p < 2**31, so it fits int64.
    """
    E = np.asarray(exps, dtype=np.int64)
    C = np.array([[int(c) % p for c in P] for P in coords],
                 dtype=np.int64).reshape(len(coords), E.shape[1])
    pw = np.ones(C.shape + (int(E.max()) + 1,), dtype=np.int64)
    for e in range(1, pw.shape[2]):
        pw[:, :, e] = pw[:, :, e - 1] * C % p
    rows = pw[:, 0, E[:, 0]]
    for j in range(1, E.shape[1]):
        rows *= pw[:, j, E[:, j]]
        rows %= p
    return rows


def _fat_rows(coords, order, exps, p):
    """Rows of a fat point: for each derivative (d/dx)^m with |m| = order,
    its values on the monomials x^M at the point, prod_j M_j!/(M_j - m_j)!
    c_j^(M_j - m_j). One power table on the clipped differences M - m
    gives the powers; the falling factorial of M_j < m_j is zero, which
    masks out the monomials m does not divide."""
    m = np.array(monomials(len(coords), order), dtype=np.int64)
    E = np.asarray(exps, dtype=np.int64)
    rows = _power_rows([coords], np.maximum(E - m[:, None], 0)
                       .reshape(-1, E.shape[1]), p).reshape(len(m), len(E))
    ff = np.array([[math.perm(e, a) % p for a in range(order + 1)]
                   for e in range(int(E.max()) + 1)], dtype=np.int64)
    for j in range(E.shape[1]):
        rows *= ff[E[:, j], m[:, j, None]]
        rows %= p
    return rows


def interp_matrix(scheme, t: int, p: int):
    """Evaluation matrix whose kernel is the degree-t piece of the ideal.

    scheme: list of (ProjPoint, multiplicity). A point of multiplicity s
    contributes one row per monomial of degree min(s - 1, t) in the
    ambient variables, holding the corresponding partial derivatives of
    the degree-t monomials at the point. By Euler's formula the
    derivatives of order s - 1 vanish at a point exactly when all lower
    ones do, while s - 1 <= t. Beyond that a degree-t form vanishing to
    order s is zero, and the order-t derivatives, constants times its
    coefficients, say so.
    """
    if not scheme:
        raise ValueError("empty scheme")
    first = scheme[0][0]
    nvars = first.ambient_dim + 1
    if p <= t:
        raise CharTooSmall(f"need p > {t}")
    cols = monomials(nvars, t)
    simple = _power_rows([pt.coords for pt, mult in scheme if mult == 1],
                         cols, p)
    if len(simple) == len(scheme):
        return simple
    simple = iter(simple)
    rows = []
    for pt, mult in scheme:
        if mult == 1:
            rows.append(next(simple))
            continue
        if p <= mult:
            raise CharTooSmall(f"need p > multiplicity {mult}")
        rows.extend(_fat_rows(pt.coords, min(mult - 1, t), cols, p))
    return np.stack(rows)


def simple_scheme(points):
    return [(q, 1) for q in points]


def ideal_dim(points_or_scheme, t: int, p: int) -> int:
    """dim of the degree-t piece of the ideal of the given points."""
    scheme = _as_scheme(points_or_scheme)
    nvars = scheme[0][0].ambient_dim + 1
    N = num_monomials(nvars, t)
    if t < 0:
        return 0
    M = interp_matrix(scheme, t, p)
    return N - linalg.rank(M, p)


def ideal_kernel(points, t: int, p: int):
    """Basis of degree-t forms vanishing on the points (coefficient vectors)."""
    M = interp_matrix(simple_scheme(points), t, p)
    return linalg.kernel_basis(M, p)


def _as_scheme(points_or_scheme):
    seq = list(points_or_scheme)
    if seq and isinstance(seq[0], ProjPoint):
        return simple_scheme(seq)
    return seq


def hilbert_h_vector(points, p):
    """First differences of the Hilbert function, up to saturation."""
    if not points:
        return ()
    ranks, _ = _degree_walk(points, p)
    return _h_vectors(ranks[:, None], len(points))[0]


def deletion_h_vectors(points, p):
    """(h-vector of the points, [h-vector with point i deleted for each i]).

    Let M_t be the degree-t evaluation matrix (a row per point) and V_t
    its column space in F_p^n. Then rank M_t = dim V_t, and deleting row i
    keeps that rank exactly when e_i is not in V_t, else lowers it by one.
    """
    n = len(points)
    ranks, in_V = _degree_walk(points, p)
    r = ranks[:, None]
    return (_h_vectors(r, n)[0], _h_vectors((r - in_V)[:n + 1], n - 1))


def _degree_walk(points, p):
    """(ranks, in_V): rank M_t, and in_V[t, i] whether e_i is in V_t, for
    M_t and V_t as in deletion_h_vectors and every degree t from 0.

    One basis serves every degree (the degree walk of Buchberger-Moeller).
    Each point is rescaled so that a fixed linear form l = sum_j c^j x_j
    is 1 on it, for the first c that makes l nonzero at every point (each
    point of P^k rules out at most k values of c). Rescaling row i of
    every M_t by a nonzero lambda_i^t changes no rank, with or without
    row i. Once l is 1 on the points, f -> l f shows V_t inside V_{t+1}.
    The coefficient of l on x_0 is 1, so x_0 is also replaced by l, a
    change of coordinates that changes no rank: then a monomial x_0 m of
    degree t+1 takes the values of m, which lie in V_t, and only the
    monomials free of x_0 leave a nonzero residual, whatever zeros the
    given coordinates have. So only these affine monomials are evaluated,
    in the rescaled x_1..x_k and the order of monomials(k, t): those of
    degree t+1 whose first variable is x_j are x_j times the suffix of
    the degree-t ones free of x_1..x_{j-1} (none past degree 0 if k = 0).
    A reduced basis of V_t, with its pivots, grows into one of V_{t+1}:
    the degree-(t+1) evaluation vectors are reduced against it by one
    exact product, the nonzero residual rows are eliminated, their new
    pivot columns are cleared from the basis, and their rows join it. The
    basis is the identity on its pivot columns, so B keeps only the other
    columns, and e_i is in V_t exactly when i is a pivot whose row is zero
    in B. Degrees run until V_t is all of F_p^n, when every deletion
    saturates too, or, for repeated points, up to degree n + 1, the last
    that _h_vectors reads.
    """
    n = len(points)
    C = np.array([q.coords for q in points], dtype=np.int64) % p
    k = C.shape[1] - 1
    for c in range(n * k + 1):
        ell = (C * [pow(c, j, p) for j in range(k + 1)] % p).sum(axis=1) % p
        if ell.all():
            break
    else:
        raise ValueError(f"no linear form sum c^j x_j is nonzero at all "
                         f"{n} points over F_{p}")
    A = C[:, 1:] * np.array([[pow(v, -1, p)] for v in ell.tolist()]) % p
    piv, free = np.zeros(0, dtype=np.intp), np.arange(n)
    B = np.zeros((0, n), dtype=np.int64)
    ranks, in_V = [], []
    X = np.ones((n, 1), dtype=np.int64)
    while not ranks or (ranks[-1] < n and len(ranks) <= n + 1):
        if ranks:
            N = X.shape[1]
            X = np.concatenate([X[:, :0]] + [
                X[:, N - num_monomials(k - j, len(ranks) - 1):]
                * A[:, j, None] % p for j in range(k)], axis=1)
        Y = X[free].T.copy()
        linalg.sub_mat_mul(Y, X[piv].T, B, p)
        R, new = linalg.rref(Y[Y.any(axis=1)], p)
        R = R[:len(new)]
        linalg.sub_mat_mul(B, B[:, new], R, p)
        keep = np.ones(len(free), dtype=bool)
        keep[new] = False
        B = np.concatenate([B, R])[:, keep]
        piv, free = np.concatenate([piv, free[new]]), free[keep]
        ranks.append(len(piv))
        in_V.append(np.zeros(n, dtype=bool))
        in_V[-1][piv[~B.any(axis=1)]] = True
    return np.array(ranks), np.array(in_V)


def _h_vectors(hf, n_pts):
    """First differences of every column of a table hf[t, i] of Hilbert
    function values of n_pts points, up to saturation at n_pts; the table
    runs to saturation or to degree n_pts + 1."""
    if n_pts == 0:
        return [()] * hf.shape[1]
    sat = hf >= n_pts
    stop = np.where(sat.any(axis=0), sat.argmax(axis=0), len(hf) - 1)
    h = np.diff(hf, axis=0, prepend=0)
    return [tuple(h[:s + 1, i].tolist()) for i, s in enumerate(stop.tolist())]


def macaulay_matrix(points, d: int, Q_coords, p):
    """The dual presentation matrix for points plus a fat vertex.

    Columns: one per point (entry c_M * M(P_i), with c_M the multinomial
    coefficient of M), then one per degree-(d-1) monomial m (entry the
    Q-coordinate of M/m when m divides M, else 0). Rows run over the
    degree-d monomials M. Its rank equals the rank of
    interp_matrix(points + d*Q, d).
    """
    if p <= d:
        raise CharTooSmall(f"need p > {d}")
    nvars = len(Q_coords)
    Ms = monomials(nvars, d)
    ms = monomials(nvars, d - 1)
    m_index = {m: j for j, m in enumerate(ms)}
    r = len(points)
    A = np.zeros((len(Ms), r + len(ms)), dtype=np.int64)
    c = np.array([math.factorial(d) // multiplicity_weight(M) % p
                  for M in Ms], dtype=np.int64)
    A[:, :r] = (_power_rows([pt.coords for pt in points], Ms, p).T
                * c[:, None] % p)
    for i, M in enumerate(Ms):
        for k in range(nvars):
            if M[k] == 0:
                continue
            m = tuple(e - (1 if idx == k else 0) for idx, e in enumerate(M))
            A[i, r + m_index[m]] = int(Q_coords[k]) % p
    return A


def multiplicity_weight(M_exp) -> int:
    """Product of factorials of the exponents of a monomial."""
    return math.prod(math.factorial(e) for e in M_exp)


@lru_cache(maxsize=None)
def _multiple_index(nvars, d, e):
    """Positions among the degree-(d+e) monomials of m * M, one row per
    degree-e monomial m and one column per degree-d monomial M."""
    index = {M: i for i, M in enumerate(monomials(nvars, d + e))}
    return np.array([[index[tuple(x + y for x, y in zip(m, M))]
                      for M in monomials(nvars, d)]
                     for m in monomials(nvars, e)], dtype=np.intp)


def multiples(F, nvars, d, e, p):
    """Coefficient rows of m * F for every degree-e monomial m, in the
    order of monomials(nvars, e), where F is a degree-d form."""
    idx = _multiple_index(nvars, d, e)
    out = np.zeros((len(idx), num_monomials(nvars, d + e)), dtype=np.int64)
    out[np.arange(len(idx))[:, None], idx] = np.asarray(F, np.int64) % p
    return out


def coprime_plane_curves(F, G, a: int, b: int, p) -> bool:
    """Whether two ternary forms of degrees a and b (coefficient vectors)
    share no factor.

    Exact, by the Sylvester-Macaulay criterion (Cox, Little, O'Shea,
    Using Algebraic Geometry, ch. 3): a common factor H gives AF + BG = 0
    with A = G/H and B = -F/H, times any form of degree deg H - 1;
    without one, AF = -BG makes F divide B, which deg B < a forbids
    unless B = 0. So they are coprime exactly when (A, B) -> AF + BG,
    from degrees (b - 1, a - 1) into degree a + b - 1, is injective: the
    rows m F and n G have full rank.
    """
    F = np.asarray(F, dtype=np.int64) % p
    G = np.asarray(G, dtype=np.int64) % p
    if not F.any() or not G.any():
        raise ZeroForm("coprimality of a zero form")
    M = np.concatenate([multiples(F, 3, a, b - 1, p),
                        multiples(G, 3, b, a - 1, p)])
    return linalg.rank(M, p) == len(M)


def next_degree_generation(points, d: int, p):
    """(dim_d, dim_{d+1}, generated): the dimensions of the degree-d and
    degree-(d+1) pieces of the ideal of the points, and whether the
    degree-(d+1) piece is generated by the degree-d one.

    Compares the span of x_i * F over a kernel basis F of degree d with
    the full degree-(d+1) piece of the ideal.
    """
    nvars = points[0].ambient_dim + 1
    basis = ideal_kernel(points, d, p)
    target = ideal_dim(points, d + 1, p)
    if not basis:
        return 0, target, target == 0
    rows = np.concatenate([multiples(F, nvars, d, 1, p) for F in basis])
    return len(basis), target, linalg.rank(rows, p) == target
