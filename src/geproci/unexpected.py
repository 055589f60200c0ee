"""Unexpected cones: actual versus virtual dimensions of linear systems
with a general fat point, closed-form skeleton counts, and the explicit
permutation-sum hypersurface for simplex skeletons.

adim(Z, t, m) is the dimension of the degree-t forms vanishing on Z and
to order m at a general point P; vdim is the naive count. A configuration
has an unexpected cone of degree t when adim(t, t) exceeds max(0, vdim).
A flat of a flat union enters through the fixed points of its principal
lattice, so P is the only random draw: vdim is exact, and adim is a
minimum over choices of P.
"""

import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from . import linalg
from .configs import Configuration, FlatUnion
from .ideals import ideal_dim, num_monomials
from .projgeom import points_of_rows, project_general, random_point

SKELETON_LINES = 5   # random lines behind verify_skeleton_T's order at Q


@dataclass
class UnexpReport:
    t: int
    m: int
    adim: int
    vdim: int
    unexpected: bool


def _space(Z):
    """(ambient dimension, prime) of a configuration, flat union or
    point list."""
    if isinstance(Z, (Configuration, FlatUnion)):
        return Z.ambient_dim, Z.field.p
    return Z[0].ambient_dim, Z[0].p


def _lattice(basis, d, p):
    """The principal lattice of degree d on the flat spanned by the basis
    rows B: the points c B for the nonnegative integer vectors c with
    |c| = d, from one int64 product (entries of c are at most d, so it
    is exact). For 0 < d < p these C(d + k, k) distinct points of a
    k-flat are unisolvent for degree-d polynomials on it (Chung and Yao,
    SIAM J. Numer. Anal. 14, 1977), so a form of degree at most d
    vanishes on them exactly when it vanishes on the flat."""
    B = np.array(basis, dtype=np.int64)
    k1 = len(B)
    # stars and bars: k1 - 1 bars among d + k1 - 1 places
    bars = np.array(list(itertools.combinations(range(d + k1 - 1), k1 - 1)),
                    dtype=np.int64)
    C = np.diff(np.pad(bars, ((0, 0), (1, 1)),
                       constant_values=(-1, d + k1 - 1)), axis=1) - 1
    return points_of_rows(C @ B % p, p)


def _condition_points(Z, t):
    """Points that impose the conditions of Z on degree-t forms, each
    once.

    A flat of a flat union imposes the conditions of its principal
    lattice of degree max(t, 1) (degree 0 would be the zero vector), so
    nothing here is random.
    """
    if isinstance(Z, FlatUnion):
        d, p = max(t, 1), Z.field.p
        pts = (q for flat in Z.flats for q in _lattice(flat.basis, d, p))
    else:
        pts = Z.points if isinstance(Z, Configuration) else Z
    return list(dict.fromkeys(pts))


def adim(Z, t, m, trials=2, seed=0) -> int:
    """dim of degree-t forms through Z vanishing to order m at a general
    point, minimized over random choices of that point, the only random
    draw.

    For t = m the cone condition is equivalent to vanishing of the
    projected configuration, which needs a much smaller matrix.
    """
    n, p = _space(Z)
    rng = random.Random(repr((seed, "adim", t, m)))
    pts = _condition_points(Z, t)
    best = None
    for _ in range(trials):
        if t == m:
            val = ideal_dim(project_general(pts, rng), t, p)
        else:
            P = random_point(n + 1, p, rng)
            val = ideal_dim([(q, 1) for q in pts] + [(P, m)], t, p)
        best = val if best is None else min(best, val)
    return best


def vdim(Z, t, m, trials=2, seed=0) -> int:
    """dim [I(Z)]_t minus the conditions a general fat point imposes.

    May be negative; the fat point term is binom(m+n-1, n). Exact: one
    rank, so trials and seed are accepted, as adim's, but do not change
    the result.
    """
    n, p = _space(Z)
    pts = _condition_points(Z, t)
    dim = ideal_dim(pts, t, p) if pts else num_monomials(n + 1, t)
    return dim - math.comb(m + n - 1, n)


def c_predicate(Z, t, trials=2, seed=0) -> UnexpReport:
    """Whether Z has an unexpected cone of degree t."""
    a = adim(Z, t, t, trials=trials, seed=seed)
    v = vdim(Z, t, t, trials=trials, seed=seed)
    return UnexpReport(t=t, m=t, adim=a, vdim=v, unexpected=a > max(0, v))


# ---------------------------------------------------------------------------
# codimension-2 coordinate skeleton closed forms

def skeleton_dims(n, m):
    """(ideal dimension, cone system dimension) in degree m for the
    union of codimension-2 coordinate flats in n-space."""
    r = math.comb(n + 1, 2)
    idim = math.comb(m - 1, n) + (n + 1) * math.comb(m - 1, n - 1)
    conedim = math.comb(m - r + n - 1, n - 1)
    return idim, conedim


def skeleton_f(m, n) -> int:
    """Excess of actual over virtual dimension for degree-m cones over
    the codimension-2 coordinate skeleton; positive means unexpected."""
    r = math.comb(n + 1, 2)
    return (math.comb(m - r + n - 1, n - 1)
            - math.comb(m - 1, n)
            - (n + 1) * math.comb(m - 1, n - 1)
            + math.comb(m + n - 1, n))


# ---------------------------------------------------------------------------
# the explicit permutation-sum hypersurface

def skeleton_T_coeffs(n, a_coords, p):
    """Coefficients of the signed permutation sum T for the simplex
    skeleton in n-space, as a map from variable index tuples to values.

    T has degree k+1 with k = floor(n/2): each term is a squarefree
    product of k+1 of the variables, weighted by powers of the
    coordinates of the general point Q = [a_0 : ... : a_n].
    """
    N = n
    k = N // 2
    a = [int(v) % p for v in a_coords]
    coeffs = {}
    for sigma in itertools.permutations(range(N + 1)):
        sign = _perm_sign(sigma)
        w = 1
        for i in range(1, k + 1):
            w = w * pow(a[sigma[i]], i, p) % p
        for i in range(k + 1, N + 1):
            w = w * pow(a[sigma[i]], i - k, p) % p
        key = tuple(sorted(sigma[:k + 1]))
        coeffs[key] = (coeffs.get(key, 0) + sign * w) % p
    return {key: v for key, v in coeffs.items() if v}


def _perm_sign(sigma):
    sign = 1
    seen = [False] * len(sigma)
    for i in range(len(sigma)):
        if seen[i]:
            continue
        j = i
        clen = 0
        while not seen[j]:
            seen[j] = True
            j = sigma[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


def eval_skeleton_T(coeffs, coords, p):
    v = 0
    for key, c in coeffs.items():
        t = c
        for i in key:
            t = t * (int(coords[i]) % p) % p
        v = (v + t) % p
    return v


def verify_skeleton_T(n, p=None, seed=0):
    """Numeric verification of the explicit skeleton hypersurface.

    With k = floor(n/2) and l = ceil(n/2): the degree-(k+1) form T built
    from a random general point Q must vanish on every (k-1)-flat spanned
    by k of the n+2 points (coordinate points plus the all-ones point),
    which is checked exactly on each flat's principal lattice of degree
    k+1, and vanish to order at least l at Q along SKELETON_LINES random
    lines. Returns a report dict.
    """
    from .field import choose_prime
    if p is None:
        p = choose_prime([])
    N = n
    k = N // 2
    ell = N - k
    rng = random.Random(repr((seed, "skeleton-T", n)))
    a = [rng.randrange(1, p) for _ in range(N + 1)]
    coeffs = skeleton_T_coeffs(n, a, p)
    spanning = [tuple(1 if j == i else 0 for j in range(N + 1))
                for i in range(N + 1)]
    spanning.append((1,) * (N + 1))
    flats_ok = not any(eval_skeleton_T(coeffs, q.coords, p)
                       for sub in itertools.combinations(spanning, k)
                       for q in _lattice(sub, k + 1, p))
    # vanishing order at Q along random lines
    order = None
    deg = k + 1
    for _ in range(SKELETON_LINES):
        B = random_point(N + 1, p, rng).coords
        ys = [eval_skeleton_T(coeffs, [(q + x * d) % p for q, d in zip(a, B)],
                              p) for x in range(1, deg + 2)]
        sol = linalg.interpolate(ys, p)
        nz = [j for j in range(deg + 1) if sol[j] % p]
        this = nz[0] if nz else deg + 1
        order = this if order is None else min(order, this)
    return {
        "n": n,
        "degree": deg,
        "nonzero": bool(coeffs),
        "flats_vanish": flats_ok,
        "order_at_Q": order,
        "order_required": ell,
        "ok": bool(coeffs) and flats_ok and order is not None
              and order >= ell,
    }
