"""Unexpected cones: actual versus virtual dimensions of linear systems
with a general fat point, closed-form skeleton counts, and the explicit
permutation-sum hypersurface for simplex skeletons.

adim(Z, t, m) is the dimension of the degree-t forms vanishing on Z and
to order m at a general point P; vdim is the naive count. A configuration
has an unexpected cone of degree t when adim(t, t) exceeds max(0, vdim).
"""

import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from . import linalg
from .configs import Configuration, FlatUnion
from .ideals import interp_matrix, num_monomials
from .projgeom import ProjPoint, project_general, random_point


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


def _flat_point(flat, p, rng):
    """Random point of a flat: random combination of its basis rows."""
    B = np.array(flat.basis, dtype=np.int64)
    while True:
        c = np.array([rng.randrange(p) for _ in range(B.shape[0])],
                     dtype=np.int64).reshape(1, -1)
        v = linalg.mat_mul(c, B, p).ravel()
        if v.any():
            return ProjPoint.make(v, p)


def _condition_points(Z, t, rng):
    """Points that impose the conditions of Z on degree-t forms.

    A k-flat imposes the same conditions as binom(t+k, k) of its general
    points, so flat unions are replaced by per-flat samples.
    """
    if isinstance(Z, Configuration):
        return list(Z.points)
    if isinstance(Z, FlatUnion):
        p = Z.field.p
        out = []
        for flat in Z.flats:
            k = flat.dim
            need = math.comb(t + k, k)
            got = set()
            while len(got) < need:
                got.add(_flat_point(flat, p, rng))
            out.extend(sorted(got, key=lambda q: q.coords))
        return out
    return list(Z)


def adim(Z, t, m, trials=2, seed=0) -> int:
    """dim of degree-t forms through Z vanishing to order m at a general
    point, minimized over random choices.

    For t = m the cone condition is equivalent to vanishing of the
    projected configuration, which needs a much smaller matrix.
    """
    n, p = _space(Z)
    rng = random.Random(repr((seed, "adim", t, m)))
    best = None
    for _ in range(trials):
        pts = _condition_points(Z, t, rng)
        if t == m:
            images = project_general(list(dict.fromkeys(pts)), rng)
            M = interp_matrix([(q, 1) for q in images], t, p)
            val = num_monomials(n, t) - linalg.rank(M, p)
        else:
            P = random_point(n + 1, p, rng)
            scheme = [(q, 1) for q in pts] + [(P, m)]
            M = interp_matrix(scheme, t, p)
            val = num_monomials(n + 1, t) - linalg.rank(M, p)
        best = val if best is None else min(best, val)
    return best


def vdim(Z, t, m, trials=2, seed=0) -> int:
    """dim [I(Z)]_t minus the conditions a general fat point imposes.

    May be negative; the fat point term is binom(m+n-1, n).
    """
    n, p = _space(Z)
    total = num_monomials(n + 1, t)
    rng = random.Random(repr((seed, "vdim", t, m)))
    dims = []
    for _ in range(trials):
        pts = _condition_points(Z, t, rng)
        if not pts:
            dims.append(total)
            continue
        M = interp_matrix([(q, 1) for q in pts], t, p)
        dims.append(total - linalg.rank(M, p))
    return min(dims) - math.comb(m + n - 1, n)


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


def verify_skeleton_T(n, p=None, seed=0, samples=5):
    """Numeric verification of the explicit skeleton hypersurface.

    With k = floor(n/2) and l = ceil(n/2): the degree-(k+1) form T built
    from a random general point Q must vanish at sampled points of every
    (k-1)-flat spanned by k of the n+2 points (coordinate points plus
    the all-ones point), and vanish to order at least l at Q along
    random lines. Returns a report dict.
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
    spanning = [ProjPoint.make(tuple(1 if j == i else 0
                                     for j in range(N + 1)), p)
                for i in range(N + 1)]
    spanning.append(ProjPoint.make((1,) * (N + 1), p))
    flats_ok = True
    for sub in itertools.combinations(spanning, k):
        B = np.array([q.coords for q in sub], dtype=np.int64)
        for _ in range(samples):
            c = np.array([rng.randrange(p) for _ in range(k)],
                         dtype=np.int64).reshape(1, -1)
            v = linalg.mat_mul(c, B, p).ravel()
            if not v.any():
                continue
            if eval_skeleton_T(coeffs, v, p):
                flats_ok = False
    # vanishing order at Q along random lines
    order = None
    deg = k + 1
    for _ in range(samples):
        B = [rng.randrange(p) for _ in range(N + 1)]
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
