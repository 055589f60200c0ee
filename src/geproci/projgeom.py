"""Projective points and flats over a prime field.

Points are stored with a canonical representative (first nonzero
coordinate scaled to 1) so equality and hashing just work; a matrix of
rows becomes points through points_of_rows, one product for all rows.
Flats carry the reduced row echelon form of a spanning matrix, which is
likewise canonical. Censuses group k-subsets by their Pluecker
coordinates (k x k minors, first nonzero one scaled to 1), so they
eliminate nothing, and give each flat as the run of the indices of the
points on it.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import linalg


SUBSET_CHUNK = 512   # k-subsets per batch of minors in flat_groups


class EmptyInput(ValueError):
    pass


class MixedAmbient(ValueError):
    pass


class NotCollinear(ValueError):
    pass


class NotDistinct(ValueError):
    pass


class VertexInZ(ValueError):
    pass


class CollisionDetected(Exception):
    """Two points got identified by a projection; caller should resample."""


def normalize(coords, p):
    """Canonical tuple: first nonzero coordinate becomes 1."""
    vals = [int(c) % p for c in coords]
    for v in vals:
        if v:
            inv = pow(v, -1, p)
            return tuple(x * inv % p for x in vals)
    raise ValueError("zero vector is not a projective point")


@dataclass(frozen=True)
class ProjPoint:
    coords: tuple
    p: int

    @staticmethod
    def make(coords, p):
        return ProjPoint(normalize(coords, p), p)

    def __hash__(self):
        # the value the generated hash gives, computed once per point
        try:
            return self._hash
        except AttributeError:
            h = hash((self.coords, self.p))
            object.__setattr__(self, "_hash", h)
            return h

    @property
    def ambient_dim(self):
        return len(self.coords) - 1

    def vec(self):
        return np.array(self.coords, dtype=np.int64)

    def __repr__(self):
        return "[" + ":".join(str(c) for c in self.coords) + "]"


@dataclass(frozen=True)
class Flat:
    basis: tuple   # tuple of coordinate tuples, canonical RREF
    p: int

    @property
    def ambient_dim(self):
        return len(self.basis[0]) - 1

    @property
    def dim(self):
        return len(self.basis) - 1

    def contains(self, pt: ProjPoint) -> bool:
        M = list(self.basis) + [pt.coords]
        return linalg.rank(linalg.as_matrix(M, self.p), self.p) == len(self.basis)


def points_of_rows(Y, p):
    """Points of the rows of Y, none of them zero, normalised as
    ProjPoint.make does: each row is scaled by the inverse of its first
    nonzero entry, all rows in one product, and the coordinates come back
    as Python ints."""
    Y = linalg.as_matrix(Y, p)
    lead = Y[np.arange(len(Y)), (Y != 0).argmax(axis=1)]
    inv = np.array([pow(v, -1, p) for v in lead.tolist()], dtype=np.int64)
    return [ProjPoint(tuple(row), p)
            for row in (Y * inv[:, None] % p).tolist()]


def random_point(nvars, p, rng):
    """Uniform nonzero vector of length nvars mod p, as a point."""
    while True:
        v = [rng.randrange(p) for _ in range(nvars)]
        if any(v):
            return ProjPoint.make(v, p)


def _check_common(points):
    if not points:
        raise EmptyInput("need at least one point")
    n = points[0].ambient_dim
    if any(q.ambient_dim != n for q in points):
        raise MixedAmbient("points live in different ambient spaces")


def span_dim(points) -> int:
    """Projective dimension of the span of the given points."""
    _check_common(points)
    p = points[0].p
    M = linalg.as_matrix([q.coords for q in points], p)
    return linalg.rank(M, p) - 1


def flat_through(points) -> Flat:
    _check_common(points)
    p = points[0].p
    R, pivots = linalg.rref(linalg.as_matrix([q.coords for q in points], p), p)
    rows = tuple(tuple(int(x) for x in R[i]) for i in range(len(pivots)))
    return Flat(rows, p)


@lru_cache(maxsize=None)
def _laplace_table(m, s):
    """(cols, rest), shape (s, C(m, s)): the columns of each s-subset J of
    range(m) and the positions of J without each among the (s-1)-subsets."""
    J = list(itertools.combinations(range(m), s))
    pos = {t: i for i, t in enumerate(itertools.combinations(range(m), s - 1))}
    return np.array(J).T, np.array([[pos[t[:i] + t[i + 1:]]
                                     for i in range(s)] for t in J]).T


def _minors(X, p):
    """k x k minors of each k x m matrix of the stack X, columns in
    combinations order, by Laplace expansion along each row over the
    minors of the rows below it. A product x < 2**62 is reduced as
    x - x // p * p: exact for x >= 0, and faster than % in numpy."""
    k, m = X.shape[1:]
    D = X[:, -1]
    for r in range(k - 2, -1, -1):
        cols, rest = _laplace_table(m, k - r)
        acc = 0
        for t in range(k - r):
            x = X[:, r, cols[t]] * D[:, rest[t]]
            x -= x // p * p
            acc = acc - x if t % 2 else acc + x
        D = acc % p
    return D


def _rank_k_subsets(coords, k, p):
    """(K, S): the Pluecker keys (k x k minors, scaled so the first nonzero
    one is 1) and the row indices of the k-subsets of rank k of the rows
    of coords, in itertools.combinations order, SUBSET_CHUNK subsets at a
    time. Rank k means a nonzero minor; equal keys mean equal spans."""
    flat = itertools.chain.from_iterable(
        itertools.combinations(range(len(coords)), k))
    keys, subsets = [], []
    while (idx := np.fromiter(itertools.islice(flat, SUBSET_CHUNK * k),
                              np.int32)).size:
        idx = idx.reshape(-1, k)
        D = _minors(coords[idx], p)
        full = D.any(axis=1)
        D = D[full]
        lead = D[np.arange(len(D)), (D != 0).argmax(axis=1)]
        # entries lie in [0, p) with p < 2**31
        keys.append((D * linalg._inv_stack(lead, p)[:, None] % p)
                    .astype(np.int32))
        subsets.append(idx[full])
    return np.concatenate(keys), np.concatenate(subsets)


def flat_groups(points, k):
    """(on, sizes) of the (k-1)-flats spanned by k-subsets of the points:
    the indices of the points on the flats, one run per flat (flats in
    the order of their first subsets, points in the order those subsets
    first reach them), and the run lengths. Raises NotDistinct if two of
    the points coincide and MixedAmbient if they lie in different spaces.
    """
    index = {}
    for i, q in enumerate(points):
        if index.setdefault(q, i) != i:
            raise NotDistinct(f"points {index[q]} and {i} coincide")
    if len(points) < k:
        return [], []
    _check_common(points)
    if k > len(points[0].coords):   # no k x k minors: no subset has rank k
        return [], []
    n = len(points)
    K, S = _rank_k_subsets(np.array([q.coords for q in points],
                                    dtype=np.int64), k, points[0].p)
    order = np.lexsort(K.T[::-1])   # stable: a group's first subset leads
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = np.diff(K[order], axis=0).any(axis=1)
    del K   # not needed for the (flat, row) codes, which set the peak
    # first[i]: the first subset spanning the flat of subset i; the flats
    # are numbered in the order of their first subsets
    first = np.empty_like(order)
    first[order] = order[starts][np.cumsum(starts) - 1]
    lead = first == np.arange(len(first))
    group = (np.cumsum(lead) - 1)[first]
    # each (flat, row) pair once, by flat, then by first sight; int32
    # codes whenever they fit, as np.unique copies and sorts them
    code = np.int32 if lead.sum() * n < 2**31 else np.int64
    codes, seen = np.unique((group.astype(code)[:, None] * n
                             + S.astype(code, copy=False)).ravel(),
                            return_index=True)
    codes = codes[np.lexsort((seen, codes // n))]
    sizes = np.bincount(codes // n)
    return (codes % n).tolist(), sizes.tolist()


def _frame_coords(a, b, x):
    """Coefficients (c1, c2) with x = c1*a + c2*b, for collinear points."""
    p = a.p
    M = np.stack([a.vec(), b.vec(), x.vec()], axis=1)
    ker = linalg.kernel_basis(M, p)
    for v in ker:
        if v[2] % p:
            s = (-pow(int(v[2]), p - 2, p)) % p
            return int(v[0]) * s % p, int(v[1]) * s % p
    raise NotCollinear("point is not on the line through the frame")


def cross_ratio(a, b, c, d) -> int:
    """Cross ratio of four distinct collinear points.

    Computed in the frame (a, b): with c = c1*a + c2*b and d = d1*a + d2*b
    the value is (c2*d1) / (c1*d2); for the frame ([0:1],[1:0],[1:1],[1:t])
    this gives t. The result does not depend on the chosen representatives.
    """
    pts = [a, b, c, d]
    if len(set(pts)) != 4:
        raise NotDistinct("cross ratio needs four distinct points")
    if span_dim(pts) != 1:
        raise NotCollinear("cross ratio needs collinear points")
    p = a.p
    c1, c2 = _frame_coords(a, b, c)
    d1, d2 = _frame_coords(a, b, d)
    num = c2 * d1 % p
    den = c1 * d2 % p
    return num * pow(den, p - 2, p) % p


def harmonic_conjugate(a, b, c) -> ProjPoint:
    """The unique d on line(a, b) with cross_ratio(a, b, c, d) = -1."""
    pts = [a, b, c]
    if len(set(pts)) != 3:
        raise NotDistinct("need three distinct points")
    if span_dim(pts) != 1:
        raise NotCollinear("need three collinear points")
    p = a.p
    c1, c2 = _frame_coords(a, b, c)
    coords = (-c1 * a.vec() + c2 * b.vec()) % p
    return ProjPoint.make(coords, p)


def segre(u: ProjPoint, v: ProjPoint) -> ProjPoint:
    """([a:b],[c:d]) -> [ac:ad:bc:bd]; lands on the quadric xw = yz."""
    if u.ambient_dim != 1 or v.ambient_dim != 1:
        raise ValueError("segre expects two points of the projective line")
    p = u.p
    a, b = u.coords
    c, d = v.coords
    return ProjPoint.make((a * c, a * d, b * c, b * d), p)


def project_from(vertex: ProjPoint, points):
    """Images of the points under projection away from the vertex.

    With v the normalised vertex and c its first nonzero coordinate
    (v_c = 1), x maps to the coordinates x_j - v_j x_c for j != c: these
    n forms vanish at v and are a basis of the linear forms that do.
    Raises VertexInZ if the vertex is among the points and
    CollisionDetected if two images coincide (the caller is expected to
    pick a new vertex).
    """
    p = vertex.p
    v = np.array(vertex.coords, dtype=np.int64)
    c = int(np.flatnonzero(v)[0])
    rest = np.arange(len(v)) != c
    Z = linalg.as_matrix([q.coords for q in points], p)
    Y = (Z[:, rest] - Z[:, [c]] * v[rest] % p) % p
    if not Y.any(axis=1).all():
        raise VertexInZ(f"vertex {vertex} lies in the configuration")
    images = points_of_rows(Y, p)
    if len(set(images)) != len(images):
        raise CollisionDetected("projection identified two points")
    return images


def project_general(points, rng):
    """Images of the points under projection from a random vertex,
    resampling the vertex (up to 25 times) on collisions. Raises
    ValueError for points of P^0, which has no vertex off the points."""
    if points[0].ambient_dim == 0:
        raise ValueError("points of P^0 have no projection")
    p = points[0].p
    for _ in range(25):
        P = random_point(points[0].ambient_dim + 1, p, rng)
        try:
            return project_from(P, points)
        except (VertexInZ, CollisionDetected):
            continue
    raise CollisionDetected("no collision-free projection vertex found")
