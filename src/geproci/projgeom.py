"""Projective points and flats over a prime field.

Points are stored with a canonical representative (first nonzero
coordinate scaled to 1) so equality and hashing just work. Flats carry
the reduced row echelon form of a spanning matrix, which is likewise
canonical and lets censuses deduplicate lines and planes by hashing.
"""

import random
from dataclasses import dataclass

import numpy as np

from . import linalg


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
            inv = pow(v, p - 2, p)
            return tuple(x * inv % p for x in vals)
    raise ValueError("zero vector is not a projective point")


@dataclass(frozen=True)
class ProjPoint:
    coords: tuple
    p: int

    @staticmethod
    def make(coords, p):
        return ProjPoint(normalize(coords, p), p)

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


def line_through(a: ProjPoint, b: ProjPoint) -> Flat:
    f = flat_through([a, b])
    if f.dim != 1:
        raise NotDistinct("points coincide")
    return f


def are_collinear(points) -> bool:
    return span_dim(points) <= 1


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


def projection_matrix(vertex: ProjPoint, seed: int = 0):
    """Invertible change of coordinates sending the vertex to [0:...:0:1].

    Built deterministically from the seed by completing the vertex with
    random columns until the matrix is invertible, then inverting.
    """
    p = vertex.p
    n1 = len(vertex.coords)
    rng = random.Random(repr((seed, "projection", vertex.coords)))
    while True:
        cols = [[rng.randrange(p) for _ in range(n1)] for _ in range(n1 - 1)]
        B = np.array(cols + [list(vertex.coords)], dtype=np.int64).T
        if linalg.rank(B, p) == n1:
            return linalg.inv_matrix(B, p)


def project_from(vertex: ProjPoint, points, seed: int = 0):
    """Images of the points under projection away from the vertex.

    Raises VertexInZ if the vertex is among the points and CollisionDetected
    if two images coincide (the caller is expected to pick a new vertex).
    """
    p = vertex.p
    T = projection_matrix(vertex, seed=seed)
    Z = linalg.as_matrix([q.coords for q in points], p)
    Y = linalg.mat_mul(Z, T.T, p)[:, :-1]
    images = []
    for row, q in zip(Y, points):
        if not row.any():
            raise VertexInZ(f"vertex {vertex} lies in the configuration")
        images.append(ProjPoint.make(row, p))
    if len(set(images)) != len(images):
        raise CollisionDetected("projection identified two points")
    return images


def project_general(points, rng):
    """Images of the points under projection from a random vertex,
    resampling the vertex (up to 25 times) on collisions."""
    p = points[0].p
    for _ in range(25):
        P = random_point(points[0].ambient_dim + 1, p, rng)
        try:
            return project_from(P, points, seed=rng.randrange(1 << 30))
        except (VertexInZ, CollisionDetected):
            continue
    raise CollisionDetected("no collision-free projection vertex found")
