"""Weddle-type hypersurfaces: loci of vertices Q where the linear system
of degree-d forms through a point set plus the fat vertex dQ jumps.

For suitable cardinalities the evaluation matrix of Z + dQ in degree d is
square, and its determinant is a homogeneous form in the coordinates of Q
whose zero locus is the Weddle hypersurface of Z. The degree of that form
is recovered numerically by interpolating the determinant along random
lines, and membership of a given Q is a rank-drop test.
"""

import random

from . import linalg
from .ideals import interp_matrix, num_monomials
from .projgeom import MixedAmbient, ProjPoint, random_point

IDENTICALLY_ZERO = "IdenticallyZero"
RANK_TRIALS = 3      # random vertices behind generic_rank
DEGREE_LINES = 3     # random lines behind weddle_degree


class NotSquareSystem(ValueError):
    pass


def _nvars(points):
    return points[0].ambient_dim + 1


def weddle_matrix(points, d, Q: ProjPoint):
    """Evaluation matrix of the scheme Z + dQ in degree d."""
    scheme = [(q, 1) for q in points] + [(Q, d)]
    return interp_matrix(scheme, d, points[0].p)


def _require_square(points, d):
    nvars = _nvars(points)
    need = num_monomials(nvars, d) - num_monomials(nvars, d - 1)
    if len(points) != need:
        raise NotSquareSystem(
            f"need {need} points for a square degree-{d} system, "
            f"got {len(points)}")


def generic_rank(points, d, seed=0):
    """Rank of the system at a random vertex (max over RANK_TRIALS)."""
    p = points[0].p
    rng = random.Random(repr((seed, "weddle-rank")))
    best = 0
    for _ in range(RANK_TRIALS):
        Q = random_point(_nvars(points), p, rng)
        best = max(best, linalg.rank(weddle_matrix(points, d, Q), p))
    return best


def members(points, d, probes, seed=0):
    """For each probe vertex Q, whether it lies on the degree-d Weddle
    locus of the points: True exactly when the system at Q has lower
    rank than at a generic vertex. The generic rank is computed once."""
    p = points[0].p
    for Q in probes:
        if Q.ambient_dim != points[0].ambient_dim:
            raise MixedAmbient(f"probe {Q} lies in P^{Q.ambient_dim}, the "
                               f"points in P^{points[0].ambient_dim}")
    rho = generic_rank(points, d, seed=seed)
    return [linalg.rank(weddle_matrix(points, d, Q), p) < rho
            for Q in probes]


def weddle_member(points, d, Q: ProjPoint, seed=0) -> bool:
    """Whether Q lies on the degree-d Weddle locus of the points."""
    return members(points, d, [Q], seed=seed)[0]


def _det_at(points, d, coords, p):
    """Determinant as a function of raw vertex coordinates.

    The vertex is deliberately not normalized: det is homogeneous in the
    coordinates of Q and interpolation needs the polynomial values, not
    the projective class.
    """
    coords = tuple(int(t) % p for t in coords)
    if not any(coords):
        return 0
    Q = ProjPoint(coords, p)
    return linalg.det(weddle_matrix(points, d, Q), p)


def weddle_degree(points, d, seed=0):
    """Degree of the Weddle determinant, or IDENTICALLY_ZERO.

    Requires the square case. The determinant is homogeneous of degree at
    most B = (number of derivative rows) in the vertex coordinates; it is
    restricted to DEGREE_LINES random lines Q(s) = A + s*B, interpolated
    from B + 1 sample values, and the largest degree seen is returned.
    """
    _require_square(points, d)
    p = points[0].p
    nvars = _nvars(points)
    bound = num_monomials(nvars, d - 1)
    rng = random.Random(repr((seed, "weddle-degree")))
    best = None
    for _ in range(DEGREE_LINES):
        A = random_point(nvars, p, rng).coords
        B = random_point(nvars, p, rng).coords
        ys = [_det_at(points, d,
                      [(a + x * b) % p for a, b in zip(A, B)], p)
              for x in range(1, bound + 2)]
        if not any(ys):
            continue
        sol = linalg.interpolate(ys, p)
        deg = max(k for k in range(bound + 1) if sol[k] % p)
        best = deg if best is None else max(best, deg)
    return IDENTICALLY_ZERO if best is None else best


def reducible_weddle_points(a, b, c, p):
    """Six points whose quadric Weddle surface splits into four planes.

    Three coordinate points and three points on the edges through the
    vertex [0:0:0:1]; a, b, c are nonzero field parameters.
    """
    rows = [
        (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
        (a, 0, 0, 1), (0, b, 0, 1), (0, 0, c, 1),
    ]
    return [ProjPoint.make(r, p) for r in rows]


def reducible_weddle_form(a, b, c, Q_coords, p):
    """Value of 2xyz(bcx + acy + abz - 2abcw) at Q."""
    x, y, z, w = (int(t) % p for t in Q_coords)
    lin = (b * c % p * x + a * c % p * y + a * b % p * z
           - 2 * a * b % p * c % p * w) % p
    return 2 * x * y % p * z % p * lin % p


def verify_reducible_weddle(a, b, c, p, seed=0, samples=40):
    """Checks the split form of the Weddle determinant for the six-point
    family above: det agrees with 2xyz(bcx+acy+abz-2abcw) up to one
    global scalar at every sampled vertex. Returns the scalar (nonzero)
    on success, raises AssertionError on mismatch.
    """
    pts = reducible_weddle_points(a, b, c, p)
    rng = random.Random(repr((seed, "weddle-fixture")))
    lam = None
    for _ in range(samples):
        Q = [rng.randrange(p) for _ in range(4)]
        if not any(Q):
            continue
        dv = _det_at(pts, 2, Q, p)
        fv = reducible_weddle_form(a, b, c, Q, p)
        if lam is None:
            if fv == 0:
                if dv != 0:
                    raise AssertionError("determinant off the split form")
                continue
            lam = dv * pow(fv, p - 2, p) % p
            continue
        if dv != lam * fv % p:
            raise AssertionError("determinant is not a multiple of the "
                                 "split form")
    if lam is None or lam == 0:
        raise AssertionError("could not calibrate the scalar")
    return lam
