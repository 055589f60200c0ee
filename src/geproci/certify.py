"""Certificates for projection properties of finite point sets in space.

The main entry point decides whether the general projection of a point
set is a complete intersection of two plane curves of prescribed degrees.
All certificates are Monte Carlo over a large prime field: a "Yes" or
"No" is backed by evidence whose failure probability per trial is at
most a fixed degree bound divided by the field size; anything the
evidence cannot settle comes back "Inconclusive". The randomness is in
where they look, not in what they compute there. A projection is fixed
by its vertex alone (its target coordinates are the vertex's own, see
projgeom.project_from), so in is_geproci the vertex is the one random
choice, and the ideal dimensions and the coprimality of the two curves
are exact ranks at that vertex.
"""

import itertools
import math
import random
from dataclasses import dataclass, field as dc_field

from . import linalg
from .combinat import exact_covers, line_census
from .ideals import (coprime_plane_curves, deletion_h_vectors, ideal_dim,
                     ideal_kernel, interp_matrix, multiples,
                     next_degree_generation, num_monomials, simple_scheme)
from .projgeom import (CollisionDetected, project_general, random_point,
                       span_dim)

class NotSubset(ValueError):
    pass


YES = "Yes"
NO = "No"
INCONCLUSIVE = "Inconclusive"
DEGENERATE = "degenerate"


@dataclass
class Decision:
    verdict: str
    prime: int
    seed: int
    trials: int
    data: dict = dc_field(default_factory=dict)

    def to_json(self):
        return {
            "verdict": self.verdict,
            "prime": self.prime,
            "seed": self.seed,
            "trials": self.trials,
            "data": self.data,
        }

    def __bool__(self):
        return self.verdict == YES


def _span_test(span_rows, p):
    """(rank, outside) for the row span of span_rows: outside(V) marks the
    rows of V that lie outside it.

    With R, pivots the reduced echelon form of span_rows, a vector v lies
    in that span exactly when its residue v - v[pivots] R is zero, so one
    product decides every row of V at once."""
    R, pivots = linalg.rref(span_rows, p)
    R = R[:len(pivots)]

    def outside(V):
        V = linalg.as_matrix(V, p)     # a fresh array: reduced in place
        linalg.sub_mat_mul(V, V[:, pivots], R, p)
        return V.any(axis=1)

    return len(pivots), outside


def is_geproci(points, a, b, trials=2, seed=0) -> Decision:
    """Whether the general projection of the points is a complete
    intersection of plane curves of degrees (a, b), with a <= b.

    Per trial: project from a random vertex, the one random choice, and
    check that the degree-a and degree-b pieces of the image ideal have
    exactly the dimensions a complete intersection forces. Then F is
    the first degree-a form and G the second one when a = b, else the
    first degree-b form outside F times the degree-(b - a) forms. Any
    two such G differ by a multiple of F, so they share the same factors
    with F, and one exact rank (coprime_plane_curves) decides whether F
    and G share a component. A too-small dimension is a sound "No"
    (dimensions only jump up at special vertices); oversized dimensions
    or a shared component leave the trial undecided.
    """
    if a > b:
        raise ValueError("need a <= b")
    if a < 1:
        raise ValueError("need a >= 1")
    if points[0].ambient_dim != 3:
        raise ValueError(f"geproci is defined for points of P^3, got "
                         f"points of P^{points[0].ambient_dim}")
    p = points[0].p
    data = {"n_points": len(points), "a": a, "b": b, "dims": []}
    dec = Decision(INCONCLUSIVE, p, seed, trials, data)
    if span_dim(points) < points[0].ambient_dim:
        dec.verdict = DEGENERATE
        return dec
    if len(points) != a * b:
        dec.verdict = NO
        data["reason"] = f"{len(points)} points, expected {a * b}"
        return dec
    rng = random.Random(repr((seed, "geproci")))
    expect_a = 2 if a == b else 1
    expect_b = math.comb(b - a + 2, 2) + 1
    for _ in range(trials):
        try:
            images = project_general(points, rng)
        except CollisionDetected:
            data["dims"].append("collision")
            continue
        kernel_a = ideal_kernel(images, a, p)
        kernel_b = kernel_a if a == b else ideal_kernel(images, b, p)
        dim_a, dim_b = len(kernel_a), len(kernel_b)
        data["dims"].append([dim_a, dim_b])
        if dim_a < expect_a or dim_b < expect_b:
            dec.verdict = NO
            data["reason"] = "ideal dimension below the forced value"
            return dec
        if dim_a > expect_a or dim_b > expect_b:
            continue
        F = kernel_a[0]
        if a == b:
            G = kernel_a[1]
        else:
            _, outside = _span_test(multiples(F, 3, a, b - a, p), p)
            G = kernel_b[int(outside(kernel_b).argmax())]
        if coprime_plane_curves(F, G, a, b, p):
            dec.verdict = YES
            data["error_bound"] = f"{a * b}/{p}"
            return dec
    return dec


# ---------------------------------------------------------------------------
# grids

def _rulings(points, lines, size, exclude=()):
    """Exact covers of the points by disjoint lines of exactly `size`
    points each, other than the lines in exclude: lists of frozensets of
    points, from the lines given as runs of point indices."""
    usable = {frozenset({points[i] for i in run})
              for run in lines if len(run) == size}
    # the benchmark digests pin the rulings in list order, which follows
    # this numbering: points in set order, lines in the order of this set
    # after the in-place difference (a freshly built set(usable - exclude)
    # iterates in another order and reorders klein's lines)
    usable -= set(exclude)
    usable = list(usable)
    index = {q: i for i, q in enumerate(set(points))}
    options = [sum(1 << index[q] for q in s) for s in usable]
    for cover in exact_covers(len(index), options):
        yield [usable[o] for o in cover]


def _rulings_meet(side_a, side_b):
    """Every line of one ruling must meet every line of the other (the
    signature of two rulings of one quadric)."""
    return all(sa & sb or span_dim(list(sa) + list(sb)) <= 2
               for sa in side_a for sb in side_b)


def detect_grid(points, seed=0, trials=2):
    """Classify a point set as ("Grid", (a, b), rulings),
    ("HalfGrid", (a, b), lines) or ("Neither", None, None).

    A grid needs, for some factorization ab = |Z|, a ruling of a disjoint
    b-point lines and a transversal ruling of b disjoint a-point lines
    with full incidence. A half grid has exactly one ruling, every line
    of it carrying at least 3 points (2-point lines always admit trivial
    matchings), and the line pattern must match the degrees of an actual
    complete-intersection projection: a cover by k lines of s points only
    witnesses a half grid when the set is (min, max)(s, k)-geproci, since
    the union of the k lines has to be one of the two intersection
    curves.
    """
    n = len(points)
    p = points[0].p
    lines = line_census(points).runs
    sizes = set(map(len, lines))
    rng = random.Random(repr((seed, "detect-grid")))
    dim_cache = {}

    def plausible(lo, hi):
        """Cheap necessary condition for (lo, hi)-geproci: the general
        projection must admit a curve of degree lo."""
        if "images" not in dim_cache:
            try:
                dim_cache["images"] = project_general(points, rng)
            except CollisionDetected:
                return True
        key = ("dim", lo)
        if key not in dim_cache:
            dim_cache[key] = ideal_dim(dim_cache["images"], lo, p)
        return dim_cache[key] >= 1

    half = None
    for a in range(2, int(math.isqrt(n)) + 1):
        if n % a:
            continue
        b = n // a
        # the side with few long lines is always cheap to search
        first_side_a = None
        if b in sizes:
            for side_a in itertools.islice(_rulings(points, lines, b), 50):
                if first_side_a is None:
                    first_side_a = side_a
                for side_b in itertools.islice(
                        _rulings(points, lines, a, exclude=side_a), 50):
                    if _rulings_meet(side_a, side_b):
                        return ("Grid", (a, b), (side_a, side_b))
        if half is not None:
            continue
        if first_side_a is not None:
            if b >= 3 and plausible(a, b) and is_geproci(
                    points, a, b, trials=trials, seed=seed).verdict == YES:
                half = ("HalfGrid", (a, b), first_side_a)
        elif a >= 3 and a in sizes and plausible(a, b):
            side_b = next(_rulings(points, lines, a), None)
            if side_b is not None and is_geproci(
                    points, a, b, trials=trials, seed=seed).verdict == YES:
                half = ("HalfGrid", (a, b), side_b)
    return half if half is not None else ("Neither", None, None)


# ---------------------------------------------------------------------------
# complete intersections of three quadrics

def is_ci222_p4(points, trials=2, seed=0) -> Decision:
    """Whether the general projection to 3-space of 8 points in 4-space
    is a complete intersection of three quadrics.

    Certified through the Hilbert function (1, 4, 7, 8) of the image, a
    3-dimensional net of quadrics, and generation of the cubic and quartic
    pieces by that net. With that Hilbert function the ideal of the image
    is generated in degrees up to 4, its regularity, so then the net
    generates it and cuts out the 8 points. The cubics alone do not
    decide: four of the points on a line put the line in every quadric
    of the net, and the net still gives all the cubics. Each trial reports
    the measured Hilbert function of the image in degrees 0 to 3.
    """
    p = points[0].p
    data = {"n_points": len(points), "trials_detail": []}
    dec = Decision(INCONCLUSIVE, p, seed, trials, data)
    if len(points) != 8:
        dec.verdict = NO
        data["reason"] = "a (2,2,2) complete intersection has 8 points"
        return dec
    if span_dim(points) < points[0].ambient_dim:
        dec.verdict = DEGENERATE
        return dec
    rng = random.Random(repr((seed, "ci222")))
    for _ in range(trials):
        try:
            images = project_general(points, rng)
        except CollisionDetected:
            data["trials_detail"].append("collision")
            continue
        dim2, dim3, gen = next_degree_generation(images, 2, p)
        hf = [1, 4, 10 - dim2, 20 - dim3]
        detail = {"dim2": dim2, "dim3": dim3, "generated": gen, "hf": hf}
        data["trials_detail"].append(detail)
        if dim2 < 3 or dim3 < 12:
            dec.verdict = NO
            data["reason"] = "too few quadrics or cubics through the image"
            return dec
        if dim2 == 3 and dim3 == 12 and gen:
            detail["generated_4"] = next_degree_generation(images, 3, p)[2]
            if detail["generated_4"]:
                dec.verdict = YES
                return dec
    return dec


# ---------------------------------------------------------------------------
# Hilbert function behavior of subsets

def geprocb(points, trials=2, seed=0) -> Decision:
    """Whether all one-point-deleted subsets of the general projection
    share one Hilbert function."""
    p = points[0].p
    data = {"n_points": len(points), "h_vectors": []}
    dec = Decision(INCONCLUSIVE, p, seed, trials, data)
    rng = random.Random(repr((seed, "geprocb")))
    for _ in range(trials):
        try:
            images = project_general(points, rng)
        except CollisionDetected:
            continue
        full, hs = deletion_h_vectors(images, p)
        data["h_vectors"] = sorted(set(hs))
        data["full_h_vector"] = full
        dec.verdict = YES if len(set(hs)) == 1 else NO
        return dec
    return dec


def cbp_ambient(points, trials=1, seed=0) -> Decision:
    """Whether all one-point-deleted subsets of the points themselves
    (no projection) share one Hilbert function. Exact: seed and trials
    are only reported and do not change the result."""
    p = points[0].p
    full, hs = deletion_h_vectors(list(points), p)
    data = {"n_points": len(points), "h_vectors": sorted(set(hs)),
            "full_h_vector": full}
    verdict = YES if len(set(hs)) == 1 else NO
    return Decision(verdict, p, seed, trials, data)


# ---------------------------------------------------------------------------
# degree-m memory

def remembers(W_points, Z_points, m, trials=2, seed=0, probes=50) -> Decision:
    """Whether every general degree-m cone through the subset W also
    passes through all of Z.

    W must be a subset of Z. The verdict tests the containment Z in the
    degree-m memory of W; additionally a precision sample of random
    off-Z probe points is reported (a probe "fails" when it escapes the
    cones, which is evidence that the memory holds nothing beyond Z).
    """
    if not set(W_points) <= set(Z_points):
        raise NotSubset("the memory set must be a subset of the target")
    p = W_points[0].p
    rng = random.Random(repr((seed, "remembers")))
    data = {"m": m, "n_memory": len(W_points), "n_target": len(Z_points)}
    dec = Decision(INCONCLUSIVE, p, seed, trials, data)
    for _ in range(trials):
        try:
            images = project_general(list(Z_points), rng)
        except CollisionDetected:
            continue
        image_of = dict(zip(Z_points, images))
        img_w = [image_of[q] for q in W_points]
        probe_pts = []
        for _ in range(probes):
            q = random_point(3, p, rng)
            while q in img_w:
                q = random_point(3, p, rng)
            probe_pts.append(q)
        # a point raises the ideal dimension exactly when its evaluation
        # row lies outside the span of W's rows
        r, outside = _span_test(interp_matrix(simple_scheme(img_w), m, p), p)
        base = num_monomials(3, m) - r
        data["dim_base"] = base
        rises = outside(interp_matrix(simple_scheme(images + probe_pts),
                                      m, p)).tolist()
        escaped = [repr(z) for z, up in zip(Z_points, rises) if up]
        failing = sum(rises[len(images):])
        data["probes"] = probes
        data["probes_failing"] = failing
        if escaped:
            dec.verdict = NO
            data["escaped"] = escaped
        else:
            dec.verdict = YES
        return dec
    return dec
