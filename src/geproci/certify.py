"""Certificates for projection properties of finite point sets in space.

The main entry point decides whether the general projection of a point
set is a complete intersection of two plane curves of prescribed degrees.
All certificates are Monte Carlo over a large prime field: a "Yes" or
"No" is backed by evidence whose failure probability per trial is at
most a fixed degree bound divided by the field size; anything the
evidence cannot settle comes back "Inconclusive".
"""

import math
import random
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import linalg
from .combinat import line_census
from .ideals import (coprime_plane_curves, deletion_h_vectors,
                     generated_to_next_degree, ideal_dim, ideal_kernel,
                     monomials, num_monomials)
from .projgeom import (CollisionDetected, flat_through, project_general,
                       random_point, span_dim)

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


def _multiples_span(F, a, b, p):
    """Coefficient rows of m * F over the degree-(b-a) monomials m."""
    exps_a = monomials(3, a)
    exps_b = monomials(3, b)
    index = {e: i for i, e in enumerate(exps_b)}
    rows = []
    for m in monomials(3, b - a):
        v = np.zeros(len(exps_b), dtype=np.int64)
        for c, e in zip(F, exps_a):
            if c % p:
                v[index[tuple(x + y for x, y in zip(m, e))]] = c % p
        rows.append(v)
    return np.stack(rows)


def _complement_candidates(kernel, span_rows, p, rng, limit=5):
    """Up to `limit` kernel vectors outside the row span of span_rows."""
    base_rank = linalg.rank(span_rows, p)
    out = []
    for v in kernel:
        if len(out) == limit:
            return out
        M = np.concatenate([span_rows, v.reshape(1, -1)])
        if linalg.rank(M, p) > base_rank:
            out.append(v)
    attempts = 0
    while len(out) < limit and attempts < 50:
        attempts += 1
        v = np.zeros_like(kernel[0])
        for w in kernel:
            v = (v + rng.randrange(p) * w) % p
        M = np.concatenate([span_rows, v.reshape(1, -1)])
        if linalg.rank(M, p) > base_rank:
            out.append(v)
    return out


def is_geproci(points, a, b, trials=2, seed=0, prime=None) -> Decision:
    """Whether the general projection of the points is a complete
    intersection of plane curves of degrees (a, b), with a <= b.

    Per trial: project from a random vertex, check that the degree-a and
    degree-b pieces of the image ideal have exactly the dimensions a
    complete intersection forces, then extract candidate curves and
    certify that they share no component. A too-small dimension is a
    sound "No" (dimensions only jump up at special vertices); oversized
    dimensions or failed coprimality leave the trial undecided.
    """
    if a > b:
        raise ValueError("need a <= b")
    if a < 1:
        raise ValueError("need a >= 1")
    p = prime or points[0].p
    if prime and prime != points[0].p:
        raise ValueError("points live over a different prime")
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
    saw_pass = False
    for trial in range(trials):
        try:
            images = project_general(points, rng)
        except CollisionDetected:
            data["dims"].append("collision")
            continue
        dim_a = ideal_dim(images, a, p)
        dim_b = ideal_dim(images, b, p)
        data["dims"].append([dim_a, dim_b])
        if dim_a < expect_a or dim_b < expect_b:
            dec.verdict = NO
            data["reason"] = "ideal dimension below the forced value"
            return dec
        if dim_a > expect_a or dim_b > expect_b:
            continue
        kernel_a = ideal_kernel(images, a, p)
        if a == b:
            F, others = kernel_a[0], kernel_a[1:]
            candidates = others
        else:
            F = kernel_a[0]
            span_rows = _multiples_span(F, a, b, p)
            kernel_b = ideal_kernel(images, b, p)
            candidates = _complement_candidates(kernel_b, span_rows, p, rng)
        trial_seed = rng.randrange(1 << 30)
        if any(coprime_plane_curves(F, G, a, b, p, seed=trial_seed)
               for G in candidates):
            saw_pass = True
        if saw_pass:
            break
    if saw_pass:
        dec.verdict = YES
        data["error_bound"] = f"{a * b}/{p}"
    return dec


# ---------------------------------------------------------------------------
# grids

def _covers_with_lines(points, lines, size, exclude=(), limit=50):
    """Yield up to `limit` exact covers of the points by disjoint lines
    of exactly `size` points each (excluding some lines if asked)."""
    usable = {v for v in lines.values() if len(v) == size}
    usable -= set(exclude)
    by_point = {q: [s for s in usable if q in s] for q in points}
    if any(not opts for opts in by_point.values()):
        return
    todo = set(points)
    chosen = []
    budget = [limit]

    def walk():
        if not todo:
            budget[0] -= 1
            yield list(chosen)
            return
        # branch on the most constrained point
        pivot = min(todo,
                    key=lambda q: sum(1 for s in by_point[q] if s <= todo))
        for s in by_point[pivot]:
            if budget[0] <= 0:
                return
            if s <= todo:
                todo.difference_update(s)
                chosen.append(s)
                yield from walk()
                chosen.pop()
                todo.update(s)

    yield from walk()


def _cover_with_lines(points, lines, size):
    """First exact cover by disjoint `size`-point lines, or None."""
    for cover in _covers_with_lines(points, lines, size, limit=1):
        return cover
    return None


def _rulings_meet(side_a, side_b, p):
    """Every line of one ruling must meet every line of the other (the
    signature of two rulings of one quadric)."""
    for sa in side_a:
        for sb in side_b:
            if sa & sb:
                continue
            if flat_through(list(sa) + list(sb)).dim > 2:
                return False
    return True


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
    lines = line_census(points).members
    sizes = {len(v) for v in lines.values()}
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
            for side_a in _covers_with_lines(points, lines, b):
                if first_side_a is None:
                    first_side_a = side_a
                for side_b in _covers_with_lines(points, lines, a,
                                                 exclude=side_a):
                    if _rulings_meet(side_a, side_b, p):
                        return ("Grid", (a, b), (side_a, side_b))
        if half is not None:
            continue
        if first_side_a is not None:
            if b >= 3 and plausible(a, b) and is_geproci(
                    points, a, b, trials=trials, seed=seed).verdict == YES:
                half = ("HalfGrid", (a, b), first_side_a)
        elif a >= 3 and a in sizes and plausible(a, b):
            side_b = _cover_with_lines(points, lines, a)
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
    3-dimensional net of quadrics, and generation of the cubic piece by
    that net.
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
        dim2 = ideal_dim(images, 2, p)
        dim3 = ideal_dim(images, 3, p)
        gen = generated_to_next_degree(images, 2, p)
        hf = [min(len(images), num_monomials(4, t)) for t in range(4)]
        detail = {"dim2": dim2, "dim3": dim3, "generated": gen, "hf": hf}
        data["trials_detail"].append(detail)
        if dim2 < 3 or dim3 < 12:
            dec.verdict = NO
            data["reason"] = "too few quadrics or cubics through the image"
            return dec
        if dim2 == 3 and dim3 == 12 and gen:
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
        base = ideal_dim(img_w, m, p)
        data["dim_base"] = base
        escaped = [repr(z) for z in Z_points
                   if ideal_dim(img_w + [image_of[z]], m, p) != base]
        failing = 0
        for _ in range(probes):
            q = random_point(3, p, rng)
            while q in img_w:
                q = random_point(3, p, rng)
            if ideal_dim(img_w + [q], m, p) != base:
                failing += 1
        data["probes"] = probes
        data["probes_failing"] = failing
        if escaped:
            dec.verdict = NO
            data["escaped"] = escaped
        else:
            dec.verdict = YES
        return dec
    return dec
