"""Incidence combinatorics: line and plane censuses, concurrency points
of a (3,3)-grid, and weak combinatorial equivalence tests.

Two point sets are weakly combinatorially equivalent when a bijection
preserves collinearity both ways. The test is staged: cheap censuses and
per-point profiles first, then two graph-theoretic probes on the
two-point-line structure, then (for small sets) an exhaustive search for
a collinearity-preserving bijection.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .projgeom import ProjPoint, flat_through, span_dim


class NotA33Grid(ValueError):
    pass


class SizeMismatch(ValueError):
    pass


@dataclass
class IncidenceCensus:
    flat_dim: int
    histogram: dict          # points-on-flat -> number of flats
    members: dict            # Flat -> frozenset of points


def _points(Z):
    return list(Z.points) if hasattr(Z, "points") else list(Z)


def _line_members(points):
    lines = {}
    for q1, q2 in itertools.combinations(points, 2):
        f = flat_through([q1, q2])
        lines.setdefault(f, set()).update((q1, q2))
    for f, v in lines.items():  # in place, so no second copy is alive
        lines[f] = frozenset(v)
    return lines


def line_census(Z) -> IncidenceCensus:
    """Histogram of lines by how many of the points they contain."""
    points = _points(Z)
    members = _line_members(points)
    hist = {}
    for v in members.values():
        hist[len(v)] = hist.get(len(v), 0) + 1
    return IncidenceCensus(1, hist, members)


def plane_census(Z) -> IncidenceCensus:
    """Histogram of planes (spanned by noncollinear triples) by point
    count, for configurations in 3-space."""
    points = _points(Z)
    planes = {}
    for t in itertools.combinations(points, 3):
        if span_dim(list(t)) != 2:
            continue
        f = flat_through(list(t))
        planes.setdefault(f, set()).update(t)
    members = {f: frozenset(v) for f, v in planes.items()}
    hist = {}
    for v in members.values():
        hist[len(v)] = hist.get(len(v), 0) + 1
    return IncidenceCensus(2, hist, members)


def _line_intersection(f1, f2):
    """Intersection point of two distinct concurrent lines, or None."""
    if f1 == f2:
        return None
    p = f1.p
    B1 = np.array(f1.basis, dtype=np.int64)
    B2 = np.array(f2.basis, dtype=np.int64)
    M = np.concatenate([B1.T, (-B2.T) % p], axis=1)
    ker = linalg.kernel_basis(M, p)
    if not ker:
        return None
    a = ker[0][:2]
    v = (a[0] * B1[0] + a[1] * B1[1]) % p
    if not v.any():
        return None
    return ProjPoint.make(v, p)


def brianchon_points(Z):
    """The six concurrency points of the 18 two-point lines of a
    (3,3)-grid, partitioned into two collinear triples.

    Appending either triple to the grid yields a 12-point configuration
    with the characteristic {2: 18, 3: 16} line census.
    """
    points = _points(Z)
    members = _line_members(points)
    if len(points) != 9 or sorted(
            len(v) for v in members.values()) != [2] * 18 + [3] * 6:
        raise NotA33Grid("expected the 9 points and 6+18 lines of a "
                         "(3,3)-grid")
    two_lines = [f for f, v in members.items() if len(v) == 2]
    grid_pts = set(points)
    conc = {}
    for f1, f2 in itertools.combinations(two_lines, 2):
        q = _line_intersection(f1, f2)
        if q is None or q in grid_pts:
            continue
        conc.setdefault(q, set()).update((f1, f2))
    six = sorted((q for q, ls in conc.items() if len(ls) >= 3),
                 key=lambda q: q.coords)
    if len(six) != 6:
        raise NotA33Grid(f"found {len(six)} concurrency points, expected 6")
    for tri in itertools.combinations(six, 3):
        rest = [q for q in six if q not in tri]
        if span_dim(list(tri)) == 1 and span_dim(rest) == 1:
            return (tuple(tri), tuple(rest))
    raise NotA33Grid("concurrency points admit no collinear partition")


# ---------------------------------------------------------------------------
# weak combinatorial equivalence

def _profiles(points, members):
    """Per-point multiset of sizes of the lines through it."""
    prof = {q: [] for q in points}
    for v in members.values():
        for q in v:
            prof[q].append(len(v))
    return {q: tuple(sorted(s)) for q, s in prof.items()}


def _two_point_neighbors(points, members):
    nbr = {q: set() for q in points}
    for v in members.values():
        if len(v) == 2:
            a, b = tuple(v)
            nbr[a].add(b)
            nbr[b].add(a)
    return nbr


def _profile_classes(points, members):
    prof = _profiles(points, members)
    classes = {}
    for q, t in prof.items():
        classes.setdefault(t, set()).add(q)
    return classes


def k33_probe(points, members):
    """Fingerprint of complete bipartite K_{3,3} subgraphs of the
    two-point-line graph, between points of distinct line profiles.

    Returns the set of (profile_A, profile_B) pairs for which three
    points of profile A share at least three common neighbors of
    profile B. Invariant under collinearity-preserving bijections.
    """
    nbr = _two_point_neighbors(points, members)
    classes = _profile_classes(points, members)
    found = set()
    for pa, A in classes.items():
        for pb, B in classes.items():
            if pa == pb:
                continue
            for t in itertools.combinations(sorted(A, key=lambda q: q.coords), 3):
                common = nbr[t[0]] & nbr[t[1]] & nbr[t[2]] & B
                if len(common) >= 3:
                    found.add((pa, pb))
                    break
    return frozenset(found)


def disjoint_k13_probe(points, members):
    """Fingerprint of disjoint K_{1,3} pairs: two points of equal line
    profile whose two-point-line neighborhoods inside some line contain
    disjoint triples.

    Returns the set of (profile, line_size) pairs for which such a
    configuration exists. Invariant under collinearity-preserving
    bijections.
    """
    nbr = _two_point_neighbors(points, members)
    classes = _profile_classes(points, members)
    big = [v for v in members.values() if len(v) >= 3]
    found = set()
    for prof, C in classes.items():
        for v in big:
            key = (prof, len(v))
            if key in found:
                continue
            for c1, c2 in itertools.combinations(
                    sorted(C - v, key=lambda q: q.coords), 2):
                a = nbr[c1] & v
                b = nbr[c2] & v
                if len(a) >= 3 and len(b) >= 3 and not (a & b):
                    found.add(key)
                    break
    return frozenset(found)


def _collinear_triples(points):
    out = set()
    for t in itertools.combinations(range(len(points)), 3):
        if span_dim([points[i] for i in t]) == 1:
            out.add(frozenset(t))
    return out


def _search_bijection(pts1, pts2, prof1, prof2):
    """Backtracking search for a collinearity-preserving bijection,
    candidates restricted to matching line profiles."""
    n = len(pts1)
    coll1 = _collinear_triples(pts1)
    coll2 = _collinear_triples(pts2)
    # assign points in order of rarest profile first
    from collections import Counter
    freq = Counter(prof1[q] for q in pts1)
    order = sorted(range(n), key=lambda i: (freq[prof1[pts1[i]]], i))
    image = [None] * n
    used = [False] * n
    assigned = []

    def walk(pos):
        if pos == n:
            return True
        i = order[pos]
        for j in range(n):
            if used[j] or prof1[pts1[i]] != prof2[pts2[j]]:
                continue
            ok = True
            for a, b in itertools.combinations(assigned, 2):
                t1 = frozenset((i, a, b))
                t2 = frozenset((j, image[a], image[b]))
                if (t1 in coll1) != (t2 in coll2):
                    ok = False
                    break
            if not ok:
                continue
            image[i] = j
            used[j] = True
            assigned.append(i)
            if walk(pos + 1):
                return True
            assigned.pop()
            used[j] = False
            image[i] = None
        return False

    if walk(0):
        return list(image)
    return None


def weak_comb_equivalent(Z1, Z2, exhaustive_bound=16):
    """Staged test for a collinearity-preserving bijection.

    Returns ("Distinguished", invariant_name), ("Equivalent", bijection
    or None), or ("Unknown", None) when all invariants agree but the set
    is too large for the exhaustive search.
    """
    pts1, pts2 = _points(Z1), _points(Z2)
    if len(pts1) != len(pts2):
        raise SizeMismatch(f"{len(pts1)} vs {len(pts2)} points")
    if pts1 == pts2:
        return ("Equivalent", list(range(len(pts1))))
    m1, m2 = _line_members(pts1), _line_members(pts2)
    h1 = sorted((len(v) for v in m1.values()))
    h2 = sorted((len(v) for v in m2.values()))
    if h1 != h2:
        return ("Distinguished", "line_census")
    prof1, prof2 = _profiles(pts1, m1), _profiles(pts2, m2)
    if sorted(prof1.values()) != sorted(prof2.values()):
        return ("Distinguished", "point_line_profile")
    if k33_probe(pts1, m1) != k33_probe(pts2, m2):
        return ("Distinguished", "k33_probe")
    if disjoint_k13_probe(pts1, m1) != disjoint_k13_probe(pts2, m2):
        return ("Distinguished", "disjoint_k13_probe")
    if len(pts1) <= exhaustive_bound:
        bij = _search_bijection(pts1, pts2, prof1, prof2)
        if bij is None:
            return ("Distinguished", "exhaustive_search")
        return ("Equivalent", bij)
    return ("Unknown", None)
