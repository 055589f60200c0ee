"""Incidence combinatorics: line and plane censuses, concurrency points
of a (3,3)-grid, weak combinatorial equivalence tests, and the one
exact-cover search behind grid rulings and Kochen-Specker colourings.

Two point sets are weakly combinatorially equivalent when a bijection
preserves collinearity both ways. The test is staged: cheap censuses and
per-point profiles first, then two graph-theoretic probes on the
two-point-line structure, then (for small sets) an exhaustive search for
a collinearity-preserving bijection.
"""

import itertools
from collections import Counter
from functools import cached_property

import numpy as np

from .projgeom import _minors, flat_groups, points_of_rows

EXHAUSTIVE_BOUND = 16   # largest set weak_comb_equivalent searches


class NotA33Grid(ValueError):
    pass


class SizeMismatch(ValueError):
    pass


class IncidenceCensus:
    """The (k-1)-flats spanned by k-subsets of the points, counted from
    their projgeom.flat_groups: histogram maps points-on-flat to the
    number of flats. runs (each flat as the tuple of its point indices)
    and members (run -> frozenset of those points, filled in run order,
    which fixes its iteration order) are built on first read."""

    def __init__(self, points, k):
        self.flat_dim = k - 1
        self._points = points
        self._on, self._sizes = flat_groups(points, k)
        self.histogram = dict(Counter(self._sizes))

    @cached_property
    def runs(self):
        on = iter(self._on)
        return [tuple(itertools.islice(on, size)) for size in self._sizes]

    @cached_property
    def members(self):
        pts = self._points
        return {run: frozenset({pts[i] for i in run}) for run in self.runs}


def _points(Z):
    return list(Z.points) if hasattr(Z, "points") else list(Z)


def _lines(points):
    """The lines spanned by the points, as runs of point indices."""
    return IncidenceCensus(points, 2).runs


def line_census(Z) -> IncidenceCensus:
    """Histogram of lines by how many of the points they contain."""
    return IncidenceCensus(_points(Z), 2)


def plane_census(Z) -> IncidenceCensus:
    """Histogram of planes (spanned by noncollinear triples) by point
    count, for configurations in 3-space."""
    return IncidenceCensus(_points(Z), 3)


def brianchon_points(Z):
    """The six concurrency points of the 18 two-point lines of a
    (3,3)-grid, partitioned into two collinear triples.

    Appending either triple to the grid yields a 12-point configuration
    with the characteristic {2: 18, 3: 16} line census.
    """
    points = _points(Z)
    lines = _lines(points)
    if len(points) != 9 or sorted(map(len, lines)) != [2] * 18 + [3] * 6:
        raise NotA33Grid("expected the 9 points and 6+18 lines of a "
                         "(3,3)-grid")
    p = points[0].p
    B = np.array([[points[i].coords for i in r] for r in lines if len(r) == 2])
    pairs = list(itertools.combinations(range(len(B)), 2))
    i, j = np.array(pairs).T
    # lines (a, b) and (c, d) meet at x_0 a + x_1 b = -(x_2 c + x_3 d),
    # x a nonzero row of adj([a; b; c; d]). Row k has x_0 = +-m0[k] and
    # x_1 = -+m1[k], the minors of [b; c; d] and [a; c; d] without column
    # k, and is nonzero exactly when they are not both zero (c and d are
    # independent). Skew lines have det = sum (-1)**k a[k] m0[k] != 0
    a, b, cd = B[i, 0], B[i, 1], B[j]
    m0 = _minors(np.concatenate([b[:, None], cd], axis=1), p)[:, ::-1]
    m1 = _minors(np.concatenate([a[:, None], cd], axis=1), p)[:, ::-1]
    meet = (a * m0 % p * (-1) ** np.arange(4)).sum(axis=1) % p == 0
    k = ((m0 != 0) | (m1 != 0)).argmax(axis=1)[:, None]
    V = (np.take_along_axis(m0, k, axis=1) * a % p
         - np.take_along_axis(m1, k, axis=1) * b % p)[meet] % p
    grid_pts = set(points)
    conc = {}
    for pair, q in zip(itertools.compress(pairs, meet),
                       points_of_rows(V, p)):
        if q not in grid_pts:
            conc.setdefault(q, set()).update(pair)
    six = sorted((q for q, ls in conc.items() if len(ls) >= 3),
                 key=lambda q: q.coords)
    if len(six) != 6:
        raise NotA33Grid(f"found {len(six)} concurrency points, expected 6")
    coll = _collinear_triples(_lines(six))
    for tri in itertools.combinations(range(6), 3):
        rest = frozenset(range(6)).difference(tri)
        if frozenset(tri) in coll and rest in coll:
            return (tuple(six[i] for i in tri),
                    tuple(six[i] for i in sorted(rest)))
    raise NotA33Grid("concurrency points admit no collinear partition")


# ---------------------------------------------------------------------------
# weak combinatorial equivalence

def _line_structure(n, lines):
    """(profiles, nbr, classes, big) of n points and the index runs of
    their lines: the sorted sizes of the lines through each point, the
    bitmask of its two-point-line neighbours, a bitmask of the points of
    each profile, and the bitmasks of the lines with three or more
    points."""
    sizes = [[] for _ in range(n)]
    nbr = [0] * n
    big = []
    for idx in lines:
        for i in idx:
            sizes[i].append(len(idx))
        if len(idx) == 2:
            a, b = idx
            nbr[a] |= 1 << b
            nbr[b] |= 1 << a
        else:
            big.append(sum(1 << i for i in idx))
    profiles = [tuple(sorted(s)) for s in sizes]
    classes = {}
    for i, t in enumerate(profiles):
        classes[t] = classes.get(t, 0) | 1 << i
    return profiles, nbr, classes, big


def _bits(mask):
    """Indices of the set bits of mask, ascending."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def k33_probe(points, members):
    """Fingerprint of complete bipartite K_{3,3} subgraphs of the
    two-point-line graph, between points of distinct line profiles, read
    off the runs that key members = line_census(points).members.

    Returns the set of (profile_A, profile_B) pairs for which three
    points of profile A share at least three common neighbors of
    profile B. Invariant under collinearity-preserving bijections.
    """
    return _k33(_line_structure(len(points), members))


def _k33(structure):
    _, nbr, classes, _ = structure
    found = set()
    for pa, A in classes.items():
        for pb, B in classes.items():
            if pa == pb:
                continue
            for i, j, k in itertools.combinations(_bits(A), 3):
                if (nbr[i] & nbr[j] & nbr[k] & B).bit_count() >= 3:
                    found.add((pa, pb))
                    break
    return frozenset(found)


def disjoint_k13_probe(points, members):
    """Fingerprint of disjoint K_{1,3} pairs: two points of equal line
    profile whose two-point-line neighborhoods inside some line contain
    disjoint triples (members as for k33_probe).

    Returns the set of (profile, line_size) pairs for which such a
    configuration exists. Invariant under collinearity-preserving
    bijections.
    """
    return _k13(_line_structure(len(points), members))


def _k13(structure):
    _, nbr, classes, big = structure
    found = set()
    for prof, C in classes.items():
        for v in big:
            key = (prof, v.bit_count())
            if key in found:
                continue
            feet = [nbr[c] & v for c in _bits(C & ~v)]
            feet = [a for a in feet if a.bit_count() >= 3]
            if any(not a & b for a, b in itertools.combinations(feet, 2)):
                found.add(key)
    return frozenset(found)


def _collinear_triples(lines):
    """Index triples of points that lie on one of the index lines."""
    return {frozenset(t) for idx in lines if len(idx) >= 3
            for t in itertools.combinations(idx, 3)}


def _search_bijection(prof1, prof2, coll1, coll2):
    """Backtracking search for a collinearity-preserving bijection,
    candidates restricted to matching line profiles (lists indexed by
    point); coll1 and coll2 are the collinear index triples."""
    n = len(prof1)
    # assign points in order of rarest profile first
    freq = Counter(prof1)
    order = sorted(range(n), key=lambda i: (freq[prof1[i]], i))
    image = [None] * n
    used = [False] * n
    assigned = []

    def walk(pos):
        if pos == n:
            return True
        i = order[pos]
        for j in range(n):
            if used[j] or prof1[i] != prof2[j]:
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


# ---------------------------------------------------------------------------
# exact cover

def exact_covers(n_items, options):
    """Yield each exact cover of the items 0 .. n_items-1 as the list of
    indices of its options, every option a bitmask of the items it
    covers.

    Knuth's Algorithm X (Dancing Links, 2000; TAOCP 7.2.2.1): branch on
    the uncovered item with the fewest live options (those inside the
    uncovered items), the lowest such item on ties, and try its options
    in index order."""
    by_item = [[] for _ in range(n_items)]
    for o, mask in enumerate(options):
        for i in _bits(mask):
            by_item[i].append(o)
    chosen = []

    def search(todo):
        if not todo:
            yield list(chosen)
            return
        best = None
        for i in _bits(todo):
            live = [o for o in by_item[i] if not options[o] & ~todo]
            if best is None or len(live) < len(best):
                best = live
                if not live:
                    return
        for o in best:
            chosen.append(o)
            yield from search(todo & ~options[o])
            chosen.pop()

    yield from search((1 << n_items) - 1)


def weak_comb_equivalent(Z1, Z2):
    """Staged test for a collinearity-preserving bijection.

    Returns ("Distinguished", invariant_name), ("Equivalent", bijection
    or None), or ("Unknown", None) when all invariants agree but the set
    has more than EXHAUSTIVE_BOUND points, too many to search.
    """
    pts1, pts2 = _points(Z1), _points(Z2)
    if len(pts1) != len(pts2):
        raise SizeMismatch(f"{len(pts1)} vs {len(pts2)} points")
    if pts1 == pts2:
        return ("Equivalent", list(range(len(pts1))))
    l1, l2 = _lines(pts1), _lines(pts2)
    if sorted(map(len, l1)) != sorted(map(len, l2)):
        return ("Distinguished", "line_census")
    s1, s2 = _line_structure(len(pts1), l1), _line_structure(len(pts2), l2)
    prof1, prof2 = s1[0], s2[0]
    if sorted(prof1) != sorted(prof2):
        return ("Distinguished", "point_line_profile")
    if _k33(s1) != _k33(s2):
        return ("Distinguished", "k33_probe")
    if _k13(s1) != _k13(s2):
        return ("Distinguished", "disjoint_k13_probe")
    if len(pts1) <= EXHAUSTIVE_BOUND:
        bij = _search_bijection(prof1, prof2, _collinear_triples(l1),
                                _collinear_triples(l2))
        if bij is None:
            return ("Distinguished", "exhaustive_search")
        return ("Equivalent", bij)
    return ("Unknown", None)
