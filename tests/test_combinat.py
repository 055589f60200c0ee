import itertools
import json
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from geproci import projgeom
from geproci.cli import main
from geproci.combinat import (
    NotA33Grid,
    SizeMismatch,
    brianchon_points,
    disjoint_k13_probe,
    exact_covers,
    k33_probe,
    line_census,
    plane_census,
    weak_comb_equivalent,
)
from geproci.configs import grid, named, save, unity_grid, z56
from geproci.field import make_field
from geproci.projgeom import NotDistinct, ProjPoint, span_dim, spanned_flats

from oracles import (
    FLAT_CORPUS,
    collinear,
    covers_by_subsets,
    det_cofactor,
    brianchon_by_pairs,
    disjoint_k13_probe_sets,
    k33_probe_sets,
)


# ---------------------------------------------------------------------------
# line and plane censuses

def test_half_grid_12_censuses():
    cfg = named("d4")
    assert line_census(cfg).histogram == {2: 18, 3: 16}
    assert plane_census(cfg).histogram == {6: 12, 3: 12}


def test_root_system_24_lines():
    cfg = named("f4")
    census = line_census(cfg)
    assert census.histogram == {2: 72, 3: 32, 4: 18}
    # each point lies on exactly three of the 4-point lines
    per_point = {q: 0 for q in cfg.points}
    for v in census.members.values():
        if len(v) == 4:
            for q in v:
                per_point[q] += 1
    assert set(per_point.values()) == {3}


def _oracle_line_histogram(points):
    """Line census from the naive cofactor collinearity oracle alone: the
    line through each pair is the set of points collinear with it."""
    lines = set()
    for i, j in itertools.combinations(range(len(points)), 2):
        a, b = points[i].coords, points[j].coords
        lines.add(frozenset(k for k, q in enumerate(points)
                            if k in (i, j)
                            or collinear(a, b, q.coords, points[i].p)))
    hist = {}
    for members in lines:
        hist[len(members)] = hist.get(len(members), 0) + 1
    return hist


def test_root_system_24_lines_match_oracle():
    points = named("f4").points
    hist = _oracle_line_histogram(points)
    # every pair of points lies on exactly one line
    assert sum(n * k * (k - 1) // 2 for k, n in hist.items()) == 276
    assert line_census(named("f4")).histogram == hist


def _oracle_planes(points):
    """Planes of a point set in 3-space from 4x4 cofactor determinants
    alone. Expanding det(a, b, c, q) along q gives sum q_i * n_i with
    n_i = det(a, b, c, e_i): the triple spans a plane unless n = 0, and
    the plane holds the q with det(a, b, c, q) = 0."""
    p = points[0].p
    units = [[int(i == j) for j in range(4)] for i in range(4)]
    planes, seen = set(), set()
    for t in itertools.combinations(range(len(points)), 3):
        if t in seen:
            continue
        rows = [list(points[i].coords) for i in t]
        n = [det_cofactor(rows + [e], p) for e in units]
        if not any(n):
            continue
        plane = frozenset(k for k, q in enumerate(points)
                          if sum(x * y for x, y in zip(q.coords, n)) % p == 0)
        planes.add(plane)
        seen.update(itertools.combinations(sorted(plane), 3))
    return planes


@pytest.mark.parametrize("cfg", [named("d4"), z56(1)], ids=["d4", "z1"])
def test_plane_census_matches_oracle(cfg):
    points = cfg.points
    planes = _oracle_planes(points)
    hist = {}
    for members in planes:
        hist[len(members)] = hist.get(len(members), 0) + 1
    census = plane_census(cfg)
    assert census.histogram == hist
    assert set(census.members.values()) == {
        frozenset(points[k] for k in plane) for plane in planes}


def test_penrose_lines():
    census = line_census(named("penrose"))
    assert census.histogram == {2: 240, 4: 90}
    assert sum(census.histogram.values()) == 330


def test_half_penrose_lines():
    hist = line_census(named("half_penrose")).histogram
    assert hist[4] == 10
    assert 5 not in hist


@pytest.mark.parametrize("which,planes", [
    (1, {3: 366, 4: 168, 5: 30, 10: 30}),
    (2, {3: 408, 4: 192, 5: 18, 10: 30}),
    (3, {3: 324, 4: 144, 5: 42, 10: 30}),
])
def test_thirty_point_censuses(which, planes):
    cfg = z56(which)
    assert line_census(cfg).histogram == {2: 216, 3: 36, 4: 6, 6: 5}
    assert plane_census(cfg).histogram == planes


def test_census_accepts_plain_point_lists():
    cfg = named("d4")
    assert line_census(cfg.points).histogram == {2: 18, 3: 16}


POINTS120_LINES = {2: 3240, 3: 240, 4: 90, 5: 144, 6: 80}


def test_counts_and_equivalence_build_no_flats(tmp_path, capsys):
    # histograms, the census command and the equivalence test count on
    # point indices; only members makes Flat objects
    path = tmp_path / "points120.json"
    save(named("points120"), str(path))
    boom = mock.Mock(side_effect=AssertionError("Flat built"))
    with mock.patch.object(projgeom, "Flat", boom):
        assert line_census(named("points120")).histogram == POINTS120_LINES
        assert (plane_census(z56(1)).histogram
                == {3: 366, 4: 168, 5: 30, 10: 30})
        assert main(["--json", "census", "lines", str(path)]) == 0
        assert weak_comb_equivalent(z56(1), z56(2)) == (
            "Distinguished", "disjoint_k13_probe")
    assert not boom.called
    hist = json.loads(capsys.readouterr().out)["data"]["histogram"]
    assert hist == {str(k): v for k, v in POINTS120_LINES.items()}


@pytest.mark.parametrize("label,k", FLAT_CORPUS,
                         ids=[f"{label}-{k}" for label, k in FLAT_CORPUS])
def test_census_members_match_spanned_flats(label, k):
    points = named(label).points
    census = (line_census if k == 2 else plane_census)(points)
    want = spanned_flats(points, k)
    # same flats in the same order, same members in the same order
    assert list(census.members.items()) == list(want.items())
    for v, w in zip(census.members.values(), want.values()):
        assert list(v) == list(w)
    # histogram keys in the order the flats first show each size
    hist = Counter(len(v) for v in want.values())
    assert list(census.histogram.items()) == list(hist.items())


def test_census_rejects_repeated_points():
    points = named("d4").points
    twice = points + [points[0]]
    for census in (line_census, plane_census):
        with pytest.raises(NotDistinct, match=r"points 0 and 12"):
            census(twice)
    with pytest.raises(NotDistinct):
        weak_comb_equivalent(twice, named("f4").points[:13])


# ---------------------------------------------------------------------------
# grid concurrency points

def test_brianchon_points_of_grid():
    g = unity_grid(3, 3)
    tri1, tri2 = brianchon_points(g)
    assert len(tri1) == len(tri2) == 3
    assert span_dim(list(tri1)) == 1
    assert span_dim(list(tri2)) == 1
    for tri in (tri1, tri2):
        aug = list(g.points) + list(tri)
        assert line_census(aug).histogram == {2: 18, 3: 16}


@pytest.mark.parametrize("seed", range(8))
def test_brianchon_points_match_pairwise_oracle(seed):
    # seeded grids on xw = yz, over the default prime and over F_101
    rng = random.Random(seed)
    fs = unity_grid(3, 3).field if seed < 4 else make_field([], 101)
    while True:
        pa = [(1, rng.randrange(fs.p)) for _ in range(3)]
        pb = [(1, rng.randrange(fs.p)) for _ in range(3)]
        if len(set(pa)) == 3 and len(set(pb)) == 3:
            break
    g = grid(3, 3, pa, pb, fs)
    assert brianchon_points(g) == brianchon_by_pairs(g.points)


def test_brianchon_rejects_non_grid():
    cfg = named("d4")
    with pytest.raises(NotA33Grid):
        brianchon_points(cfg.points[:9])


# ---------------------------------------------------------------------------
# weak combinatorial equivalence

def test_probe_fingerprints_differ_across_thirty_point_sets():
    z1, z2, z3 = z56(1), z56(2), z56(3)
    data = {}
    for name, cfg in [("z1", z1), ("z2", z2), ("z3", z3)]:
        census = line_census(cfg)
        data[name] = (k33_probe(cfg.points, census.members),
                      disjoint_k13_probe(cfg.points, census.members))
    assert data["z1"][0] != data["z3"][0]
    assert data["z2"][0] != data["z3"][0]
    assert data["z1"][1] != data["z2"][1]


def _random_plane_points(seed):
    """One to three lines of 4 to 7 points each, plus 4 to 9 scattered
    points, in the plane over F_101: many two-point lines and a few long
    ones, so the K_{3,3} probe often finds something."""
    rng = random.Random(seed)
    p = 101
    points = []

    def add(v):
        if any(x % p for x in v) and ProjPoint.make(v, p) not in points:
            points.append(ProjPoint.make(v, p))

    for _ in range(rng.randrange(1, 4)):
        u, w = ([rng.randrange(p) for _ in range(3)] for _ in range(2))
        for _ in range(rng.randrange(4, 8)):
            a, b = rng.randrange(p), rng.randrange(p)
            add([a * x + b * y for x, y in zip(u, w)])
    for _ in range(rng.randrange(4, 10)):
        add([rng.randrange(p) for _ in range(3)])
    return points


def _probe_cases():
    g1 = unity_grid(3, 3)
    g2 = grid(3, 3, [(1, 2), (1, 5), (2, 3)], [(1, 7), (3, 4), (1, 0)],
              g1.field)
    cases = [(f"z{w}", z56(w).points) for w in (1, 2, 3)]
    cases += [(label, named(label).points) for label in ("f4", "penrose")]
    cases += [("grid33", g1.points), ("grid33-moved", g2.points)]
    cases += [(f"random{s}", _random_plane_points(s)) for s in range(10)]
    return cases


_PROBE_CASES = _probe_cases()


@pytest.mark.parametrize("label,points", _PROBE_CASES,
                         ids=[label for label, _ in _PROBE_CASES])
def test_probes_match_set_oracles(label, points):
    members = line_census(points).members
    assert k33_probe(points, members) == k33_probe_sets(points, members)
    assert (disjoint_k13_probe(points, members)
            == disjoint_k13_probe_sets(points, members))


def test_thirty_point_sets_pairwise_distinguished():
    z1, z2, z3 = z56(1), z56(2), z56(3)
    assert weak_comb_equivalent(z1, z3) == ("Distinguished", "k33_probe")
    assert weak_comb_equivalent(z2, z3) == ("Distinguished", "k33_probe")
    assert weak_comb_equivalent(z1, z2) == (
        "Distinguished", "disjoint_k13_probe")


def test_grids_of_equal_shape_are_equivalent():
    g1 = unity_grid(3, 3)
    fs = g1.field
    g2 = grid(3, 3, [(1, 2), (1, 5), (2, 3)], [(1, 7), (3, 4), (1, 0)], fs)
    verdict, bijection = weak_comb_equivalent(g1, g2)
    assert verdict == "Equivalent"
    assert sorted(bijection) == list(range(9))


def test_identity_shortcut():
    g = unity_grid(3, 3)
    assert weak_comb_equivalent(g, g) == ("Equivalent", list(range(9)))


def test_size_mismatch_raises():
    with pytest.raises(SizeMismatch):
        weak_comb_equivalent(named("d4"), named("f4"))


def test_different_censuses_distinguished():
    g = unity_grid(3, 4)
    cfg = named("d4")
    verdict, invariant = weak_comb_equivalent(g, cfg)
    assert verdict == "Distinguished"
    assert invariant == "line_census"


# ---------------------------------------------------------------------------
# exact covers

def _masks(*options):
    return [sum(1 << i for i in o) for o in options]


def test_exact_covers_knuth_example():
    # items a..g as 0..6; the only cover is {a d f}, {b g}, {c e}
    a, b, c, d, e, f, g = range(7)
    options = _masks((c, e), (a, d, g), (b, c, f), (a, d, f), (b, g),
                     (d, e, g))
    assert list(exact_covers(7, options)) == [[3, 4, 0]]


def test_exact_covers_none():
    assert list(exact_covers(3, _masks((0, 1), (1, 2), (0, 2)))) == []
    assert list(exact_covers(2, _masks((0,)))) == []


def test_exact_covers_order_follows_the_tie_break():
    # item 0 has three options, items 1..3 two each: the search branches
    # on item 1 and then, under option 3, on item 2 (one live option)
    options = _masks((0, 1), (2, 3), (0, 2), (1, 3), (0,))
    assert list(exact_covers(4, options)) == [[0, 1], [3, 2]]


@st.composite
def _cover_cases(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    options = draw(st.lists(st.integers(min_value=1, max_value=(1 << n) - 1),
                            max_size=10))
    return n, options


@given(_cover_cases())
@settings(max_examples=150, deadline=None)
def test_exact_covers_match_subset_oracle(case):
    n, options = case
    covers = [frozenset(c) for c in exact_covers(n, options)]
    assert len(covers) == len(set(covers))
    assert set(covers) == covers_by_subsets(n, options)
