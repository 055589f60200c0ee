import itertools
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from geproci import configs, linalg, projgeom
from geproci.combinat import IncidenceCensus, line_census, plane_census
from geproci.field import make_field, order_constraint
from geproci.projgeom import (
    CollisionDetected,
    Flat,
    NotCollinear,
    NotDistinct,
    ProjPoint,
    VertexInZ,
    cross_ratio,
    flat_groups,
    flat_through,
    harmonic_conjugate,
    normalize,
    points_of_rows,
    project_from,
    segre,
    span_dim,
)

from oracles import (FLAT_CORPUS, collinear, flats_by_flat_through,
                     members_by_flat_through, same_members)

P = 1073741827


def pt(*coords):
    return ProjPoint.make(list(coords), P)


@pytest.mark.parametrize("p", [7, P])
def test_points_of_rows_match_make(p):
    rng = random.Random(p)
    rows = [[rng.randrange(p) for _ in range(4)] for _ in range(40)]
    rows += [[0, 0, 0, 5], [0, p - 1, 0, 0], [3, 0, 0, 0]]
    rows = [r for r in rows if any(r)]
    got = points_of_rows(rows, p)
    assert got == [ProjPoint.make(r, p) for r in rows]
    assert all(type(c) is int for q in got for c in q.coords)


def test_point_hash_is_the_tuple_hash():
    # the cached hash equals the generated one, so sets iterate as before
    for q in (pt(1, 2, 3, 4), pt(0, 0, 5, 1), ProjPoint.make([3, 1], 7)):
        assert hash(q) == hash(q) == hash((q.coords, q.p))
        assert q == ProjPoint(q.coords, q.p)


def test_normalize_first_nonzero_is_one():
    assert normalize([0, 3, 6], P)[1] == 1
    assert normalize([2, 4], P)[0] == 1


def test_projpoint_scaling_equal():
    assert pt(2, 4, 6) == pt(1, 2, 3)
    assert pt(0, 5, 10) == pt(0, 1, 2)


def test_are_collinear_matches_oracle():
    rng = random.Random(3)
    for _ in range(50):
        pts = [[rng.randrange(3) for _ in range(4)] for _ in range(3)]
        if any(not any(r) for r in pts):
            continue
        got = span_dim([ProjPoint.make(r, P) for r in pts]) <= 1
        assert got == collinear(*pts, P)


def test_flat_through_canonical():
    f1 = flat_through([pt(1, 0, 0, 0), pt(0, 1, 0, 0)])
    f2 = flat_through([pt(1, 1, 0, 0), pt(1, 2, 0, 0)])
    assert f1 == f2
    assert f1.dim == 1
    assert f1.contains(pt(3, 5, 0, 0))
    assert not f1.contains(pt(0, 0, 1, 0))


def test_span_dim():
    assert span_dim([pt(1, 0, 0), pt(0, 1, 0)]) == 1
    assert span_dim([pt(1, 0, 0), pt(2, 0, 0)]) == 0
    assert span_dim([pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1)]) == 2


def test_segre_image_on_quadric():
    # [a:b] x [c:d] -> [ac:ad:bc:bd] satisfies xw = yz
    rng = random.Random(5)
    for _ in range(20):
        a, b, c, d = (rng.randrange(1, P) for _ in range(4))
        q = segre(ProjPoint.make([a, b], P), ProjPoint.make([c, d], P))
        x, y, z, w = q.coords
        assert x * w % P == y * z % P


def test_cross_ratio_standard_harmonic():
    A, B, C, D = pt(0, 1), pt(1, 0), pt(1, 1), pt(1, -1)
    assert cross_ratio(A, B, C, D) == P - 1


def test_cross_ratio_requires_collinear():
    with pytest.raises(NotCollinear):
        cross_ratio(pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1), pt(1, 1, 1))


def test_cross_ratio_requires_distinct():
    with pytest.raises(NotDistinct):
        cross_ratio(pt(1, 0), pt(1, 0), pt(1, 1), pt(1, 2))


def test_cross_ratio_projective_invariance():
    # apply a random invertible 2x2 change of coordinates
    rng = random.Random(9)
    A, B, C, D = pt(1, 2), pt(1, 5), pt(1, 11), pt(1, 17)
    base = cross_ratio(A, B, C, D)
    for _ in range(10):
        m = [[rng.randrange(P) for _ in range(2)] for _ in range(2)]
        if (m[0][0] * m[1][1] - m[0][1] * m[1][0]) % P == 0:
            continue
        def apply(q):
            x, y = q.coords
            return ProjPoint.make(
                [m[0][0] * x + m[0][1] * y, m[1][0] * x + m[1][1] * y], P)
        assert cross_ratio(apply(A), apply(B), apply(C), apply(D)) == base


def test_harmonic_conjugate_round_trip():
    A, B, C = pt(1, 3, 0), pt(1, 7, 0), pt(1, 5, 0)
    D = harmonic_conjugate(A, B, C)
    assert cross_ratio(A, B, C, D) == P - 1
    assert harmonic_conjugate(A, B, D) == C


def test_exactly_eight_harmonic_orderings():
    A, B, C, D = pt(0, 1), pt(1, 0), pt(1, 1), pt(1, -1)
    count = sum(
        1 for perm in itertools.permutations([A, B, C, D])
        if cross_ratio(*perm) == P - 1)
    assert count == 8


def test_nonharmonic_quadruple_has_fewer_orderings():
    A, B, C, D = pt(0, 1), pt(1, 0), pt(1, 1), pt(1, 3)
    count = sum(
        1 for perm in itertools.permutations([A, B, C, D])
        if cross_ratio(*perm) == P - 1)
    assert count == 0


@pytest.mark.parametrize("n", [5, 7])
def test_consecutive_roots_cross_ratio_identity(n):
    # four consecutive powers of a primitive n-th root u have cross
    # ratio (u+1)^2 / (u^2+u+1) = 1 + 1/(2r+1), r = (u + 1/u)/2
    fs = make_field([("u", order_constraint(n))])
    p, u = fs.p, fs.symbols["u"]
    expected = (u + 1) ** 2 * fs.inv(u * u + u + 1) % p
    r = (u + fs.inv(u)) * fs.inv(2) % p
    alt = (1 + fs.inv(2 * r + 1)) % p
    assert expected == alt
    for t in range(n - 3):
        pts = [ProjPoint.make([1, pow(u, t + k, p)], p) for k in range(4)]
        assert cross_ratio(*pts) == expected


def test_project_from_image_dimension_drops():
    rng = random.Random(17)
    Z = [pt(*[rng.randrange(P) for _ in range(4)]) for _ in range(6)]
    vertex = pt(*[rng.randrange(P) for _ in range(4)])
    images = project_from(vertex, Z)
    assert all(q.ambient_dim == 2 for q in images)
    assert len(images) == len(Z)


def test_project_from_vertex_in_z():
    Z = [pt(1, 0, 0, 0), pt(0, 1, 0, 0)]
    with pytest.raises(VertexInZ):
        project_from(pt(1, 0, 0, 0), Z)


def test_project_from_collision():
    # vertex on the line of two points: their images collide
    Z = [pt(1, 0, 0, 0), pt(0, 1, 0, 0), pt(0, 0, 1, 0)]
    with pytest.raises(CollisionDetected):
        project_from(pt(1, 1, 0, 0), Z)


def test_project_general_refuses_points_of_P0():
    # every vertex of P^0 is the point itself: no draw can succeed
    with pytest.raises(ValueError, match=r"P\^0"):
        projgeom.project_general([pt(1)], random.Random(0))


def test_project_general_refuses_two_points_of_P1():
    # every projection of P^1 lands in P^0, where two points collide
    with pytest.raises(ValueError, match=r"P\^1"):
        projgeom.project_general([pt(1, 0), pt(0, 1)], random.Random(0))
    image, = projgeom.project_general([pt(1, 0)], random.Random(0))
    assert image.ambient_dim == 0


@pytest.mark.parametrize("vertex", [(0, 2, 3, 5), (7, 0, 1, 0, 9),
                                    (3, 1, 4, 1, 5, 9)])
def test_project_from_is_fixed_by_the_vertex(vertex):
    # the map is a choice of basis of the linear forms vanishing at the
    # vertex: it collapses each line through the vertex to one point, is
    # onto P^(n-1), and draws nothing
    rng = random.Random(3)
    v = pt(*vertex)
    n1 = len(vertex)
    Z = [pt(*[rng.randrange(P) for _ in range(n1)]) for _ in range(8)]
    moved = [ProjPoint.make([x + lam * w for x, w in zip(q.coords, v.coords)],
                            P)
             for q, lam in zip(Z, [rng.randrange(1, P) for _ in Z])]
    images = project_from(v, Z)
    assert project_from(v, moved) == images
    assert project_from(v, Z) == images
    coordinate = [pt(*[int(i == j) for j in range(n1)]) for i in range(n1)]
    assert span_dim(project_from(v, coordinate)) == n1 - 2


@st.composite
def _point_sets(draw):
    """(points, k, chunk): distinct points of P^2 ... P^7 over F_7 or the
    default prime, drawn as a mix of clusters on lines, planes and solids
    and scattered points, with k from 2 to 4 (in P^4 and up, more k x k
    minors than echelon entries) and a subset chunk size that often splits
    the subsets over several batches."""
    p = draw(st.sampled_from([7, P]))
    nvars = draw(st.integers(3, 8))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def vec():
        return [rng.randrange(p) for _ in range(nvars)]

    vecs = []
    for kind in draw(st.lists(st.sampled_from(["line", "plane", "solid",
                                               "point"]),
                              min_size=1, max_size=4)):
        basis = [vec() for _ in range({"line": 2, "plane": 3,
                                       "solid": 4}.get(kind, 1))]
        for _ in range(rng.randrange(1, 6) if kind != "point" else 1):
            c = [rng.randrange(p) for _ in basis]
            vecs.append([sum(a * b[j] for a, b in zip(c, basis))
                         for j in range(nvars)])
    points = []
    for v in vecs:
        if any(x % p for x in v) and ProjPoint.make(v, p) not in points:
            points.append(ProjPoint.make(v, p))
    k = draw(st.sampled_from([2, 3, 4]))
    chunk = draw(st.sampled_from([1, 4, 37, projgeom.SUBSET_CHUNK]))
    return points, k, chunk


def _runs_as_points(points, k):
    """The runs of flat_groups(points, k) as lists of points."""
    on, sizes = flat_groups(points, k)
    assert len(on) == sum(sizes)
    on = iter(on)
    return [[points[i] for i in itertools.islice(on, size)]
            for size in sizes]


@given(_point_sets())
@settings(max_examples=80, deadline=None)
def test_spanned_flats_match_grouping_by_flat_through(case):
    points, k, chunk = case
    with mock.patch.object(projgeom, "SUBSET_CHUNK", chunk):
        got = IncidenceCensus(points, k).members
    assert same_members(got, members_by_flat_through(points, k))


@pytest.mark.parametrize("points,k", [
    ([pt(1, 0, 0, 0), pt(0, 1, 0, 0), pt(1, 1, 0, 0), pt(1, 2, 0, 0)], 3),
    ([pt(1, 0, 0, 0), pt(0, 1, 0, 0), pt(0, 0, 1, 0), pt(1, 1, 1, 0)], 4),
    ([ProjPoint.make(v, 7) for v in ([1, 0, 0], [0, 1, 0], [0, 0, 1],
                                     [1, 1, 1], [1, 2, 3])], 4),
], ids=["collinear-planes", "coplanar-solids", "P2-solids"])
def test_spanned_flats_without_rank_k_subsets_are_empty(points, k):
    assert flat_groups(points, k) == ([], [])


@pytest.mark.parametrize("label,k", FLAT_CORPUS,
                         ids=[f"{label}-{k}" for label, k in FLAT_CORPUS])
def test_spanned_flats_match_elimination_oracle(label, k):
    points = configs.named(label).points
    got = _runs_as_points(points, k)
    assert got == list(flats_by_flat_through(points, k).values())


def test_censuses_run_without_elimination():
    # the Pluecker keys come from minors alone
    boom = mock.Mock(side_effect=AssertionError("elimination called"))
    with mock.patch.object(linalg, "_eliminate", boom):
        assert line_census(configs.named("d4")).histogram == {2: 18, 3: 16}
        assert (plane_census(configs.named("z1")).histogram
                == {3: 366, 4: 168, 5: 30, 10: 30})
    assert not boom.called


# tracemalloc peak of the plane flats of points120 with their members when
# they were grouped by echelon form (subsets reduced by a stacked rref,
# since removed), Python 3.11, numpy 2.4
ELIMINATION_PEAK = 66_364_166


def test_plane_flats_of_points120_stay_below_elimination_peak():
    points = configs.named("points120").points
    plane_census(points[:10]).members   # first-call set-up is not counted
    tracemalloc.start()
    try:
        members = plane_census(points).members
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(members) == 27000
    assert peak < ELIMINATION_PEAK
