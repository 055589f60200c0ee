import math
import random

import pytest

from geproci.configs import named, skeleton, unity_grid
from geproci.ideals import interp_matrix
from geproci.linalg import rank
from geproci.projgeom import ProjPoint, flat_through, random_point
from geproci.unexpected import (
    _condition_points,
    _flat_points,
    _space,
    adim,
    c_predicate,
    skeleton_dims,
    skeleton_f,
    vdim,
    verify_skeleton_T,
)

from oracles import flat_samples_one_by_one


# ---------------------------------------------------------------------------
# coordinate line skeletons

@pytest.mark.parametrize("n,expected", [(4, 0), (5, 5), (6, 14)])
def test_line_skeleton_cubic_cone_dimension(n, expected):
    sk = skeleton(n, n - 1)
    assert adim(sk, 3, 3, trials=1) == expected
    assert expected == math.comb(n + 1, 3) - math.comb(n + 2, 2) + n + 1


# ---------------------------------------------------------------------------
# codimension-2 coordinate skeletons

@pytest.mark.parametrize("n,m", [(3, 6), (3, 8), (4, 10)])
def test_codim2_skeleton_matches_closed_forms(n, m):
    sk = skeleton(n, 2)
    a = adim(sk, m, m, trials=1)
    v = vdim(sk, m, m, trials=1)
    idim, cone = skeleton_dims(n, m)
    assert a == cone
    assert a - v == skeleton_f(m, n)
    # positive f means the cone system is unexpectedly large
    assert (a > max(0, v)) == (skeleton_f(m, n) > 0 and cone > 0)


def test_skeleton_f_small_n_closed_forms():
    for m in range(3, 21):
        assert skeleton_f(m, 2) == 0
    for m in range(6, 21):
        assert skeleton_f(m, 3) == 7
    for m in range(10, 21):
        assert skeleton_f(m, 4) == 25 * m - 80


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_skeleton_permutation_hypersurface(n):
    report = verify_skeleton_T(n)
    assert report["ok"]
    assert report["degree"] == n // 2 + 1
    assert report["order_at_Q"] >= report["order_required"]


@pytest.mark.parametrize("seed", range(4))
def test_condition_points_match_one_by_one_sampler(seed):
    sk = skeleton(4, 2)
    rng_got, rng_want = random.Random(seed), random.Random(seed)
    got = _condition_points(sk, 5, rng_got)
    want = []
    for flat in sk.flats:
        want += sorted(flat_samples_one_by_one(flat, 21, sk.field.p,
                                               rng_want),
                       key=lambda q: q.coords)
    assert got == want
    assert all(type(c) is int for q in got for c in q.coords)
    assert rng_got.getstate() == rng_want.getstate()


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("k,need", [(1, 8), (2, 21)])
def test_flat_samples_with_zero_and_repeated_rows(seed, k, need):
    # over F_7 a line has 8 points and a plane 57: repeats are common, and
    # seeds 1, 2 and 4 draw a zero coefficient row on the line, so the
    # batches of missing rows run
    p = 7
    flat = flat_through([ProjPoint.make([1 if j == i else 0
                                         for j in range(4)], p)
                         for i in range(k + 1)])
    rng_got, rng_want = random.Random(seed), random.Random(seed)
    got = _flat_points(flat, need, p, rng_got)
    assert got == flat_samples_one_by_one(flat, need, p, rng_want)
    assert rng_got.getstate() == rng_want.getstate()


# ---------------------------------------------------------------------------
# cone predicates on concrete configurations

def test_half_grid_12_has_cubic_and_quartic_cones():
    cfg = named("d4")
    r3 = c_predicate(cfg, 3, trials=1)
    r4 = c_predicate(cfg, 4, trials=1)
    assert r3.unexpected and (r3.adim, r3.vdim) == (1, -2)
    assert r4.unexpected and (r4.adim, r4.vdim) == (4, 3)


def test_grid_2x4_has_no_unexpected_quartic_cone():
    g = unity_grid(2, 4)
    r = c_predicate(g, 4, trials=1)
    assert not r.unexpected
    assert r.adim == r.vdim == 7


def test_root_system_24_points_cones():
    cfg = named("f4")
    r4 = c_predicate(cfg, 4, trials=1)
    r6 = c_predicate(cfg, 6, trials=1)
    assert r4.unexpected and r4.adim == 1
    assert r6.unexpected and (r6.adim, r6.vdim) == (7, 4)


@pytest.mark.parametrize("Z,t,expected", [
    (named("d4"), 3, 1),
    (skeleton(5, 4), 3, 5),
], ids=["d4", "line-skeleton-5"])
def test_cone_dimension_by_projection_matches_fat_vertex(Z, t, expected):
    # for m = t adim projects Z from a general point; here the cone is
    # counted directly, with the vertex a fat point of multiplicity t
    n, p = _space(Z)
    rng = random.Random(5)
    scheme = ([(q, 1) for q in _condition_points(Z, t, rng)]
              + [(random_point(n + 1, p, rng), t)])
    direct = math.comb(t + n, n) - rank(interp_matrix(scheme, t, p), p)
    assert adim(Z, t, t, trials=1) == direct == expected


def test_rays13_near_diagonal_dimensions():
    cfg = named("rays13")
    assert [adim(cfg, d, d - 1, trials=1) for d in (5, 6, 7)] == [0, 1, 2]


def test_rays21_near_diagonal_start():
    cfg = named("rays21")
    assert [adim(cfg, d, d - 1, trials=1) for d in (7, 8)] == [0, 1]
