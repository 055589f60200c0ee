import math
import random
from unittest import mock

import pytest

from geproci import unexpected
from geproci.configs import FlatUnion, named, skeleton, unity_grid
from geproci.field import FieldSpec
from geproci.ideals import ideal_dim, interp_matrix, simple_scheme
from geproci.linalg import rank
from geproci.projgeom import ProjPoint, flat_through, random_point
from geproci.unexpected import (
    _condition_points,
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
    # the fixed lattice points impose what random samples of each flat
    # impose: binom(t + k, k) general points of a k-flat are its conditions
    # on degree-t forms
    rng = random.Random(seed)
    for sk, t in [(skeleton(4, 2), 5), (skeleton(5, 4), 3)]:
        p = sk.field.p
        got = _condition_points(sk, t)
        assert len(set(got)) == len(got)
        assert all(type(c) is int for q in got for c in q.coords)
        k = sk.flat_dim
        want = [q for flat in sk.flats
                for q in flat_samples_one_by_one(flat, math.comb(t + k, k),
                                                 p, rng)]
        assert ideal_dim(got, t, p) == ideal_dim(want, t, p)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("k,need", [(1, 8), (2, 21)])
def test_flat_samples_with_zero_and_repeated_rows(seed, k, need):
    # over F_7 a line has 8 points and a plane 57, so the sampler draws
    # zero and repeated rows; the lattice of degree t < 7 has full rank
    # binom(t + k, k), and no sample of the flat adds a condition to it
    p = 7
    fs = FieldSpec(p)
    flat = flat_through([ProjPoint.make([1 if j == i else 0
                                         for j in range(4)], p)
                         for i in range(k + 1)])
    samples = list(flat_samples_one_by_one(flat, need, p,
                                           random.Random(seed)))
    for t in range(p):
        got = _condition_points(FlatUnion(3, [flat], fs), t)
        M = interp_matrix(simple_scheme(got), t, p)
        assert rank(M, p) == math.comb(t + k, k)
        assert ideal_dim(got + samples, t, p) == ideal_dim(got, t, p)


@pytest.mark.parametrize("p", [7, 1073741827])
@pytest.mark.parametrize("k", range(4))
def test_one_flat_lattice_imposes_binomial_conditions(k, p):
    # a k-flat imposes binom(t + k, k) conditions on degree-t forms, and
    # its lattice has that rank for t = 0..6, which over F_7 is every t < p
    rng = random.Random(repr((k, p)))
    fs = FieldSpec(p)
    while True:
        flat = flat_through([random_point(5, p, rng) for _ in range(k + 1)])
        if flat.dim == k:
            break
    for t in range(7):
        got = _condition_points(FlatUnion(4, [flat], fs), t)
        M = interp_matrix(simple_scheme(got), t, p)
        assert rank(M, p) == math.comb(t + k, k)


def test_degree_zero_and_one_on_a_flat_union():
    # a lattice of degree 0 would be the zero vector; degree 1 stands in
    sk = skeleton(4, 2)
    assert (adim(sk, 0, 0), vdim(sk, 0, 0)) == (0, 0)
    assert (adim(sk, 1, 1), vdim(sk, 1, 1)) == (0, -1)


def test_vdim_is_one_exact_rank():
    sk = skeleton(4, 2)
    with mock.patch("geproci.unexpected.ideal_dim",
                    wraps=unexpected.ideal_dim) as spy:
        values = {vdim(sk, 5, 5, trials=4, seed=s) for s in range(4)}
    assert len(values) == 1
    assert spy.call_count == 4


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
    scheme = ([(q, 1) for q in _condition_points(Z, t)]
              + [(random_point(n + 1, p, rng), t)])
    direct = math.comb(t + n, n) - rank(interp_matrix(scheme, t, p), p)
    assert adim(Z, t, t, trials=1) == direct == expected


def test_rays13_near_diagonal_dimensions():
    cfg = named("rays13")
    assert [adim(cfg, d, d - 1, trials=1) for d in (5, 6, 7)] == [0, 1, 2]


def test_rays21_near_diagonal_start():
    cfg = named("rays21")
    assert [adim(cfg, d, d - 1, trials=1) for d in (7, 8)] == [0, 1]
