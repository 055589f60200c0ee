import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from geproci import configs, ideals, linalg
from geproci.field import make_field
from geproci.ideals import (
    CharTooSmall,
    ZeroForm,
    coprime_plane_curves,
    deletion_h_vectors,
    hilbert_h_vector,
    ideal_dim,
    ideal_kernel,
    interp_matrix,
    macaulay_matrix,
    monomials,
    multiples,
    multiplicity_weight,
    next_degree_generation,
    num_monomials,
    simple_scheme,
)
from geproci.projgeom import ProjPoint, project_general, segre

from oracles import (coprime_by_resultants, deletion_h_vectors_by_kernels,
                     eval_monomial,
                     fat_conditions_by_lines, fat_rows_by_entries,
                     h_vector_by_ranks, macaulay_matrix_by_loop,
                     rank_det_by_columns)

P = 1073741827


def pt(*coords):
    return ProjPoint.make(list(coords), P)


def rand_pt(rng, nvars):
    return ProjPoint.make([rng.randrange(P) for _ in range(nvars)], P)


def test_monomials_count_and_order():
    for nvars in range(1, 5):
        for d in range(5):
            ms = monomials(nvars, d)
            assert len(ms) == num_monomials(nvars, d)
            assert all(sum(m) == d for m in ms)
            assert list(ms) == sorted(ms, reverse=True)


def test_interp_matrix_matches_naive():
    rng = random.Random(1)
    exps = monomials(4, 3)
    pts = [ProjPoint(tuple(rng.randrange(P) for _ in range(4)), P)
           for _ in range(10)]
    M = interp_matrix(simple_scheme(pts), 3, P)
    assert M.shape == (10, len(exps)) and M.dtype == np.int64
    for row, q in zip(M, pts):
        for v, e in zip(row, exps):
            assert v == eval_monomial(q.coords, e, P)
    # mixed scheme: a double point's four first-derivative rows keep their
    # place between the simple points' rows
    a, b, c = pts[:3]
    mixed = interp_matrix([(a, 1), (b, 2), (c, 1)], 3, P)
    assert mixed.shape == (6, len(exps))
    assert np.array_equal(mixed[0], M[0])
    assert np.array_equal(mixed[5], M[2])
    for k in range(4):
        for v, e in zip(mixed[1 + k], exps):
            lower = tuple(x - (j == k) for j, x in enumerate(e))
            want = e[k] * eval_monomial(b.coords, lower, P) if e[k] else 0
            assert v == want % P


def test_ideal_dim_empty_and_single_point():
    q = pt(1, 2, 3, 4)
    # one point kills one condition in each degree
    for t in range(1, 4):
        assert ideal_dim([q], t, P) == num_monomials(4, t) - 1


def test_ideal_dim_general_points_impose_independent_conditions():
    rng = random.Random(2)
    pts = [rand_pt(rng, 4) for _ in range(8)]
    assert ideal_dim(pts, 2, P) == num_monomials(4, 2) - 8


def test_ideal_kernel_vanishes_on_points():
    rng = random.Random(3)
    pts = [rand_pt(rng, 4) for _ in range(5)]
    exps = monomials(4, 2)
    for F in ideal_kernel(pts, 2, P):
        for q in pts:
            val = sum(int(c) * eval_monomial(q.coords, e, P)
                      for c, e in zip(F, exps)) % P
            assert val == 0


def test_hilbert_function_saturates_at_cardinality():
    rng = random.Random(4)
    pts = [rand_pt(rng, 4) for _ in range(6)]
    # the Hilbert function at t is C(t + 3, 3) - ideal_dim
    assert num_monomials(4, 2) - ideal_dim(pts, 2, P) == 6
    assert hilbert_h_vector(pts, P) == h_vector_by_ranks(pts, P) == (1, 3, 2)
    assert hilbert_h_vector([], P) == ()


def test_char_too_small():
    q = ProjPoint.make([1, 2], 7)
    with pytest.raises(CharTooSmall):
        interp_matrix([(q, 1)], 9, 7)
    with pytest.raises(CharTooSmall):
        interp_matrix([(q, 8)], 3, 7)


def test_fat_point_conditions():
    # a double point in the plane imposes 3 conditions on conics
    q = pt(1, 2, 3)
    M = interp_matrix([(q, 2)], 2, P)
    assert linalg.rank(M, P) == 3


@pytest.mark.parametrize("p", [7, P])
@pytest.mark.parametrize("nvars", [3, 4])
def test_fat_point_rows_match_entrywise_oracle(p, nvars):
    rng = random.Random(p * nvars)
    for mult in (2, 3, 4):
        for t in range(1, 7):
            # points with zero coordinates too, where 0**0 = 1 matters
            coords = [rng.choice([0, 1, rng.randrange(p)])
                      for _ in range(nvars)]
            if not any(coords):
                coords[0] = 1
            q = ProjPoint.make(coords, p)
            simple = ProjPoint.make([rng.randrange(1, p)
                                     for _ in range(nvars)], p)
            M = interp_matrix([(simple, 1), (q, mult)], t, p)
            want = fat_rows_by_entries(q.coords, mult,
                                       monomials(nvars, t), p)
            assert M.dtype == np.int64
            assert np.array_equal(M[1:], want), (mult, t, q)


@pytest.mark.parametrize("nvars,degrees", [(3, (1, 2, 3, 4)), (4, (1, 2, 3))])
def test_fat_point_conditions_match_line_restriction(nvars, degrees):
    # multiplicities up to t + 3: above t + 1 a fat point leaves no form
    rng = random.Random(29 + nvars)
    q = rand_pt(rng, nvars)
    for t in degrees:
        for s in range(1, t + 4):
            M = interp_matrix([(q, s)], t, P)
            L = fat_conditions_by_lines(q.coords, s, t, P, rng)
            r = rank_det_by_columns(M, P)[0]
            assert r == rank_det_by_columns(L, P)[0], (t, s)
            assert r == rank_det_by_columns(np.vstack([M, L]), P)[0], (t, s)
            want = num_monomials(nvars, t) if s > t else math.comb(
                s - 1 + nvars - 1, nvars - 1)
            assert r == want, (t, s)


def test_multiplicity_weight():
    assert multiplicity_weight((3, 0, 0, 0)) == 6
    assert multiplicity_weight((1, 1, 1, 0)) == 1
    assert multiplicity_weight((2, 1, 0, 0)) == 2


# ---------------------------------------------------------------------------
# interpolation vs dual presentation

def test_macaulay_and_interp_ranks_agree_on_random_instances():
    rng = random.Random(7)
    for _ in range(50):
        d = rng.randrange(2, 5)
        r = rng.randrange(1, 13)
        pts = [rand_pt(rng, 4) for _ in range(r)]
        Q = [rng.randrange(P) for _ in range(4)]
        scheme = simple_scheme(pts) + [(ProjPoint(tuple(Q), P), d)]
        lam = interp_matrix(scheme, d, P)
        T = macaulay_matrix(pts, d, Q, P)
        assert linalg.rank(lam, P) == linalg.rank(T, P)


def test_macaulay_matrix_matches_entrywise_loop():
    rng = random.Random(11)
    for _ in range(40):
        nvars, d = rng.randrange(2, 6), rng.randrange(1, 5)
        pts = [rand_pt(rng, nvars) for _ in range(rng.randrange(1, 8))]
        Q = [rng.choice([0, rng.randrange(P)]) for _ in range(nvars)]
        np.testing.assert_array_equal(
            macaulay_matrix(pts, d, Q, P),
            macaulay_matrix_by_loop(pts, d, Q, P))


def _fixture_interp_and_dual(Q):
    pts = [pt(1, 0, 0, 0), pt(0, 1, 0, 0), pt(0, 0, 1, 0),
           pt(0, 0, 0, 1), pt(1, 1, 1, 1), pt(2, 3, 5, 7)]
    scheme = simple_scheme(pts) + [(ProjPoint(tuple(Q), P), 3)]
    N = interp_matrix(scheme, 3, P).T.copy()
    T = macaulay_matrix(pts, 3, Q, P)
    return N, T


def test_fixture_minor_ratio_64_over_9():
    # six coordinate-simplex-and-general points, d = 3: deleting monomial
    # rows 2, 12, 18, 19 (1-based) from the 20x16 matrices leaves 16x16
    # minors related by the factor prod(e_M)/(d!)^6 = 64/9
    keep = [i for i in range(20) if i + 1 not in (2, 12, 18, 19)]
    exps = monomials(4, 3)
    factor = Fraction(1)
    for i in keep:
        factor *= multiplicity_weight(exps[i])
    factor /= Fraction(math.factorial(3)) ** 6
    assert factor == Fraction(64, 9)
    factor_mod = 64 * pow(9, P - 2, P) % P
    rng = random.Random(11)
    for _ in range(5):
        Q = [rng.randrange(1, P) for _ in range(4)]
        N, T = _fixture_interp_and_dual(Q)
        A = linalg.det(T[keep, :], P)
        B = linalg.det(N[keep, :], P)
        assert A != 0
        assert B == factor_mod * A % P


def test_fixture_rank_equality():
    rng = random.Random(13)
    Q = [rng.randrange(1, P) for _ in range(4)]
    N, T = _fixture_interp_and_dual(Q)
    assert N.shape == T.shape == (20, 16)
    assert linalg.rank(N, P) == linalg.rank(T, P)


# ---------------------------------------------------------------------------
# coprimality and generation

def _coeffs_of(exp_map, a, p):
    exps = monomials(3, a)
    return np.array([exp_map.get(e, 0) % p for e in exps], dtype=np.int64)


def test_coprime_plane_curves_distinct_lines():
    # x and y share no factor
    F = _coeffs_of({(1, 0, 0): 1}, 1, P)
    G = _coeffs_of({(0, 1, 0): 1}, 1, P)
    assert coprime_plane_curves(F, G, 1, 1, P)


def test_coprime_plane_curves_shared_factor():
    # x*y and x*z share the factor x
    F = _coeffs_of({(1, 1, 0): 1}, 2, P)
    G = _coeffs_of({(1, 0, 1): 1}, 2, P)
    assert not coprime_plane_curves(F, G, 2, 2, P)


def test_coprime_plane_curves_conic_vs_line():
    # smooth conic xz - y^2 and a chord x
    F = _coeffs_of({(1, 0, 1): 1, (0, 2, 0): -1}, 2, P)
    G = _coeffs_of({(1, 0, 0): 1}, 1, P)
    assert coprime_plane_curves(G, F, 1, 2, P)


def test_coprime_zero_form_raises():
    F = _coeffs_of({}, 2, P)
    G = _coeffs_of({(1, 1, 0): 1}, 2, P)
    with pytest.raises(ZeroForm):
        coprime_plane_curves(F, G, 2, 2, P)


def _form_product(H, h, F, f, p):
    """Coefficients of the product of ternary forms of degrees h and f."""
    out = dict.fromkeys(monomials(3, h + f), 0)
    for c, m in zip(H, monomials(3, h)):
        for d, M in zip(F, monomials(3, f)):
            key = tuple(x + y for x, y in zip(m, M))
            out[key] = (out[key] + int(c) * int(d)) % p
    return np.array(list(out.values()), dtype=np.int64)


@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2),
       st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_coprime_plane_curves_matches_resultant_oracle(a, b, h, seed):
    # F = H F1 and G = H G1 share H exactly when deg H > 0: random F1, G1
    # are coprime but for a chance of order ab / P
    h = min(h, a, b)
    rng = np.random.default_rng(seed)
    H, F1, G1 = (rng.integers(0, P, num_monomials(3, d))
                 for d in (h, a - h, b - h))
    assume(H.any() and F1.any() and G1.any())
    F = _form_product(H, h, F1, a - h, P)
    G = _form_product(H, h, G1, b - h, P)
    got = coprime_plane_curves(F, G, a, b, P)
    assert got == coprime_by_resultants(F, G, a, b, P, seed=seed)
    assert got == (h == 0)


@pytest.mark.parametrize("nvars,d,e", [(3, 2, 0), (3, 1, 3), (3, 4, 2),
                                       (4, 2, 1), (2, 3, 3)])
def test_multiples_evaluate_to_products(nvars, d, e):
    # (m F)(x) = m(x) F(x) at random points, one row per monomial m
    rng = random.Random(nvars * 100 + d * 10 + e)
    F = [rng.randrange(P) for _ in range(num_monomials(nvars, d))]
    rows = multiples(F, nvars, d, e, P)
    assert rows.shape == (num_monomials(nvars, e), num_monomials(nvars, d + e))
    for _ in range(3):
        x = [rng.randrange(P) for _ in range(nvars)]
        Fx = sum(c * eval_monomial(x, M, P)
                 for c, M in zip(F, monomials(nvars, d))) % P
        for row, m in zip(rows, monomials(nvars, e)):
            got = sum(int(c) * eval_monomial(x, M, P)
                      for c, M in zip(row, monomials(nvars, d + e))) % P
            assert got == eval_monomial(x, m, P) * Fx % P


def test_next_degree_generation_general_points():
    rng = random.Random(17)
    pts = [rand_pt(rng, 3) for _ in range(3)]
    # 3 general plane points: conics through them generate the cubics
    assert next_degree_generation(pts, 2, P) == (3, 7, True)
    # 8 general points of P3: x_i Q over the pencil of quadrics Q gives
    # 8 of the 12 cubics
    pts = [rand_pt(rng, 4) for _ in range(8)]
    assert next_degree_generation(pts, 2, P) == (2, 12, False)


# ---------------------------------------------------------------------------
# one-point deletions from one nested elimination across degrees

def _assert_deletions_match_brute_force(pts):
    full, dropped = deletion_h_vectors(pts, P)
    assert full == hilbert_h_vector(pts, P) == h_vector_by_ranks(pts, P)
    assert dropped == [h_vector_by_ranks(pts[:i] + pts[i + 1:], P)
                       for i in range(len(pts))]
    return full, dropped


def test_deletion_h_vectors_match_brute_force():
    rng = random.Random(23)
    # four collinear points plus general points in the plane
    line = [pt(1, k, 0) for k in range(4)]
    _assert_deletions_match_brute_force(
        line + [rand_pt(rng, 3) for _ in range(3)])
    # six points on the conic xz = y^2
    conic = [pt(1, k, k * k) for k in range(6)]
    full, dropped = _assert_deletions_match_brute_force(conic)
    assert full == (1, 2, 2, 1)
    # ten points on a smooth quadric plus one general point: some deletion
    # changes the Hilbert function, so cbp_ambient is No
    eleven = [segre(rand_pt(rng, 2), rand_pt(rng, 2)) for _ in range(10)]
    eleven.append(rand_pt(rng, 4))
    full, dropped = _assert_deletions_match_brute_force(eleven)
    assert len(set(dropped)) > 1
    # four general plane points saturate in degree 2, any three in degree 1
    full, dropped = _assert_deletions_match_brute_force(
        [rand_pt(rng, 3) for _ in range(4)])
    assert full == (1, 2, 1)
    assert set(dropped) == {(1, 2)}
    # two equal points of P^0: no monomial free of x0 past degree 0
    assert _assert_deletions_match_brute_force([pt(1), pt(3)]) == (
        (1, 0, 0, 0), [(1,), (1,)])


@given(st.integers(min_value=0, max_value=5),
       st.lists(st.lists(st.integers(min_value=-2, max_value=2),
                         min_size=6, max_size=6),
                min_size=1, max_size=7))
@settings(max_examples=60, deadline=None)
def test_deletion_h_vectors_agree_with_brute_force(ambient, rows):
    pts = [pt(*row[:ambient + 1]) for row in rows if any(row[:ambient + 1])]
    if pts:
        _assert_deletions_match_brute_force(pts)


def _walked_sets():
    yield "e8 in P7", configs.named("e8").points, (1, 7, 28, 84)
    images = project_general(configs.named("points120").points,
                             random.Random(repr((1, "geprocb"))))
    # a (10,12) complete intersection of plane curves
    yield "points120 image at seed 1", images, (
        tuple(range(1, 11)) + (10, 10) + tuple(range(9, 0, -1)))


@pytest.mark.parametrize("label,pts,h", list(_walked_sets()),
                         ids=lambda x: x if isinstance(x, str) else "")
def test_walk_h_vectors_match_per_degree_ranks(label, pts, h):
    p = pts[0].p
    full, dropped = deletion_h_vectors(pts, p)
    assert full == hilbert_h_vector(pts, p) == h_vector_by_ranks(pts, p) == h
    # one rank per degree for every deletion would take seconds here
    for i in (0, len(pts) - 1):
        rest = pts[:i] + pts[i + 1:]
        assert dropped[i] == h_vector_by_ranks(rest, p)


def _deletion_cases():
    rng = random.Random(37)
    # x0 vanishes at some points, so the linear form l = sum c^j x_j is
    # found past c = 0; on the second set x0 + x1 + x2 vanishes too
    yield "coordinate points and [1:1:1]", [
        pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1), pt(1, 1, 1)]
    yield "l needs c = 2", [pt(1, -1, 0), pt(0, 1, -1), pt(1, 0, -1),
                            pt(1, 0, 0), pt(1, 2, 3)]
    yield "collinear in P3", [pt(1, k, 2 * k, 0) for k in range(5)]
    yield "coplanar in P3", [pt(1, a, b, 0) for a in range(3)
                             for b in range(3)] + [rand_pt(rng, 4)]
    for label in ("klein", "h4"):
        pts = configs.named(label).points
        images = project_general(pts, random.Random(repr((1, "geprocb"))))
        yield f"{label} image at seed 1", images


@pytest.mark.parametrize("label,pts", list(_deletion_cases()),
                         ids=lambda x: x if isinstance(x, str) else "")
def test_deletion_h_vectors_match_per_degree_kernels(label, pts):
    p = pts[0].p
    assert deletion_h_vectors(pts, p) == deletion_h_vectors_by_kernels(pts, p)


def test_deletion_h_vectors_run_no_kernel_and_one_pivot_per_point(
        monkeypatch):
    def no_kernel(*args):
        raise AssertionError("deletion_h_vectors called kernel_basis")

    pivots = []
    rref = linalg.rref

    def counting_rref(M, p):
        R, piv = rref(M, p)
        pivots.extend(piv)
        return R, piv

    pts = configs.named("klein").points
    images = project_general(pts, random.Random(repr((1, "geprocb"))))
    monkeypatch.setattr(linalg, "kernel_basis", no_kernel)
    monkeypatch.setattr(linalg, "rref", counting_rref)
    full, dropped = deletion_h_vectors(images, pts[0].p)
    # the eliminations' pivots are the 60 rows of the final basis
    assert sum(full) == len(images) == len(pivots) == 60


def test_degree_walk_builds_no_power_table_or_evaluation_matrix(
        monkeypatch):
    def forbidden(*args):
        raise AssertionError("the degree walk built a full evaluation table")

    klein = configs.named("klein").points
    images = project_general(klein, random.Random(repr((1, "geprocb"))))
    e8 = configs.named("e8").points
    monkeypatch.setattr(ideals, "_power_rows", forbidden)
    monkeypatch.setattr(ideals, "interp_matrix", forbidden)
    assert deletion_h_vectors(images, klein[0].p)[0] == (
        tuple(range(1, 7)) + (6,) * 4 + tuple(range(5, 0, -1)))
    assert deletion_h_vectors(e8, e8[0].p) == (
        (1, 7, 28, 84), [(1, 7, 28, 83)] * 120)


@pytest.mark.parametrize("label,pts", [
    case for case in _deletion_cases()
    if case[0] in ("l needs c = 2", "klein image at seed 1")],
    ids=lambda x: x if isinstance(x, str) else "")
def test_deletion_h_vectors_eliminate_only_monomials_free_of_x0(
        monkeypatch, label, pts):
    # l replaces x0 even when l is not x0 (x0 vanishes at some of these
    # points), so in degree t only the t + 1 monomials of the plane free of
    # x0 can leave a residual
    rows = []
    rref = linalg.rref

    def counting_rref(M, p):
        rows.append(len(M))
        return rref(M, p)

    monkeypatch.setattr(linalg, "rref", counting_rref)
    deletion_h_vectors(pts, pts[0].p)
    assert all(r <= t + 1 for t, r in enumerate(rows))
