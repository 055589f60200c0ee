import functools
import json
import random

import pytest

from geproci.certify import (
    DEGENERATE,
    INCONCLUSIVE,
    NO,
    YES,
    Decision,
    NotSubset,
    cbp_ambient,
    detect_grid,
    geprocb,
    is_ci222_p4,
    is_geproci,
    remembers,
)
from geproci.configs import klein_grid66, named, unity_grid
from geproci.field import make_field
from geproci.projgeom import ProjPoint, segre

from oracles import remembers_by_ideal_dim

P = make_field([]).p


def rand_pt(rng, nvars):
    return ProjPoint.make([rng.randrange(P) for _ in range(nvars)], P)


# ---------------------------------------------------------------------------
# decisions

def test_decision_truthiness_and_json():
    yes = Decision(YES, P, 0, 2, {"k": 1})
    no = Decision(NO, P, 0, 2, {})
    assert yes and not no
    doc = json.loads(json.dumps(yes.to_json()))
    assert doc["verdict"] == YES
    assert doc["prime"] == P
    assert doc["data"] == {"k": 1}


# ---------------------------------------------------------------------------
# geproci certificates

def test_is_geproci_half_grid_example():
    cfg = named("d4")
    dec = is_geproci(cfg.points, 3, 4, seed=2)
    assert dec.verdict == YES
    assert dec.data["n_points"] == 12


def test_is_geproci_random_points_fail():
    rng = random.Random(5)
    pts = [rand_pt(rng, 4) for _ in range(12)]
    assert is_geproci(pts, 3, 4, seed=2).verdict == NO


def test_is_geproci_wrong_cardinality():
    rng = random.Random(6)
    pts = [rand_pt(rng, 4) for _ in range(10)]
    dec = is_geproci(pts, 3, 4, seed=0)
    assert dec.verdict == NO
    assert "reason" in dec.data


def test_is_geproci_coplanar_is_degenerate():
    pairs = [(1, 2), (1, 3), (2, 5), (3, 1), (4, 9), (5, 2),
             (7, 3), (8, 1), (9, 4), (2, 9), (3, 7), (5, 6)]
    pts = [ProjPoint.make([a, b, (a + b) % P, 0], P) for a, b in pairs]
    assert is_geproci(pts, 3, 4, seed=0).verdict == DEGENERATE


@pytest.mark.parametrize("seed", range(4))
def test_is_geproci_forced_dims_with_a_shared_line_stay_inconclusive(seed):
    # four points on the line z = w = 0 and two off it: every conic and
    # every cubic through the image contains the image of that line, so
    # the dimensions [1, 4] are the forced ones, yet F and G share it
    coords = [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (1, 2, 0, 0),
              (0, 0, 1, 0), (0, 0, 0, 1)]
    pts = [ProjPoint.make(c, P) for c in coords]
    dec = is_geproci(pts, 2, 3, trials=3, seed=seed)
    assert dec.verdict == INCONCLUSIVE
    assert dec.data["dims"] == [[1, 4]] * 3
    assert "error_bound" not in dec.data


def test_is_geproci_rejects_bad_degrees():
    cfg = named("d4")
    with pytest.raises(ValueError):
        is_geproci(cfg.points, 4, 3)
    with pytest.raises(ValueError):
        is_geproci(cfg.points, 0, 3)


# ---------------------------------------------------------------------------
# grid taxonomy

def test_detect_grid_on_grid():
    g = unity_grid(3, 4)
    kind, ab, rulings = detect_grid(g.points, seed=0)
    assert kind == "Grid"
    assert ab == (3, 4)
    side_a, side_b = rulings
    assert len(side_a) == 3 and all(len(s) == 4 for s in side_a)
    assert len(side_b) == 4 and all(len(s) == 3 for s in side_b)


def test_detect_grid_half_grid():
    cfg = named("d4")
    kind, ab, lines = detect_grid(cfg.points, seed=0)
    assert kind == "HalfGrid"
    assert ab == (3, 4)
    covered = set().union(*lines)
    assert covered == set(cfg.points)


@functools.cache
def _klein_and_ruling():
    pts = named("klein").points
    return pts, detect_grid(pts, seed=1)[2]


def _klein_minus_first_lines(k):
    """Klein's points off the first k lines of its seed-1 ruling."""
    pts, ruling = _klein_and_ruling()
    drop = set().union(*ruling[:k])
    return [q for q in pts if q not in drop]


@pytest.mark.parametrize("k,kind,ab", [
    (1, "HalfGrid", (6, 9)), (2, "HalfGrid", (6, 8)),
    (3, "HalfGrid", (6, 7)), (4, "HalfGrid", (6, 6)),
    (5, "HalfGrid", (5, 6)), (6, "HalfGrid", (4, 6)),
    (7, "Grid", (3, 6)), (8, "Grid", (2, 6))])
def test_detect_grid_klein_minus_ruling_lines(k, kind, ab):
    assert detect_grid(_klein_minus_first_lines(k), seed=1)[:2] == (kind, ab)


@pytest.mark.parametrize("case", [
    *[f"unity{a}x{b}" for a in range(2, 6) for b in range(a, 6)],
    "klein_grid66", "klein-7", "klein-8"])
def test_detect_grid_rulings_partition_and_meet_once(case):
    # counting, not a rank per pair of lines, proves that the two rulings
    # meet; check it on the grids detect_grid returns
    if case.startswith("unity"):
        pts = unity_grid(*map(int, case[5:].split("x"))).points
    elif case == "klein_grid66":
        pts = klein_grid66().points
    else:
        pts = _klein_minus_first_lines(int(case[-1]))
    for seed in (0, 1):
        kind, (a, b), (side_a, side_b) = detect_grid(pts, seed=seed)
        assert kind == "Grid" and a * b == len(pts)
        for side, count, size in ((side_a, a, b), (side_b, b, a)):
            assert len(side) == count and all(len(l) == size for l in side)
            assert set().union(*side) == set(pts)
        assert all(len(la & lb) == 1 for la in side_a for lb in side_b)


def test_detect_grid_neither():
    rng = random.Random(5)
    pts = [rand_pt(rng, 4) for _ in range(12)]
    assert detect_grid(pts, seed=0) == ("Neither", None, None)


# ---------------------------------------------------------------------------
# complete intersections of three quadrics

def test_ci222_random_points_say_no():
    rng = random.Random(7)
    pts = [rand_pt(rng, 5) for _ in range(8)]
    dec = is_ci222_p4(pts, seed=3)
    assert dec.verdict == NO
    assert dec.data["trials_detail"] == [
        {"dim2": 2, "dim3": 12, "generated": False, "hf": [1, 4, 8, 8]}]


def test_ci222_collinear_quadruple_is_not_certified():
    # the image's quadrics all contain the image of the line, yet the
    # Hilbert function is (1, 4, 7, 8) and the net gives every cubic:
    # only the quartics tell it from a complete intersection
    rng = random.Random(9)
    a, b = rand_pt(rng, 5), rand_pt(rng, 5)
    line = [ProjPoint.make([x + k * y for x, y in zip(a.coords, b.coords)],
                           P) for k in range(1, 5)]
    dec = is_ci222_p4(line + [rand_pt(rng, 5) for _ in range(4)], seed=0)
    assert dec.verdict == INCONCLUSIVE
    for detail in dec.data["trials_detail"]:
        assert detail == {"dim2": 3, "dim3": 12, "generated": True,
                          "hf": [1, 4, 7, 8], "generated_4": False}


def test_ci222_wrong_cardinality():
    rng = random.Random(8)
    pts = [rand_pt(rng, 5) for _ in range(7)]
    dec = is_ci222_p4(pts, seed=0)
    assert dec.verdict == NO
    assert "reason" in dec.data


# ---------------------------------------------------------------------------
# one-point-deletion Hilbert functions

def quadric_plus_apex(seed=5):
    """Ten points on a smooth quadric surface plus one general point."""
    rng = random.Random(seed)
    quad = [segre(rand_pt(rng, 2), rand_pt(rng, 2)) for _ in range(10)]
    return quad + [rand_pt(rng, 4)]


def test_geprocb_but_not_ambient():
    pts = quadric_plus_apex()
    assert geprocb(pts, seed=1).verdict == YES
    assert cbp_ambient(pts, seed=1).verdict == NO


def test_geprocb_on_certified_configuration():
    cfg = named("d4")
    dec = geprocb(cfg.points, seed=1)
    assert dec.verdict == YES
    assert len(dec.data["h_vectors"]) == 1


# ---------------------------------------------------------------------------
# degree-m memory

def test_remembers_requires_subset():
    cfg = named("d4")
    rng = random.Random(9)
    with pytest.raises(NotSubset):
        remembers([rand_pt(rng, 4)], cfg.points, 3)


def test_remembers_full_set_trivially():
    cfg = named("d4")
    dec = remembers(cfg.points, cfg.points, 3, seed=1, probes=5)
    assert dec.verdict == YES
    assert dec.data["probes"] == 5


def _memory_cases(seed):
    """(W, Z) pairs: f4 without four random points and d4 without three;
    at m = 4 the d4 case has points that escape, the others do not."""
    f4, d4 = named("f4").points, named("d4").points
    rng = random.Random(seed)
    out = []
    for Z, drop in ((f4, 4), (d4, 3)):
        gone = set(rng.sample(range(len(Z)), drop))
        out.append(([q for i, q in enumerate(Z) if i not in gone], Z))
    return out


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("m", [2, 3, 4])
def test_remembers_matches_ideal_dim_oracle(seed, m):
    for W, Z in _memory_cases(seed):
        dec = remembers(W, Z, m, seed=seed, probes=20)
        want = remembers_by_ideal_dim(W, Z, m, seed=seed, probes=20)
        got = (dec.data["dim_base"], dec.data.get("escaped", []),
               dec.data["probes_failing"])
        assert got == want
        assert dec.verdict == (NO if want[1] else YES)
