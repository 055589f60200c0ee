import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geproci.certify import (
    DEGENERATE,
    NO,
    YES,
    Decision,
    NotSubset,
    cbp_ambient,
    detect_grid,
    geprocb,
    is_ci222_p4,
    is_geproci,
    _complement_candidates,
    remembers,
)
from geproci.configs import named, unity_grid
from geproci.field import make_field
from geproci.projgeom import ProjPoint, segre

from oracles import complement_candidates_by_rank, remembers_by_ideal_dim

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


def test_detect_grid_neither():
    rng = random.Random(5)
    pts = [rand_pt(rng, 4) for _ in range(12)]
    assert detect_grid(pts, seed=0) == ("Neither", None, None)


# ---------------------------------------------------------------------------
# complete intersections of three quadrics

def test_ci222_random_points_say_no():
    rng = random.Random(7)
    pts = [rand_pt(rng, 5) for _ in range(8)]
    assert is_ci222_p4(pts, seed=3).verdict == NO


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


# ---------------------------------------------------------------------------
# candidate curves outside the multiples of F

@st.composite
def _complement_cases(draw):
    """(p, kernel, span_rows, limit, seed): span rows that may be
    dependent or start with zero columns, and kernel vectors inside the
    span (random combinations of its rows), one unit vector off it,
    outside it, or zero, so that the random fallback runs too."""
    p = draw(st.sampled_from([7, P]))
    cols = draw(st.integers(2, 12))
    rows = draw(st.integers(1, cols))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    span = rng.integers(0, p, (rows, cols))
    span[:, :draw(st.integers(0, 2))] = 0
    if rows > 1 and draw(st.booleans()):
        span[-1] = (2 * span[0]) % p
    kinds = draw(st.lists(st.sampled_from(
        ["inside", "nudged", "outside", "zero"]), min_size=1, max_size=8))
    kernel = []
    for kind in kinds:
        # small coefficients keep the product inside int64
        inside = rng.integers(0, 8, rows) @ span % p
        if kind == "inside":
            kernel.append(inside)
        elif kind == "nudged":
            inside[rng.integers(cols)] += 1
            kernel.append(inside % p)
        elif kind == "outside":
            kernel.append(rng.integers(0, p, cols))
        else:
            kernel.append(np.zeros(cols, dtype=np.int64))
    limit = draw(st.sampled_from([1, 5]))
    return p, kernel, span, limit, draw(st.integers(0, 10**6))


@given(_complement_cases())
@settings(max_examples=60, deadline=None)
def test_complement_candidates_match_rank_oracle(case):
    p, kernel, span, limit, seed = case
    rng_got, rng_want = random.Random(seed), random.Random(seed)
    got = _complement_candidates(kernel, span, p, rng_got, limit=limit)
    want = complement_candidates_by_rank(kernel, span, p, rng_want,
                                          limit=limit)
    assert [v.tolist() for v in got] == [v.tolist() for v in want]
    # the same random combinations were drawn
    assert rng_got.getstate() == rng_want.getstate()
