import time

import pytest

from geproci import configs, linalg
from geproci.configs import Configuration, named
from geproci.field import make_field
from geproci.ks import is_ks_set, ortho_graph
from geproci.projgeom import ProjPoint

from oracles import bases_by_subsets, ks_by_assignments

STATS = {
    "rays13": (24, 4, 16),
    "rays21": (48, 4, 40),
    "peres33": (72, 16, 40),
    "penrose": (240, 40, 40),
}


@pytest.mark.parametrize("label", sorted(STATS))
def test_orthogonality_graph_stats(label):
    edges, bases, cliques = STATS[label]
    g = ortho_graph(named(label))
    assert len(g.edges) == edges
    assert len(g.bases) == bases
    assert len(g.max_cliques) == cliques
    # edges were cross-checked over at least two primes
    assert len(g.primes) >= 2


@pytest.mark.parametrize("label", sorted(STATS))
def test_ray_families_admit_no_truth_assignment(label):
    assert is_ks_set(named(label))


def test_peres_rays_decide_quickly():
    start = time.monotonic()
    assert is_ks_set(named("peres33"))
    assert time.monotonic() - start < 30


def single_basis():
    fs = make_field([])
    pts = [ProjPoint.make([1 if j == i else 0 for j in range(4)], fs.p)
           for i in range(4)]
    return Configuration("basis", 3, fs, pts)


def test_single_basis_is_colorable():
    cfg = single_basis()
    g = ortho_graph(cfg)
    assert len(set(g.primes)) == 2
    assert len(g.edges) == 6
    assert len(g.bases) == 1
    assert not is_ks_set(cfg)
    assert not ks_by_assignments(g)


def test_integer_points_keep_their_edges_at_the_second_prime():
    # rays13 turned by M = [[1,2,2],[2,1,-2],[2,-2,1]] (M M^T = 9 I), so
    # the points have negative and fractional coordinates such as
    # [5:1:1] = [1:1/5:1/5], and rebuilt from their residues alone
    want = named("rays13")
    M = [[1, 2, 2], [2, 1, -2], [2, -2, 1]]
    rows = [[sum(m * int(c) for m, c in zip(r, row)) for r in M]
            for row in configs._RAYS13]
    fs = want.field
    bare = Configuration("rays13-turned", 2, fs,
                         [ProjPoint.make(row, fs.p) for row in rows])
    assert ["1", "1/5", "1/5"] in bare.exprs
    g, h = ortho_graph(bare), ortho_graph(want)
    assert len(set(g.primes)) == 2
    assert g.edges == h.edges and g.bases == h.bases
    assert is_ks_set(g) == is_ks_set(h)


def test_second_prime_lies_below_the_largest_admissible_prime():
    g = ortho_graph(named("rays13", min_bound=2**31 - 1))
    assert g.primes[0] == 2**31 - 1 and g.primes[1] < 2**31 - 1
    assert g.edges == ortho_graph(named("rays13")).edges


@pytest.mark.parametrize("label", ["rays13", "rays21", "peres33", "penrose"])
def test_bases_match_subset_oracle(label):
    cfg = named(label)
    g = ortho_graph(cfg)
    rows = [list(q.coords) for q in cfg.points]
    assert g.bases == bases_by_subsets(g, rows, cfg.field.p)


def test_graph_needs_no_reparse_and_no_rank(monkeypatch):
    cfg = named("penrose")
    misses = configs._parse.cache_info().misses

    def no_rank(*args, **kwargs):
        raise AssertionError("bases come from one determinant stack")

    monkeypatch.setattr(linalg, "rank", no_rank)
    g = ortho_graph(cfg)
    assert configs._parse.cache_info().misses == misses
    assert (len(g.edges), len(g.bases), len(g.max_cliques)) == STATS["penrose"]


@pytest.mark.parametrize("drop", [None, *range(13)])
def test_ks_verdict_matches_assignment_oracle(drop):
    cfg = named("rays13")
    if drop is not None:
        cfg = cfg.subset([i for i in range(13) if i != drop])
    g = ortho_graph(cfg)
    assert is_ks_set(g) == ks_by_assignments(g)


def test_neighbors_are_symmetric():
    g = ortho_graph(named("rays13"))
    for i, j in g.edges:
        assert j in g.neighbors(i)
        assert i in g.neighbors(j)


@pytest.mark.xfail(strict=True,
                   reason="all one-ray deletions of the 13-ray family stay "
                          "uncolorable under clique constraints")
def test_rays13_loses_the_property_after_some_deletion():
    cfg = named("rays13")
    n = len(cfg.points)
    assert any(not is_ks_set(cfg.subset([i for i in range(n) if i != k]))
               for k in range(n))
