import json

import pytest

from geproci import configs
from geproci.configs import (
    Configuration,
    DuplicateParams,
    FlatUnion,
    OddNForY1Y2,
    ParseError,
    UnresolvableSymbol,
    eval_expr,
    extend_standard,
    grid,
    klein_grid66,
    klein_memory,
    load,
    named,
    remove_lines,
    save,
    skeleton,
    std_construction,
    unity_grid,
    z56,
)
from geproci.field import make_field, order_constraint

P = 1073741827


# ---------------------------------------------------------------------------
# expression grammar

def test_eval_expr_arithmetic():
    assert eval_expr("1+2*3", {}, P) == 7
    assert eval_expr("(1+2)*3", {}, P) == 9
    assert eval_expr("-5", {}, P) == P - 5
    assert eval_expr("2^10", {}, P) == 1024


def test_eval_expr_symbols_and_negative_powers():
    fs = make_field([("u", order_constraint(6))])
    u = fs.symbols["u"]
    assert eval_expr("u^2", fs.symbols, fs.p) == u * u % fs.p
    assert eval_expr("u^(-1)", fs.symbols, fs.p) == pow(u, fs.p - 2, fs.p)
    assert eval_expr("u^(-2)+u", fs.symbols, fs.p) == (
        pow(u, fs.p - 3, fs.p) + u) % fs.p


def test_eval_expr_unknown_symbol():
    with pytest.raises(UnresolvableSymbol):
        eval_expr("w+1", {}, P)


def test_eval_expr_parse_errors():
    for bad in ["1+", "(1+2", "2^^3", "*3", ""]:
        with pytest.raises(ParseError):
            eval_expr(bad, {}, P)


# ---------------------------------------------------------------------------
# constructors and counts

EXPECTED_SIZES = {
    "d4": 12, "f4": 24, "b3config": 9, "rays13": 13, "rays21": 21,
    "peres33": 33, "penrose": 40, "half_penrose": 20, "klein": 60,
    "h4": 60, "e7": 63, "e8": 120, "rays300": 300, "points120": 120,
    "z1": 30, "z2": 30, "z3": 30,
}


@pytest.mark.parametrize("label,size", sorted(EXPECTED_SIZES.items()))
def test_named_sizes(label, size):
    cfg = named(label)
    assert len(cfg.points) == size
    assert len(set(cfg.points)) == size


def test_b_family_by_pattern():
    assert len(named("b5").points) == 25
    assert named("b4").ambient_dim == 3


def test_named_unknown_label():
    with pytest.raises(KeyError):
        named("nonesuch")


def test_grid_sizes_and_duplicates():
    g = unity_grid(3, 4)
    assert len(g.points) == 12
    fs = g.field
    with pytest.raises(DuplicateParams):
        grid(2, 2, [(1, 2), (1, 2)], [(1, 3), (1, 4)], fs)


def test_std_construction_sizes():
    assert len(std_construction(3, "Y1").points) == 12
    assert len(std_construction(4, "Y2").points) == 20
    assert len(std_construction(4, "Y1Y2").points) == 24
    with pytest.raises(OddNForY1Y2):
        std_construction(5, "Y1Y2")


def test_extend_standard_sizes():
    assert len(extend_standard(std_construction(3, "Y1")).points) == 16
    assert len(extend_standard(std_construction(4, "Y1Y2")).points) == 36


def test_remove_lines_drops_collinear_subsets():
    from geproci.projgeom import flat_through
    cfg = std_construction(6, "Y1")
    # the last 6 points are the external collinear set
    line = flat_through(cfg.points[-2:])
    removed = remove_lines(cfg, [line])
    assert len(removed.points) == len(cfg.points) - 6


def test_skeleton_flat_union():
    sk = skeleton(4, 2)
    assert isinstance(sk, FlatUnion)
    assert sk.flat_dim == 2
    assert len(sk.flats) == 10  # C(5,2) coordinate 2-flats in P^4


def test_configuration_rejects_duplicates():
    fs = make_field([])
    from geproci.projgeom import ProjPoint
    q = ProjPoint.make([1, 2, 3, 4], fs.p)
    with pytest.raises(ValueError):
        Configuration("dup", 3, fs, [q, q])


def test_subset_carries_exprs():
    cfg = named("penrose")
    sub = cfg.subset([0, 1, 2])
    assert len(sub.points) == 3
    assert sub.exprs is not None and len(sub.exprs) == 3


def test_klein_memory_inside_klein():
    mem = klein_memory()
    kl = named("klein")
    assert len(mem.points) == 27
    assert set(mem.points) <= set(kl.points)


def test_klein_contains_grid66():
    kl = named("klein")
    g66 = klein_grid66()
    assert len(g66.points) == 36
    assert set(g66.points) <= set(kl.points)


def test_half_penrose_inside_penrose():
    hp = named("half_penrose")
    pen = named("penrose")
    assert set(hp.points) <= set(pen.points)


def test_z56_tags():
    for i in (1, 2, 3):
        cfg = z56(i)
        assert cfg.tags.get("z56") == i
        assert len(cfg.points) == 30


# ---------------------------------------------------------------------------
# save / load

def test_round_trip_expr_configuration(tmp_path):
    cfg = named("penrose")
    path = tmp_path / "pen.json"
    save(cfg, str(path))
    back = load(str(path))
    assert back.points == cfg.points
    assert back.field.p == cfg.field.p
    assert back.label == cfg.label


def test_round_trip_residue_configuration(tmp_path):
    cfg = named("rays300")
    path = tmp_path / "r.json"
    save(cfg, str(path))
    back = load(str(path))
    assert back.points == cfg.points


def test_saved_schema_fields(tmp_path):
    cfg = named("d4")
    path = tmp_path / "d4.json"
    save(cfg, str(path))
    with open(path) as fh:
        doc = json.load(fh)
    assert set(doc) >= {"label", "ambient_dim", "symbols", "points"}
    assert doc["ambient_dim"] == 3
    assert len(doc["points"]) == 12


@pytest.mark.parametrize("doc, field", [
    ([["1", "0", "0"]], "top level"),
    ({"points": [["1", "0", "0"]]}, "'ambient_dim'"),
    ({"ambient_dim": 2, "points": []}, "'points'"),
], ids=["top-level-list", "missing-ambient-dim", "empty-points"])
def test_load_rejects_bad_top_level_shape(tmp_path, doc, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError) as info:
        load(str(path))
    assert str(path) in str(info.value)
    assert field in str(info.value)
