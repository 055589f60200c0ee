import json
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

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
from geproci.projgeom import ProjPoint

from oracles import eval_expr_by_descent

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


# 'w' is never bound, 'z' is bound to 0 (division by zero, zero to a
# negative power) and '$' is outside the grammar
_ENV = {"u": 5, "t": 12, "z": 0}


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc)


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet="0123456789utzw_+-*/^() $", max_size=14),
       st.sampled_from([7, 101, P]))
@example("-u^2*t/(u-z)--2^(-3)", P)
@example("z^(-1)+w", 101)
@example("w/0", 101)
@example("1/z*w", 101)
@example("w+", 7)
def test_eval_expr_matches_descent_oracle(text, p):
    got = _outcome(eval_expr, text, _ENV, p)
    want = _outcome(eval_expr_by_descent, text, _ENV, p)
    if want is UnresolvableSymbol and got is ParseError:
        # malformed and naming an unknown symbol: the syntax is read first
        with pytest.raises(ParseError):
            configs._parse(text)
        bound = dict.fromkeys(re.findall(r"[A-Za-z_][A-Za-z_0-9]*", text), 1)
        assert _outcome(eval_expr_by_descent, text, bound, p) is ParseError
        return
    assert got == want


def test_eval_expr_parses_each_text_once():
    configs._parse.cache_clear()
    for p in (7, 101, P):
        eval_expr("u^(-2)+3*u", _ENV, p)
    info = configs._parse.cache_info()
    assert (info.misses, info.hits) == (1, 2)


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


# every named label, b5, each kind `geproci construct` builds with its
# default options, and the Klein memory subset
_BUILDERS = {label: (lambda mb, label=label: named(label, mb))
             for label in list(configs._named_builders()) + ["b5"]}
_BUILDERS.update({
    "grid": lambda mb: unity_grid(3, 4, mb),
    "std": lambda mb: std_construction(4, "Y1", mb),
    "extend": lambda mb: extend_standard(std_construction(4, "Y1", mb)),
    "klein_memory": klein_memory,
})


@pytest.mark.parametrize("name", sorted(_BUILDERS))
def test_saved_file_means_the_same_set_at_another_prime(tmp_path, name):
    build = _BUILDERS[name]
    path = tmp_path / "cfg.json"
    save(build(configs.DEFAULT_MIN_BOUND), str(path))
    back = load(str(path), min_bound=2_000_000_000)
    want = build(2_000_000_000)
    assert back.field.p == want.field.p
    assert back.points == want.points


def _bare_configuration():
    fs = make_field([])
    pts = [ProjPoint.make(c, fs.p)
           for c in ([1, 2, 3], [0, 1, -1], [5, 7, 11])]
    return Configuration("bare", 2, fs, pts)


_BARE_ROWS = [["1", "2", "3"], ["0", "1", "-1"], ["1", "7/5", "11/5"]]


def test_bare_configuration_exprs_are_its_fractions():
    cfg = _bare_configuration()
    assert cfg.exprs == _BARE_ROWS
    assert cfg.subset([2, 0]).exprs == [cfg.exprs[2], cfg.exprs[0]]


def test_save_of_bare_configuration_writes_its_fractions(tmp_path):
    cfg = _bare_configuration()
    path = tmp_path / "bare.json"
    save(cfg, str(path))
    assert path.read_text() == json.dumps(
        {"label": "bare", "ambient_dim": 2, "symbols": [],
         "points": _BARE_ROWS}, indent=1) + "\n"
    assert load(str(path)).points == cfg.points
    back = load(str(path), min_bound=2_000_000_000)
    assert back.points == [ProjPoint.make(c, back.field.p)
                           for c in ([1, 2, 3], [0, 1, -1], [5, 7, 11])]


def test_fraction_text_matches_a_search_over_denominators():
    p = make_field([]).p
    bound = math.isqrt(p // 2)

    def by_search(r):
        for b in range(1, bound + 1):
            a = b * r % p
            a = a - p if a > p // 2 else a
            if abs(a) <= bound:
                return str(Fraction(a, b))
        return None

    rng = random.Random(1)
    found = []
    for r in [0, 1, p - 1, (p + 1) // 2] + [rng.randrange(p)
                                            for _ in range(16)]:
        want = by_search(r)
        found.append(want)
        if want is None:
            with pytest.raises(ValueError, match="no fraction"):
                configs._fraction_text(r, p)
        else:
            assert configs._fraction_text(r, p) == want
    assert found[:4] == ["0", "1", "-1", "1/2"] and None in found


def test_saved_schema_fields(tmp_path):
    cfg = named("d4")
    path = tmp_path / "d4.json"
    save(cfg, str(path))
    with open(path) as fh:
        doc = json.load(fh)
    assert set(doc) >= {"label", "ambient_dim", "symbols", "points"}
    assert doc["ambient_dim"] == 3
    assert len(doc["points"]) == 12


def _with_symbol(sym):
    return {"ambient_dim": 2, "points": [["1", "0", "0"]],
            "symbols": [{"name": "i", "order": 4}, sym]}


@pytest.mark.parametrize("doc, field", [
    ([["1", "0", "0"]], "top level"),
    ({"points": [["1", "0", "0"]]}, "'ambient_dim'"),
    ({"ambient_dim": 2, "points": []}, "'points'"),
    ({"ambient_dim": 2, "points": [["1", "0", "0"]], "symbols": {}},
     "'symbols'"),
    (_with_symbol({"order": 4}), "symbols[1]"),
    (_with_symbol({"name": 5, "order": 4}), "symbols[1]"),
    (_with_symbol({"name": "w"}), "symbols[1]"),
    (_with_symbol({"name": "w", "order": 4, "minpoly": [-2, 0, 1]}),
     "symbols[1]"),
    (_with_symbol("w"), "symbols[1]"),
    (_with_symbol({"name": "i", "order": 3}), "symbols[1] repeats"),
    (_with_symbol({"name": "w", "order": 0}), "symbols[1] 'order'"),
    (_with_symbol({"name": "w", "order": "3"}), "symbols[1] 'order'"),
    (_with_symbol({"name": "w", "minpoly": [-2, 0]}), "symbols[1] 'minpoly'"),
    (_with_symbol({"name": "w", "minpoly": [-2, 0, 2]}),
     "symbols[1] 'minpoly'"),
    ({"ambient_dim": 2, "points": [["1", "0", "0"], ["1", "0"]]},
     "points[1] must be a list of 3 coordinates"),
    ({"ambient_dim": 3, "points": [["1", "0", "0", "0"], "1000"]},
     "points[1] must be a list of 4 coordinates"),
], ids=["top-level-list", "missing-ambient-dim", "empty-points",
        "symbols-not-a-list", "symbol-missing-name", "symbol-non-string-name",
        "symbol-neither-key", "symbol-both-keys", "symbol-non-object",
        "symbol-repeated-name", "symbol-order-zero", "symbol-order-text",
        "symbol-minpoly-too-short", "symbol-minpoly-not-monic",
        "point-row-too-short", "point-row-not-a-list"])
def test_load_rejects_bad_top_level_shape(tmp_path, doc, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError) as info:
        load(str(path))
    assert str(path) in str(info.value)
    assert field in str(info.value)
