import json
import random

import pytest

from geproci.cli import main
from geproci.configs import Configuration, named, save, unity_grid
from geproci.field import make_field
from geproci.projgeom import ProjPoint


@pytest.fixture
def d4_file(tmp_path):
    path = tmp_path / "d4.json"
    save(named("d4"), str(path))
    return str(path)


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    return code, capsys.readouterr().out


def save_random(tmp_path, count, dim, seed, name="rand.json"):
    fs = make_field([])
    rng = random.Random(seed)
    pts = []
    while len(pts) < count:
        q = ProjPoint.make([rng.randrange(fs.p) for _ in range(dim + 1)],
                           fs.p)
        if q not in pts:
            pts.append(q)
    path = tmp_path / name
    # the points are the integer vectors of their residues
    rows = [[str(c) for c in q.coords] for q in pts]
    save(Configuration("random", dim, fs, pts, rows), str(path))
    return str(path)


# ---------------------------------------------------------------------------
# construct

def test_construct_named(tmp_path, capsys):
    out_file = tmp_path / "out.json"
    code, out = run(capsys, "construct", "d4", "-o", str(out_file))
    assert code == 0
    assert out_file.exists()
    with open(out_file) as fh:
        assert len(json.load(fh)["points"]) == 12


def test_construct_grid_and_std(tmp_path, capsys):
    g = tmp_path / "g.json"
    s = tmp_path / "s.json"
    assert run(capsys, "construct", "grid", "-a", "3", "-b", "4",
               "-o", str(g))[0] == 0
    assert run(capsys, "construct", "std", "-n", "3", "--which", "Y1",
               "-o", str(s))[0] == 0
    with open(s) as fh:
        assert len(json.load(fh)["points"]) == 12


def test_saved_rays300_keeps_the_library_ks_verdict(tmp_path, capsys):
    path = tmp_path / "r.json"
    assert run(capsys, "construct", "rays300", "-o", path)[0] == 0
    code, out = run(capsys, "--json", "ks", path)
    assert code == 0
    data = json.loads(out)["data"]
    assert (data["edges"], data["bases"]) == (4050, 675)


def test_saved_grid_is_geproci_at_another_prime(tmp_path, capsys):
    path = tmp_path / "g.json"
    assert run(capsys, "construct", "grid", "-a", "3", "-b", "4",
               "-o", path)[0] == 0
    assert run(capsys, "check", "geproci", "-a", "3", "-b", "4",
               "--prime", "2000000000", path)[0] == 0


def test_construct_unknown_label(tmp_path, capsys):
    code, _ = run(capsys, "construct", "nonesuch",
                  "-o", str(tmp_path / "x.json"))
    assert code == 3


# ---------------------------------------------------------------------------
# check

def test_check_geproci_yes(d4_file, capsys):
    code, out = run(capsys, "--json", "check", "geproci",
                    "-a", "3", "-b", "4", d4_file)
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"verdict", "prime", "seed", "trials", "data"}
    assert doc["verdict"] == "Yes"


def test_check_geproci_no(tmp_path, capsys):
    path = save_random(tmp_path, 12, 3, seed=5)
    code, _ = run(capsys, "check", "geproci", "-a", "3", "-b", "4", path)
    assert code == 1


def test_check_geproci_json_is_deterministic(d4_file, capsys):
    args = ("--json", "check", "geproci", "-a", "3", "-b", "4",
            "--seed", "7", d4_file)
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second


def test_check_ci222_no(tmp_path, capsys):
    path = save_random(tmp_path, 8, 4, seed=6)
    code, out = run(capsys, "--json", "check", "ci222", path)
    assert code == 1
    assert json.loads(out)["verdict"] == "No"


@pytest.mark.parametrize("label,a,b,dim", [("e7", 3, 21, 6),
                                           ("b3config", 1, 9, 2)])
def test_check_geproci_rejects_points_outside_p3(tmp_path, capsys, label, a,
                                                 b, dim):
    path = tmp_path / f"{label}.json"
    save(named(label), str(path))
    code = main(["check", "geproci", "-a", str(a), "-b", str(b), str(path)])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert f"P^{dim}" in err


# ---------------------------------------------------------------------------
# census

def test_census_lines(d4_file, capsys):
    code, out = run(capsys, "census", "lines", d4_file)
    assert code == 0
    assert json.loads(out) == {"2": 18, "3": 16}


def test_census_planes_json(d4_file, capsys):
    code, out = run(capsys, "--json", "census", "planes", d4_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["data"]["histogram"] == {"3": 12, "6": 12}


# ---------------------------------------------------------------------------
# weddle

def test_weddle_degree_of_grid(tmp_path, capsys):
    path = tmp_path / "g23.json"
    save(unity_grid(2, 3), str(path))
    code, out = run(capsys, "--json", "weddle", "degree", "-d", "2", path)
    assert code == 0
    assert json.loads(out)["data"]["degree"] == "IdenticallyZero"


def test_weddle_member_needs_probe(tmp_path, capsys):
    path = save_random(tmp_path, 6, 3, seed=7)
    assert run(capsys, "weddle", "member", "-d", "2", path)[0] == 3


def test_weddle_member_with_probe(tmp_path, capsys):
    path = save_random(tmp_path, 5, 3, seed=8)
    cfg = Configuration  # probe on the line through the first two points
    from geproci.configs import load
    base = load(path)
    q1, q2 = base.points[0], base.points[1]
    p = base.field.p
    on_line = ProjPoint.make(
        [(x + 3 * y) % p for x, y in zip(q1.coords, q2.coords)], p)
    probe_path = tmp_path / "probe.json"
    save(cfg("probe", 3, base.field, [on_line],
             [[str(c) for c in on_line.coords]]), str(probe_path))
    code, _ = run(capsys, "weddle", "member", "-d", "2",
                  "--probe", str(probe_path), path)
    assert code == 0


def test_weddle_member_rejects_probe_in_other_space(tmp_path, d4_file,
                                                   capsys):
    path = tmp_path / "b3config.json"
    save(named("b3config"), str(path))
    code = main(["weddle", "member", "-d", "2", "--probe", d4_file,
                 str(path)])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert "P^3" in err and "P^2" in err


def test_weddle_member_computes_generic_rank_once(tmp_path, capsys,
                                                  monkeypatch):
    from geproci import weddle
    from geproci.configs import load
    path = save_random(tmp_path, 5, 3, seed=8)
    probe_path = save_random(tmp_path, 3, 3, seed=9, name="probe.json")
    base, probe = load(path), load(probe_path)
    expect = [weddle.weddle_member(base.points, 2, Q, seed=4)
              for Q in probe.points]
    calls = []
    original = weddle.generic_rank

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(weddle, "generic_rank", counting)
    code, out = run(capsys, "--json", "weddle", "member", "-d", "2",
                    "--seed", "4", "--probe", probe_path, path)
    assert len(calls) == 1
    doc = json.loads(out)
    assert doc["data"]["members"] == expect
    assert doc["trials"] == weddle.RANK_TRIALS == 3
    assert code == (0 if all(expect) else 1)


# ---------------------------------------------------------------------------
# unexpected

def test_unexpected_cone_predicate(d4_file, capsys):
    code, out = run(capsys, "--json", "unexpected", "c", "-t", "3", d4_file)
    assert code == 0
    assert json.loads(out)["data"]["unexpected"] is True


def test_unexpected_negative_case(tmp_path, capsys):
    path = tmp_path / "g24.json"
    save(unity_grid(2, 4), str(path))
    assert run(capsys, "unexpected", "c", "-t", "4", path)[0] == 1


def test_unexpected_adim_needs_m(d4_file, capsys):
    assert run(capsys, "unexpected", "adim", "-t", "3", d4_file)[0] == 3
    code, out = run(capsys, "--json", "unexpected", "adim",
                    "-t", "3", "-m", "3", d4_file)
    assert code == 0
    assert json.loads(out)["data"]["adim"] == 1


@pytest.fixture
def four_points_file(tmp_path):
    path = tmp_path / "four.json"
    path.write_text(json.dumps({"ambient_dim": 2, "points": [
        [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]}))
    return str(path)


@pytest.mark.parametrize("t,m", [(3, 5), (2, 4)])
def test_unexpected_adim_multiplicity_above_t_plus_one(four_points_file,
                                                       capsys, t, m):
    # a nonzero form of degree t has multiplicity at most t at any point
    code, out = run(capsys, "--json", "unexpected", "adim", "-t", t,
                    "-m", m, four_points_file)
    assert code == 0
    assert json.loads(out)["data"]["adim"] == 0


@pytest.mark.parametrize("what", ["adim", "vdim", "c"])
@pytest.mark.parametrize("flags,named", [(("-t", "-1", "-m", "2"), "-t"),
                                         (("-t", "2", "-m", "0"), "-m")])
def test_unexpected_rejects_bad_t_and_m(four_points_file, capsys, what,
                                        flags, named):
    code = main(["unexpected", what, *flags, four_points_file])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert f"argument {named}: must be at least" in captured.err


# ---------------------------------------------------------------------------
# ks, cbp, remember, equiv

def test_ks_verdicts(tmp_path, capsys):
    path = tmp_path / "r13.json"
    save(named("rays13"), str(path))
    code, out = run(capsys, "--json", "ks", path)
    assert code == 0
    data = json.loads(out)["data"]
    assert data["bases"] == 4
    assert data["rule"] == "bases+max_cliques"

    fs = make_field([])
    basis = [ProjPoint.make([1 if j == i else 0 for j in range(4)], fs.p)
             for i in range(4)]
    bpath = tmp_path / "basis.json"
    save(Configuration("basis", 3, fs, basis), str(bpath))
    assert run(capsys, "ks", str(bpath))[0] == 1


def test_cbp_both_modes(tmp_path, capsys):
    from geproci.projgeom import segre
    fs = make_field([])
    rng = random.Random(5)

    def rp(n):
        return ProjPoint.make([rng.randrange(fs.p) for _ in range(n)], fs.p)

    pts = [segre(rp(2), rp(2)) for _ in range(10)] + [rp(4)]
    path = tmp_path / "qa.json"
    rows = [[str(c) for c in q.coords] for q in pts]
    save(Configuration("quadric_plus_apex", 3, fs, pts, rows), str(path))
    assert run(capsys, "cbp", path)[0] == 0
    assert run(capsys, "cbp", "--ambient", path)[0] == 1


def test_remember_full_subset(d4_file, tmp_path, capsys):
    idx = tmp_path / "idx.json"
    idx.write_text(json.dumps(list(range(12))))
    code, _ = run(capsys, "remember", "-m", "3", "--subset", str(idx),
                  d4_file)
    assert code == 0


@pytest.mark.parametrize("subset, bad", [
    ([-1, 0], "(-1)"),
    ([0, 1, 99], "(99)"),
    ([], "non-empty"),
    ([0, 0], "repeats point index 0"),
], ids=["negative", "out-of-range", "empty", "repeated"])
def test_remember_rejects_bad_subset(d4_file, tmp_path, capsys, subset, bad):
    idx = tmp_path / "idx.json"
    idx.write_text(json.dumps(subset))
    code = main(["remember", "-m", "3", "--subset", str(idx), d4_file])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert bad in err


def test_equiv_verdicts(tmp_path, d4_file, capsys):
    g1 = tmp_path / "g1.json"
    g2 = tmp_path / "g2.json"
    save(unity_grid(3, 4), str(g1))
    save(unity_grid(3, 4), str(g2))
    assert run(capsys, "equiv", str(g1), str(g2))[0] == 0
    assert run(capsys, "equiv", str(g1), d4_file)[0] == 1


# ---------------------------------------------------------------------------
# report shape of every verdict command

@pytest.mark.parametrize("argv, seed, trials", [
    (["construct", "d4", "-o", "{tmp}/out.json"], 0, 0),
    (["census", "lines", "{d4}"], 0, 0),
    (["census", "planes", "{d4}"], 0, 0),
    (["check", "geproci", "-a", "3", "-b", "4", "--seed", "5", "{d4}"], 5, 3),
    (["check", "ci222", "--seed", "5", "-t", "4", "{d4}"], 5, 4),
    (["weddle", "degree", "-d", "2", "--seed", "5", "{g23}"], 5, 3),
    (["weddle", "member", "-d", "2", "--seed", "5", "--probe", "{d4}",
      "{d4}"], 5, 3),
    (["unexpected", "c", "-t", "3", "--seed", "5", "{d4}"], 5, 2),
    (["unexpected", "vdim", "-t", "3", "-m", "3", "--seed", "5", "{d4}"],
     5, 2),
    (["ks", "--seed", "5", "{d4}"], 5, 1),
    (["cbp", "--seed", "5", "{d4}"], 5, 2),
    (["cbp", "--ambient", "--seed", "5", "{d4}"], 5, 1),
    (["remember", "-m", "3", "--seed", "5", "--subset", "{full}", "{d4}"],
     5, 2),
    (["equiv", "{d4}", "{d4}"], 0, 1),
], ids=["construct", "census-lines", "census-planes", "check-geproci",
        "check-ci222", "weddle-degree", "weddle-member", "unexpected-c",
        "unexpected-vdim", "ks", "cbp", "cbp-ambient", "remember", "equiv"])
def test_report_keys_seed_and_trials(d4_file, tmp_path, capsys,
                                     argv, seed, trials):
    g23 = tmp_path / "g23.json"
    save(unity_grid(2, 3), str(g23))
    full = tmp_path / "full.json"
    full.write_text(json.dumps(list(range(12))))
    names = {"tmp": tmp_path, "d4": d4_file, "g23": g23, "full": full}
    code, out = run(capsys, "--json", *[a.format(**names) for a in argv])
    doc = json.loads(out)
    assert set(doc) == {"verdict", "prime", "seed", "trials", "data"}
    assert (doc["seed"], doc["trials"]) == (seed, trials)
    assert code == {"Yes": 0, "No": 1, "Inconclusive": 2}[doc["verdict"]]


# ---------------------------------------------------------------------------
# usage errors and the suite

def test_missing_file_is_usage_error(capsys):
    assert run(capsys, "census", "lines", "/nonexistent.json")[0] == 3


def test_prime_above_int64_safe_range_is_usage_error(d4_file, capsys):
    code = main(["check", "geproci", "-a", "3", "-b", "4",
                 "--prime", "5000000000", d4_file])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert "2**31" in err


@pytest.mark.parametrize("prime, message", [
    ("7", "must be at least 100, got 7"),
    ("0", "must be at least 100, got 0"),
    ("2147483648", "must be below 2**31, got 2147483648"),
    ("x", "invalid integer value: 'x'")])
def test_prime_out_of_range_names_the_flag(d4_file, capsys, prime, message):
    # the fault is the option, not the file's symbols
    code = main(["check", "geproci", "-a", "3", "-b", "4",
                 "--prime", prime, d4_file])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert f"argument --prime: {message}" in err
    assert "d4.json" not in err


def _write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("argv, doc, culprit", [
    (["census", "lines"], {"ambient_dim": -1, "points": [[]]},
     "'ambient_dim'"),
    (["unexpected", "c", "-t", "3"], {"ambient_dim": 0, "points": [["1"]]},
     "P^0"),
    (["unexpected", "c", "-t", "3"],
     {"ambient_dim": 1, "points": [["1", "0"], ["0", "1"]]}, "P^1"),
    (["unexpected", "adim", "-t", "3", "-m", "3"],
     {"ambient_dim": 1, "points": [["1", "0"], ["0", "1"]]}, "P^1"),
    (["census", "lines"],
     {"ambient_dim": 2, "points": [["(" * 3000 + "1" + ")" * 3000, "0", "1"]]},
     "nested too deeply"),
], ids=["negative-ambient-dim", "point-of-P0", "two-points-of-P1-c",
        "two-points-of-P1-adim", "deep-parentheses"])
def test_input_at_fault_is_named(tmp_path, capsys, argv, doc, culprit):
    code = main(argv + [_write_json(tmp_path, "bad.json", doc)])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and culprit in err
    for fault in ("RecursionError", "CollisionDetected", "Traceback"):
        assert fault not in err


@pytest.mark.parametrize("argv, code, data", [
    (["unexpected", "c", "-t", "3"], 1,
     {"t": 3, "adim": 0, "vdim": 0, "unexpected": False}),
    (["unexpected", "adim", "-t", "3", "-m", "3"], 0, {"adim": 0}),
], ids=["c", "adim"])
def test_one_point_of_P1_gets_its_verdict(tmp_path, capsys, argv, code, data):
    path = _write_json(tmp_path, "p1.json",
                       {"ambient_dim": 1, "points": [["1", "0"]]})
    got, out = run(capsys, "--json", *argv, path)
    assert got == code
    assert json.loads(out)["data"] == data


def test_long_flat_sum_loads(tmp_path, capsys):
    path = _write_json(tmp_path, "sum.json", {
        "ambient_dim": 2, "points": [["+".join(["1"] * 3001), "0", "1"],
                                     ["0", "1", "0"], ["1", "0", "0"]]})
    code, out = run(capsys, "--json", "census", "lines", path)
    assert code == 0
    assert json.loads(out)["data"]["histogram"] == {"2": 3}


def test_bad_config_shape_is_usage_error(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"ambient_dim": 3, "points": []}))
    code = main(["check", "geproci", "-a", "3", "-b", "4", str(path)])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert "'points'" in err


def test_bad_symbol_entry_is_usage_error(tmp_path, capsys):
    path = tmp_path / "nameless.json"
    path.write_text(json.dumps({"ambient_dim": 2, "points": [["1", "0", "0"]],
                                "symbols": [{"order": 4}]}))
    code = main(["census", "lines", str(path)])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert str(path) in err and "symbols[0]" in err


@pytest.mark.parametrize("sym", [
    {"name": "u", "order": 3},
    {"name": "w", "order": 0},
    {"name": "w", "minpoly": [-2, 0]},
], ids=["repeated-name", "order-zero", "minpoly-too-short"])
def test_ambiguous_or_invalid_symbol_is_usage_error(tmp_path, capsys, sym):
    path = tmp_path / "symbols.json"
    path.write_text(json.dumps({"ambient_dim": 2, "points": [["1", "u", "0"]],
                                "symbols": [{"name": "u", "order": 5}, sym]}))
    code = main(["census", "lines", str(path)])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err.startswith(f"error: {path}: symbols[1] ")


def test_order_no_admissible_prime_meets_is_usage_error(tmp_path, capsys):
    path = tmp_path / "order.json"
    path.write_text(json.dumps({"ambient_dim": 2, "points": [["1", "u", "0"]],
                                "symbols": [{"name": "u",
                                             "order": 1000000007}]}))
    code = main(["census", "lines", str(path)])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert "no suitable prime" in err
    assert f"{path}: symbols: " in err


def test_bad_point_row_is_usage_error(tmp_path, capsys):
    path = tmp_path / "ragged.json"
    path.write_text(json.dumps({"ambient_dim": 3,
                                "points": [["1", "0", "0", "0"],
                                           ["0", "1", "0"]]}))
    code = main(["census", "lines", str(path)])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert str(path) in err and "points[1]" in err and "4 coordinates" in err


def test_unexpected_error_exits_3(d4_file, capsys, monkeypatch):
    from geproci import certify
    from geproci.projgeom import CollisionDetected

    def collide(*args, **kwargs):
        raise CollisionDetected("no collision-free projection vertex found")

    monkeypatch.setattr(certify, "geprocb", collide)
    code = main(["cbp", d4_file])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err.startswith("error: CollisionDetected")


def test_unknown_command(capsys):
    assert run(capsys, "frobnicate")[0] == 3


def test_no_command_prints_usage(capsys):
    assert main([]) == 3


def test_suite_census_group(capsys):
    code, out = run(capsys, "suite", "census")
    assert code == 0
    assert "[PASS]" in out
    assert "[FAIL]" not in out


def test_suite_unknown_group(capsys):
    assert run(capsys, "suite", "nonesuch")[0] == 3
