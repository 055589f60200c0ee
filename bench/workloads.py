"""The benchmark's three workloads: fixed item lists over the named corpus.

Each workload is one closed loop: a single caller runs its items one
after another, each item being one check call into the library (or one
in-process `geproci` CLI command). `setup` builds every input from the
workload seed, so the timed items receive only generated inputs.

Every item carries an oracle: an expected value that holds for every
seed (acceptance-criterion values, censuses forced by the pair-counting
identity, theorems on general points). Oracles are pure Python and call
nothing in the library, so a traced run records no spans outside items.
"""

import contextlib
import io
import itertools
import json
import math
import os
import random
from typing import Any, Callable, NamedTuple

from geproci import certify, cli, combinat, configs, ks, unexpected, weddle
from geproci.field import make_field
from geproci.projgeom import ProjPoint, segre


class Item(NamedTuple):
    name: str
    run: Callable[[], Any]
    expect: Callable[[Any], bool]


class Inputs(NamedTuple):
    items: list
    primes: list


# ---------------------------------------------------------------------------
# canonical, byte-stable serialisation of item results

def canon(x):
    """JSON-ready form of a library result with a deterministic order."""
    if isinstance(x, certify.Decision):
        return canon(x.to_json())
    if isinstance(x, combinat.IncidenceCensus):
        return {"flat_dim": x.flat_dim, "histogram": canon(x.histogram)}
    if isinstance(x, ProjPoint):
        return list(x.coords)
    if isinstance(x, dict):
        return {str(k): canon(v) for k, v in x.items()}
    if isinstance(x, (set, frozenset)):
        return sorted((canon(v) for v in x), key=json.dumps)
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    if isinstance(x, (bool, str)) or x is None:
        return x
    return int(x)


def serialise(result) -> bytes:
    return json.dumps(canon(result), sort_keys=True).encode()


# ---------------------------------------------------------------------------
# oracle helpers (pure Python)

def _verdict(expected):
    return lambda d: d.verdict == expected


def _pair_identity(n_points):
    """Every pair of distinct points lies on exactly one line."""
    return lambda c: sum(math.comb(k, 2) * v
                         for k, v in c.histogram.items()) == math.comb(
                             n_points, 2)


def _histogram(expected, n_points):
    pairs = _pair_identity(n_points)
    return lambda c: c.histogram == expected and pairs(c)


def _collinear(points, p):
    """All 3x3 minors of the three coordinate rows vanish mod p."""
    rows = [q.coords for q in points]
    for cols in itertools.combinations(range(len(rows[0])), 3):
        m = [[r[c] for c in cols] for r in rows]
        d = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
             - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
             + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
        if d % p:
            return False
    return True


def _brianchon_ok(grid_points, p):
    def check(pair):
        six = [q for tri in pair for q in tri]
        return (len(pair) == 2 and len(set(six)) == 6
                and not set(six) & set(grid_points)
                and all(_collinear(tri, p) for tri in pair))
    return check


def _cli_json(code, field, expected):
    def check(out):
        rc, text = out
        return rc == code and json.loads(text)[field] == expected
    return check


# ---------------------------------------------------------------------------
# generated inputs

def _random_points(rng, count, nvars, p):
    out = []
    while len(out) < count:
        coords = [rng.randrange(p) for _ in range(nvars)]
        if not any(coords):
            continue
        q = ProjPoint.make(coords, p)
        if q not in out:
            out.append(q)
    return out


def _segre_plus_one(rng, p):
    """Ten general points of the quadric xw = yz plus one general point."""
    pts = []
    while len(pts) < 10:
        u, v = _random_points(rng, 2, 2, p)
        q = segre(u, v)
        if q not in pts:
            pts.append(q)
    while True:
        (q,) = _random_points(rng, 1, 4, p)
        if q not in pts:
            return pts + [q]


def _seeded_grid33(rng, fs):
    """A (3,3)-grid on xw = yz with random distinct parameters."""
    while True:
        pa = [(1, rng.randrange(fs.p)) for _ in range(3)]
        pb = [(1, rng.randrange(fs.p)) for _ in range(3)]
        if len(set(pa)) == 3 and len(set(pb)) == 3:
            return configs.grid(3, 3, pa, pb, fs, label="grid33-seeded")


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# workloads

def _deletion(seed, workdir):
    """One-point-deletion Hilbert functions: big evaluation matrices."""
    items, primes = [], []
    for label in ("d4", "f4", "penrose", "half_penrose", "klein", "h4"):
        pts = configs.named(label).points
        primes.append(pts[0].p)
        items.append(Item(f"geprocb:{label}",
                          lambda pts=pts: certify.geprocb(pts, seed=seed),
                          _verdict(certify.YES)))
    for n in range(3, 7):
        pts = configs.std_construction(n, "Y1").points
        primes.append(pts[0].p)
        items.append(Item(f"geprocb:std{n}Y1",
                          lambda pts=pts: certify.geprocb(pts, seed=seed),
                          _verdict(certify.YES)))
    fs = make_field([])
    eleven = _segre_plus_one(random.Random(repr((seed, "eleven"))), fs.p)
    primes.append(fs.p)
    items.append(Item("geprocb:segre10+1",
                      lambda: certify.geprocb(eleven, seed=seed),
                      _verdict(certify.YES)))
    items.append(Item("cbp_ambient:segre10+1",
                      lambda: certify.cbp_ambient(eleven, seed=seed),
                      _verdict(certify.NO)))
    return Inputs(items, primes)


def _criterion1_corpus():
    """(label, points, a, b) for every geproci case of the first criterion."""
    out = [("d4", configs.named("d4").points, 3, 4),
           ("f4", configs.named("f4").points, 4, 6)]
    for n in range(3, 7):
        for which in ("Y1", "Y2"):
            out.append((f"std{n}{which}",
                        configs.std_construction(n, which).points, n, n + 1))
    for n in (4, 6):
        out.append((f"std{n}Y1Y2",
                    configs.std_construction(n, "Y1Y2").points, n, n + 2))
    std6 = configs.std_construction(6, "Y1").points
    for removed, a in ((2, 5), (3, 4)):
        keep = [std6[i * 6 + j] for i in range(6 - removed) for j in range(6)]
        out.append((f"std6Y1-minus{removed}rows", keep + std6[36:], a, 6))
    out.append(("ext-std3Y1", configs.extend_standard(
        configs.std_construction(3, "Y1")).points, 4, 4))
    out.append(("ext-std4Y1Y2", configs.extend_standard(
        configs.std_construction(4, "Y1Y2")).points, 6, 6))
    for label, a, b in (("klein", 6, 10), ("penrose", 5, 8),
                        ("half_penrose", 4, 5), ("h4", 6, 10),
                        ("points120", 10, 12)):
        out.append((label, configs.named(label).points, a, b))
    return out


def _certify(seed, workdir):
    """The mixed path: projections, ideal dimensions, resultants, grids."""
    items, primes = [], []
    for label, pts, a, b in _criterion1_corpus():
        primes.append(pts[0].p)
        items.append(Item(
            f"is_geproci:{label}({a},{b})",
            lambda pts=pts, a=a, b=b: certify.is_geproci(
                pts, a, b, trials=3, seed=seed),
            _verdict(certify.YES)))

    grids = [("grid34", configs.unity_grid(3, 4).points, "Grid")]
    grids += [(label, configs.named(label).points, kind)
              for label, kind in (("d4", "HalfGrid"), ("f4", "HalfGrid"),
                                  ("klein", "HalfGrid"), ("penrose", "Neither"),
                                  ("h4", "Neither"), ("points120", "Neither"))]
    for label, pts, kind in grids:
        items.append(Item(f"detect_grid:{label}",
                          lambda pts=pts: certify.detect_grid(pts, seed=seed),
                          lambda r, kind=kind: r[0] == kind))

    fs = make_field([])
    primes.append(fs.p)
    rng = random.Random(repr((seed, "ci222")))
    for k in range(6):
        pts = _random_points(rng, 8, 5, fs.p)
        items.append(Item(f"is_ci222_p4:random8-{k}",
                          lambda pts=pts, k=k: certify.is_ci222_p4(
                              pts, trials=2, seed=seed + k),
                          _verdict(certify.NO)))

    r300 = configs.named("rays300")
    primes.append(r300.field.p)
    for m, expected in zip((22, 23, 24, 25), (2, 6, 28, 52)):
        items.append(Item(f"adim:rays300({m},{m})",
                          lambda m=m: unexpected.adim(r300, m, m, trials=1,
                                                      seed=seed),
                          lambda v, e=expected: v == e))
    e8 = configs.named("e8")
    items.append(Item("adim:e8(5,5)",
                      lambda: unexpected.adim(e8, 5, 5, trials=1, seed=seed),
                      lambda v: v == 343))
    for n in (4, 5, 6):
        sk = configs.skeleton(n, n - 1)
        expected = math.comb(n + 1, 3) - math.comb(n + 2, 2) + n + 1
        items.append(Item(f"adim:skeleton-lines{n}(3,3)",
                          lambda sk=sk: unexpected.adim(sk, 3, 3, trials=1,
                                                        seed=seed),
                          lambda v, e=expected: v == e))
    for n, m in ((3, 6), (3, 8), (4, 10)):
        sk = configs.skeleton(n, 2)
        excess = unexpected.skeleton_f(m, n)
        items.append(Item(
            f"adim-vdim:skeleton-codim2-{n}({m},{m})",
            lambda sk=sk, m=m: (
                unexpected.adim(sk, m, m, trials=1, seed=seed),
                unexpected.vdim(sk, m, m, trials=1, seed=seed)),
            lambda av, f=excess: av[0] - av[1] == f))

    f4 = configs.named("f4")
    line = _f4_four_point_lines(f4)[0]
    W = [q for i, q in enumerate(f4.points) if i not in line]
    items.append(Item("remembers:f4-minus-4line(m=4)",
                      lambda: certify.remembers(W, f4.points, 4, seed=seed),
                      _verdict(certify.YES)))

    ten = _random_points(random.Random(repr((seed, "weddle"))), 10, 4, fs.p)
    items.append(Item("weddle_degree:10pts-P3(d=3)",
                      lambda: weddle.weddle_degree(ten, 3, seed=seed),
                      lambda v: v == 10))

    for label, a, b in (("d4", 3, 4), ("f4", 4, 6), ("penrose", 5, 8)):
        path = os.path.join(workdir, f"{label}.json")
        configs.save(configs.named(label), path)
        argv = ["--json", "check", "geproci", "-a", str(a), "-b", str(b),
                "-t", "3", "--seed", str(seed), path]
        items.append(Item(f"cli:check-geproci:{label}",
                          lambda argv=argv: _cli(argv),
                          _cli_json(0, "verdict", certify.YES)))
    path = os.path.join(workdir, "penrose.json")
    items.append(Item("cli:census-lines:penrose",
                      lambda: _cli(["--json", "census", "lines", path]),
                      _cli_json(0, "data", {"flat_dim": 1, "histogram":
                                            {"2": 240, "4": 90}})))
    return Inputs(items, primes)


def _f4_four_point_lines(f4):
    """Index sets of the four-point lines of f4, sorted as criterion 10
    sorts them. Pure Python, so a traced set-up records no census."""
    p = f4.field.p
    pts = f4.points
    lines = set()
    for i, j in itertools.combinations(range(len(pts)), 2):
        on = [k for k in range(len(pts))
              if k in (i, j) or _collinear([pts[i], pts[j], pts[k]], p)]
        if len(on) == 4:
            lines.add(tuple(on))
    return sorted(lines, key=lambda idx: sorted(pts[k].coords for k in idx))


def _incidence(seed, workdir):
    """Tiny matrices many times: censuses, equivalence and KS searches."""
    items, primes = [], []
    censuses = (("d4", {2: 18, 3: 16}), ("f4", {2: 72, 3: 32, 4: 18}),
                ("penrose", {2: 240, 4: 90}), ("half_penrose", None),
                ("h4", None), ("points120", None))
    for label, hist in censuses:
        cfg = configs.named(label)
        primes.append(cfg.field.p)
        n = len(cfg.points)
        if hist is not None:
            check = _histogram(hist, n)
        elif label == "half_penrose":
            pairs = _pair_identity(n)
            check = lambda c, pairs=pairs: (c.histogram.get(4) == 10
                                            and 5 not in c.histogram
                                            and pairs(c))
        else:
            check = _pair_identity(n)
        items.append(Item(f"line_census:{label}",
                          lambda cfg=cfg: combinat.line_census(cfg), check))

    d4 = configs.named("d4")
    items.append(Item("plane_census:d4",
                      lambda: combinat.plane_census(d4),
                      lambda c: c.histogram.get(6) == 12))
    tables = {1: {3: 366, 4: 168, 5: 30, 10: 30},
              2: {3: 408, 4: 192, 5: 18, 10: 30},
              3: {3: 324, 4: 144, 5: 42, 10: 30}}
    z = {w: configs.z56(w) for w in (1, 2, 3)}
    primes.append(z[1].field.p)
    for w, table in tables.items():
        items.append(Item(f"plane_census:z{w}",
                          lambda cfg=z[w]: combinat.plane_census(cfg),
                          lambda c, t=table: c.histogram == t))
    for a, b in ((1, 3), (1, 2), (2, 3)):
        items.append(Item(
            f"weak_comb_equivalent:z{a}-z{b}",
            lambda a=a, b=b: combinat.weak_comb_equivalent(z[a], z[b]),
            lambda r: r[0] == "Distinguished" and r[1] in (
                "k33_probe", "disjoint_k13_probe")))

    g1 = configs.unity_grid(3, 3)
    g2 = _seeded_grid33(random.Random(repr((seed, "grid33"))), g1.field)
    primes.append(g1.field.p)
    items.append(Item("weak_comb_equivalent:grid33-pair",
                      lambda: combinat.weak_comb_equivalent(g1, g2),
                      lambda r: r[0] == "Equivalent"
                      and sorted(r[1]) == list(range(9))))
    items.append(Item("brianchon_points:grid33",
                      lambda: combinat.brianchon_points(g2),
                      _brianchon_ok(g2.points, g1.field.p)))
    items.append(Item("detect_grid:grid33",
                      lambda: certify.detect_grid(g2.points, seed=seed),
                      lambda r: r[0] == "Grid" and r[1] == (3, 3)))

    for label in ("rays13", "rays21", "penrose", "peres33"):
        cfg = configs.named(label)
        primes.append(cfg.field.p)
        items.append(Item(f"is_ks_set:{label}",
                          lambda cfg=cfg: ks.is_ks_set(cfg, seed=seed),
                          lambda v: v is True))
    return Inputs(items, primes)


_BUILDERS = {"deletion": _deletion, "certify": _certify,
             "incidence": _incidence}


def setup(workload, seed, workdir) -> Inputs:
    """Build the workload's inputs; config files for CLI items go to
    workdir, which must exist."""
    inputs = _BUILDERS[workload](seed, workdir)
    return Inputs(inputs.items, sorted(set(inputs.primes)))
