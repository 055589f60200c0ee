"""Command-line front end.

Subcommands construct configurations, run the certification checks, and
print JSON reports of the form {"verdict", "prime", "seed", "trials",
"data"}. Exit codes: 0 = Yes/pass, 1 = No/fail, 2 = Inconclusive,
3 = usage, input or unexpected error.
"""

import argparse
import json
import sys

from . import certify, combinat, configs, ks, unexpected, weddle
from .certify import YES, NO, INCONCLUSIVE, Decision
from .field import PRIME_LIMIT


_EXIT = {YES: 0, NO: 1, INCONCLUSIVE: 2, certify.DEGENERATE: 1}


def _emit(decision, args):
    """Print the decision as JSON or as text; return its exit code."""
    report = decision.to_json()
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        print(f"verdict: {report['verdict']}")
        print(f"prime:   {report['prime']}")
        print(f"seed:    {report['seed']}  trials: {report['trials']}")
        for k in sorted(report["data"]):
            print(f"{k}: {report['data'][k]}")
    return _EXIT[decision.verdict]


def _cmd_construct(args):
    kind = args.what
    if kind == "grid":
        cfg = configs.unity_grid(args.a, args.b)
    elif kind == "std":
        cfg = configs.std_construction(args.n, args.which)
    elif kind == "extend":
        cfg = configs.extend_standard(
            configs.std_construction(args.n, args.which))
    else:
        cfg = configs.named(kind)
    configs.save(cfg, args.output)
    return _emit(Decision(YES, cfg.field.p, 0, 0,
                          {"label": cfg.label, "n_points": len(cfg.points),
                           "file": args.output}), args)


def _cmd_check_geproci(args):
    cfg = configs.load(args.file, args.prime)
    return _emit(certify.is_geproci(cfg.points, args.a, args.b,
                                    trials=args.trials, seed=args.seed), args)


def _cmd_check_ci222(args):
    cfg = configs.load(args.file)
    return _emit(certify.is_ci222_p4(cfg.points, trials=args.trials,
                                     seed=args.seed), args)


def _cmd_census(args):
    cfg = configs.load(args.file)
    census = (combinat.line_census if args.what == "lines"
              else combinat.plane_census)(cfg)
    hist = {str(k): v for k, v in sorted(census.histogram.items())}
    if not args.json:
        print(json.dumps(hist, sort_keys=True))
        return 0
    return _emit(Decision(YES, cfg.field.p, 0, 0,
                          {"flat_dim": census.flat_dim, "histogram": hist}),
                 args)


def _cmd_weddle(args):
    cfg = configs.load(args.file)
    if args.what == "degree":
        deg = weddle.weddle_degree(cfg.points, args.d, seed=args.seed)
        data = {"degree": deg}
        verdict = YES
    else:
        if not args.probe:
            print("weddle member needs --probe FILE", file=sys.stderr)
            return 3
        probe = configs.load(args.probe)
        flags = weddle.members(cfg.points, args.d, probe.points,
                               seed=args.seed)
        data = {"members": flags}
        verdict = YES if all(flags) else NO
    return _emit(Decision(verdict, cfg.field.p, args.seed, 1, data), args)


def _cmd_unexpected(args):
    cfg = configs.load(args.file)
    if args.what == "adim":
        val = unexpected.adim(cfg, args.t, args.m, seed=args.seed)
        data, verdict = {"adim": val}, YES
    elif args.what == "vdim":
        val = unexpected.vdim(cfg, args.t, args.m, seed=args.seed)
        data, verdict = {"vdim": val}, YES
    else:
        rep = unexpected.c_predicate(cfg, args.t, seed=args.seed)
        data = {"t": rep.t, "adim": rep.adim, "vdim": rep.vdim,
                "unexpected": rep.unexpected}
        verdict = YES if rep.unexpected else NO
    return _emit(Decision(verdict, cfg.field.p, args.seed, 2, data), args)


def _cmd_ks(args):
    cfg = configs.load(args.file)
    g = ks.ortho_graph(cfg, seed=args.seed)
    verdict = YES if ks.is_ks_set(g) else NO
    data = {"edges": len(g.edges), "bases": len(g.bases),
            "max_cliques": len(g.max_cliques),
            "primes": list(g.primes), "rule": "bases+max_cliques"}
    return _emit(Decision(verdict, cfg.field.p, args.seed, 1, data), args)


def _cmd_cbp(args):
    cfg = configs.load(args.file)
    fn = certify.cbp_ambient if args.ambient else certify.geprocb
    return _emit(fn(cfg.points, seed=args.seed), args)


def _subset_indices(path, n):
    """Point indices from a JSON file: a non-empty list of distinct
    integers in [0, n)."""
    with open(path, encoding="utf-8") as fh:
        indices = json.load(fh)
    if not isinstance(indices, list) or not indices:
        raise ValueError(f"{path}: expected a non-empty JSON list of point "
                         f"indices")
    for k, i in enumerate(indices):
        if type(i) is not int or not 0 <= i < n:
            raise ValueError(f"{path}: entry {k} ({json.dumps(i)}) is not a "
                             f"point index in [0, {n})")
        if i in indices[:k]:
            raise ValueError(f"{path}: entry {k} repeats point index {i}")
    return indices


def _cmd_remember(args):
    cfg = configs.load(args.file)
    W = [cfg.points[i] for i in _subset_indices(args.subset, len(cfg.points))]
    return _emit(certify.remembers(W, cfg.points, args.m, seed=args.seed),
                 args)


def _cmd_equiv(args):
    c1 = configs.load(args.file1)
    c2 = configs.load(args.file2)
    status, detail = combinat.weak_comb_equivalent(c1, c2)
    verdict = {"Equivalent": YES, "Distinguished": NO,
               "Unknown": INCONCLUSIVE}[status]
    data = {"status": status}
    if status == "Equivalent":
        data["bijection"] = detail
    elif status == "Distinguished":
        data["invariant"] = detail
    return _emit(Decision(verdict, c1.field.p, 0, 1, data), args)


def _suite_items():
    def geproci_item(label, a, b):
        def run():
            cfg = configs.named(label)
            return bool(certify.is_geproci(cfg.points, a, b, trials=3))
        return (f"{label} is ({a},{b})-geproci", run)

    def grid_item():
        cfg = configs.unity_grid(3, 4)
        return certify.detect_grid(cfg.points)[0] == "Grid"

    def weddle_item(label, builder, d, expect):
        def run():
            return weddle.weddle_degree(builder(), d) == expect
        return (label, run)

    import random as _random
    from .field import choose_prime
    from .projgeom import random_point

    def random_points(n_pts, dim, seed):
        p = choose_prime([])
        rng = _random.Random(repr((seed, "suite")))
        out = []
        while len(out) < n_pts:
            q = random_point(dim + 1, p, rng)
            if q not in out:
                out.append(q)
        return out

    return {
        "geproci": [
            geproci_item("d4", 3, 4),
            geproci_item("f4", 4, 6),
            geproci_item("penrose", 5, 8),
            ("grid(3,4) detected as grid", grid_item),
        ],
        "census": [
            ("d4 line census {2:18, 3:16}", lambda: (
                combinat.line_census(configs.named("d4")).histogram
                == {2: 18, 3: 16})),
            ("penrose line census {2:240, 4:90}", lambda: (
                combinat.line_census(configs.named("penrose")).histogram
                == {2: 240, 4: 90})),
        ],
        "weddle": [
            weddle_item("6 points in 3-space, d=2, degree 4",
                        lambda: random_points(6, 3, 1), 2, 4),
            weddle_item("10 points in 4-space, d=2, degree 5",
                        lambda: random_points(10, 4, 1), 2, 5),
            weddle_item("10 points in 3-space, d=3, degree 10",
                        lambda: random_points(10, 3, 1), 3, 10),
        ],
        "ks": [
            ("13-ray set is KS", lambda: ks.is_ks_set(
                configs.named("rays13"))),
            ("Peres 33-ray set is KS", lambda: ks.is_ks_set(
                configs.named("peres33"))),
        ],
        "unexpected": [
            ("d4 has an unexpected cone of degree 3", lambda:
                unexpected.c_predicate(configs.named("d4"), 3).unexpected),
            ("grid(2,4) has no unexpected cone of degree 4", lambda: not
                unexpected.c_predicate(configs.unity_grid(2, 4),
                                       4).unexpected),
        ],
    }


def _cmd_suite(args):
    groups = _suite_items()
    if args.name and args.name not in groups:
        print(f"unknown suite group: {args.name}", file=sys.stderr)
        return 3
    selected = {args.name: groups[args.name]} if args.name else groups
    results = {}
    ok = True
    for gname, items in selected.items():
        for label, run in items:
            passed = bool(run())
            ok = ok and passed
            results[f"{gname}: {label}"] = passed
            if not args.json:
                print(f"[{'PASS' if passed else 'FAIL'}] {gname}: {label}")
    if args.json:
        print(json.dumps({"verdict": YES if ok else NO,
                          "results": results}, sort_keys=True))
    return 0 if ok else 1


def _int_at_least(low, below=None):
    """argparse type: an int no smaller than low, and below the power of
    two `below` if one is given; argparse names the flag in its message
    and main turns the usage error into exit code 3."""
    def integer(text):
        val = int(text)
        if val < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, "
                                             f"got {val}")
        if below is not None and val >= below:
            raise argparse.ArgumentTypeError(
                f"must be below 2**{below.bit_length() - 1}, got {val}")
        return val
    return integer


def build_parser():
    ap = argparse.ArgumentParser(prog="geproci")
    ap.add_argument("--json", action="store_true",
                    help="emit machine-readable JSON")
    sub = ap.add_subparsers(dest="command")

    c = sub.add_parser("construct", help="build and save a configuration")
    c.add_argument("what", help="named label, or grid / std / extend")
    c.add_argument("-a", type=int, default=3)
    c.add_argument("-b", type=int, default=3)
    c.add_argument("-n", type=int, default=4)
    c.add_argument("--which", default="Y1", choices=["Y1", "Y2", "Y1Y2"])
    c.add_argument("-o", "--output", required=True)
    c.set_defaults(fn=_cmd_construct)

    chk = sub.add_parser("check", help="certification checks")
    chk_sub = chk.add_subparsers(dest="what")
    g = chk_sub.add_parser("geproci")
    g.add_argument("-a", type=int, required=True)
    g.add_argument("-b", type=int, required=True)
    g.add_argument("-t", "--trials", type=int, default=3)
    g.add_argument("--seed", type=int, default=0)
    # the least prime to consider, in the range field.choose_prime searches
    g.add_argument("--prime", type=_int_at_least(100, PRIME_LIMIT),
                   default=configs.DEFAULT_MIN_BOUND)
    g.add_argument("file")
    g.set_defaults(fn=_cmd_check_geproci)
    ci = chk_sub.add_parser("ci222")
    ci.add_argument("-t", "--trials", type=int, default=3)
    ci.add_argument("--seed", type=int, default=0)
    ci.add_argument("file")
    ci.set_defaults(fn=_cmd_check_ci222)

    ce = sub.add_parser("census", help="line or plane census")
    ce.add_argument("what", choices=["lines", "planes"])
    ce.add_argument("file")
    ce.set_defaults(fn=_cmd_census)

    w = sub.add_parser("weddle", help="determinantal locus checks")
    w.add_argument("what", choices=["member", "degree"])
    w.add_argument("-d", type=int, required=True)
    w.add_argument("--seed", type=int, default=0)
    w.add_argument("--probe", default=None)
    w.add_argument("file")
    w.set_defaults(fn=_cmd_weddle)

    u = sub.add_parser("unexpected", help="cone dimension counts")
    u.add_argument("what", choices=["adim", "vdim", "c"])
    u.add_argument("-t", type=_int_at_least(0), required=True)
    u.add_argument("-m", type=_int_at_least(1), default=None)
    u.add_argument("--seed", type=int, default=0)
    u.add_argument("file")
    u.set_defaults(fn=_cmd_unexpected)

    k = sub.add_parser("ks", help="Kochen-Specker verification")
    k.add_argument("--seed", type=int, default=0)
    k.add_argument("file")
    k.set_defaults(fn=_cmd_ks)

    cb = sub.add_parser("cbp", help="Cayley-Bacharach checks")
    cb.add_argument("--ambient", action="store_true")
    cb.add_argument("--seed", type=int, default=0)
    cb.add_argument("file")
    cb.set_defaults(fn=_cmd_cbp)

    r = sub.add_parser("remember", help="cone memory of a subset")
    r.add_argument("-m", type=int, required=True)
    r.add_argument("--subset", required=True,
                   help="JSON file with a list of point indices")
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("file")
    r.set_defaults(fn=_cmd_remember)

    e = sub.add_parser("equiv", help="weak combinatorial equivalence")
    e.add_argument("file1")
    e.add_argument("file2")
    e.set_defaults(fn=_cmd_equiv)

    s = sub.add_parser("suite", help="run named check groups")
    s.add_argument("name", nargs="?", default=None)
    s.set_defaults(fn=_cmd_suite)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 3
    if not getattr(args, "fn", None):
        ap.print_usage(sys.stderr)
        return 3
    if args.command == "unexpected" and args.what != "c" and args.m is None:
        print("unexpected adim/vdim need -m", file=sys.stderr)
        return 3
    if args.command == "unexpected" and args.m is None:
        args.m = args.t
    try:
        return args.fn(args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        # a fault of the program, or an input the checks cannot handle
        # (say, a projection collision that persists after resampling):
        # never let it pass for a "No" verdict
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
