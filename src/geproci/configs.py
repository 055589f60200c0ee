"""Named point configurations, constructors, and JSON file I/O.

Every configuration is a labeled list of projective points over a
FieldSpec whose symbols realize the constants appearing in the
coordinates (roots of unity, quadratic irrationals). Hand-listed
configurations keep their coordinate expression strings so files
round-trip exactly; computed ones are saved as residue literals.
"""

import itertools
import json
import math
import re
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import linalg
from .field import (DEFAULT_MIN_BOUND, FieldSpec, make_field,
                    minpoly_constraint, order_constraint)
from .projgeom import Flat, ProjPoint, flat_through, segre


class ParseError(ValueError):
    pass


class UnresolvableSymbol(ValueError):
    pass


class UnknownLabel(KeyError):
    pass


class DuplicateParams(ValueError):
    pass


class OddNForY1Y2(ValueError):
    pass


class NotStandard(ValueError):
    pass


# ---------------------------------------------------------------------------
# coordinate expression grammar

_TOKEN_RE = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z_0-9]*|\*|\^|\+|-|/|\(|\))")


def _tokenize(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"bad character at column {pos} in {text!r}")
        out.append((m.group(1), pos))
        pos = m.end()
    return out


class _ExprParser:
    """Recursive descent for +, -, *, /, ^ (integer exponents, possibly
    negative and parenthesized), parentheses, integers and symbol names."""

    def __init__(self, text, env, p):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.env = env
        self.p = p

    def peek(self):
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def next(self):
        if self.i >= len(self.tokens):
            raise ParseError(f"unexpected end of expression {self.text!r}")
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, what):
        tok, pos = self.next()
        if tok != what:
            raise ParseError(
                f"expected {what!r} at column {pos} in {self.text!r}")
        return tok

    def parse(self):
        v = self.expr()
        if self.i != len(self.tokens):
            tok, pos = self.tokens[self.i]
            raise ParseError(
                f"trailing {tok!r} at column {pos} in {self.text!r}")
        return v % self.p

    def expr(self):
        v = self.term()
        while self.peek() in ("+", "-"):
            op, _ = self.next()
            w = self.term()
            v = (v + w) % self.p if op == "+" else (v - w) % self.p
        return v

    def term(self):
        v = self.unary()
        while self.peek() in ("*", "/"):
            op, pos = self.next()
            w = self.unary()
            if op == "*":
                v = v * w % self.p
            else:
                if w % self.p == 0:
                    raise ParseError(
                        f"division by zero at column {pos} in {self.text!r}")
                v = v * pow(w, self.p - 2, self.p) % self.p
        return v

    def unary(self):
        sign = 1
        while self.peek() in ("+", "-"):
            op, _ = self.next()
            if op == "-":
                sign = -sign
        return sign * self.power() % self.p

    def power(self):
        v = self.atom()
        if self.peek() == "^":
            self.next()
            e = self.exponent()
            if e >= 0:
                v = pow(v, e, self.p)
            else:
                if v % self.p == 0:
                    raise ParseError(
                        f"zero to a negative power in {self.text!r}")
                v = pow(pow(v, self.p - 2, self.p), -e, self.p)
        return v

    def exponent(self):
        if self.peek() == "(":
            self.next()
            e = self.exponent()
            self.expect(")")
            return e
        sign = 1
        if self.peek() == "-":
            self.next()
            sign = -1
        tok, pos = self.next()
        if not tok.isdigit():
            raise ParseError(
                f"expected integer exponent at column {pos} in {self.text!r}")
        return sign * int(tok)

    def atom(self):
        tok, pos = self.next()
        if tok.isdigit():
            return int(tok) % self.p
        if tok == "(":
            v = self.expr()
            self.expect(")")
            return v
        if tok[0].isalpha() or tok[0] == "_":
            if tok not in self.env:
                raise UnresolvableSymbol(
                    f"unknown symbol {tok!r} in {self.text!r}")
            return self.env[tok] % self.p
        raise ParseError(f"unexpected {tok!r} at column {pos} in {self.text!r}")


def eval_expr(text, env, p) -> int:
    return _ExprParser(str(text), env, p).parse()


# ---------------------------------------------------------------------------
# core types

@dataclass
class Configuration:
    label: str
    ambient_dim: int
    field: FieldSpec
    points: list                 # list of ProjPoint
    exprs: list = None           # parallel list of coordinate expressions
    tags: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        if len(set(self.points)) != len(self.points):
            raise ValueError(f"{self.label}: repeated points")
        if any(q.ambient_dim != self.ambient_dim for q in self.points):
            raise ValueError(f"{self.label}: ambient dimension mismatch")

    def __len__(self):
        return len(self.points)

    def subset(self, indices, label=None):
        pts = [self.points[i] for i in indices]
        exprs = [self.exprs[i] for i in indices] if self.exprs else None
        return Configuration(label or self.label + "-subset",
                             self.ambient_dim, self.field, pts, exprs,
                             dict(self.tags))


@dataclass
class FlatUnion:
    ambient_dim: int
    flats: list                  # list of Flat, common dimension
    field: FieldSpec

    @property
    def flat_dim(self):
        return self.flats[0].dim


def _from_exprs(label, n, fs, expr_rows, tags=None):
    pts = [ProjPoint.make([eval_expr(e, fs.symbols, fs.p) for e in row], fs.p)
           for row in expr_rows]
    return Configuration(label, n, fs, pts,
                         [[str(e) for e in row] for row in expr_rows],
                         tags or {})


# ---------------------------------------------------------------------------
# small hand-listed tables; '*' in a pattern means -1

def _pat(rows):
    return [[{"*": "-1"}.get(ch, ch) for ch in row] for row in rows]


_D4 = _pat(["1100", "*100", "1010", "*010", "1001", "*001",
            "0110", "0*10", "0101", "0*01", "0011", "00*1"])

_D4_PRIME = _pat(["1000", "0100", "0010", "0001", "1111", "*111",
                  "1*11", "11*1", "111*", "**11", "*1*1", "*11*"])

_B3 = _pat(["100", "010", "001", "110", "1*0", "101", "10*", "011", "01*"])

_RAYS13 = _pat(["100", "010", "001", "011", "01*", "101", "10*", "110",
                "1*0", "*11", "1*1", "11*", "111"])

_RAYS21 = [
    ["0", "1", "-1"], ["0", "1", "-q"], ["0", "1", "-q^2"],
    ["-1", "0", "1"], ["-q", "0", "1"], ["-q^2", "0", "1"],
    ["1", "-1", "0"], ["1", "-q", "0"], ["1", "-q^2", "0"],
    ["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"],
    ["1", "1", "1"], ["1", "q", "q^2"], ["1", "q^2", "q"],
    ["1", "q^2", "q^2"], ["q^2", "1", "q^2"], ["q^2", "q^2", "1"],
    ["1", "q", "q"], ["q", "1", "q"], ["q", "q", "1"],
]

_PERES33 = [
    "100", "010", "001", "110", "101", "011", "1*0", "10*", "01*",
    "01v", "10v", "1v0", "0*v", "*0v", "*v0", "0v1", "v01", "v10",
    "0v*", "v0*", "v*0", "11v", "**v", "1*v", "*1v", "1v1", "1v*",
    "*v*", "*v1", "v11", "v1*", "v*1", "v**",
]

_PENROSE = [
    ["1", "t", "t^2", "0"], ["1", "0", "0", "0"], ["0", "1", "0", "0"],
    ["0", "0", "1", "0"],
    ["-1", "0", "t^2", "1"], ["0", "-1", "t", "1"],
    ["t^2", "1", "0", "1"], ["t", "0", "1", "1"],
    ["0", "t^2", "1", "-1"], ["1", "t^(-2)", "0", "1"],
    ["0", "t", "-1", "1"], ["t^(-1)", "0", "1", "1"],
    ["1", "0", "t", "-1"], ["1", "t^2", "0", "1"],
    ["t^(-2)", "1", "0", "1"], ["0", "1", "t^2", "-1"],
    ["1", "1", "0", "1"], ["0", "1", "1", "-1"],
    ["-1", "0", "1", "1"], ["t^2", "t", "1", "0"],
    ["0", "0", "0", "1"], ["0", "t^2", "1", "t"],
    ["t", "0", "1", "t^2"], ["t^(-2)", "t^2", "0", "1"],
    ["0", "1", "1", "t"], ["1", "0", "-1", "t^(-1)"],
    ["1", "0", "-1", "t"], ["1", "1", "0", "t^2"],
    ["1", "1", "0", "t^(-2)"], ["0", "1", "1", "t^(-1)"],
    ["-1", "1", "t^(-1)", "0"], ["-1", "1", "t", "0"],
    ["t^2", "-1", "1", "0"], ["t", "1", "-1", "0"],
    ["1", "t^(-1)", "1", "0"], ["1", "t", "1", "0"],
    ["1", "t^2", "0", "t^(-2)"], ["0", "1", "t^2", "t"],
    ["t", "0", "t^2", "1"], ["1", "-1", "1", "0"],
]

# 1-based indices into the 40-point list above
HALF_PENROSE_INDICES = (1, 2, 32, 35, 29, 7, 37, 3, 30, 15, 5, 36,
                        11, 14, 39, 40, 8, 17, 33, 38)

_KLEIN_EXTRA24 = [
    ["1", "u", "-1", "u"], ["1", "-u", "-1", "-u"],
    ["1", "1", "-1", "1"], ["1", "-1", "-1", "-1"],
    ["1", "u", "1", "-u"], ["1", "-u", "1", "u"],
    ["1", "1", "1", "-1"], ["1", "-1", "1", "1"],
    ["1", "u", "u", "1"], ["1", "-u", "u", "-1"],
    ["1", "1", "u", "-u"], ["1", "-1", "u", "u"],
    ["1", "u", "-u", "-1"], ["1", "-u", "-u", "1"],
    ["1", "1", "-u", "u"], ["1", "-1", "-u", "-u"],
    ["1", "u", "0", "0"], ["1", "-u", "0", "0"],
    ["1", "1", "0", "0"], ["1", "-1", "0", "0"],
    ["0", "0", "1", "-u"], ["0", "0", "1", "u"],
    ["0", "0", "1", "-1"], ["0", "0", "1", "1"],
]


# ---------------------------------------------------------------------------
# constructors

def grid(a, b, params_a, params_b, fs: FieldSpec, label=None):
    """Product of two parameter lists on the projective line, embedded on
    the quadric surface xw = yz."""
    pa = [ProjPoint.make(c, fs.p) for c in params_a]
    pb = [ProjPoint.make(c, fs.p) for c in params_b]
    if len(set(pa)) != a or len(set(pb)) != b:
        raise DuplicateParams("parameter lists must be distinct")
    pts = [segre(x, y) for x in pa for y in pb]
    return Configuration(label or f"grid{a}x{b}", 3, fs, pts,
                         tags={"grid": (a, b)})


def unity_grid(a, b, min_bound=DEFAULT_MIN_BOUND):
    """An (a,b)-grid with roots-of-unity parameters on both sides."""
    m = math.lcm(a, b)
    fs = make_field([("u", order_constraint(m))], min_bound)
    u = fs.symbols["u"]
    pa = [(1, pow(u, (m // a) * i, fs.p)) for i in range(a)]
    pb = [(1, pow(u, (m // b) * j, fs.p)) for j in range(b)]
    return grid(a, b, pa, pb, fs)


def _std_exprs(n, which):
    rows = []
    for i in range(n):
        for j in range(n):
            rows.append(["1", f"u^{j}", f"u^{i}", f"u^{i + j}"])
    if which in ("Y1", "Y1Y2"):
        rows += [["1", "0", "0", f"-u^{i}"] for i in range(n)]
    if which in ("Y2", "Y1Y2"):
        rows += [["0", "1", f"-u^{i}", "0"] for i in range(n)]
    return rows


def std_construction(n, which, min_bound=DEFAULT_MIN_BOUND):
    """The roots-of-unity grid plus one or two external collinear sets."""
    if which not in ("Y1", "Y2", "Y1Y2"):
        raise ValueError("which must be Y1, Y2 or Y1Y2")
    if n < 3:
        raise ValueError("need n >= 3")
    if which == "Y1Y2" and n % 2:
        raise OddNForY1Y2("the combined extension needs even n")
    fs = make_field([("u", order_constraint(n))], min_bound)
    cfg = _from_exprs(f"std{n}{which}", 3, fs, _std_exprs(n, which),
                      tags={"std": (n, which)})
    return cfg


def extend_standard(cfg: Configuration):
    """Adds the quadric points of the external lines plus the new grid
    columns through them, upgrading (n, n+k) to (n+k, n+k)."""
    if "std" not in cfg.tags:
        raise NotStandard("input must come from std_construction")
    n, which = cfg.tags["std"]
    fs = cfg.field
    rows = [list(e) for e in cfg.exprs]
    if which == "Y1":
        rows.append(["1", "0", "0", "0"])
        rows += [["1", "0", f"u^{i}", "0"] for i in range(n)]
    elif which == "Y2":
        rows.append(["0", "0", "0", "1"])
        rows += [["0", "1", "0", f"u^{i}"] for i in range(n)]
    else:
        rows += [["1", "0", f"u^{i}", "0"] for i in range(n)]
        rows += [["0", "1", "0", f"u^{i}"] for i in range(n)]
        rows += [["1", "0", "0", "0"], ["0", "0", "0", "1"],
                 ["0", "1", "0", "0"], ["0", "0", "1", "0"]]
    return _from_exprs(cfg.label + "-ext", 3, fs, rows,
                       tags={"std_ext": (n, which)})


def remove_lines(cfg: Configuration, lines):
    """Drops every configuration point lying on one of the given lines."""
    keep = [i for i, q in enumerate(cfg.points)
            if not any(l.contains(q) for l in lines)]
    out = cfg.subset(keep, label=cfg.label + "-res")
    out.tags["removed_lines"] = len(lines)
    return out


def skeleton(n, codim, min_bound=DEFAULT_MIN_BOUND):
    """Union of coordinate flats of the given codimension in n-space."""
    if n < 2:
        raise ValueError("need n >= 2")
    if codim not in (2, n - 1):
        raise ValueError("only lines and codimension-2 flats are supported")
    fs = make_field([], min_bound)
    k = n - codim  # flat dimension
    pts = [ProjPoint.make(tuple(1 if j == i else 0 for j in range(n + 1)),
                          fs.p) for i in range(n + 1)]
    flats = [flat_through([pts[i] for i in sub])
             for sub in itertools.combinations(range(n + 1), k + 1)]
    return FlatUnion(n, flats, fs)


def _int_config(label, n, rows, min_bound=DEFAULT_MIN_BOUND,
                symbols=(), tags=None):
    fs = make_field(list(symbols), min_bound)
    return _from_exprs(label, n, fs, rows, tags=tags)


def _e8_rows():
    rows = []
    for i, j in itertools.combinations(range(8), 2):
        for s in (1, -1):
            v = [0] * 8
            v[i], v[j] = 1, s
            rows.append([str(x) for x in v])
    for signs in itertools.product((1, -1), repeat=7):
        if sum(1 for s in signs if s < 0) % 2 == 0:
            rows.append(["1"] + [str(s) for s in signs])
    return rows


def _e7_rows():
    out = []
    for i, j in itertools.combinations(range(6), 2):
        for s in (1, -1):
            v = [0] * 7
            v[i], v[j] = 1, s
            out.append([str(x) for x in v])
    v = [0] * 7
    v[6] = 1
    out.append([str(x) for x in v])
    for last in (1, -1):
        for signs in itertools.product((1, -1), repeat=5):
            if sum(1 for s in signs if s < 0) % 2 == 1:
                out.append(["1"] + [str(s) for s in signs] + [str(last)])
    return out


def _b_family_rows(k):
    rows = []
    for i in range(k):
        v = [0] * k
        v[i] = 1
        rows.append([str(x) for x in v])
    for i, j in itertools.combinations(range(k), 2):
        for s in (1, -1):
            v = [0] * k
            v[i], v[j] = 1, s
            rows.append([str(x) for x in v])
    return rows


_GOLDEN = ("phi", minpoly_constraint([-1, -1, 1]))
_SQRT2 = ("v", minpoly_constraint([-2, 0, 1]))


def _generator_matrices(fs):
    """Integer-scaled generator matrices with golden-ratio entries."""
    p = fs.p
    phi = fs.symbols["phi"]
    inv_phi = (phi - 1) % p  # 1/phi = phi - 1
    U = [[1, 1, 1, -1], [1, 1, -1, 1], [1, -1, 1, 1], [1, -1, -1, -1]]
    V = [[phi, 0, -1, inv_phi], [0, phi, -inv_phi, -1],
         [1, inv_phi, phi, 0], [-inv_phi, 1, 0, phi]]
    W = [[inv_phi, -phi, 0, 1], [phi, inv_phi, 1, 0],
         [0, -1, inv_phi, -phi], [-1, 0, phi, inv_phi]]
    return (linalg.as_matrix(U, p), linalg.as_matrix(V, p),
            linalg.as_matrix(W, p))


def _columns_config(label, mats, fs, tags=None):
    pts = []
    seen = set()
    for M in mats:
        for c in range(4):
            q = ProjPoint.make(M[:, c], fs.p)
            if q not in seen:
                seen.add(q)
                pts.append(q)
    return Configuration(label, 3, fs, pts, tags=tags or {})


def rays300(min_bound=DEFAULT_MIN_BOUND):
    """300 rays generated as matrix columns from the icosian generators."""
    fs = make_field([_GOLDEN], min_bound)
    p = fs.p
    U, V, W = _generator_matrices(fs)
    mats = []
    for nn in range(5):
        for m in range(5):
            for l in range(3):
                M = np.eye(4, dtype=np.int64)
                for _ in range(l):
                    M = linalg.mat_mul(U, M, p)
                for _ in range(m):
                    M = linalg.mat_mul(V, M, p)
                for _ in range(nn):
                    M = linalg.mat_mul(W, M, p)
                mats.append(M)
    return _columns_config("rays300", mats, fs)


def points120(min_bound=DEFAULT_MIN_BOUND):
    """The 120-point configuration from the extended generator family."""
    fs = make_field([_GOLDEN, _SQRT2], min_bound)
    p = fs.p
    U, V, _ = _generator_matrices(fs)
    T = linalg.as_matrix(
        [[1, -1, 0, 0], [-1, -1, 0, 0], [0, 0, -1, -1], [0, 0, -1, 1]], p)
    mats = []
    for k in range(5):
        for i in range(2):
            for j in range(3):
                M = np.eye(4, dtype=np.int64)
                for _ in range(j):
                    M = linalg.mat_mul(U, M, p)
                for _ in range(i):
                    M = linalg.mat_mul(T, M, p)
                for _ in range(k):
                    M = linalg.mat_mul(V, M, p)
                mats.append(M)
    return _columns_config("points120", mats, fs)


def klein(min_bound=DEFAULT_MIN_BOUND):
    """60 points: the extended fourth-roots configuration plus a (4,6)-grid
    on the twin quadric xw + yz = 0."""
    base = extend_standard(std_construction(4, "Y1Y2", min_bound))
    rows = [list(e) for e in base.exprs] + [list(r) for r in _KLEIN_EXTRA24]
    return _from_exprs("klein", 3, base.field, rows, tags={"klein": True})


def klein_grid66(min_bound=DEFAULT_MIN_BOUND):
    """The (6,6)-grid inside the Klein configuration (the 36 points on
    xw = yz), as row-major grid points."""
    fs = make_field([("u", order_constraint(4))], min_bound)
    p = fs.p
    u = fs.symbols["u"]
    params = [(1, 1), (1, u), (1, pow(u, 2, p)), (1, pow(u, 3, p)),
              (1, 0), (0, 1)]
    return grid(6, 6, params, params, fs, label="klein-grid66")


def klein_memory(min_bound=DEFAULT_MIN_BOUND):
    """27-point subset of the Klein configuration: the staircase part of
    its (6,6)-grid plus one off-quadric point."""
    g = klein_grid66(min_bound)
    idx = [6 * i + j for i in range(6) for j in range(6) if i + j <= 6]
    pts = [g.points[k] for k in idx]
    extra = ProjPoint.make((1, 0, 0, 1), g.field.p)
    return Configuration("klein-memory", 3, g.field, pts + [extra])


def h4(min_bound=DEFAULT_MIN_BOUND):
    """60 points: fifth-roots grid with both external lines plus a scaled
    twin grid."""
    fs = make_field([("u", order_constraint(5))], min_bound)
    rows = _std_exprs(5, "Y1Y2")
    q = "(u^(-1)+u-1)"
    for i in range(5):
        for j in range(5):
            rows.append(["1", f"{q}*u^{j}", f"{q}*u^{i}", f"u^{i + j}"])
    return _from_exprs("h4", 3, fs, rows, tags={"h4": True})


def penrose(min_bound=DEFAULT_MIN_BOUND):
    fs = make_field([("t", minpoly_constraint([1, -1, 1]))], min_bound)
    return _from_exprs("penrose", 3, fs, _PENROSE, tags={"penrose": True})


def half_penrose(min_bound=DEFAULT_MIN_BOUND):
    cfg = penrose(min_bound)
    out = cfg.subset([i - 1 for i in HALF_PENROSE_INDICES],
                     label="half-penrose")
    return out


_Z56_ROWS = {1: (0, 1, 2, 3), 2: (0, 1, 3, 4), 3: (0, 2, 3, 4)}


def z56(which, min_bound=DEFAULT_MIN_BOUND):
    """One of the three 30-point subsets of the sixth-roots grid plus its
    external line: a 4x6 subgrid (distinct row selections) together with
    the 6 points of the first external line."""
    fs = make_field([("u", order_constraint(6))], min_bound)
    rows = [["1", f"u^{j}", f"u^{i}", f"u^{i + j}"]
            for i in _Z56_ROWS[which] for j in range(6)]
    rows += [["1", "0", "0", f"-u^{k}"] for k in range(6)]
    return _from_exprs(f"z{which}", 3, fs, rows, tags={"z56": which})


def _named_builders():
    return {
        "d4": lambda mb: _int_config("d4", 3, _D4, mb),
        "f4": lambda mb: _int_config("f4", 3, _D4 + _D4_PRIME, mb),
        "b3config": lambda mb: _int_config("b3config", 2, _B3, mb),
        "rays13": lambda mb: _int_config("rays13", 2, _RAYS13, mb),
        "rays21": lambda mb: _int_config(
            "rays21", 2, _RAYS21, mb,
            symbols=[("q", order_constraint(3))]),
        "peres33": lambda mb: _int_config(
            "peres33", 2, _pat(_PERES33), mb, symbols=[_SQRT2]),
        "penrose": penrose,
        "half_penrose": half_penrose,
        "klein": klein,
        "h4": h4,
        "e7": lambda mb: _int_config("e7", 6, _e7_rows(), mb),
        "e8": lambda mb: _int_config("e8", 7, _e8_rows(), mb),
        "rays300": rays300,
        "points120": points120,
        "z1": lambda mb: z56(1, mb),
        "z2": lambda mb: z56(2, mb),
        "z3": lambda mb: z56(3, mb),
    }


def named(label, min_bound=DEFAULT_MIN_BOUND) -> Configuration:
    builders = _named_builders()
    if label in builders:
        return builders[label](min_bound)
    m = re.fullmatch(r"b(\d+)", label)
    if m:
        k = int(m.group(1))
        return _int_config(label, k - 1, _b_family_rows(k), min_bound)
    raise UnknownLabel(label)


# ---------------------------------------------------------------------------
# file I/O

def _symbols_json(fs: FieldSpec):
    out = []
    for name, (kind, data) in fs.constraints.items():
        if kind == "order":
            out.append({"name": name, "order": data})
        else:
            c0, c1 = data
            out.append({"name": name, "minpoly": [c0, c1, 1]})
    return out


def save(cfg: Configuration, path):
    if cfg.exprs is not None:
        rows = [[str(e) for e in row] for row in cfg.exprs]
    else:
        rows = [[str(c) for c in q.coords] for q in cfg.points]
    doc = {
        "label": cfg.label,
        "ambient_dim": cfg.ambient_dim,
        "symbols": _symbols_json(cfg.field),
        "points": rows,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load(path, min_bound=DEFAULT_MIN_BOUND) -> Configuration:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: line {exc.lineno} col {exc.colno}: "
                             f"{exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: the top level must be a JSON object")
    if type(doc.get("ambient_dim")) is not int:
        raise ParseError(f"{path}: 'ambient_dim' must be an integer")
    if not isinstance(doc.get("points"), list) or not doc["points"]:
        raise ParseError(f"{path}: 'points' must be a non-empty list")
    named_constraints = []
    for sym in doc.get("symbols", []):
        if "order" in sym:
            named_constraints.append(
                (sym["name"], order_constraint(sym["order"])))
        else:
            named_constraints.append(
                (sym["name"], minpoly_constraint(sym["minpoly"])))
    fs = make_field(named_constraints, min_bound)
    return _from_exprs(doc.get("label", "config"), doc["ambient_dim"], fs,
                       doc["points"])
