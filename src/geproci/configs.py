"""Named point configurations, constructors, and JSON file I/O.

Every configuration is a labeled list of projective points over a
FieldSpec whose symbols realize the constants appearing in the
coordinates (roots of unity, quadratic irrationals). Every configuration
keeps an exact expression string for each coordinate, and a bare
integer is that integer, so a saved file means the same set at every
prime.
"""

import functools
import itertools
import json
import math
import operator
import re
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .field import (DEFAULT_MIN_BOUND, FieldSpec, make_field,
                    minpoly_constraint, order_constraint)
from .projgeom import Flat, ProjPoint, flat_through


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


@functools.cache
def _parse(text):
    """Syntax tree of a coordinate expression, by recursive descent over
    +, -, *, /, ^ (integer exponents, possibly negative and
    parenthesized), parentheses, integers and symbol names: an int, a
    symbol name, ("chain", x, ((op, y), ...)) for a left-associative
    chain of + and - or of * and /, ("neg", x) or ("^", base, int). Each
    distinct text is parsed once."""
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"bad character at column {pos} in {text!r}")
        tokens.append((m.group(1), pos))
        pos = m.end()
    tokens.reverse()    # a stack: the next token is tokens[-1]

    def peek():
        return tokens[-1][0] if tokens else None

    def take(expected=None):
        if not tokens:
            raise ParseError(f"unexpected end of expression {text!r}")
        tok, at = tokens.pop()
        if expected is not None and tok != expected:
            raise ParseError(
                f"expected {expected!r} at column {at} in {text!r}")
        return tok, at

    def binary(ops, operand):   # left-associative, kept flat
        first, rest = operand(), []
        while peek() in ops:
            rest.append((take()[0], operand()))
        return ("chain", first, tuple(rest)) if rest else first

    def expr():
        return binary(("+", "-"), lambda: binary(("*", "/"), unary))

    def unary():    # signs bind looser than ^
        neg = False
        while peek() in ("+", "-"):
            neg ^= take()[0] == "-"
        v = atom()
        if peek() == "^":
            take()
            v = ("^", v, exponent())
        return ("neg", v) if neg else v

    def exponent():
        if peek() == "(":
            take()
            e = exponent()
            take(")")
            return e
        sign = -1 if peek() == "-" else 1
        if sign < 0:
            take()
        tok, at = take()
        if not tok.isdigit():
            raise ParseError(
                f"expected integer exponent at column {at} in {text!r}")
        return sign * int(tok)

    def atom():
        tok, at = take()
        if tok == "(":
            v = expr()
            take(")")
            return v
        if tok.isdigit():
            return int(tok)
        if tok[0].isalpha() or tok[0] == "_":
            return tok
        raise ParseError(f"unexpected {tok!r} at column {at} in {text!r}")

    try:
        tree = expr()
    except RecursionError:
        raise ParseError(f"expression nested too deeply: {text!r}") from None
    if tokens:
        tok, at = tokens[-1]
        raise ParseError(f"trailing {tok!r} at column {at} in {text!r}")
    return tree


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _evaluate(tree, env, p):
    """Value mod p of a syntax tree from _parse, with the symbols in env;
    a chain such as 1+1+...+1 runs in a loop, so only nesting recurses."""
    if isinstance(tree, int):
        return tree % p
    if isinstance(tree, str):
        if tree not in env:
            raise UnresolvableSymbol(f"unknown symbol {tree!r}")
        return env[tree] % p
    if tree[0] == "neg":
        return -_evaluate(tree[1], env, p) % p
    v = _evaluate(tree[1], env, p)
    if tree[0] == "^":
        right = tree[2]
        if right < 0:
            if v == 0:
                raise ParseError("zero to a negative power")
            v, right = pow(v, p - 2, p), -right
        return pow(v, right, p)
    for op, right in tree[2]:
        w = _evaluate(right, env, p)
        if op == "/":
            if w == 0:
                raise ParseError("division by zero")
            op, w = "*", pow(w, p - 2, p)
        v = _ARITH[op](v, w) % p
    return v


def eval_expr(text, env, p) -> int:
    text = str(text)
    tree = _parse(text)
    try:
        return _evaluate(tree, env, p)
    except ValueError as exc:   # name the text an arithmetic error comes from
        raise type(exc)(f"{exc} in {text!r}") from None


def _fraction_text(r, p):
    """Text of the fraction a/b with |a|, |b| < sqrt(p/2) that is r mod p,
    by rational reconstruction (the extended Euclidean algorithm stopped
    halfway). Such a fraction is unique; ValueError when none exists."""
    bound = math.isqrt(p // 2)
    r0, r1, t0, t1 = p, r % p, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > bound:
        raise ValueError(f"{r} mod {p} is no fraction a/b with |a|, |b| <= "
                         f"{bound}; give the points' coordinate expressions")
    return str(Fraction(r1, t1))


# ---------------------------------------------------------------------------
# core types

@dataclass
class Configuration:
    label: str
    ambient_dim: int
    field: FieldSpec
    points: list                 # list of ProjPoint
    # one row of exact coordinate expressions per point; None means the
    # fractions a/b with |a|, |b| < sqrt(p/2) that the points' residues
    # reconstruct to (points whose residues have none need exprs)
    exprs: list = None
    tags: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        self.exprs = self.exprs or [[_fraction_text(c, q.p) for c in q.coords]
                                    for q in self.points]
        if len(set(self.points)) != len(self.points):
            raise ValueError(f"{self.label}: repeated points")
        if any(q.ambient_dim != self.ambient_dim for q in self.points):
            raise ValueError(f"{self.label}: ambient dimension mismatch")

    def __len__(self):
        return len(self.points)

    def subset(self, indices, label=None):
        pts = [self.points[i] for i in indices]
        return Configuration(label or self.label + "-subset",
                             self.ambient_dim, self.field, pts,
                             [self.exprs[i] for i in indices],
                             dict(self.tags))


@dataclass
class FlatUnion:
    ambient_dim: int
    flats: list                  # list of Flat, common dimension
    field: FieldSpec

    @property
    def flat_dim(self):
        return self.flats[0].dim


def _points(fs, rows):
    value = functools.cache(lambda text: eval_expr(text, fs.symbols, fs.p))
    return [ProjPoint.make([value(str(e)) for e in row], fs.p) for row in rows]


def _from_exprs(label, n, fs, expr_rows, tags=None):
    return Configuration(label, n, fs, _points(fs, expr_rows),
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

def _times(x, y):
    """Text of the product of two coordinate expressions."""
    x, y = str(x), str(y)
    if "0" in (x, y):
        return "0"
    if "1" in (x, y):
        return y if x == "1" else x
    return "*".join(f if re.fullmatch(r"-?[\w^]+", f) else f"({f})"
                    for f in (x, y))


def grid(a, b, params_a, params_b, fs: FieldSpec, label=None):
    """Product of two parameter lists on the projective line, embedded on
    the quadric surface xw = yz by ([s:t],[v:w]) -> [sv:sw:tv:tw]. Each
    parameter is a pair of coordinate expressions (ints are integers)."""
    if (len(set(_points(fs, params_a))) != a
            or len(set(_points(fs, params_b))) != b):
        raise DuplicateParams("parameter lists must be distinct")
    rows = [[_times(x, y) for x in s for y in t]
            for s in params_a for t in params_b]
    return _from_exprs(label or f"grid{a}x{b}", 3, fs, rows,
                       tags={"grid": (a, b)})


def unity_grid(a, b, min_bound=DEFAULT_MIN_BOUND):
    """An (a,b)-grid with roots-of-unity parameters on both sides."""
    m = math.lcm(a, b)
    fs = make_field([("u", order_constraint(m))], min_bound)
    pa, pb = ([("1", f"u^{m // k * i}") for i in range(k)] for k in (a, b))
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
    """Drops every configuration point on one of the given lines, each a
    run of point indices as in line_census(cfg).runs."""
    drop = set(itertools.chain.from_iterable(lines))
    out = cfg.subset([i for i in range(len(cfg)) if i not in drop],
                     label=cfg.label + "-res")
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


def _pair_rows(width, among):
    """Text rows of e_i + e_j and e_i - e_j in width coordinates, for
    i < j < among in combinations order."""
    rows = []
    for i, j in itertools.combinations(range(among), 2):
        for s in ("1", "-1"):
            v = ["0"] * width
            v[i], v[j] = "1", s
            rows.append(v)
    return rows


def _e8_rows():
    rows = _pair_rows(8, 8)
    for signs in itertools.product((1, -1), repeat=7):
        if sum(1 for s in signs if s < 0) % 2 == 0:
            rows.append(["1"] + [str(s) for s in signs])
    return rows


def _e7_rows():
    rows = _pair_rows(7, 6) + [["0"] * 6 + ["1"]]
    for last in (1, -1):
        for signs in itertools.product((1, -1), repeat=5):
            if sum(1 for s in signs if s < 0) % 2 == 1:
                rows.append(["1"] + [str(s) for s in signs] + [str(last)])
    return rows


def _b_family_rows(k):
    units = [["1" if j == i else "0" for j in range(k)] for i in range(k)]
    return units + _pair_rows(k, k)


_GOLDEN = ("phi", minpoly_constraint([-1, -1, 1]))
_SQRT2 = ("v", minpoly_constraint([-2, 0, 1]))


# 4x4 matrices over Z[phi], each entry a pair (a, b) meaning a + b*phi,
# written as patterns: 'p' is phi, 'q' is 1/phi = phi - 1, capitals and
# '*' are the negatives of 'p', 'q' and 1
_ZPHI = {"0": (0, 0), "1": (1, 0), "*": (-1, 0), "p": (0, 1),
         "P": (0, -1), "q": (-1, 1), "Q": (1, -1)}

# integer-scaled generator matrices of the icosian family
_U = ["111*", "11*1", "1*11", "1***"]
_V = ["p0*q", "0pQ*", "1qp0", "Q10p"]
_W = ["qP01", "pq10", "0*qP", "*0pq"]
_T = ["1*00", "**00", "00**", "00*1"]


def _phi_text(a, b):
    if not b:
        return str(a)
    return f"{b}*phi" if not a else f"{a}{b:+d}*phi"


def _product_columns(label, fs, *factors):
    """The columns of every product F1^e1 F2^e2 ... Fk^ek, for factors
    given as (pattern, count) with e_i < count_i, the first exponent
    slowest, as points with Z[phi] texts.

    a + b*phi acts on Z + Z*phi as the integer block [[a, b], [b, a + b]]
    (phi^2 = phi + 1), so a pattern is an 8x8 integer matrix whose
    column 2j holds the pairs (a, b) of its column j, and products over
    Z[phi] are integer products."""
    powers = []
    for pattern, count in factors:
        ab = np.array([[_ZPHI[ch] for ch in row] for row in pattern])
        M = np.kron(ab[..., 0], np.eye(2, dtype=np.int64)) + np.kron(
            ab[..., 1], np.array([[0, 1], [1, 1]]))
        powers.append([np.linalg.matrix_power(M, e) for e in range(count)])
    rows = []
    for mats in itertools.product(*powers):
        cols = functools.reduce(operator.matmul, mats).T[::2].tolist()
        rows += [[_phi_text(*x) for x in zip(c[::2], c[1::2])]
                 for c in cols]
    return _from_exprs(label, 3, fs, rows)


def rays300(min_bound=DEFAULT_MIN_BOUND):
    """300 rays: the columns of W^n V^m U^l, n, m < 5 and l < 3, for the
    icosian generators."""
    fs = make_field([_GOLDEN], min_bound)
    return _product_columns("rays300", fs, (_W, 5), (_V, 5), (_U, 3))


def points120(min_bound=DEFAULT_MIN_BOUND):
    """The 120-point configuration: the columns of V^k T^i U^j, k < 5,
    i < 2 and j < 3, from the extended generator family."""
    fs = make_field([_GOLDEN, _SQRT2], min_bound)
    return _product_columns("points120", fs, (_V, 5), (_T, 2), (_U, 3))


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
    params = [("1", f"u^{k}") for k in range(4)] + [("1", "0"), ("0", "1")]
    return grid(6, 6, params, params, fs, label="klein-grid66")


def klein_memory(min_bound=DEFAULT_MIN_BOUND):
    """27-point subset of the Klein configuration: the staircase part of
    its (6,6)-grid plus one off-quadric point."""
    g = klein_grid66(min_bound)
    rows = [g.exprs[6 * i + j] for i in range(6) for j in range(6)
            if i + j <= 6]
    return _from_exprs("klein-memory", 3, g.field,
                       rows + [["1", "0", "0", "1"]])


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
    doc = {
        "label": cfg.label,
        "ambient_dim": cfg.ambient_dim,
        "symbols": _symbols_json(cfg.field),
        "points": cfg.exprs,
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
    if type(doc.get("ambient_dim")) is not int or doc["ambient_dim"] < 0:
        raise ParseError(f"{path}: 'ambient_dim' must be an integer >= 0")
    if not isinstance(doc.get("points"), list) or not doc["points"]:
        raise ParseError(f"{path}: 'points' must be a non-empty list")
    width = doc["ambient_dim"] + 1
    for i, row in enumerate(doc["points"]):
        if not isinstance(row, list) or len(row) != width:
            raise ParseError(f"{path}: points[{i}] must be a list of {width} "
                             f"coordinates, one per variable of "
                             f"P^{doc['ambient_dim']}")
    symbols = doc.get("symbols", [])
    if not isinstance(symbols, list):
        raise ParseError(f"{path}: 'symbols' must be a list")
    constraints = {}
    for i, sym in enumerate(symbols):
        if (not isinstance(sym, dict) or not isinstance(sym.get("name"), str)
                or ("order" in sym) == ("minpoly" in sym)):
            raise ParseError(f"{path}: symbols[{i}] must be an object with "
                             f"a string 'name' and exactly one of 'order' "
                             f"and 'minpoly'")
        if sym["name"] in constraints:
            raise ParseError(
                f"{path}: symbols[{i}] repeats the name {sym['name']!r}")
        try:
            constraints[sym["name"]] = (
                order_constraint(sym["order"]) if "order" in sym
                else minpoly_constraint(sym["minpoly"]))
        except ValueError as exc:
            raise ParseError(f"{path}: symbols[{i}] {exc}") from None
    try:
        fs = make_field(constraints.items(), min_bound)
    except ValueError as exc:
        raise ParseError(f"{path}: symbols: {exc}") from None
    return _from_exprs(doc.get("label", "config"), doc["ambient_dim"], fs,
                       doc["points"])
