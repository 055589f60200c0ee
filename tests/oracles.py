"""Slow, independent reference implementations used to freeze expected
values. Everything here is deliberately naive: cofactor determinants,
minor-based ranks, trial-division primality, exhaustive orders. The
library must agree with these on small inputs.
"""

import itertools
import math
import random
import re

import numpy as np

from geproci import linalg
from geproci.configs import ParseError, UnresolvableSymbol
from geproci.ideals import (ZeroForm, form_values, ideal_dim, interp_matrix,
                            monomials, simple_scheme)
from geproci.linalg import kernel_basis
from geproci.projgeom import (ProjPoint, flat_through, project_general,
                              random_point)


def det_cofactor(rows, p):
    n = len(rows)
    if n == 1:
        return rows[0][0] % p
    total = 0
    for j in range(n):
        if rows[0][j] % p == 0:
            continue
        minor = [[r[k] for k in range(n) if k != j] for r in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * rows[0][j] * det_cofactor(minor, p)
    return total % p


def rank_minors(rows, p):
    m = len(rows)
    n = len(rows[0]) if m else 0
    for size in range(min(m, n), 0, -1):
        for ri in itertools.combinations(range(m), size):
            for ci in itertools.combinations(range(n), size):
                sub = [[rows[i][j] for j in ci] for i in ri]
                if det_cofactor(sub, p) % p:
                    return size
    return 0


def rank_det_by_columns(rows, p):
    """(rank, det) by plain Gaussian elimination, one column and one whole
    row operation at a time; det is None unless the matrix is square."""
    A = np.array(rows, dtype=np.int64) % p
    m, n = A.shape
    r, det = 0, 1
    for c in range(n):
        nz = np.flatnonzero(A[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            A[[r, i]] = A[[i, r]]
            det = -det
        det = det * int(A[r, c]) % p
        A[r] = A[r] * pow(int(A[r, c]), p - 2, p) % p
        A[r + 1:] = (A[r + 1:] - np.outer(A[r + 1:, c], A[r])) % p
        r += 1
        if r == m:
            break
    if m != n:
        return r, None
    return r, det % p if r == n else 0


def rref_by_columns(rows, p):
    """(R, pivots) by plain Gauss-Jordan elimination, one column and one
    whole-matrix row operation at a time."""
    A = np.array(rows, dtype=np.int64) % p
    m, n = A.shape
    pivots = []
    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        nz = np.flatnonzero(A[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        A[[r, i]] = A[[i, r]]
        A[r] = A[r] * pow(int(A[r, c]), p - 2, p) % p
        others = np.arange(m) != r
        A[others] = (A[others] - np.outer(A[others, c], A[r])) % p
        pivots.append(c)
    return A, pivots


def is_prime_trial(n):
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def multiplicative_order(x, p):
    x %= p
    if x == 0:
        raise ValueError("zero has no order")
    v, k = x, 1
    while v != 1:
        v = v * x % p
        k += 1
    return k


def eval_monomial(coords, exp, p):
    v = 1
    for c, e in zip(coords, exp):
        v = v * pow(int(c) % p, e, p) % p
    return v


def collinear(a, b, c, p):
    """Whether three coordinate tuples are projectively collinear."""
    rows = [list(a), list(b), list(c)]
    n = len(rows[0])
    for ci in itertools.combinations(range(n), 3):
        sub = [[r[j] for j in ci] for r in rows]
        if det_cofactor(sub, p) % p:
            return False
    return True


def solve_vandermonde(xs, ys, p):
    """Coefficients of the unique polynomial through (xs, ys), naive
    Lagrange form."""
    n = len(xs)
    coeffs = [0] * n
    for i in range(n):
        # Lagrange basis polynomial for xs[i]
        basis = [1]
        denom = 1
        for j in range(n):
            if j == i:
                continue
            new = [0] * (len(basis) + 1)
            for k, c in enumerate(basis):
                new[k] += c * (-xs[j])
                new[k + 1] += c
            basis = [v % p for v in new]
            denom = denom * (xs[i] - xs[j]) % p
        scale = ys[i] * pow(denom, p - 2, p) % p
        for k, c in enumerate(basis):
            coeffs[k] = (coeffs[k] + scale * c) % p
    return coeffs


def coprime_by_resultants(F, G, a, b, p, seed=0):
    """Whether two ternary forms (coefficient vectors) share no factor.

    Decided by a resultant probe: after a random coordinate change making
    both forms monic in the last variable, the resultant with respect to
    that variable is sampled at random points of the other two. Any
    nonzero value certifies coprimality; identically-zero resultants
    across 3 independent coordinate changes mean a common factor.
    """
    F = np.asarray(F, dtype=np.int64) % p
    G = np.asarray(G, dtype=np.int64) % p
    if not F.any() or not G.any():
        raise ZeroForm("coprimality of a zero form")
    expF = monomials(3, a)
    expG = monomials(3, b)
    rng = random.Random(repr((seed, "coprime")))
    for _ in range(3):
        # random invertible coordinate change with both forms nonzero at
        # the image of (0,0,1)
        for _ in range(50):
            M = [[rng.randrange(p) for _ in range(3)] for _ in range(3)]
            if linalg.rank(linalg.as_matrix(M, p), p) != 3:
                continue
            top = [M[i][2] for i in range(3)]
            if (form_values(F, expF, [top], p)[0]
                    and form_values(G, expG, [top], p)[0]):
                break
        else:
            continue
        for _ in range(a * b + 5):
            x0, y0 = rng.randrange(p), rng.randrange(p)
            base = [(M[i][0] * x0 + M[i][1] * y0) % p for i in range(3)]
            direction = top
            f = _univariate_slice(F, expF, base, direction, a, p)
            g = _univariate_slice(G, expG, base, direction, b, p)
            if _resultant(f, g, p):
                return True
    return False


def _univariate_slice(coeffs, exps, base, direction, degree, p):
    """Coefficients of F(base + s*direction) as a polynomial in s,
    interpolated from degree+1 sample values."""
    line = [[(b + x * d) % p for b, d in zip(base, direction)]
            for x in range(1, degree + 2)]
    ys = form_values(coeffs, exps, line, p)
    return [int(v) for v in linalg.interpolate(ys, p)]


def _resultant(f, g, p) -> int:
    """Resultant of two univariate polynomials given by coefficient lists
    (ascending). Degrees are taken from the list lengths; leading
    coefficients are assumed nonzero (arranged by the caller)."""
    a = len(f) - 1
    b = len(g) - 1
    S = np.zeros((a + b, a + b), dtype=np.int64)
    for i in range(b):
        for j, c in enumerate(reversed(f)):
            S[i, i + j] = c % p
    for i in range(a):
        for j, c in enumerate(reversed(g)):
            S[b + i, i + j] = c % p
    return linalg.det(S, p)


# ---------------------------------------------------------------------------
# flats one k-subset at a time, and the named configurations and flat
# sizes k on which the flat groupings are checked against them

def flats_by_flat_through(points, k):
    """{Flat: list of its points} of the (k-1)-flats spanned by k-subsets
    of the points, one flat_through per subset: flats in the order of
    their first subsets in itertools.combinations order, and the points
    of each in the order those subsets first reach them."""
    flats = {}
    for t in itertools.combinations(points, k):
        f = flat_through(list(t))
        if f.dim == k - 1:
            on = flats.setdefault(f, [])
            on.extend(q for q in t if q not in on)
    return flats


def members_by_flat_through(points, k):
    """What IncidenceCensus(points, k).members must be, item for item:
    the flats of flats_by_flat_through in their order, each keyed by the
    indices of its points in their order and mapped to the frozenset of
    those points filled through a set in that order, which fixes the
    frozenset's iteration order."""
    index = {q: i for i, q in enumerate(points)}
    return {tuple(index[q] for q in on): frozenset(set(on))
            for on in flats_by_flat_through(points, k).values()}


def same_members(got, want):
    """Equal {run: frozenset} dicts with the same item order and the same
    iteration order inside each frozenset."""
    return (list(got.items()) == list(want.items())
            and [list(v) for v in got.values()]
            == [list(v) for v in want.values()])


FLAT_CORPUS = [("d4", 2), ("f4", 2), ("penrose", 2), ("h4", 2), ("e8", 2),
               ("points120", 2), ("z1", 3), ("z2", 3), ("z3", 3)]


# ---------------------------------------------------------------------------
# weak-equivalence probes on sets of points (members: line -> point set)

def _profiles(points, members):
    prof = {q: [] for q in points}
    for v in members.values():
        for q in v:
            prof[q].append(len(v))
    return {q: tuple(sorted(s)) for q, s in prof.items()}


def _two_point_neighbors(points, members):
    nbr = {q: set() for q in points}
    for v in members.values():
        if len(v) == 2:
            a, b = tuple(v)
            nbr[a].add(b)
            nbr[b].add(a)
    return nbr


def _profile_classes(points, members):
    classes = {}
    for q, t in _profiles(points, members).items():
        classes.setdefault(t, set()).add(q)
    return classes


def k33_probe_sets(points, members):
    """(profile_A, profile_B) pairs, A != B, for which three points of
    profile A share at least three two-point-line neighbors of profile B."""
    nbr = _two_point_neighbors(points, members)
    classes = _profile_classes(points, members)
    found = set()
    for pa, A in classes.items():
        for pb, B in classes.items():
            if pa == pb:
                continue
            for t in itertools.combinations(sorted(A, key=lambda q: q.coords), 3):
                if len(nbr[t[0]] & nbr[t[1]] & nbr[t[2]] & B) >= 3:
                    found.add((pa, pb))
                    break
    return frozenset(found)


def disjoint_k13_probe_sets(points, members):
    """(profile, line_size) pairs for which two points of that profile off
    a line of that size each have at least three two-point-line neighbors
    on it, the two triples disjoint."""
    nbr = _two_point_neighbors(points, members)
    classes = _profile_classes(points, members)
    big = [v for v in members.values() if len(v) >= 3]
    found = set()
    for prof, C in classes.items():
        for v in big:
            for c1, c2 in itertools.combinations(
                    sorted(C - v, key=lambda q: q.coords), 2):
                a = nbr[c1] & v
                b = nbr[c2] & v
                if len(a) >= 3 and len(b) >= 3 and not (a & b):
                    found.add((prof, len(v)))
                    break
    return frozenset(found)


# ---------------------------------------------------------------------------
# one call per item: the loops the batched library paths replaced

def remembers_by_ideal_dim(W_points, Z_points, m, seed=0, probes=50):
    """(dim_base, escaped, probes_failing) of certify.remembers' first
    projection, with one ideal_dim call per image of Z and per probe, the
    probes drawn between those calls as the library once drew them."""
    p = W_points[0].p
    rng = random.Random(repr((seed, "remembers")))
    images = project_general(list(Z_points), rng)
    image_of = dict(zip(Z_points, images))
    img_w = [image_of[q] for q in W_points]
    base = ideal_dim(img_w, m, p)
    escaped = [repr(z) for z in Z_points
               if ideal_dim(img_w + [image_of[z]], m, p) != base]
    failing = 0
    for _ in range(probes):
        q = random_point(3, p, rng)
        while q in img_w:
            q = random_point(3, p, rng)
        if ideal_dim(img_w + [q], m, p) != base:
            failing += 1
    return base, escaped, failing


def flat_samples_one_by_one(flat, need, p, rng):
    """`need` distinct random points of a flat, one coefficient row and one
    product per attempt, redrawing zero combinations."""
    B = np.array(flat.basis, dtype=np.int64)
    got = set()
    while len(got) < need:
        while True:
            c = [rng.randrange(p) for _ in range(B.shape[0])]
            v = np.array(c, dtype=object) @ B.astype(object) % p
            if v.any():
                got.add(ProjPoint.make(v.tolist(), p))
                break
    return got


def collinear_triples_by_points(points, members):
    """Index triples of the points that lie together on one of the lines
    of members (line -> its points), looked up point by point."""
    index = {q: i for i, q in enumerate(points)}
    return {frozenset(index[q] for q in t) for v in members.values()
            for t in itertools.combinations(v, 3)}


def brianchon_by_pairs(points):
    """The two collinear triples of brianchon_points for a (3,3)-grid, with
    every pair of two-point lines intersected by its own kernel."""
    members = flats_by_flat_through(points, 2)
    two_lines = [f for f, v in members.items() if len(v) == 2]
    conc = {}
    for f1, f2 in itertools.combinations(two_lines, 2):
        p = f1.p
        B1 = np.array(f1.basis, dtype=np.int64)
        B2 = np.array(f2.basis, dtype=np.int64)
        ker = kernel_basis(np.concatenate([B1.T, (-B2.T) % p], axis=1), p)
        if not ker:
            continue
        v = (ker[0][0] * B1[0] + ker[0][1] * B1[1]) % p
        if not v.any():
            continue
        q = ProjPoint.make(v, p)
        if q not in points:
            conc.setdefault(q, set()).update((f1, f2))
    six = sorted((q for q, ls in conc.items() if len(ls) >= 3),
                 key=lambda q: q.coords)
    coll = collinear_triples_by_points(six, flats_by_flat_through(six, 2))
    for tri in itertools.combinations(range(6), 3):
        rest = frozenset(range(6)).difference(tri)
        if frozenset(tri) in coll and rest in coll:
            return (tuple(six[i] for i in tri),
                    tuple(six[i] for i in sorted(rest)))
    return None


def _h_vector(hf, n_pts):
    """First differences of hf(0), hf(1), ... for a set of n_pts points,
    up to saturation at n_pts; gives up after degree n_pts + 1."""
    h = []
    prev = 0
    t = 0
    while prev < n_pts and t <= n_pts + 1:
        cur = hf(t)
        h.append(cur - prev)
        prev = cur
        t += 1
    return tuple(h)


def h_vector_by_ranks(points, p):
    """hilbert_h_vector with one evaluation matrix and one rank per
    degree: the Hilbert function at t is the rank of M_t."""
    return _h_vector(lambda t: linalg.rank(
        interp_matrix(simple_scheme(points), t, p), p), len(points))


def deletion_h_vectors_by_kernels(points, p):
    """deletion_h_vectors with one evaluation matrix M_t and one left kernel
    K per degree: rank M_t = n - dim K, and deleting row i keeps that rank
    exactly when some vector of K is nonzero at i, else lowers it by one."""
    n = len(points)
    ranks = []   # per degree: (rank M_t, [rank of M_t without row i])

    def level(t):
        while len(ranks) <= t:
            M = interp_matrix(simple_scheme(points), len(ranks), p)
            K = kernel_basis(M.T, p)
            r = n - len(K)
            kept = np.any(K, axis=0) if K else np.zeros(n, dtype=bool)
            ranks.append((r, (r - 1 + kept).tolist()))
        return ranks[t]

    full = _h_vector(lambda t: level(t)[0], n)
    dropped = [_h_vector(lambda t, i=i: level(t)[1][i], n - 1)
               for i in range(n)]
    return full, dropped


def fat_rows_by_entries(coords, mult, exps, p):
    """Rows of a point of multiplicity mult, entry by entry: (d/dx)^m
    applied to each monomial x^M and evaluated at the point, for every m
    of degree min(mult - 1, t), t the degree of the monomials."""
    rows = []
    for m_exp in monomials(len(coords), min(mult - 1, sum(exps[0]))):
        row = []
        for M_exp in exps:
            val = 1
            for a, b, c in zip(m_exp, M_exp, coords):
                if a > b:
                    val = 0
                    break
                for j in range(a):   # falling factorial b (b-1) ... (b-a+1)
                    val = val * (b - j) % p
                val = val * pow(int(c), b - a, p) % p
            row.append(val)
        rows.append(row)
    return np.array(rows, dtype=np.int64)


def fat_conditions_by_lines(coords, mult, t, p, rng):
    """Linear conditions on the coefficients of a degree-t form F for
    vanishing to order mult at the point, read off lines through it: for
    random directions D, the coefficients of s^0 ... s^(mult-1) of
    F(P + s D), interpolated from the values at s = 1 ... t + 1 as
    verify_skeleton_T measures the order at Q. A polynomial in s of
    degree t has no coefficient past s^t."""
    n = len(coords)
    exps = monomials(n, t)
    order = min(mult, t + 1)
    xs = list(range(1, t + 2))
    rows = []
    for _ in range(math.comb(order - 1 + n - 1, n - 1) + 2):
        D = [rng.randrange(p) for _ in range(n)]
        coef = [solve_vandermonde(xs, [eval_monomial(
                    [c + s * d for c, d in zip(coords, D)], e, p)
                    for s in xs], p) for e in exps]
        rows.extend([cf[j] for cf in coef] for j in range(order))
    return np.array(rows, dtype=np.int64)


# ---------------------------------------------------------------------------
# exact covers and Kochen-Specker colourings, by exhausting subsets

def covers_by_subsets(n_items, options):
    """Every set of option indices whose bitmasks are disjoint and cover
    the items 0 .. n_items-1, as frozensets."""
    full = (1 << n_items) - 1
    out = set()
    for r in range(len(options) + 1):
        for pick in itertools.combinations(range(len(options)), r):
            masks = [options[o] for o in pick]
            if sum(masks) == full and all(
                    not a & b for a, b in itertools.combinations(masks, 2)):
                out.add(frozenset(pick))
    return out


def ks_by_assignments(g):
    """Whether no 0/1 assignment of the (at most 16) vertices of the
    orthogonality graph g marks at most one end of every edge and exactly
    one vertex of every basis and maximal clique; every assignment is
    tried as a bitmask. A graph without bases is not KS."""
    assert g.n_vertices <= 16
    if not g.bases:
        return False
    pairs = [sum(1 << i for i in e) for e in g.edges]
    sets = [sum(1 << i for i in c) for c in list(g.bases) + g.max_cliques]
    return not any(
        all((f & c).bit_count() == 1 for c in sets)
        and all((f & e).bit_count() < 2 for e in pairs)
        for f in range(1 << g.n_vertices))


def bases_by_subsets(g, rows, p):
    """Index k-subsets of the vectors, k their dimension, that are pairwise
    orthogonal (edges of g) and of full rank by a cofactor determinant."""
    k = g.ambient_dim + 1
    return [s for s in itertools.combinations(range(g.n_vertices), k)
            if all(frozenset(e) in g.edges
                   for e in itertools.combinations(s, 2))
            and det_cofactor([rows[i] for i in s], p)]


# ---------------------------------------------------------------------------
# coordinate expressions, by a recursive descent that evaluates as it
# parses and so re-reads the text on every evaluation

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


def eval_expr_by_descent(text, env, p):
    return _ExprParser(str(text), env, p).parse()
