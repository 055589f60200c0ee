"""Orthogonality graphs of vector configurations and Kochen-Specker
verification.

Two vectors are orthogonal when the Hermitian dot product sum(p_j *
conj(q_j)) vanishes, with conj the conjugation automorphism on the
field's named constants (roots of unity invert, imaginary quadratic
irrationals swap roots, real ones stay fixed). Since the arithmetic is
mod p, a zero can be accidental; edges are therefore required to vanish
under two independently chosen primes, which bounds the false-edge
probability by 1/(p1*p2) per pair.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .configs import Configuration, eval_expr
from .field import make_field


@dataclass
class OrthoGraph:
    n_vertices: int
    ambient_dim: int
    edges: set                      # frozenset pairs of vertex indices
    bases: list                     # tuples of ambient_dim+1 indices
    max_cliques: list               # maximal cliques of size >= 2
    primes: tuple = ()

    def neighbors(self, i):
        return {j for e in self.edges if i in e for j in e if j != i}


def _maximal_cliques(n, adj):
    """Bron-Kerbosch with pivoting; returns maximal cliques of size >= 2."""
    out = []

    def bk(R, P, X):
        if not P and not X:
            if len(R) >= 2:
                out.append(tuple(sorted(R)))
            return
        pivot = max(P | X, key=lambda v: len(adj[v] & P))
        for v in sorted(P - adj[pivot]):
            bk(R | {v}, P & adj[v], X & adj[v])
            P = P - {v}
            X = X | {v}

    bk(set(), set(range(n)), set())
    return out


def _conj_env(fs):
    return {name: fs.conjugate(name) for name in fs.symbols}


def _coord_rows(cfg, fs, conj=False):
    """Coordinate rows of the configuration over the field fs, with the
    symbols optionally replaced by their conjugates."""
    env = _conj_env(fs) if conj else dict(fs.symbols)
    if cfg.exprs is not None:
        return [[eval_expr(e, env, fs.p) for e in row] for row in cfg.exprs]
    if fs is not cfg.field:
        raise ValueError("cannot transport a configuration without "
                         "coordinate expressions to another prime")
    return [list(q.coords) for q in cfg.points]


def _edge_set(rows, conj_rows, p):
    A = np.array(rows, dtype=np.int64) % p
    B = np.array(conj_rows, dtype=np.int64) % p
    G = linalg.mat_mul(A, B.T, p)
    n = len(rows)
    return {frozenset((i, j)) for i in range(n) for j in range(i + 1, n)
            if G[i, j] == 0 and G[j, i] == 0}


def _second_field(cfg):
    constraints = list(cfg.field.constraints.items())
    return make_field(constraints, min_bound=cfg.field.p + 1)


def ortho_graph(X: Configuration, seed=0) -> OrthoGraph:
    """Orthogonality graph of the configuration, edges confirmed under
    two primes when the points carry coordinate expressions. The second
    prime is the next suitable one, so seed does not change the result."""
    n = len(X.points)
    rows = _coord_rows(X, X.field)
    edges = _edge_set(rows, _coord_rows(X, X.field, conj=True), X.field.p)
    primes = [X.field.p]
    if X.exprs is not None:
        fs2 = _second_field(X)
        rows2 = _coord_rows(X, fs2)
        edges &= _edge_set(rows2, _coord_rows(X, fs2, conj=True), fs2.p)
        primes.append(fs2.p)
    k = X.ambient_dim + 1
    bases = []
    adj = {i: set() for i in range(n)}
    for e in edges:
        i, j = tuple(e)
        adj[i].add(j)
        adj[j].add(i)

    def extend(clique, candidates):
        if len(clique) == k:
            M = np.array([rows[i] for i in clique], dtype=np.int64)
            if linalg.rank(M, X.field.p) == k:
                bases.append(tuple(clique))
            return
        for v in sorted(candidates):
            extend(clique + [v], {w for w in candidates
                                  if w > v and w in adj[v]})

    extend([], set(range(n)))
    cliques = _maximal_cliques(n, adj)
    return OrthoGraph(n, X.ambient_dim, edges, bases, cliques,
                      tuple(primes))


def is_ks_set(X, seed=0) -> bool:
    """Whether no truth assignment f: X -> {0,1} exists with f zero on
    at least one endpoint of every edge and summing to 1 on every
    maximal set of mutually orthogonal vectors.

    The constraints cover the full orthogonal bases and also the
    maximal cliques of the orthogonality graph that do not extend to a
    basis (orthogonal pairs or partial frames); the exclusivity rule
    plus the per-clique sum pins each to exactly one vector marked 1.
    True means the configuration is a Kochen-Specker set. The search is
    exact; seed does not change the result.
    """
    g = X if isinstance(X, OrthoGraph) else ortho_graph(X, seed=seed)
    if not g.bases:
        return False
    adj = {i: set() for i in range(g.n_vertices)}
    for e in g.edges:
        i, j = tuple(e)
        adj[i].add(j)
        adj[j].add(i)
    value = [None] * g.n_vertices

    def walk(pending):
        # every basis needs exactly one vertex assigned 1
        open_bases = []
        for basis in pending:
            if any(value[i] == 1 for i in basis):
                continue
            cand = [i for i in basis if value[i] is None]
            if not cand:
                return False
            open_bases.append((len(cand), cand, basis))
        if not open_bases:
            return True
        _, cand, basis = min(open_bases, key=lambda t: t[0])
        rest = [b for _, _, b in open_bases if b is not basis]
        for i in cand:
            flipped = []
            ok = True
            value[i] = 1
            flipped.append(i)
            for j in adj[i] | (set(basis) - {i}):
                if value[j] == 1:
                    ok = False
                    break
                if value[j] is None:
                    value[j] = 0
                    flipped.append(j)
            if ok and walk(rest):
                return True
            for j in flipped:
                value[j] = None
        return False

    constraints = list(dict.fromkeys(list(g.bases) + list(g.max_cliques)))
    return not walk(constraints)
