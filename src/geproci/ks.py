"""Orthogonality graphs of vector configurations and Kochen-Specker
verification.

Two vectors are orthogonal when the Hermitian dot product sum(p_j *
conj(q_j)) vanishes, with conj the conjugation automorphism on the
field's named constants (roots of unity invert, imaginary quadratic
irrationals swap roots, real ones stay fixed). Since the arithmetic is
mod p, a zero can be accidental; edges are therefore required to vanish
under two independently chosen primes, which bounds the false-edge
probability by 1/(p1*p2) per pair.

The bases are the full-rank k-subsets of the maximal cliques. A set is
Kochen-Specker under the rule "bases+max_cliques" when no exact cover of
the bases and maximal cliques by vertices exists; combinat.exact_covers
searches for one.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .combinat import exact_covers
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
    adj = {i: set() for i in range(n)}
    for e in edges:
        i, j = tuple(e)
        adj[i].add(j)
        adj[j].add(i)
    cliques = _maximal_cliques(n, adj)
    # every k-clique lies in a maximal one; a basis is one of full rank
    k = X.ambient_dim + 1
    subsets = {s for c in cliques for s in itertools.combinations(c, k)}
    bases = [s for s in sorted(subsets)
             if linalg.rank(np.array([rows[i] for i in s], dtype=np.int64),
                            X.field.p) == k]
    return OrthoGraph(n, X.ambient_dim, edges, bases, cliques,
                      tuple(primes))


def is_ks_set(X, seed=0) -> bool:
    """Whether no truth assignment f: X -> {0,1} exists summing to 1 on
    every constraint, under the rule "bases+max_cliques": the constraints
    are the full orthogonal bases and also the maximal cliques of the
    orthogonality graph that do not extend to a basis (orthogonal pairs
    or partial frames).

    Such an f is an exact cover of the constraints by the vertices it
    marks 1. Every orthogonal pair lies in a maximal clique, so no two
    orthogonal vectors are both marked. True means the configuration is
    a Kochen-Specker set under this rule. The search is exact; seed does
    not change the result.
    """
    g = X if isinstance(X, OrthoGraph) else ortho_graph(X, seed=seed)
    if not g.bases:
        return False
    constraints = list(dict.fromkeys(list(g.bases) + list(g.max_cliques)))
    options = [0] * g.n_vertices
    for c, members in enumerate(constraints):
        for i in members:
            options[i] |= 1 << c
    return next(exact_covers(len(constraints), options), None) is None
