"""Prime field arithmetic with named symbolic constants.

A FieldSpec bundles a prime p together with a table of named residues
("symbols") satisfying declared constraints: either a prescribed
multiplicative order (roots of unity) or a monic quadratic minimal
polynomial (quadratic irrationals like sqrt(2) or the golden ratio).
The prime is chosen so every constraint is satisfiable, which lets the
rest of the package do exact linear algebra with plain integers.
"""

from dataclasses import dataclass, field


# Primes are drawn from [2**30, 2**31) by default: large enough that random
# genericity arguments have tiny failure probability, small enough that
# products of two residues fit comfortably in int64. The exact linear
# algebra relies on that, so no prime reaches PRIME_LIMIT.
DEFAULT_MIN_BOUND = 2 ** 30
PRIME_LIMIT = 2 ** 31

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class UnsatisfiableConstraint(ValueError):
    pass


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all n < 3.3e24."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def legendre(a: int, p: int) -> int:
    """1 if a is a nonzero square mod p, -1 if a nonsquare, 0 if a = 0."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return -1 if r == p - 1 else 1


def sqrt_mod(a: int, p: int) -> int:
    """A square root of a modulo an odd prime p, via Tonelli-Shanks.

    Raises ValueError if a is not a quadratic residue. Deterministic: the
    auxiliary non-residue is the smallest one.
    """
    a %= p
    if a == 0:
        return 0
    if legendre(a, p) != 1:
        raise ValueError(f"{a} is not a square mod {p}")
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre(z, p) != -1:
        z += 1
    c = pow(z, q, p)
    x = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        t2i = t
        i = 0
        for i in range(1, m):
            t2i = t2i * t2i % p
            if t2i == 1:
                break
        b = pow(c, 1 << (m - i - 1), p)
        x = x * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return x


def order_constraint(n: int):
    return ("order", int(n))


def minpoly_constraint(coeffs):
    """Monic quadratic constraint from ascending coefficients [c0, c1, 1]."""
    coeffs = [int(c) for c in coeffs]
    if len(coeffs) != 3 or coeffs[2] != 1:
        raise ValueError("only monic quadratic minimal polynomials are supported")
    return ("minpoly", (coeffs[0], coeffs[1]))


def _constraint_ok(p: int, constraint) -> bool:
    kind, data = constraint
    if kind == "order":
        return (p - 1) % data == 0
    c0, c1 = data
    disc = c1 * c1 - 4 * c0
    return legendre(disc, p) >= 0


def choose_prime(constraints, min_bound: int = DEFAULT_MIN_BOUND) -> int:
    """Smallest prime min_bound <= p < 2**31 satisfying every constraint.

    Order-n constraints need p = 1 (mod n); quadratic minpoly constraints
    need the discriminant to be a square mod p. Deterministic.
    """
    if min_bound < 100:
        raise ValueError("min_bound must be at least 100")
    constraints = list(constraints)
    p = max(min_bound, 101)
    while p < PRIME_LIMIT:
        if is_prime(p) and all(_constraint_ok(p, c) for c in constraints):
            return p
        p += 1
    raise ValueError(f"no suitable prime in [{min_bound}, 2**31): primes "
                     f"must stay below 2**31 for exact int64 arithmetic")


def _factorize(n: int):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def multiplicative_order_is(x: int, n: int, p: int) -> bool:
    if pow(x, n, p) != 1:
        return False
    return all(pow(x, n // q, p) != 1 for q in _factorize(n))


def resolve_symbol(p: int, constraint) -> int:
    """A residue mod p satisfying the constraint. Deterministic given p."""
    kind, data = constraint
    if kind == "order":
        n = data
        if n == 1:
            return 1
        if (p - 1) % n != 0:
            raise UnsatisfiableConstraint(f"no element of order {n} mod {p}")
        for g in range(2, p):
            x = pow(g, (p - 1) // n, p)
            if multiplicative_order_is(x, n, p):
                return x
        raise UnsatisfiableConstraint(f"no element of order {n} mod {p}")
    c0, c1 = data
    disc = (c1 * c1 - 4 * c0) % p
    if legendre(disc, p) == -1:
        raise UnsatisfiableConstraint(f"t^2+{c1}t+{c0} has no root mod {p}")
    s = sqrt_mod(disc, p)
    inv2 = pow(2, p - 2, p)
    r1 = (-c1 + s) * inv2 % p
    r2 = (-c1 - s) * inv2 % p
    return min(r1, r2)


@dataclass(frozen=True)
class FieldSpec:
    """A prime p with a resolved table of named constants."""
    p: int
    symbols: dict = field(default_factory=dict)       # name -> residue
    constraints: dict = field(default_factory=dict)   # name -> constraint

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def conjugate(self, name: str) -> int:
        """Image of a symbol under the conjugation automorphism.

        Roots of unity map to their inverses; quadratic irrationals with
        negative discriminant swap roots, real ones are fixed.
        """
        kind, data = self.constraints[name]
        r = self.symbols[name]
        if kind == "order":
            return self.inv(r)
        c0, c1 = data
        if c1 * c1 - 4 * c0 < 0:
            return (-c1 - r) % self.p
        return r


def make_field(named_constraints,
               min_bound: int = DEFAULT_MIN_BOUND) -> FieldSpec:
    """Build a FieldSpec from [(name, constraint), ...]."""
    named = list(named_constraints)
    p = choose_prime([c for _, c in named], min_bound=min_bound)
    resolved = {name: resolve_symbol(p, c) for name, c in named}
    return FieldSpec(p=p, symbols=resolved, constraints=dict(named))
