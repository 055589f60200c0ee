import pytest
from hypothesis import given, settings, strategies as st

from geproci.field import (
    DEFAULT_MIN_BOUND,
    FieldSpec,
    UnsatisfiableConstraint,
    choose_prime,
    is_prime,
    legendre,
    make_field,
    minpoly_constraint,
    order_constraint,
    resolve_symbol,
    sqrt_mod,
)

from oracles import is_prime_trial, multiplicative_order


def test_is_prime_matches_trial_division():
    for n in range(2, 2000):
        assert is_prime(n) == is_prime_trial(n), n


def test_is_prime_large_known():
    assert is_prime(2**31 - 1)
    assert not is_prime(2**31)
    assert is_prime(1073741827)


def test_choose_prime_default_bound():
    p = choose_prime([])
    assert p >= DEFAULT_MIN_BOUND
    assert is_prime(p)
    # smallest prime at or above the bound
    for q in range(DEFAULT_MIN_BOUND, p):
        assert not is_prime(q)


def test_choose_prime_stays_below_2_to_31():
    with pytest.raises(ValueError, match=r"2\*\*31"):
        choose_prime([], min_bound=2**31)
    # 2**31 - 1 is the only prime left, and 5 does not divide 2**31 - 2
    assert choose_prime([], min_bound=2**31 - 10) == 2**31 - 1
    with pytest.raises(ValueError, match=r"2\*\*31"):
        make_field([("u", order_constraint(5))], min_bound=2**31 - 10)


@pytest.mark.parametrize("n", [1000000007, 2**31 - 1])
def test_choose_prime_refuses_an_order_no_prime_in_range_meets(n):
    # the only p = 1 (mod n) in [2**30, 2**31) is 2000000015 = 5 *
    # 400000003 for the first order, and there is none for the second;
    # the search steps through p = 1 (mod n), so it ends at once
    with pytest.raises(ValueError, match=r"2\*\*31"):
        choose_prime([order_constraint(n)])


def test_choose_prime_order_constraint():
    p = choose_prime([order_constraint(7)])
    assert p % 7 == 1
    assert is_prime(p)


def test_choose_prime_minpoly_constraint():
    # t^2 - t - 1 needs 5 to be a square mod p
    p = choose_prime([minpoly_constraint([-1, -1, 1])])
    assert legendre(5, p) == 1


def test_resolve_symbol_order_exact():
    p = choose_prime([order_constraint(6)])
    u = resolve_symbol(p, order_constraint(6))
    assert multiplicative_order(u, p) == 6


def test_resolve_symbol_minpoly_is_root():
    c = minpoly_constraint([-2, 0, 1])  # t^2 = 2
    p = choose_prime([c])
    v = resolve_symbol(p, c)
    assert v * v % p == 2


def test_minpoly_rejects_wrong_degree():
    with pytest.raises(ValueError):
        minpoly_constraint([1, 2, 3, 1])


def test_sqrt_mod_round_trip():
    p = choose_prime([])
    for a in [2, 3, 5, 10, 1234567]:
        if legendre(a, p) != 1:
            continue
        r = sqrt_mod(a, p)
        assert r * r % p == a % p


def test_make_field_resolves_all_symbols():
    fs = make_field([("u", order_constraint(4)), ("v", minpoly_constraint([-2, 0, 1]))])
    assert multiplicative_order(fs.symbols["u"], fs.p) == 4
    assert fs.symbols["v"] ** 2 % fs.p == 2


def test_conjugate_order_symbol_is_inverse():
    fs = make_field([("u", order_constraint(5))])
    u = fs.symbols["u"]
    assert fs.conjugate("u") * u % fs.p == 1


def test_conjugate_imaginary_swaps_roots():
    # t^2 + 1: conjugate of i is -i
    fs = make_field([("i", minpoly_constraint([1, 0, 1]))])
    i = fs.symbols["i"]
    assert fs.conjugate("i") == (-i) % fs.p
    # involution
    assert (-fs.conjugate("i")) % fs.p == i


def test_conjugate_real_symbol_fixed():
    fs = make_field([("v", minpoly_constraint([-2, 0, 1]))])
    assert fs.conjugate("v") == fs.symbols["v"]


def test_field_inv():
    fs = make_field([])
    assert fs.inv(7) * 7 % fs.p == 1
    with pytest.raises(ZeroDivisionError):
        fs.inv(0)


def test_unsatisfiable_minpoly_root():
    p = 1073741827
    # find a non-residue discriminant for this p: t^2 - a with legendre -1
    a = next(a for a in range(2, 50) if legendre(a, p) == -1)
    with pytest.raises(UnsatisfiableConstraint):
        resolve_symbol(p, minpoly_constraint([-a, 0, 1]))


@given(st.integers(min_value=2, max_value=10**6))
@settings(max_examples=200, deadline=None)
def test_is_prime_agrees_on_random(n):
    assert is_prime(n) == is_prime_trial(n)


@given(st.integers(min_value=2, max_value=12))
@settings(max_examples=11, deadline=None)
def test_order_symbols_have_exact_order(n):
    p = choose_prime([order_constraint(n)])
    u = resolve_symbol(p, order_constraint(n))
    assert multiplicative_order(u, p) == n


@pytest.mark.parametrize("p", [2**31, 5000000000, 1, 0, -7])
def test_field_spec_rejects_prime_outside_int64_safe_range(p):
    with pytest.raises(ValueError, match=r"2\*\*31"):
        FieldSpec(p=p)


def test_field_spec_accepts_primes_below_2_to_31():
    assert FieldSpec(p=2**31 - 1).p == 2**31 - 1
    assert FieldSpec(p=2).p == 2
