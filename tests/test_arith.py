import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from frobpow.arith import (
    adds_without_carrying,
    base_p_digits,
    digits_to_int,
    is_power_of,
    multinomial,
    multinomial_nonzero_mod_p,
    multiplicative_order,
    p_adic_decompose,
)
from frobpow.errors import PreconditionError

PRIMES = [2, 3, 5, 7]


def test_digit_examples():
    assert base_p_digits(22, 3) == (1, 1, 2)
    assert base_p_digits(0, 5) == ()
    assert base_p_digits(2**3 - 1, 2) == (1, 1, 1)


def test_digits_reject_negative():
    with pytest.raises(PreconditionError):
        base_p_digits(-1, 3)


@given(st.integers(0, 10**15), st.sampled_from(PRIMES))
def test_digits_round_trip(n, p):
    digits = base_p_digits(n, p)
    assert digits_to_int(digits, p) == n
    assert all(0 <= d < p for d in digits)
    if digits:
        assert digits[-1] != 0


def test_carry_examples():
    assert adds_without_carrying([2, 2], 2) is False
    assert multinomial([2, 2]) % 2 == 0
    assert adds_without_carrying([2, 3], 3) is True
    assert multinomial([2, 3]) % 3 == 1


@given(st.integers(0, 10**6), st.sampled_from(PRIMES))
def test_zero_addend_never_carries(k, p):
    assert adds_without_carrying([k, 0], p) is True


def test_multinomial_examples():
    assert multinomial_nonzero_mod_p((2, 2), 2) is False
    assert multinomial_nonzero_mod_p((5, 0, 0), 3) is True
    assert multinomial_nonzero_mod_p((1, 4), 3) is True
    assert multinomial((1, 4)) % 3 == 2


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("parts", [2, 3])
def test_dickson_matches_factorial_oracle(p, parts):
    for u in itertools.product(range(13), repeat=parts):
        if sum(u) > 12:
            continue
        expected = multinomial(u) % p != 0
        assert multinomial_nonzero_mod_p(u, p) == expected


def test_decompose_examples():
    d = p_adic_decompose(Fraction(2, 5), 3)
    assert (d.b, d.c, d.k, d.l, d.r) == (0, 4, 32, 0, 32)
    d = p_adic_decompose(Fraction(7, 9), 3)
    assert (d.b, d.c, d.k) == (2, 0, 7)
    d = p_adic_decompose(Fraction(5, 6), 5)
    assert (d.b, d.c, d.k, d.l, d.r) == (0, 2, 20, 0, 20)


def test_decompose_rejects_negative():
    with pytest.raises(PreconditionError):
        p_adic_decompose(Fraction(-1, 2), 3)


@given(
    st.integers(0, 1000),
    st.integers(1, 400),
    st.sampled_from(PRIMES),
)
def test_decompose_reassembles(num, den, p):
    t = Fraction(num, den)
    d = p_adic_decompose(t, p)
    assert d.reassemble(p) == t
    assert t.denominator % p**d.b == 0 and (t.denominator // p**d.b) % p != 0
    if d.c == 0:
        assert d.k == t.numerator
    else:
        free = t.denominator // p**d.b
        assert d.c == multiplicative_order(p, free)
        assert 0 <= d.r < p**d.c - 1
        assert d.k == (p**d.c - 1) * d.l + d.r


def test_multiplicative_order_examples():
    assert multiplicative_order(3, 5) == 4
    assert multiplicative_order(5, 6) == 2
    assert multiplicative_order(11, 7) == 3
    with pytest.raises(PreconditionError):
        multiplicative_order(3, 6)


def test_is_power_of():
    assert [q for q in range(-3, 30) if is_power_of(q, 3)] == [1, 3, 9, 27]
    assert is_power_of(2**61, 2) and not is_power_of(2**61 + 2, 2)


def _q_checks():
    from frobpow.generic import stratify
    from frobpow.ideal import bracket_power, frob_root
    from frobpow.thresholds import mu, nu

    from helpers import maximal, ring2

    R = ring2(3)
    m = maximal(R)
    x = R.var("x")
    return {
        "mu": lambda q: mu(m, m, q),
        "nu": lambda q: nu(x, m, q),
        "stratify": lambda q: stratify([x], m.to_monomial(), 1, q),
        "bracket_power": lambda q: bracket_power(m, q),
        "frob_root": lambda q: frob_root(m, q),
    }


@pytest.mark.parametrize("q", [0, -3, 6])
@pytest.mark.parametrize("name", ["mu", "nu", "stratify", "bracket_power", "frob_root"])
def test_q_that_is_not_a_power_of_p_is_rejected(name, q):
    # q = 0 used to spin forever in the repeated division by p
    with pytest.raises(PreconditionError):
        _q_checks()[name](q)
