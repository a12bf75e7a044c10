import random

import pytest
from hypothesis import given, strategies as st

from frobpow.arith import MAX_EXPONENT
from frobpow.errors import ExponentOverflowError, ParseError, PreconditionError
from frobpow.poly import (
    MonomialOrder,
    PolyRing,
    format_polynomial,
    parse_polynomial,
)

from helpers import random_poly, ring2

PRIMES = [2, 3, 5]


# -- coefficient field: Z/p arithmetic on constant polynomials ------------------


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_field_fermat_fixed_points(p):
    R = ring2(p)
    for a in range(p):
        assert R.const(a) ** p == R.const(a)


def test_field_arithmetic():
    R = ring2(5)
    a, b = R.const(3), R.const(4)
    assert a + b == R.const(2)
    assert a - b == R.const(4)
    assert a * b == R.const(2)
    assert -a == R.const(2)
    assert b.monic() == R.one()  # scaled by the inverse of 4
    assert (a * b).scale(pow(4, -1, 5)) == a
    assert R.const(10).is_zero()


def test_int_operands_match_parse():
    R = ring2(5)
    x = R.var("x")
    assert x + 1 == 1 + x == R.parse("x + 1")
    assert x - 1 == R.parse("x - 1")
    assert 1 - x == R.parse("1 - x")
    assert 7 - x == R.parse("2 - x")
    assert x + 5 == x - 10 == x
    assert x * 2 == 2 * x == R.parse("2*x")


@pytest.mark.parametrize("other", [1.5, "a", None])
def test_other_operands_raise_type_error(other):
    x = ring2(3).var("x")
    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
        assert getattr(x, op)(other) is NotImplemented
    for expr in (
        lambda: x + other,
        lambda: other + x,
        lambda: x - other,
        lambda: other - x,
        lambda: x * other,
        lambda: other * x,
    ):
        with pytest.raises(TypeError):
            expr()


# -- canonicalization -----------------------------------------------------------


def test_canonicalize_cancellation():
    R = ring2(3)
    f = R.poly([((1, 0), 1), ((1, 0), 2)])
    assert f.is_zero()


def test_canonicalize_ordering():
    R = PolyRing(5, ("x", "y"), MonomialOrder.lex())
    f = R.poly([((0, 1), 1), ((1, 0), 1)])
    assert str(f) == "x + y"


def test_canonicalize_merges_mod_p():
    R = ring2(5)
    f = R.poly([((2, 0), 4), ((2, 0), 3)])
    assert f == R.parse("2*x^2")


def test_canonicalize_arity_mismatch():
    R = ring2(3)
    with pytest.raises(PreconditionError):
        R.poly([((1, 0, 0), 1)])


# -- multiplication and powers ---------------------------------------------------


def test_mul_freshman_dream():
    R = ring2(2)
    f = R.parse("x+y")
    assert f * f == R.parse("x^2+y^2")


def test_mul_example_f5():
    R = ring2(5)
    assert R.parse("x+2*y") * R.parse("x+3*y") == R.parse("x^2+y^2")


def test_mul_identity():
    R = ring2(3)
    f = R.parse("x^2+2*x*y+y^2")
    assert f * R.one() == f


def test_pow_frobenius():
    R = ring2(3)
    assert R.parse("x+y") ** 3 == R.parse("x^3+y^3")
    assert R.parse("x+y") ** 2 == R.parse("x^2+2*x*y+y^2")
    assert R.parse("x+y") ** 0 == R.one()


@pytest.mark.parametrize("p", PRIMES)
def test_pow_matches_repeated_mul(p):
    rng = random.Random(1000 + p)
    R = ring2(p)
    for _ in range(25):
        f = random_poly(rng, R)
        acc = R.one()
        for k in range(9):
            assert f**k == acc
            acc = acc * f


def test_ring_axioms_random_triples():
    # associativity, commutativity, distributivity over a large random sample
    for p in PRIMES:
        rng = random.Random(p)
        R = ring2(p)
        for _ in range(400):
            f, g, h = (random_poly(rng, R, max_terms=3, max_exp=3) for _ in range(3))
            assert (f * g) * h == f * (g * h)
            assert f * g == g * f
            assert f * (g + h) == f * g + f * h
            assert (f + g) + h == f + (g + h)


@given(st.sampled_from(PRIMES), st.integers(0, 2**32))
def test_frobenius_linearity(p, seed):
    rng = random.Random(seed)
    R = ring2(p)
    f, g = random_poly(rng, R), random_poly(rng, R)
    assert (f + g) ** p == f**p + g**p


def test_mul_overflow_detected():
    R = ring2(2)
    f = R.monomial((2**62, 0))
    with pytest.raises(ExponentOverflowError):
        f * f


def test_mul_overflow_is_checked_per_variable():
    R = ring2(2)
    big = 2**62
    assert (R.monomial((big, 0)) * R.monomial((0, big))).terms == {(big, big): 1}
    with pytest.raises(ExponentOverflowError):
        R.parse(f"x^{big} + y") * R.parse(f"x^{big} + 1")


def test_pow_overflow_is_refused_before_multiplying():
    # (x + y)^(2^63) at p = 3 used to multiply about 40 ever larger
    # Frobenius-scaled digit factors, and run out of memory, before the top
    # digit overflowed
    R = ring2(3)
    x, y = R.var("x"), R.var("y")
    with pytest.raises(ExponentOverflowError):
        (x + y) ** 2**63
    with pytest.raises(ExponentOverflowError):
        (x**2 + y) ** 2**62
    assert (x ** MAX_EXPONENT).terms == {(MAX_EXPONENT, 0): 1}


def test_frobenius_scale_overflow():
    R = ring2(2)
    f = R.monomial((2**40, 0))
    with pytest.raises(ExponentOverflowError):
        f.frobenius(2**40)


# -- monomial orders --------------------------------------------------------------


def test_grevlex_vs_lex_disagree():
    # x^2 y vs x y^3: grevlex prefers higher total degree, lex the x-power.
    grev = MonomialOrder.grevlex().sort_key()
    lex = MonomialOrder.lex().sort_key()
    assert grev((1, 3)) > grev((2, 1))
    assert lex((2, 1)) > lex((1, 3))


@pytest.mark.parametrize(
    "order",
    [MonomialOrder.lex(), MonomialOrder.grevlex(), MonomialOrder.elimination([1])],
)
def test_order_multiplicative_with_one_minimal(order):
    rng = random.Random(7)
    key = order.sort_key()
    for _ in range(300):
        u, v, w = (tuple(rng.randint(0, 5) for _ in range(3)) for _ in range(3))
        if key(u) < key(v):
            uw = tuple(a + b for a, b in zip(u, w))
            vw = tuple(a + b for a, b in zip(v, w))
            assert key(uw) < key(vw)
        if any(u):
            assert key((0, 0, 0)) < key(u)


def test_elimination_order_isolates_block():
    # any monomial touching the lead block beats any monomial that does not
    key = MonomialOrder.elimination([2]).sort_key()
    assert key((0, 0, 1)) > key((9, 9, 0))


# -- text round trips --------------------------------------------------------------


def test_parse_examples():
    R = ring2(5)
    assert R.parse("2*x^2*y") == R.poly([((2, 1), 2)])
    assert R.parse("x - y") == R.poly([((1, 0), 1), ((0, 1), 4)])
    assert R.parse("3") == R.const(3)
    assert R.parse("7*y") == R.poly([((0, 1), 2)])
    assert R.parse("x*x*y^2") == R.poly([((2, 2), 1)])
    assert R.parse("-x + 2") == R.poly([((1, 0), 4), ((0, 0), 2)])


@pytest.mark.parametrize("p", PRIMES)
def test_format_parse_round_trip(p):
    rng = random.Random(31 + p)
    R = ring2(p)
    for _ in range(200):
        f = random_poly(rng, R, max_terms=5, max_exp=6)
        assert R.parse(format_polynomial(f)) == f
    assert format_polynomial(R.zero()) == "0"
    assert R.parse("0").is_zero()


@pytest.mark.parametrize(
    "text,col",
    [
        ("x +", 4),
        ("2*", 3),
        ("x^", 3),
        ("w", 1),
        ("x ^ y", 5),
        ("x & y", 3),
        ("x y", 3),
        ("x^2 y", 5),
        ("", 1),
        ("x*2", 3),
        ("x^99999999999999999999", 1),
        ("+", 2),
        # str.isdigit accepts '²' but int does not: only decimal digits make
        # an integer, and other numeric characters fail at their own column.
        ("x^²", 3),
        ("²", 1),
        ("½", 1),
        ("2²", 2),
        ("x*½", 3),
    ],
)
def test_parse_errors_carry_position(text, col):
    R = ring2(3)
    with pytest.raises(ParseError) as err:
        parse_polynomial(R, text)
    assert err.value.line == 1
    assert err.value.col == col


GRAMMAR_TOKENS = ["x", "y", "w", "+", "-", "*", "^", " ", "\t", "²", "٣", "&"]


@given(
    tokens=st.lists(
        st.one_of(st.sampled_from(GRAMMAR_TOKENS), st.integers(0, 99).map(str)),
        max_size=10,
    ),
    line=st.integers(1, 99),
    col_offset=st.integers(0, 99),
)
def test_parse_round_trips_or_points_into_the_text(tokens, line, col_offset):
    R = ring2(5)
    text = "".join(tokens)
    try:
        f = parse_polynomial(R, text, line=line, col_offset=col_offset)
    except ParseError as err:
        assert err.line == line
        assert col_offset + 1 <= err.col <= col_offset + len(text) + 1
    else:
        assert R.parse(format_polynomial(f)) == f


def test_parse_error_line_offset():
    R = ring2(3)
    with pytest.raises(ParseError) as err:
        parse_polynomial(R, "x + w", line=4, col_offset=10)
    assert err.value.line == 4
    assert err.value.col == 15


# -- ring plumbing ------------------------------------------------------------------


def test_ring_rejects_composite_characteristic():
    with pytest.raises(PreconditionError):
        PolyRing(4, ("x",))


def test_ring_tests_the_characteristic_bound_before_primality(monkeypatch):
    # Trial division of 2^61 - 1 would run for hours; the bound refuses it first.
    monkeypatch.setattr("frobpow.poly.is_prime", lambda n: pytest.fail("is_prime ran"))
    with pytest.raises(PreconditionError, match=r"below 2\^31"):
        PolyRing(2**61 - 1, ("x",))


@pytest.mark.parametrize("name", ["x\u203fy", "e\u0301", "x\u00b2", "\u00bd"])
def test_ring_refuses_a_name_the_grammar_cannot_write(name):
    # connector punctuation and combining marks are identifier characters
    # but not word characters; x² and ½ are word characters but no identifier
    with pytest.raises(PreconditionError, match="bad variable name"):
        PolyRing(3, (name,))


@pytest.mark.parametrize("name", ["x_1", "_a", "\u00e9", "z\u00e9ta"])
def test_every_declared_variable_parses(name):
    R = PolyRing(3, (name,))
    assert R.parse(f"2*{name}^3") == R.var(name) ** 3 * 2


def test_ring_rejects_duplicate_vars():
    with pytest.raises(PreconditionError):
        PolyRing(3, ("x", "x"))


def test_remap_extension_round_trip():
    R = ring2(3)
    S = R.extend(["z1", "z2"])
    f = R.parse("x^2 + 2*y")
    lifted = f.remap(S)
    assert lifted.remap(R) == f
    g = S.parse("z1*x")
    with pytest.raises(PreconditionError):
        g.remap(R)
