import random

import pytest

from frobpow.arith import adds_without_carrying
from frobpow.errors import ExponentOverflowError, ResourceCapError
from frobpow.ideal import (
    Ideal,
    bracket_power,
    frob_power_int,
    frob_power_int_gens,
    frob_root,
    ideal_contains,
    ideal_power,
    ideal_product,
    ideal_sum,
)
from frobpow.monomial import MonomialIdeal, mono_contains

from helpers import ideal, maximal, random_poly, ring2


def corpus(R):
    return [
        maximal(R),
        ideal(R, "x^2", "y^3"),
        ideal(R, "x^2+y^2", "x*y"),
        ideal(R, "x+y"),
    ]


# -- products, sums, powers -------------------------------------------------------


def test_product_of_maximal_ideal():
    R = ring2(3)
    m = maximal(R)
    assert ideal_product(m, m) == ideal(R, "x^2", "x*y", "y^2")


def test_zeroth_power_is_unit():
    R = ring2(3)
    assert ideal_power(ideal(R, "x^2", "y^3"), 0) == Ideal.unit(R)
    assert frob_power_int(Ideal.zero(R), 0) == Ideal.unit(R)


def test_product_pairwise_generators():
    R = ring2(5)
    a = ideal(R, "x^2", "y^3")
    b = ideal(R, "x^4", "y^6")
    assert ideal_product(a, b) == ideal(R, "x^6", "x^2*y^6", "x^4*y^3", "y^9")


def test_sum_unions_generators():
    R = ring2(5)
    assert ideal_sum(ideal(R, "x^2"), ideal(R, "y")) == ideal(R, "x^2", "y")


# -- bracket powers -----------------------------------------------------------------


def test_bracket_examples():
    R = ring2(3)
    assert bracket_power(maximal(R), 9) == ideal(R, "x^9", "y^9")
    R2 = ring2(2)
    assert bracket_power(ideal(R2, "x+y"), 2) == ideal(R2, "x^2+y^2")
    assert bracket_power(ideal(R2, "x^2", "y^3"), 2) == ideal(R2, "x^4", "y^6")


# -- integral Frobenius powers ---------------------------------------------------------


def test_frob_power_digit_product_examples():
    R = ring2(3)
    m = maximal(R)
    assert frob_power_int(m, 5) == ideal_power(m, 5)
    assert frob_power_int(m, 2) == ideal_power(m, 2)
    R2 = ring2(2)
    a = ideal(R2, "x^2", "y^3")
    assert frob_power_int(a, 3) == ideal(R2, "x^6", "x^2*y^6", "x^4*y^3", "y^9")


def test_frob_power_generator_formula_examples():
    R = ring2(3)
    m = maximal(R)
    assert frob_power_int_gens(m, 5) == ideal_power(m, 5)
    f = ideal(R, "x^2+y^3")
    assert frob_power_int_gens(f, 7) == Ideal(R, [R.parse("x^2+y^3") ** 7])
    # two generators at k = 2q - 1: the Frobenius power equals the plain power
    a = ideal(R, "x^2", "y^3")
    assert frob_power_int_gens(a, 5) == ideal_power(a, 5)
    assert frob_power_int(a, 5) == ideal_power(a, 5)


def test_generator_formula_cap():
    R = ring2(2)
    a = ideal(R, "x", "y")
    with pytest.raises(ResourceCapError):
        frob_power_int_gens(a, 10, cap=5)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_characterization_recursion(p):
    # J(k + p l) = a^k * J(l)^{[p]} for k < p
    rng = random.Random(500 + p)
    R = ring2(p)
    for a in corpus(R)[:3]:
        for _ in range(6):
            k = rng.randrange(p)
            l = rng.randrange(21)
            lhs = frob_power_int(a, k + p * l)
            rhs = ideal_product(
                ideal_power(a, k), bracket_power(frob_power_int(a, l), p)
            )
            assert lhs == rhs


@pytest.mark.parametrize("p", [2, 3])
def test_product_rule(p):
    R = ring2(p)
    a = ideal(R, "x^2", "y^3")
    b = maximal(R)
    for k in (2, 5, 9):
        lhs = frob_power_int(ideal_product(a, b), k)
        rhs = ideal_product(frob_power_int(a, k), frob_power_int(b, k))
        assert lhs == rhs


@pytest.mark.parametrize("p", [2, 3, 5])
def test_carrying_rule_and_monotonicity(p):
    R = ring2(p)
    a = ideal(R, "x^2+y^2", "x*y")
    for k, l in [(1, 2), (2, 3), (4, 5), (3, 9)]:
        combined = frob_power_int(a, k + l)
        split = ideal_product(frob_power_int(a, k), frob_power_int(a, l))
        assert ideal_contains(split, combined)
        if adds_without_carrying([k, l], p):
            assert combined == split
    for k, l in [(3, 2), (9, 4), (14, 13)]:
        assert ideal_contains(frob_power_int(a, l), frob_power_int(a, k))


# -- Frobenius roots ----------------------------------------------------------------


def test_root_examples():
    R = ring2(3)
    assert frob_root(ideal(R, "x^3"), 3) == ideal(R, "x")
    squared = ideal(R, "x^10", "x^5*y^5", "y^10")
    assert frob_root(squared, 3) == ideal(R, "x^3", "x*y", "y^3")
    assert frob_power_int(ideal(R, "x^5", "y^5"), 2) == squared
    R2 = ring2(2)
    assert frob_root(ideal(R2, "x^2+y^3"), 2) == maximal(R2)


def _antichains_in_box(size):
    # nonempty antichains in [0, size)^2: x strictly ascending, y strictly descending
    def rec(x_min, y_max):
        for x in range(x_min, size):
            for y in range(y_max, -1, -1):
                yield [(x, y)]
                if y > 0:
                    for tail in rec(x + 1, y - 1):
                        yield [(x, y)] + tail

    yield from rec(0, size - 1)


def test_root_minimality_brute_force_over_monomial_candidates():
    # smallest c with a <= c^{[2]}: check against every staircase in a box
    from frobpow.monomial import mono_bracket, mono_member

    R = ring2(2)
    a = ideal(R, "x^2+y^3")
    rm = frob_root(a, 2).to_monomial()
    valid = []
    for chosen in _antichains_in_box(3):
        c = MonomialIdeal(R, chosen)
        cq = mono_bracket(c, 2)
        # membership in a monomial ideal is term by term
        if all(all(mono_member(u, cq) for u in g.terms) for g in a.gens):
            valid.append(c)
    assert rm in valid
    for c in valid:
        assert mono_contains(c, rm)


@pytest.mark.parametrize("p,q", [(2, 2), (3, 3), (3, 9), (5, 5)])
def test_root_soundness(p, q):
    R = ring2(p)
    for a in corpus(R):
        r = frob_root(a, q)
        assert ideal_contains(bracket_power(r, q), a)


def test_root_lemma_product_with_bracket():
    # (a * b^{[q]})^{[1/q]} = a^{[1/q]} * b
    for p, q in [(2, 2), (3, 3), (5, 5)]:
        R = ring2(p)
        rng = random.Random(77 + p)
        for _ in range(10):
            a = Ideal(R, [random_poly(rng, R) for _ in range(2)])
            b = Ideal(R, [random_poly(rng, R) for _ in range(2)])
            if a.is_zero() or b.is_zero():
                continue
            lhs = frob_root(ideal_product(a, bracket_power(b, q)), q)
            rhs = ideal_product(frob_root(a, q), b)
            assert lhs == rhs


def test_root_generating_set_independence():
    R = ring2(3)
    rng = random.Random(123)
    for _ in range(10):
        gens = [random_poly(rng, R) for _ in range(2)]
        a = Ideal(R, gens)
        if a.is_zero():
            continue
        extra = random_poly(rng, R) * gens[0] + random_poly(rng, R) * gens[1]
        padded = Ideal(R, gens + [extra])
        assert frob_root(a, 3) == frob_root(padded, 3)


def test_root_of_zero_and_unit():
    R = ring2(3)
    assert frob_root(Ideal.zero(R), 3).is_zero()
    assert frob_root(Ideal.unit(R), 3) == Ideal.unit(R)


# -- the two integral constructions agree -------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5])
def test_digit_product_matches_generator_formula_small(p):
    R = ring2(p)
    for a in corpus(R):
        for k in range(13):
            assert frob_power_int(a, k) == frob_power_int_gens(a, k)


def test_bracket_exponent_cap_is_the_same_on_both_paths():
    # 2 * 3^39 fits below 2^63; 3^40 does not.  The redundant binomial
    # x^2 + y forces the general path on the same ideal.
    R = ring2(3)
    monomial, general = ideal(R, "x^2", "y"), ideal(R, "x^2", "y", "x^2+y")
    assert bracket_power(monomial, 3**39) == bracket_power(general, 3**39)
    for a in (monomial, general):
        with pytest.raises(ExponentOverflowError):
            bracket_power(a, 3**40)


def test_product_exponent_cap_is_the_same_on_both_paths():
    # x^(2^61) squared fits below 2^63; x^(2^62) squared does not.  The
    # redundant generator x^e + y forces the general path.
    R = ring2(2)
    for e, fits in ((2**61, True), (2**62, False)):
        monomial = Ideal(R, [R.monomial((e, 0)), R.var("y")])
        general = Ideal(R, [*monomial.gens, R.monomial((e, 0)) + R.var("y")])
        assert monomial.is_monomial and not general.is_monomial
        if fits:
            assert ideal_power(monomial, 2) == ideal_power(general, 2)
            assert ideal_product(monomial, monomial) == ideal_product(general, general)
            continue
        for a in (monomial, general):
            with pytest.raises(ExponentOverflowError):
                ideal_power(a, 2)
            with pytest.raises(ExponentOverflowError):
                ideal_product(a, a)
