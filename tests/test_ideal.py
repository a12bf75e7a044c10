import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from frobpow.errors import ExponentOverflowError, PreconditionError, ResourceCapError
from frobpow.frobpower import rational_power
from frobpow.ideal import (
    Ideal,
    bracket_power,
    frob_power_int,
    frob_root,
    frob_root_product,
    ideal_contains,
    ideal_power,
    ideal_product,
    ideal_sum,
    prune_generators,
)
from frobpow.monomial import MonomialIdeal, mono_contains
from frobpow.poly import PolyRing, Polynomial
from frobpow.thresholds import mu

from helpers import adds_without_carrying, frob_power_int_gens, ideal, maximal, random_poly, ring2


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


def test_non_integer_exponents_and_q_are_refused():
    # a float is refused even when its value is an integer
    R = ring2(3)
    for u in ((1.5, 0), (1.0, 0), (1.5, -1)):
        with pytest.raises(PreconditionError, match="integers"):
            R.poly([(u, 1)])
        with pytest.raises(PreconditionError, match="integers"):
            MonomialIdeal(R, [u, (0, 2)])
    # an integer out of range keeps its overflow error
    with pytest.raises(ExponentOverflowError):
        R.poly([((-1, 0), 1)])
    a = ideal(R, "x^2+y^3", "x*y")
    for q in (3.0, 9.0):
        with pytest.raises(PreconditionError, match="not a power of p"):
            bracket_power(a, q)
    assert bracket_power(a, 3) == ideal(R, "x^6+y^9", "x^3*y^3")


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
    # two generators give 10^6 + 1 exponent tuples, one past the cap
    R = ring2(2)
    a = ideal(R, "x", "y")
    with pytest.raises(ResourceCapError):
        frob_power_int_gens(a, 10**6)


def test_ideal_power_refuses_past_the_composition_cap_at_once():
    # C(1502, 2) = 1,127,251 products, for three two-term generators and for
    # x + y with the monomial ideal <yz, z^2>, whose j-th power has j + 1
    # generators; the cap fires before any power is built
    R = PolyRing(3, ("x", "y", "z"))
    for gens in (("x+y", "y*z+x", "z^2+y"), ("x+y", "y*z", "z^2")):
        with pytest.raises(ResourceCapError):
            ideal_power(ideal(R, *gens), 1500)


def test_first_power_is_the_ideal_itself():
    R = ring2(3)
    a = ideal(R, "x^2+y^2", "x*y")
    assert ideal_power(a, 1) is a


@pytest.mark.parametrize("p", [2, 3, 5])
def test_ideal_power_matches_repeated_products(p):
    # The reference multiplies d - 1 times in a row, as ideal_power once did
    # (without its compaction).  The oracle frob_power_int_gens builds each
    # product of generator powers on its own, and it gives a^d only for
    # d < p, so this is the independent check of ideal_power over criterion
    # 07's range of exponents.
    R, S = ring2(p), PolyRing(p, ("x", "y", "z"))
    cases = [(a, 30) for a in corpus(R)] + [
        (ideal(R, "x^2+y^3", "x^3+y", "x*y+y^4"), 20),
        (ideal(R, "x^2+y^3", "x", "y", "x*y", "x^2", "y^2"), 5),
        (ideal(S, "x^2+y^3", "x*y"), 6),
        (ideal(S, "x+y", "y*z+x^2", "z^2"), 6),
    ]
    for a, top in cases:
        reference = a
        for d in range(2, top + 1):
            reference = ideal_product(reference, a)
            assert ideal_power(a, d) == reference, (a, d)


def test_mixed_ideal_power_refuses_on_the_count_of_monomial_powers():
    # two binomials and the six degree-5 monomials: M^j has 5j + 1 minimal
    # generators, so k = 110 asks for 1,145,816 products, while the bound
    # from two of M's generators alone is C(113, 3) = 234,136
    R = ring2(7)
    monos = [f"x^{i}*y^{5 - i}" for i in range(6)]
    a = ideal(R, "x^2+y^3", "x^3+y^2", *monos)
    with pytest.raises(ResourceCapError):
        ideal_power(a, 110)


def test_many_generator_digit_powers_answer():
    # mixed ideals keep their single-term generators out of the walk: the
    # first is <x, y>, whose 40th power has 41 generators, not C(45, 5)
    R = ring2(41)
    a = ideal(R, "x^2+y^3", "x", "y", "x*y", "x^2", "y^2")
    assert frob_power_int(a, 40) == ideal_power(maximal(R), 40)
    assert rational_power(a, Fraction(1, 2)) == Ideal.unit(R)
    # three generators at larger p: the sequential product took 6.7 s and 40 s
    for p, gens in ((53, ("x^2+y^3", "x*y", "x^3+y^5")), (101, ("x^2+y^3", "x*y", "y^4"))):
        R = ring2(p)
        assert rational_power(ideal(R, *gens), Fraction(1, 2)) == Ideal.unit(R)


def test_frobenius_powers_build_no_basis(monkeypatch):
    # a^[249] at p = 5 is a^4 (a^4)^[5] (a^4)^[25] a^[125]: pruned products
    # with 250 generators, which no step replaces by a reduced basis
    def refuse(self, order=None):
        raise AssertionError("reduced_basis called")

    monkeypatch.setattr(Ideal, "reduced_basis", refuse)
    R = ring2(5)
    assert len(frob_power_int(ideal(R, "x^2+x*y", "y^3+x^2*y"), 249).gens) == 250


def test_large_characteristic_digit_power_answers():
    # digit powers a^d up to d = 200: a sequential product with a Buchberger
    # compaction past 192 generators took minutes at p = 401
    R = PolyRing(401, ("x", "y"))
    a = ideal(R, "x^2+y^3", "x*y")
    assert rational_power(a, Fraction(1, 2)) == Ideal.unit(R)
    assert rational_power(a, Fraction(3, 2)) == a


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


# -- rooted Frobenius powers (seed * a^{[k]})^{[1/q]} -------------------------------


@st.composite
def rooted_power_cases(draw):
    """(ring, a, seed or None, k, q): small antichains in 2 or 3 variables,
    the zero and unit ideals among them, and k with up to 4 base-p digits."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.sampled_from([2, 3]))
    R = PolyRing(p, ("x", "y", "z")[:n])

    def antichain():
        kind = draw(st.sampled_from(["gens", "gens", "gens", "zero", "unit"]))
        if kind == "zero":
            return MonomialIdeal(R, ())
        if kind == "unit":
            return MonomialIdeal(R, [(0,) * n])
        exps = st.tuples(*[st.integers(0, 3)] * n)
        return MonomialIdeal(R, draw(st.lists(exps, min_size=1, max_size=3)))

    a = antichain()
    seed = antichain() if draw(st.booleans()) else None
    digits = draw(st.lists(st.integers(0, p - 1), max_size=4))
    k = sum(d * p**i for i, d in enumerate(digits))
    q = p ** draw(st.integers(0, 3))
    return R, a, seed, k, q


def _forced_general(R, am, shifts):
    """The ideal of a nonzero antichain plus the redundant binomial x^u + x^v,
    u and v multiples of its first and last generators: the Groebner route."""
    u = tuple(e + s for e, s in zip(am.gens[0], shifts))
    v = tuple(e + s for e, s in zip(am.gens[-1], shifts[::-1]))
    if u == v:
        v = tuple(e + 1 for e in v)
    general = Ideal(R, [*Ideal.from_monomial(am).gens, R.monomial(u) + R.monomial(v)])
    assert not general.is_monomial
    return general


@given(case=rooted_power_cases(), shifts=st.tuples(*[st.integers(0, 2)] * 3))
def test_rooted_power_matches_built_power_and_groebner_route(case, shifts):
    R, am, sm, k, q = case
    a = Ideal.from_monomial(am)
    seed = None if sm is None else Ideal.from_monomial(sm)
    got = frob_power_int(a, k, q, seed)
    assert got.is_monomial
    built = frob_power_int(a, k)
    want = frob_root(built, q) if seed is None else frob_root_product(built, seed, q)
    assert got == want
    n, p = R.nvars, R.p
    # Both routes root the low digits of k one at a time, but the Groebner
    # route still builds a^{[k // q]}; with a redundant binomial that takes
    # over 20 s from three digits on (two in three variables at p = 5).
    small_high = k // q < p ** (1 if n == 3 and p == 5 else 2)
    if am.is_zero() or (sm is not None and sm.is_zero()) or not small_high:
        return
    general = _forced_general(R, am, shifts[:n])
    general_seed = None if sm is None else _forced_general(R, sm, shifts[-n:])
    assert frob_power_int(general, k, q, general_seed) == got


@st.composite
def interleaved_power_calls(draw):
    """A ring, two or three ideals in it (monomial, or with one binomial
    generator), and a run of frob_power_int calls (ideal, k, q, seed ideal or
    None) that moves between them; k // q stays a single digit."""
    p = draw(st.sampled_from([2, 3, 5]))
    R = ring2(p)
    exps = st.tuples(st.integers(0, 2), st.integers(0, 2))

    def one():
        gens = [R.monomial(u) for u in draw(st.lists(exps, min_size=1, max_size=2))]
        if draw(st.booleans()):
            u, v = draw(exps), draw(exps)
            if u != v:
                gens.append(R.monomial(u) + R.monomial(v))
        return Ideal(R, gens)

    ideals = [one() for _ in range(draw(st.integers(2, 3)))]
    index = st.integers(0, len(ideals) - 1)
    calls = []
    for _ in range(draw(st.integers(2, 8))):
        q = p ** draw(st.integers(0, 2))
        calls.append((draw(index), draw(st.integers(0, p * q - 1)), q, draw(st.none() | index)))
    return R, ideals, calls


@given(case=interleaved_power_calls())
def test_digit_power_memo_changes_no_answer(case):
    # Calls on the same object share the digit powers a^d; an equal copy made
    # for each reference call is a new object, so it never finds them.
    R, ideals, calls = case

    def seed(s):
        return None if s is None else ideals[s]

    got = [frob_power_int(ideals[i], k, q, seed(s)) for i, k, q, s in calls]
    for (i, k, q, s), value in zip(calls, got):
        fresh = Ideal(R, ideals[i].gens)
        want = frob_power_int(fresh, k, q, seed(s))
        assert value.canonical_generators() == want.canonical_generators()


def test_rooted_power_edge_cases():
    R = ring2(3)
    zero, unit, m = Ideal.zero(R), Ideal.unit(R), maximal(R)
    for q in (1, 3, 27):
        assert frob_power_int(zero, 0, q) == unit
        assert frob_power_int(zero, 5, q).is_zero()
        assert frob_power_int(m, 0, q, zero).is_zero()
        assert frob_power_int(unit, 7, q, m) == frob_root(m, q)
        assert frob_power_int(m, 0, q, m) == frob_root(m, q)
    # m^{[k/9]} is the unit ideal for k < 9 and m at k = 9
    assert frob_power_int(m, 8, 9) == unit
    assert frob_power_int(m, 9, 9) == m
    with pytest.raises(PreconditionError):
        frob_power_int(m, 3, 6)
    with pytest.raises(PreconditionError):
        frob_power_int(m, -1, 3)


def test_mu_probes_never_build_the_full_power(monkeypatch):
    # mu(<x,y>^5, <x,y>, 11^5) = 64420: building a^{[k]} for such k forms
    # staircases of up to 327,681 generators; rooting digit by digit keeps
    # every product small.
    import frobpow.ideal
    import frobpow.monomial

    largest = [0]
    product = frobpow.monomial.mono_product

    def watched(a, b, q=1):
        out = product(a, b, q)
        largest[0] = max(largest[0], len(out.gens))
        return out

    monkeypatch.setattr(frobpow.monomial, "mono_product", watched)
    monkeypatch.setattr(frobpow.ideal, "mono_product", watched)
    R = ring2(11)
    m = maximal(R)
    assert mu(ideal_power(m, 5), m, 11**5) == 64420
    assert 0 < largest[0] <= 1000


def test_monomial_frobenius_powers_stay_on_antichains(monkeypatch):
    # A monomial a and seed run the whole digit loop in the kernel; the same
    # ideal made non-monomial by a redundant binomial goes through the
    # dispatching operations, and gives the reference answers.
    import frobpow.ideal

    R = ring2(3)
    a, seed = ideal(R, "x^4", "x*y^2", "y^5"), ideal(R, "x^2", "y")
    general = Ideal(R, [*a.gens, R.parse("x^4+x*y^2")])
    # 97 = 10121 and 200 = 21102 in base 3: rooted and high digits, zeros among both
    cases = [(97, 27, seed), (97, 27, None), (50, 1, seed), (200, 9, None)]
    want = [frob_power_int(general, k, q, s) for k, q, s in cases]

    def refuse(*args):
        raise AssertionError("dispatching operation called")

    for name in ("frob_root", "frob_root_product", "ideal_product"):
        monkeypatch.setattr(frobpow.ideal, name, refuse)
    assert [frob_power_int(a, k, q, s) for k, q, s in cases] == want
    with pytest.raises(AssertionError, match="dispatching"):
        frob_power_int(general, 97, 27)


def test_rooted_power_skips_the_overflowing_full_power():
    # a^{[2^23]} has x^(2^63), past the 64-bit bound, but its 2^23-th root is
    # a again: rooting digit by digit never forms the power, on the monomial
    # route or on the Groebner route (forced by the redundant x^(2^40) + y),
    # and q = 1 overflows on both.
    R = ring2(2)
    monomial = Ideal(R, [R.monomial((2**40, 0)), R.var("y")])
    general = Ideal(R, [*monomial.gens, R.monomial((2**40, 0)) + R.var("y")])
    assert frob_power_int(monomial, 2**23, 2**23) == monomial
    assert frob_power_int(general, 2**23, 2**23) == monomial
    for a in (monomial, general):
        with pytest.raises(ExponentOverflowError):
            frob_power_int(a, 2**23)


# -- membership in a monomial ideal, generator pruning, hashing ---------------------


def _divides(v, u):
    return all(a <= b for a, b in zip(v, u))


@st.composite
def membership_cases(draw):
    """(a, b): a monomial ideal in 2 or 3 variables and a polynomial ideal
    whose generators mix multiples of a's generators with random terms."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.sampled_from([2, 3]))
    R = PolyRing(p, ("x", "y", "z")[:n])
    exps = st.tuples(*[st.integers(0, 3)] * n)
    am = MonomialIdeal(R, draw(st.lists(exps, min_size=1, max_size=4)))

    def term():
        if draw(st.booleans()):
            base = draw(st.sampled_from(am.gens))
            return tuple(e + s for e, s in zip(base, draw(exps)))
        return draw(exps)

    coeffs = st.integers(1, p - 1)
    gens = [
        R.poly((term(), draw(coeffs)) for _ in range(draw(st.integers(1, 4))))
        for _ in range(draw(st.integers(1, 3)))
    ]
    return Ideal.from_monomial(am), Ideal(R, gens)


@given(case=membership_cases())
def test_monomial_container_decides_like_the_groebner_route(case):
    a, b = case
    gb = a.reduced_basis()
    assert ideal_contains(a, b) == all(gb.reduces_to_zero(g) for g in b.gens)


def test_monomial_container_never_computes_a_basis(monkeypatch):
    def refuse(self, order=None):
        raise AssertionError("reduced_basis called")

    monkeypatch.setattr(Ideal, "reduced_basis", refuse)
    R3 = PolyRing(3, ("x", "y", "z"))
    a3 = ideal(R3, "x^2", "y*z")
    assert ideal_contains(a3, ideal(R3, "x^3+y^2*z^2", "x^2*y+2*x*y*z"))
    assert not ideal_contains(a3, ideal(R3, "x^2+y", "x^2*z"))
    R2 = ring2(5)
    a2 = ideal(R2, "x^5", "y^5")
    assert ideal_contains(a2, ideal(R2, "x^7+x^2*y^6", "y^5"))
    assert not ideal_contains(a2, ideal(R2, "x^4*y^4+x^5"))


def test_prune_generators_example():
    R = ring2(3)
    a = ideal(R, "x^2", "x^3", "y^2", "x^2*y+y^3", "x+y^5")
    assert prune_generators(a).gens == ideal(R, "x^2", "y^2", "x+y^5").gens
    kept = ideal(R, "x^2", "x*y+y^3")
    assert prune_generators(kept) is kept


@pytest.mark.parametrize("n", [2, 3])
def test_prune_generators_drops_exactly_the_covered_generators(n):
    rng = random.Random(20 + n)
    for p in (2, 3, 5):
        R = PolyRing(p, ("x", "y", "z")[:n])
        for _ in range(40):
            monos = [
                R.monomial(rng.randint(0, 3) for _ in range(n))
                for _ in range(rng.randint(0, 4))
            ]
            a = Ideal(R, monos + [random_poly(rng, R) for _ in range(4)])
            pruned = prune_generators(a)
            assert pruned == a
            terms = [g.leading_exponent() for g in a.gens if g.is_term()]
            minimal = {u for u in terms if not any(_divides(v, u) for v in terms if v != u)}
            for g in a.gens:
                if g.is_term():
                    assert (g in pruned.gens) == (g.leading_exponent() in minimal)
                else:
                    covered = all(any(_divides(v, u) for v in terms) for u in g.terms)
                    assert (g in pruned.gens) != covered


def test_equal_ideals_hash_equal_in_both_representations():
    R = ring2(3)
    general, monomial = ideal(R, "x+y", "y"), ideal(R, "x", "y")
    view = Ideal.from_monomial(monomial.to_monomial())
    assert not general.is_monomial and monomial.is_monomial
    assert general == monomial == view
    assert hash(general) == hash(monomial) == hash(view)
    assert len({general, monomial, view}) == 1
    # a non-monomial ideal from two generating sets
    f, g = ideal(R, "x^2+y^2", "x*y"), ideal(R, "x^2+x*y+y^2", "x*y", "y^3")
    assert f == g and hash(f) == hash(g) and len({f, g}) == 1
    assert len({f, general}) == 2


# -- one representation for a monomial ideal -----------------------------------------


@st.composite
def single_term_lists(draw):
    """(R, exponents, gens): single-term generators with random coefficients
    (zero among them), repeats and multiples of other generators."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.sampled_from([2, 3]))
    R = PolyRing(p, ("x", "y", "z")[:n])
    exps = st.tuples(*[st.integers(0, 3)] * n)
    base = draw(st.lists(exps, max_size=5))
    picks = draw(st.lists(st.sampled_from(base), max_size=4)) if base else []
    multiples = [tuple(e + s for e, s in zip(u, draw(exps))) for u in picks]
    coeffs = st.integers(0, p - 1)
    terms = [(u, draw(coeffs)) for u in base + multiples + base[: draw(st.integers(0, 2))]]
    return R, [u for u, c in terms if c], [R.monomial(u, c) for u, c in draw(st.permutations(terms))]


@given(case=single_term_lists())
def test_a_list_of_terms_is_its_antichain_view(case):
    R, exps, gens = case
    a = Ideal(R, gens)
    assert a.is_monomial and a.is_zero() == (not exps)
    minimal = {u for u in exps if not any(_divides(v, u) for v in exps if v != u)}
    descending = sorted(minimal, key=R.sort_key(), reverse=True)
    assert a.gens == tuple(R.monomial(u) for u in descending)
    view = Ideal.from_monomial(MonomialIdeal(R, exps))
    assert a == view and hash(a) == hash(view)
    mixed = Ideal(R, gens + [R.var("x") + R.var("y")])
    assert not mixed.is_monomial and not mixed.is_zero()
    with pytest.raises(PreconditionError):
        mixed.to_monomial()


def test_is_monomial_reads_no_generator(monkeypatch):
    R = ring2(3)
    mixed, terms = ideal(R, "x^2", "x*y+y^3", "y^4"), ideal(R, "x^2", "x^3", "2*x*y")

    def refuse(self):
        raise AssertionError("is_term called")

    monkeypatch.setattr(Polynomial, "is_term", refuse)
    assert not mixed.is_monomial and not mixed.is_zero()
    assert terms.is_monomial and not terms.is_zero()
