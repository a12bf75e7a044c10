import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from frobpow.arith import ceil_fraction
from frobpow.errors import ExponentOverflowError, PreconditionError, ResourceCapError
from frobpow.frobpower import (
    StepFunction,
    _general_power,
    _last_true,
    jumps_scan,
    rational_power,
    skoda_split,
)
from frobpow.ideal import (
    Ideal,
    frob_power_int,
    frob_root,
    frob_root_product,
    ideal_contains,
    ideal_power,
    ideal_product,
)
from frobpow.monomial import MonomialIdeal
from frobpow.poly import PolyRing
from frobpow.thresholds import mu

from helpers import ideal, jumps_reference, maximal, ring2, sample_tame_fractions


def corpus(R):
    return [
        maximal(R),
        ideal(R, "x^2", "y^3"),
        ideal(R, "x^2+y^2", "x*y"),
        ideal(R, "x^2+y^3"),
    ]


def test_p_rational_examples():
    R = ring2(3)
    m5 = ideal_power(maximal(R), 5)
    assert frob_power_int(m5, 1, 3) == maximal(R)
    assert frob_power_int(maximal(R), 0, 9) == Ideal.unit(R)
    f = R.parse("x^2+y^3")
    assert frob_power_int(ideal(R, "x^2+y^3"), 4, 9) == frob_root(
        Ideal(R, [f**4]), 9
    )


@pytest.mark.parametrize("p", [2, 3, 5])
def test_representation_independence(p):
    R = ring2(p)
    rng = random.Random(p)
    for a in corpus(R):
        for _ in range(6):
            k = rng.randrange(0, 3 * p)
            q = p ** rng.randint(1, 3)
            assert frob_power_int(a, k, q) == frob_power_int(a, p * k, p * q)


def test_general_branch_agrees_on_p_rational_values():
    # t = 1/p^b both as k/p^b and through the forced c-loop over p^b (p-1):
    # k = p - 1 divides as l = 1, r = 0
    for p in (2, 3, 5):
        R = ring2(p)
        for a in corpus(R):
            for b in (1, 2):
                direct = frob_power_int(a, 1, p**b)
                forced = _general_power(a, b=b, c=1, l=1, r=0)
                assert direct == forced


def test_rational_power_table_values():
    R = ring2(3)
    m = maximal(R)
    m5 = ideal_power(m, 5)
    assert rational_power(m5, Fraction(2, 5)) == m
    c = ideal(R, "x^5", "y^5")
    assert rational_power(c, Fraction(2, 3)) == ideal(R, "x^3", "x*y", "y^3")
    assert rational_power(c, 0) == Ideal.unit(R)


def test_zero_ideal_conventions():
    R = ring2(3)
    zero = Ideal.zero(R)
    assert rational_power(zero, 0) == Ideal.unit(R)
    assert rational_power(zero, Fraction(1, 3)).is_zero()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_monotonicity_on_grid(p):
    R = ring2(p)
    rng = random.Random(300 + p)
    for a in corpus(R):
        ts = sorted(sample_tame_fractions(rng, p, 6, max_den=24))
        values = [rational_power(a, t) for t in ts]
        for smaller, bigger in zip(values, values[1:]):
            assert ideal_contains(smaller, bigger)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_skoda_identity_grid(p):
    R = ring2(p)
    for a in corpus(R):
        for num in range(0, 3 * 8):
            t = Fraction(num, 8)
            whole, frac = skoda_split(a, t)
            assert whole == frob_power_int(a, int(t // 1))
            assert ideal_product(whole, frac) == rational_power(a, t)


def test_skoda_trivial_splits():
    R = ring2(3)
    a = ideal(R, "x^2", "y^3")
    whole, frac = skoda_split(a, 2)
    assert frac == Ideal.unit(R)
    whole, frac = skoda_split(a, Fraction(1, 3))
    assert whole == Ideal.unit(R)


@pytest.mark.parametrize("p", [2, 3])
def test_composition_rule(p):
    # (a^{[p^e]})^{[s]} = a^{[p^e s]}
    R = ring2(p)
    rng = random.Random(9 + p)
    for a in corpus(R)[:3]:
        for e in (1, 2):
            for s in sample_tame_fractions(rng, p, 3, max_den=12):
                lhs = rational_power(rational_power(a, p**e), s)
                assert lhs == rational_power(a, (p**e) * s)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_principal_power_is_limit_of_p_rational_approximations(p):
    R = ring2(p)
    f = R.parse("x^2+y^3")
    a = ideal(R, "x^2+y^3")
    for t in (Fraction(1, 2), Fraction(2, 3), Fraction(5, 6), Fraction(1, p)):
        target = rational_power(a, t)
        # approximations from above stabilize to the real power
        for e in range(1, 14):
            q = p**e
            approx = frob_root(Ideal(R, [f ** ceil_fraction(t * q)]), q)
            if approx == target:
                break
        else:
            raise AssertionError(f"no stabilization for t={t}, p={p}")


def test_irrational_like_inputs_rejected():
    R = ring2(3)
    with pytest.raises(PreconditionError):
        rational_power(maximal(R), Fraction(-1, 2))


def test_long_periods_are_refused_before_any_power():
    # <x,y>^5 at t = 1/100003, p = 3: a period of 100002 digits would take
    # about 20 s of Horner steps; the period search itself stops at the cap
    R = ring2(3)
    with pytest.raises(ResourceCapError, match="PERIOD_CAP"):
        rational_power(ideal_power(maximal(R), 5), Fraction(1, 100003))


def test_powers_equal_newton_tau_in_split_characteristic():
    # 29 = 1 mod 7: the Frobenius powers of m^7 match the characteristic-free
    # Newton test ideals at every parameter in [0,1)
    from frobpow.monomial import newton_tau

    R = ring2(29)
    m7 = ideal_power(maximal(R), 7)
    m7m = m7.to_monomial()
    rng = random.Random(5)
    for _ in range(12):
        t = Fraction(rng.randint(1, 83), 84)
        assert rational_power(m7, t).to_monomial() == newton_tau(m7m, t)


# -- step scans -------------------------------------------------------------------


def test_jumps_scan_unit_for_maximal_ideal():
    R = ring2(5)
    step = jumps_scan(maximal(R), 2)
    assert step.breakpoints == ()
    assert step.values == (Ideal.unit(R),)


def test_jumps_scan_m5_table():
    R = ring2(3)
    m = maximal(R)
    step = jumps_scan(ideal_power(m, 5), 3)
    assert step.breakpoints == (Fraction(1, 3), Fraction(16, 27), Fraction(7, 9))
    assert step.values == (
        Ideal.unit(R),
        m,
        ideal_power(m, 2),
        ideal_power(m, 3),
    )
    assert step.resolution == Fraction(1, 27)


def test_jumps_scan_principal_linear_form():
    R = ring2(2)
    step = jumps_scan(ideal(R, "x"), 2)
    assert step.breakpoints == ()
    assert step.values == (Ideal.unit(R),)


def test_jumps_scan_matches_pointwise_values():
    # the search must not change any grid value (non-monomial vs monomial ideal)
    R = ring2(2)
    for a in (ideal(R, "x^2+y^3"), ideal(R, "x^3", "x*y", "y^3")):
        step = jumps_scan(a, 3)
        for k in range(8):
            t = Fraction(k, 8)
            assert step.value_at(t) == frob_power_int(a, k, 8)


@given(last=st.integers(0, 10**6), lo=st.integers(0, 10**6), step=st.integers(1, 10))
def test_last_true_finds_the_threshold(last, lo, step):
    # the search mu and jumps_scan share: doubling bracket from (lo, lo + step),
    # then bisection
    assume(lo <= last)
    probes = []

    def holds(k):
        probes.append(k)
        return k <= last

    assert _last_true(holds, lo, lo + step) == last
    assert len(probes) <= 2 * (last + step).bit_length() + 2


@given(
    p=st.sampled_from([2, 3, 5]),
    e=st.integers(1, 3),
    exps=st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=3
    ),
    binomial=st.none()
    | st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)),
)
def test_jumps_scan_matches_exhaustive_grid(p, e, exps, binomial):
    # jumps_scan probes only around each jump; the reference computes every
    # grid point.  A binomial generator makes the ideal non-monomial.
    R = ring2(p)
    gens = [R.monomial(u) for u in exps]
    if binomial is not None:
        u, v = binomial[:2], binomial[2:]
        assume(u != v)
        gens.append(R.monomial(u) + R.monomial(v))
    a = Ideal(R, gens)
    assert a.is_monomial == (binomial is None)
    step = jumps_scan(a, e)
    breakpoints, values = jumps_reference(a, e)
    assert step.breakpoints == breakpoints
    assert step.values == values
    assert [v.canonical_generators() for v in step.values] == [
        v.canonical_generators() for v in values
    ]
    assert step.resolution == Fraction(1, p**e)


def test_step_function_invariants():
    R = ring2(3)
    m = maximal(R)
    step = jumps_scan(ideal_power(m, 5), 3)
    for earlier, later in zip(step.values, step.values[1:]):
        assert earlier != later
        assert ideal_contains(earlier, later)
    with pytest.raises(PreconditionError):
        StepFunction(breakpoints=(Fraction(1, 2),), values=(m,))
    with pytest.raises(PreconditionError):
        step.value_at(Fraction(3, 2))


def test_general_path_past_the_compaction_threshold():
    # Generator lists here reach 154 inside the stabilization loop, and the
    # pruning of each root and high-digit product keeps at most 48 of them.
    R = PolyRing(2, ("x", "y", "z"))
    a = ideal(
        R,
        "x^4*y^5*z^5 + y^3*z^5",
        "x^5*y^4*z^4 + x^3*y^4*z^2 + x^5*y*z + y*z^4 + y^3",
        "x^3*y^5*z^4 + x^2*y^5*z^4 + x^4*y^4*z",
        "x^2*y^5*z^5 + x^5*y^3*z^3 + x^4*y^5*z + x^2*y^4*z^3 + x^4*z^3",
        "x^4*y^3*z^2",
    )
    result = rational_power(a, Fraction(5, 7))
    assert ideal_contains(result, a)
    assert [str(g) for g in result.canonical_generators()] == ["x^2", "y^2", "z^2 + y"]


def test_root_of_product_matches_root_of_built_product():
    R = ring2(3)
    for a in corpus(R):
        for b in corpus(R):
            for q in (1, 3, 9):
                assert frob_root_product(a, b, q) == frob_root(ideal_product(a, b), q)
    R3 = PolyRing(3, ("x", "y", "z"))
    a, b = ideal(R3, "x^4*y", "y^3*z^2", "z^5", "x*y*z"), ideal(R3, "x^2*z", "y^4", "x*z^3")
    for q in (1, 3, 9):
        assert frob_root_product(a, b, q) == frob_root(ideal_product(a, b), q)
    # x^(2^62) squared overflows on both routes, whatever the root q; the
    # redundant generator x^e + y forces the general route.
    monomial = Ideal(R, [R.monomial((2**62, 0)), R.var("y")])
    general = Ideal(R, [*monomial.gens, R.monomial((2**62, 0)) + R.var("y")])
    for c in (monomial, general):
        for q in (1, 3):
            with pytest.raises(ExponentOverflowError):
                frob_root_product(c, c, q)


@given(
    p=st.sampled_from([2, 3]),
    exps=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=3
    ),
    shifts=st.tuples(*[st.integers(0, 2)] * 4),
    seed=st.integers(0, 10**6),
)
def test_monomial_and_general_routes_agree(p, exps, shifts, seed):
    # One stabilization loop and one mu predicate serve both routes; a
    # redundant binomial x^u + x^v (both terms in the ideal) forces the
    # Groebner route on the same ideal.
    R = ring2(p)
    am = MonomialIdeal(R, exps)
    assume(not am.is_unit())
    g, h = am.gens[0], am.gens[-1]
    u = (g[0] + shifts[0], g[1] + shifts[1])
    v = (h[0] + shifts[2], h[1] + shifts[3])
    assume(u != v)
    mono = Ideal.from_monomial(am)
    general = Ideal(R, [*mono.gens, R.monomial(u) + R.monomial(v)])
    assert mono.is_monomial and not general.is_monomial
    (t,) = sample_tame_fractions(random.Random(seed), p, 1, max_den=20, max_order=3)
    assert rational_power(general, t) == rational_power(mono, t)
    m = maximal(R)
    for q in (p, p * p):
        assert mu(general, m, q) == mu(mono, m, q)
