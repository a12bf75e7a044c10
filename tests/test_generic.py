import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from frobpow.errors import PreconditionError
from frobpow.frobpower import rational_power
from frobpow.generic import principal_power_oracle, stratify, tau_generic
from frobpow.ideal import Ideal
from frobpow.thresholds import crit_truncations, lce, nu

from helpers import ideal, maximal, ring2, sample_tame_fractions


def test_tau_generic_examples():
    R2 = ring2(2)
    got = tau_generic([R2.parse("x^2"), R2.parse("y^3")], Fraction(1, 2))
    assert got.ring.variables == ("x", "y", "z1", "z2")
    assert got == ideal(got.ring, "x", "y")

    R3 = ring2(3)
    assert tau_generic([R3.var("x")], Fraction(2, 3)).is_unit()
    assert tau_generic([R3.var("x"), R3.var("y")], Fraction(1, 3)).is_unit()


def test_tau_generic_rejects_bad_inputs():
    R = ring2(3)
    with pytest.raises(PreconditionError):
        tau_generic([R.var("x")], 0)
    with pytest.raises(PreconditionError):
        tau_generic([R.zero()], Fraction(1, 2))


def test_fresh_auxiliary_names_avoid_collisions():
    R = ring2(3).extend(["z1"])
    got = tau_generic([R.var("x"), R.var("z1")], Fraction(1, 3))
    assert got.ring.variables == ("x", "y", "z1", "zz1", "zz2")


def test_principal_power_oracle_examples():
    R2 = ring2(2)
    a = ideal(R2, "x^2", "y^3")
    got = principal_power_oracle(list(a.gens), Fraction(1, 2))
    assert got.ring == R2
    assert got == maximal(R2)
    assert got == rational_power(a, Fraction(1, 2))

    R3 = ring2(3)
    c = ideal(R3, "x^5", "y^5")
    got = principal_power_oracle(list(c.gens), Fraction(2, 3))
    assert got == ideal(R3, "x^3", "x*y", "y^3")

    # singleton generator: elimination returns the base-ring test ideal
    f = R3.parse("x^2+y^3")
    for t in (Fraction(1, 3), Fraction(2, 3), Fraction(5, 6)):
        assert principal_power_oracle([f], t) == rational_power(Ideal(R3, [f]), t)


@st.composite
def oracle_cases(draw):
    """(generators, t): 2-3 generators of 1-3 terms and degree <= 6 in two
    variables, some generator not a term, p in {2, 3, 5}, t in (0, 1) with
    denominator <= 10."""
    R = ring2(draw(st.sampled_from([2, 3, 5])))
    exponent = st.integers(0, 6).flatmap(lambda d: st.integers(0, d).map(lambda i: (i, d - i)))
    term = st.tuples(exponent, st.integers(1, R.p - 1))
    gens = draw(st.lists(st.lists(term, min_size=1, max_size=3).map(R.poly), min_size=2, max_size=3))
    assume(all(not g.is_zero() for g in gens) and not all(g.is_term() for g in gens))
    den = draw(st.integers(2, 10))
    return gens, Fraction(draw(st.integers(1, den - 1)), den)


@given(case=oracle_cases())
def test_principal_power_oracle_matches_rational_power(case):
    gens, t = case
    assert principal_power_oracle(gens, t) == rational_power(Ideal(gens[0].ring, gens), t)


def test_principal_power_oracle_domain():
    R = ring2(3)
    with pytest.raises(PreconditionError):
        principal_power_oracle([R.var("x")], Fraction(3, 2))
    with pytest.raises(PreconditionError):
        principal_power_oracle([R.var("x")], 1)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_principalization_matches_direct_powers(p):
    R = ring2(p)
    rng = random.Random(40 + p)
    gens_sets = [
        [R.parse("x^2"), R.parse("y^3")],
        [R.parse("x^2+y^2"), R.parse("x*y")],
        [R.var("x"), R.var("y")],
    ]
    for gens in gens_sets:
        a = Ideal(R, gens)
        for t in sample_tame_fractions(rng, p, 4, max_den=12):
            assert principal_power_oracle(gens, t) == rational_power(a, t)


@pytest.mark.parametrize("p", [2, 3])
def test_lce_transfer_to_generic_hypersurface(p):
    # tau(G^t) first turns proper exactly at the reported least critical exponent
    R = ring2(p)
    for a in (ideal(R, "x^2", "y^3"), ideal(R, "x^3", "y^3")):
        rep = lce(a, 4)
        assert rep.certified_exact
        lam = rep.candidate
        assert not tau_generic(list(a.gens), lam).is_unit()
        just_below = lam - Fraction(1, p ** 6)
        assert tau_generic(list(a.gens), just_below).is_unit()


def test_stratify_examples():
    R = ring2(2)
    m = maximal(R).to_monomial()
    pairs = stratify([R.var("x"), R.var("y")], m, 1, 2)
    assert [(u, str(h)) for u, h in pairs] == [((1, 0), "z1"), ((0, 1), "z2")]

    gens = [R.parse("x^2"), R.parse("y^3")]
    with pytest.raises(PreconditionError):
        stratify(gens, m, 1, 2)

    pairs = stratify(gens, m, 1, 4)
    assert [(u, str(h)) for u, h in pairs] == [((0, 3), "z2"), ((2, 0), "z1")]


def test_stratify_multinomial_coefficients():
    # G^2 for two monomial generators: coefficients are scaled z-monomials
    R = ring2(5)
    gens = [R.parse("x"), R.parse("y")]
    pairs = stratify(gens, maximal(R).to_monomial(), 2, 5)
    as_dict = {u: str(h) for u, h in pairs}
    assert as_dict == {(2, 0): "z1^2", (1, 1): "2*z1*z2", (0, 2): "z2^2"}


def test_stratify_rejects_non_power_q():
    R = ring2(2)
    with pytest.raises(PreconditionError):
        stratify([R.var("x")], maximal(R).to_monomial(), 1, 6)


@pytest.mark.parametrize("p", [3, 5])
def test_specialization_soundness_for_independent_monomials(p):
    # affinely independent exponents: every nonzero scalar choice realizes crit
    R = ring2(p)
    m = maximal(R)
    a = ideal(R, "x^2", "y^3")
    rep = crit_truncations(a, m, 2)
    for c1 in range(1, p):
        for c2 in range(1, p):
            g = R.parse(f"{c1}*x^2") + R.parse(f"{c2}*y^3")
            for q, mval in zip(rep.q_list, rep.mu_list):
                assert nu(g, m, q) == mval
