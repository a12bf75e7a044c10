from fractions import Fraction

import pytest

from frobpow.arith import ceil_fraction
from frobpow.errors import PreconditionError
from frobpow.ideal import Ideal, ideal_power, ideal_sum
from frobpow.monomial import newton_fpt
from frobpow.thresholds import (
    crit_reconstruct,
    crit_truncations,
    lce,
    mu,
    nu,
    violates_forbidden_interval,
)

from helpers import ideal, maximal, ring2


def test_mu_examples():
    R = ring2(3)
    m = maximal(R)
    m5 = ideal_power(m, 5)
    assert mu(m5, m, 3) == 0
    assert mu(m5, m, 9) == 2
    assert mu(m, m, 3) == 2


def test_mu_rejects_bad_inputs():
    R = ring2(3)
    m = maximal(R)
    with pytest.raises(PreconditionError):
        mu(m, m, 4)  # not a power of p
    with pytest.raises(PreconditionError):
        mu(Ideal.unit(R), m, 3)
    with pytest.raises(PreconditionError):
        # x + 1 has no power inside <x, y>
        mu(ideal(R, "x+1"), m, 3)


def test_nu_examples():
    R5 = ring2(5)
    assert nu(R5.parse("x^2+y^3"), maximal(R5), 5) == 3
    R2 = ring2(2)
    assert nu(R2.var("x"), maximal(R2), 8) == 7
    R3 = ring2(3)
    assert nu(R3.parse("x*y"), maximal(R3), 3) == 2


def test_nu_against_brute_force_expansion():
    # independent oracle: literally expand f^k and test term membership
    R = ring2(5)
    f = R.parse("x^2+y^3")
    m_bracket = ideal(R, "x^5", "y^5").to_monomial()
    from frobpow.monomial import mono_member

    def outside(k):
        power = f**k
        return not all(mono_member(u, m_bracket) for u in power.terms)

    brute = max(k for k in range(0, 12) if outside(k))
    assert brute == 3
    assert nu(f, maximal(R), 5) == brute


def test_truncation_examples():
    R = ring2(3)
    m = maximal(R)
    m5 = ideal_power(m, 5)
    rep = crit_truncations(m5, m, 3)
    assert rep.mu_over_q == (Fraction(0), Fraction(2, 9), Fraction(8, 27))
    assert (rep.interval_low, rep.interval_high) == (Fraction(8, 27), Fraction(1, 3))
    rep = crit_truncations(m, m, 3)
    assert rep.mu_over_q == (Fraction(2, 3), Fraction(8, 9), Fraction(26, 27))
    rep = crit_truncations(ideal(R, "x"), m, 3)
    assert rep.mu_over_q == (Fraction(2, 3), Fraction(8, 9), Fraction(26, 27))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_mu_scaling_inequality(p):
    R = ring2(p)
    m = maximal(R)
    for a in (ideal_power(m, 4), ideal(R, "x^2", "y^3"), ideal(R, "x^2+y^3")):
        rep = crit_truncations(a, m, 4)
        for coarse, fine in zip(rep.mu_list, rep.mu_list[1:]):
            assert fine >= p * coarse
        for coarse, fine in zip(rep.mu_over_q, rep.mu_over_q[1:]):
            assert fine >= coarse


def test_crit_reconstruct_examples():
    R3 = ring2(3)
    m3 = maximal(R3)
    rep = crit_reconstruct(ideal_power(m3, 5), m3, 3)
    assert rep.candidate == Fraction(1, 3)
    assert rep.certified_exact

    R11 = ring2(11)
    m11 = maximal(R11)
    rep = crit_reconstruct(ideal_power(m11, 5), m11, 3)
    assert rep.candidate == Fraction(2, 5)

    R7 = ring2(7)
    rep = crit_reconstruct(ideal(R7, "x^2", "y^3"), maximal(R7), 3)
    assert rep.candidate == Fraction(5, 6)


def test_certified_candidate_reproduces_mu_pattern():
    R = ring2(3)
    m = maximal(R)
    rep = crit_reconstruct(ideal_power(m, 5), m, 4)
    assert rep.certified_exact
    lam = rep.candidate
    for q, mval in zip(rep.q_list, rep.mu_list):
        assert ceil_fraction(lam * q) - 1 == mval


def test_lce_case_table_small_primes():
    for p, want in [(2, Fraction(3, 8)), (3, Fraction(1, 3))]:
        R = ring2(p)
        rep = lce(ideal_power(maximal(R), 5), e_max=5)
        assert rep.candidate == want
        assert rep.certified_exact


def test_lce_of_maximal_ideal_is_one():
    R = ring2(3)
    rep = lce(maximal(R), 2)
    assert rep.candidate == 1
    assert rep.certified_exact


def test_lce_requires_subvariable_ideal():
    R = ring2(3)
    with pytest.raises(PreconditionError):
        lce(ideal(R, "x+1"), 2)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_principal_mu_equals_nu(p):
    R = ring2(p)
    m = maximal(R)
    for text in ("x^2+y^3", "x*y", "x^3+x*y^2"):
        f = R.parse(text)
        a = Ideal(R, [f])
        for e in (1, 2):
            assert mu(a, m, p**e) == nu(f, m, p**e)


@pytest.mark.parametrize("p", [3, 5])
def test_generator_threshold_or_dering(p):
    # for f a generator of a: nu-truncations of f stay below crit truncations
    R = ring2(p)
    m = maximal(R)
    a = ideal(R, "x^2", "y^3")
    rep = crit_truncations(a, m, 3)
    for text in ("x^2", "y^3"):
        f = R.parse(text)
        for e, mval in zip((1, 2, 3), rep.mu_list):
            assert nu(f, m, p**e) <= mval


def test_crit_lower_bound_from_f_threshold():
    # crit >= ft - (m-1)/(p-1) on a certified non-unit case
    R = ring2(7)
    m = maximal(R)
    a = ideal(R, "x^2", "y^3")
    rep = crit_reconstruct(a, m, 3)
    assert rep.candidate == Fraction(5, 6)
    ft = newton_fpt(a.to_monomial())  # = 5/6: monomial F-threshold oracle
    assert rep.candidate >= ft - Fraction(1, 6)


def test_lce_bounded_by_fpt_for_monomial_ideals():
    for p in (2, 3, 5, 7):
        R = ring2(p)
        m = maximal(R)
        for a in (ideal_power(m, 3), ideal(R, "x^2", "y^3"), ideal(R, "x^3", "x*y", "y^3")):
            rep = lce(a, 3)
            assert rep.candidate is not None
            fpt = newton_fpt(a.to_monomial())
            assert rep.candidate <= min(1, fpt)


def test_subadditivity_on_certified_values():
    R = ring2(3)
    m = maximal(R)
    pairs = [
        (ideal(R, "x^2"), ideal(R, "y^2")),
        (ideal(R, "x^3"), ideal(R, "x*y")),
        (ideal(R, "x^2", "y^3"), ideal(R, "y^2")),
    ]
    for a, b in pairs:
        ra = crit_reconstruct(a, m, 3)
        rb = crit_reconstruct(b, m, 3)
        rsum = crit_reconstruct(ideal_sum(a, b), m, 3)
        assert all(r.candidate is not None for r in (ra, rb, rsum))
        assert rsum.candidate <= ra.candidate + rb.candidate


def test_forbidden_interval_helper():
    # 1/3 at p = 3 is an endpoint, never interior; points inside (1/3, 1/2) fail
    assert not violates_forbidden_interval(Fraction(1, 3), 3, 4)
    assert violates_forbidden_interval(Fraction(2, 5), 3, 4)  # in (1/3, 1/2)
    assert not violates_forbidden_interval(Fraction(1, 2), 3, 4)


def test_certified_lces_avoid_forbidden_intervals():
    for p in (2, 3, 5):
        R = ring2(p)
        m = maximal(R)
        for a in (ideal_power(m, 5), ideal(R, "x^2", "y^3")):
            rep = lce(a, 4)
            if rep.certified_exact:
                assert not violates_forbidden_interval(rep.candidate, p, 5)


def test_report_interval_brackets_candidate():
    R = ring2(5)
    rep = lce(ideal_power(maximal(R), 5), 4)
    assert rep.interval_low < rep.candidate <= Fraction(rep.mu_list[-1], rep.q_list[-1] - 1) or (
        rep.interval_low < rep.candidate <= rep.interval_high
    )


def test_crit_reconstruct_general_ideal_p3():
    R = ring2(3)
    report = crit_reconstruct(ideal(R, "x^2+y^2", "x*y"), maximal(R), 3)
    assert report.mu_list == (2, 8, 26)
    assert report.candidate == 1
    assert report.certified_exact
