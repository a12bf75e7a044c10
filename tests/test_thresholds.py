import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import frobpow.ideal
import frobpow.thresholds
from frobpow.arith import ceil_fraction
from frobpow.errors import PreconditionError
from frobpow.ideal import Ideal, ideal_contains, ideal_power, ideal_sum
from frobpow.monomial import MonomialIdeal, newton_fpt
from frobpow.poly import PolyRing
from frobpow.thresholds import (
    TruncationReport,
    _denominators,
    _next_candidate,
    _reconstruct,
    check_radical_containment,
    crit_reconstruct,
    crit_truncations,
    lce,
    mu,
    nu,
)

from helpers import candidate_grid, ideal, maximal, ring2, violates_forbidden_interval


def test_mu_examples():
    R = ring2(3)
    m = maximal(R)
    m5 = ideal_power(m, 5)
    assert mu(m5, m, 3) == 0
    assert mu(m5, m, 9) == 2
    assert mu(m, m, 3) == 2


M5_GENS = ("x^5", "x^4*y", "x^3*y^2", "x^2*y^3", "x*y^4", "y^5")


@pytest.mark.parametrize(
    "search, gens",
    [
        (lambda a, m: lce(a, 5), M5_GENS),
        (lambda a, m: crit_truncations(a, m, 3), M5_GENS),
        (lambda a, m: crit_truncations(a, m, 3), ("x^2+y^3", "x*y")),
    ],
    ids=["lce-m5", "crit-m5", "crit-general"],
)
def test_a_search_builds_each_digit_power_once(monkeypatch, search, gens):
    # every probe of one search raises the same object, so the digit powers
    # a^d, d < p, are built once for the whole search
    built = []
    real = frobpow.ideal.ideal_power

    def counted(a, d):
        built.append(d)
        return real(a, d)

    monkeypatch.setattr(frobpow.ideal, "ideal_power", counted)
    R = ring2(3)
    search(ideal(R, *gens), maximal(R))
    assert len(set(built)) == len(built) <= R.p - 1


def test_non_monomial_searches_build_no_frobenius_power(monkeypatch):
    # a^{[k]} of a non-monomial a is decided one product at a time: neither
    # the power nor a product of ideals is built, whatever b is
    def refuse(*args, **kwargs):
        raise AssertionError("an ideal power or product was built")

    monkeypatch.setattr(frobpow.thresholds, "frob_power_int", refuse)
    monkeypatch.setattr(frobpow.ideal, "ideal_product", refuse)
    R3, R5 = ring2(3), ring2(5)
    S2, S3 = PolyRing(2, ("x", "y", "z")), PolyRing(3, ("x", "y", "z"))
    a2 = ("x^2+x*y", "y^3+x^2*y")
    # two variables, monomial and non-monomial b
    assert mu(ideal(R3, "x^2+y^3", "x*y"), maximal(R3), 27) == 26
    assert crit_truncations(ideal(R3, "x^2+y^3", "x*y"), maximal(R3), 3).mu_list == (2, 8, 26)
    assert mu(ideal(R3, *a2), ideal(R3, "x^3+y^3", "x*y^2", "x^2*y"), 81) == 161
    assert crit_truncations(ideal(R5, *a2), ideal(R5, "x^2+y", "y^2"), 2).mu_list == (9, 49)
    assert nu(R5.parse("x^2+y^3"), maximal(R5), 25) == 19
    assert nu(R5.parse("x^2+y^3"), ideal(R5, "x^2+y", "y^2"), 25) == 49
    # three variables
    assert mu(ideal(S2, "x^2+y*z", "y^2+x*z", "z^3"), maximal(S2), 8) == 7
    assert nu(S2.parse("x*y+z^2+x^3"), maximal(S2), 4) == 3
    assert crit_truncations(ideal(S3, "x^2+y*z", "x*y+z^2"), maximal(S3), 2).mu_list == (2, 8)
    assert mu(ideal(S3, "x^2+y*z", "x*y+z^2"), ideal(S3, "x+y", "y^2", "z^2"), 9) == 17
    assert nu(S3.parse("x*y+z^2"), ideal(S3, "x+y", "y^2", "z^2"), 9) == 8


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


def test_radical_check_of_monomial_ideals_reads_the_antichain():
    R = ring2(3)
    view = Ideal.from_monomial(MonomialIdeal(R, [(3, 0), (0, 2)]))
    check_radical_containment(view, maximal(R))
    assert view._gens is None  # no generator was built
    # both generators lie outside the radical of <x*y>; the first in ring
    # order is named, as the generator loop names it
    for a in (view, ideal(R, "y^2", "x^3")):
        with pytest.raises(PreconditionError, match=r"^generator x\^3 is not in the radical of b$"):
            check_radical_containment(a, ideal(R, "x*y"))


def test_a_non_member_of_the_radical_is_a_precondition():
    # x is not in the radical of <y^2 + x*y> = <y> cap <x + y>; the check
    # decides it, where squaring normal forms could only run out
    R = ring2(3)
    a, b = ideal(R, "x"), ideal(R, "y^2+x*y")
    for call in (
        lambda: check_radical_containment(a, b),
        lambda: mu(a, b, 9),
        lambda: nu(R.var("x"), b, 9),
    ):
        with pytest.raises(PreconditionError, match=r"^generator x is not in the radical of b$"):
            call()


def test_a_member_of_the_radical_is_decided():
    # x^50 lies in <y, x^50 + x*y>, so x is in its radical
    R = ring2(3)
    check_radical_containment(ideal(R, "x"), ideal(R, "y", "x^50+x*y"))


def test_a_non_member_in_three_variables_is_decided_quickly():
    R = PolyRing(7, ("x", "y", "z"))
    a = ideal(R, "6*x^3*y^3*z^2 + 6*x*y^3*z^2 + 2*x^2*y^2*z")
    b = ideal(R, "x^3*y^4*z^4 + 4*x*y^4*z^2 + 4*x^2*y*z", "x^4*y*z + x*z^2 + 4*y")
    start = time.perf_counter()
    with pytest.raises(PreconditionError, match="not in the radical of b"):
        mu(a, b, 7)
    assert time.perf_counter() - start < 20


@given(
    p=st.sampled_from([3, 5, 7]),
    data=st.data(),
    m=st.integers(2, 4),
)
def test_radical_of_a_power_of_a_squarefree_polynomial(p, data, m):
    # h, a product of distinct lines x + c*y + d, is squarefree, so the
    # radical of <h^m> is <h>: the reference is membership in <h>
    R = ring2(p)
    coeffs = st.integers(0, p - 1)
    lines = data.draw(st.lists(st.tuples(coeffs, coeffs), min_size=1, max_size=3, unique=True))
    factors = [R.parse(f"x + {c}*y + {d}") for c, d in lines]
    terms = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(1, p - 1), min_size=1, max_size=3)
    kept = data.draw(st.lists(st.booleans(), min_size=len(factors), max_size=len(factors)))
    # f is a cofactor times some of the lines: in <h> when it holds them all,
    # or when the cofactor supplies the missing ones
    f = math.prod((g for g, keep in zip(factors, kept) if keep), start=R.poly(data.draw(terms).items()))
    h = math.prod(factors[1:], start=factors[0])
    a, b = Ideal(R, [f]), Ideal(R, [h**m])
    try:
        check_radical_containment(a, b)
        member = True
    except PreconditionError:
        member = False
    assert member == ideal_contains(Ideal(R, [h]), a)


def test_each_search_checks_its_pair_once(monkeypatch):
    calls = []
    real = frobpow.thresholds.check_radical_containment

    def counted(a, b):
        calls.append(b)
        return real(a, b)

    monkeypatch.setattr(frobpow.thresholds, "check_radical_containment", counted)
    R = ring2(3)
    m = maximal(R)
    for a in (ideal(R, *M5_GENS), ideal(R, "x^2+y^3", "x*y")):
        for search in (
            lambda: mu(a, m, 9),
            lambda: crit_truncations(a, m, 3),
            lambda: crit_reconstruct(a, m, 2),
            lambda: lce(a, 3),
        ):
            calls.clear()
            search()
            assert calls == [m]


def test_nu_examples():
    R5 = ring2(5)
    assert nu(R5.parse("x^2+y^3"), maximal(R5), 5) == 3
    R2 = ring2(2)
    assert nu(R2.var("x"), maximal(R2), 8) == 7
    R3 = ring2(3)
    assert nu(R3.parse("x*y"), maximal(R3), 3) == 2


def test_nu_rejects_bad_inputs():
    # nu is mu of <f>: mu's checks and messages
    R = ring2(3)
    m = maximal(R)
    with pytest.raises(PreconditionError, match="nonzero proper ideals"):
        nu(R.zero(), m, 3)
    with pytest.raises(PreconditionError, match="not in the radical of b"):
        nu(R.parse("x+1"), m, 3)
    with pytest.raises(PreconditionError, match="not a power of p"):
        nu(R.var("x"), m, 4)


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


@pytest.mark.parametrize("caps", [(-1, 4), (4, -1), (-1, -1)])
def test_negative_candidate_caps_rejected_before_any_mu(monkeypatch, caps):
    # b_max = -1 once left no denominator and crashed the candidate search
    # with a bare ValueError; a negative c_max silently acted as 0
    R = ring2(3)
    m5 = ideal_power(maximal(R), 5)

    def no_mu(*args, **kwargs):
        raise AssertionError("mu ran before the caps were checked")

    monkeypatch.setattr("frobpow.thresholds.mu", no_mu)
    with pytest.raises(PreconditionError, match="nonnegative"):
        crit_reconstruct(m5, maximal(R), 3, *caps)
    with pytest.raises(PreconditionError, match="nonnegative"):
        lce(m5, 3, *caps)


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


def test_crit_reconstruct_general_ideal_p7():
    # roots and products here reach 343 generators, and a reduced basis of
    # each list past 192 once made this search take over 24 s
    R = ring2(7)
    report = crit_reconstruct(ideal(R, "x^2+y^2", "x*y"), maximal(R), 3)
    assert report.mu_list == (6, 48, 342)
    assert report.candidate == 1
    assert report.certified_exact


@st.composite
def search_intervals(draw):
    """(p, b_max, c_max, lo, hi, forbidden_cap) with (lo, hi] = (k/p^e, (k+1)/p^e]."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    b_max = draw(st.integers(0, 3))
    c_max = draw(st.integers(0, 3))
    # e near b_max + c_max keeps the reference grid small at p = 7
    e = draw(st.integers(max(1, b_max + c_max - 1), b_max + c_max + 1))
    k = draw(st.integers(0, p**e - 1))
    cap = draw(st.sampled_from([0, 1, 2, 3]))
    return p, b_max, c_max, Fraction(k, p**e), Fraction(k + 1, p**e), cap


@given(search_intervals())
def test_successor_walk_matches_the_materialized_grid(case):
    p, b_max, c_max, lo, hi, cap = case
    expect = [
        lam
        for lam in candidate_grid(p, lo, hi, b_max, c_max)
        if not (cap and violates_forbidden_interval(lam, p, cap))
    ]
    dens = _denominators(p, b_max, c_max)
    walk = []
    lam = _next_candidate(lo, dens, p, cap)
    while lam <= hi:
        walk.append(lam)
        lam = _next_candidate(lam, dens, p, cap)
    assert walk == expect
    for lam in expect:
        assert _next_candidate(lam, dens, p, cap, strict=False) == lam


def test_report_breaking_the_floor_pattern_is_returned_unchanged():
    # mu(27) = 26 forces mu(3) = 26 // 9 = 2; a report claiming 1 admits no
    # candidate, so the search must not start.
    R = ring2(3)
    m = maximal(R)
    report = TruncationReport(
        q_list=(3, 9, 27),
        mu_list=(1, 8, 26),
        mu_over_q=(Fraction(1, 3), Fraction(8, 9), Fraction(26, 27)),
        interval_low=Fraction(26, 27),
        interval_high=Fraction(1),
        candidate=None,
        certified_exact=False,
    )
    assert _reconstruct(m, m, report, 4, 4) is report
