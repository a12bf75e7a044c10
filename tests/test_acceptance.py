"""Acceptance suite: one test per criterion, exact tolerances throughout.

Run with ``pytest -v tests/test_acceptance.py`` for one line per criterion;
each test also prints an explicit PASS marker (visible with ``-s``).
"""

import itertools
import random
from fractions import Fraction

import pytest

from frobpow.arith import ceil_fraction
from frobpow.frobpower import jumps_scan, rational_power, skoda_split
from frobpow.generic import principal_power_oracle
from frobpow.groebner import groebner_basis, normal_form
from frobpow.ideal import (
    Ideal,
    frob_power_int,
    ideal_power,
    ideal_product,
)
from frobpow.monomial import mono_contains, mono_member, newton_tau
from frobpow.thresholds import lce, mu, nu

from helpers import (
    frob_power_int_gens,
    ideal,
    maximal,
    multinomial,
    multinomial_nonzero_mod_p,
    random_poly,
    ring2,
    violates_forbidden_interval,
)


def report(criterion, detail=""):
    print(f"[acceptance] criterion {criterion}: PASS {detail}".rstrip())


@pytest.fixture(scope="module")
def lce_case_table():
    """lce(m^5) across the five characteristics of the case table."""
    expected = {
        2: Fraction(3, 8),
        3: Fraction(1, 3),
        5: Fraction(2, 5),
        7: Fraction(137, 343),
        11: Fraction(2, 5),
    }
    reports = {}
    for p in expected:
        R = ring2(p)
        m5 = ideal_power(maximal(R), 5)
        reports[p] = lce(m5, e_max=5, b_max=4, c_max=4)
    return expected, reports


def test_criterion_01_m7_table_p11():
    R = ring2(11)
    m = maximal(R)
    m7 = ideal_power(m, 7)
    table = [
        (Fraction(2, 11), 0),
        (Fraction(3, 11), 1),
        (Fraction(3, 7), 2),
        (Fraction(69, 121), 3),
        (Fraction(5, 7), 4),
        (Fraction(6, 7), 5),
    ]
    assert Fraction(3, 11) == Fraction(2, 7) - Fraction(1, 7 * 11)
    assert Fraction(69, 121) == Fraction(4, 7) - Fraction(1, 7 * 11**2)
    for t, degree in table:
        assert rational_power(m7, t) == ideal_power(m, degree), f"t = {t}"
    report(1, "(m^7 table over F_11)")


def test_criterion_02_lce_case_table(lce_case_table):
    expected, reports = lce_case_table
    for p, want in expected.items():
        rep = reports[p]
        assert rep.candidate == want, f"p = {p}"
        assert rep.certified_exact, f"p = {p}"
    report(2, "(lce(m^5) for p in {2,3,5,7,11}, all certified)")


def test_criterion_03_closure_comparison_p3():
    R = ring2(3)
    m = maximal(R)
    b = ideal_power(m, 5)           # integral closure of c
    c = ideal(R, "x^5", "y^5")
    step_b = jumps_scan(b, 4)
    step_c = jumps_scan(c, 4)
    middle = ideal(R, "x^3", "x*y", "y^3")
    # c:  <x^3, xy, y^3> exactly on [2/3, 7/9), then m^3
    assert Fraction(2, 3) in step_c.breakpoints
    assert Fraction(7, 9) in step_c.breakpoints
    for t in (Fraction(2, 3), Fraction(54, 81), Fraction(62, 81)):
        assert step_c.value_at(t) == middle
    assert step_c.value_at(Fraction(7, 9)) == ideal_power(m, 3)
    # b:  m^2 throughout [16/27, 2/3)
    for t in (Fraction(16, 27), Fraction(50, 81), Fraction(53, 81)):
        assert step_b.value_at(t) == ideal_power(m, 2)
    # the two step functions genuinely differ on [2/3, 7/9)
    assert step_b.value_at(Fraction(2, 3)) != step_c.value_at(Fraction(2, 3))
    # while the Newton test ideals of an ideal and its closure agree
    bm, cm = b.to_monomial(), c.to_monomial()
    for k in range(1, 28):
        t = Fraction(k, 28)
        assert newton_tau(bm, t) == newton_tau(cm, t)
    report(3, "(Frobenius powers separate <x^5,y^5> from its closure)")


def test_criterion_04_sandwich_property():
    rng = random.Random(20260809)
    checked = 0
    for p in (2, 3, 5, 7):
        R = ring2(p)
        m = maximal(R)
        corpus = [ideal_power(m, d) for d in range(1, 8)]
        corpus += [
            ideal(R, f"x^{a}", f"y^{b}")
            for a in range(1, 7)
            for b in range(1, 7)
        ]
        for a in corpus:
            am = a.to_monomial()
            m_gens = len(am.gens)
            shift = Fraction(m_gens - 1, p - 1)
            for _ in range(20):
                t = Fraction(rng.randint(1, 119), 120)
                upper = newton_tau(am, t)
                lower = newton_tau(am, t + shift)
                power = rational_power(a, t).to_monomial()
                assert mono_contains(upper, power), (p, am, t)
                assert mono_contains(power, lower), (p, am, t)
                checked += 1
    report(4, f"({checked} sandwich containments)")


def test_criterion_05_principalization():
    for p in (2, 3, 5):
        R = ring2(p)
        gens_sets = [
            [R.parse("x^2"), R.parse("y^3")],
            [R.var("x"), R.var("y")],
            [R.parse("x^3"), R.parse("y^3")],
            [R.parse("x^2+y^2"), R.parse("x*y")],
        ]
        ts = [
            Fraction(1, p),
            Fraction(2, p),
            Fraction(1, p * (p - 1)),
            Fraction(p - 1, p),
            Fraction(2, p * p - 1),
        ]
        # the generic-hypersurface route is a theorem on the open unit interval
        ts = [t for t in ts if 0 < t < 1]
        for gens in gens_sets:
            a = Ideal(R, gens)
            for t in ts:
                assert principal_power_oracle(gens, t) == rational_power(a, t), (
                    p,
                    [str(g) for g in gens],
                    t,
                )
    report(5, "(elimination route equals direct computation)")


def test_criterion_06_mu_nu_coherence(lce_case_table):
    expected, reports = lce_case_table
    # certified candidates reproduce every computed mu value
    for p, rep in reports.items():
        lam = rep.candidate
        for q, mval in zip(rep.q_list, rep.mu_list):
            assert ceil_fraction(lam * q) - 1 == mval, (p, q)
    # principal ideals: mu agrees with nu
    for p in (2, 3, 5):
        R = ring2(p)
        m = maximal(R)
        for text in ("x^2+y^3", "x*y", "x^3+x*y^2"):
            f = R.parse(text)
            for e in (1, 2):
                assert mu(Ideal(R, [f]), m, p**e) == nu(f, m, p**e)
    # brute-force expansion oracle for nu(x^2+y^3) at q = 5
    R5 = ring2(5)
    f = R5.parse("x^2+y^3")
    bracket = ideal(R5, "x^5", "y^5").to_monomial()
    outside = [
        k
        for k in range(10)
        if not all(mono_member(u, bracket) for u in (f**k).terms)
    ]
    assert max(outside) == 3
    assert nu(f, maximal(R5), 5) == 3
    report(6, "(mu/nu coherence, principal coincidence, brute-force check)")


def test_criterion_07_integral_power_oracle_equivalence():
    for p in (2, 3, 5):
        R = ring2(p)
        corpus = [
            maximal(R),
            ideal(R, "x^2", "y^3"),
            ideal(R, "x^2+y^2", "x*y"),
            ideal(R, "x+y"),
        ]
        for a in corpus:
            for k in range(31):
                assert frob_power_int(a, k) == frob_power_int_gens(a, k), (p, a, k)
    report(7, "(digit product = multinomial generator formula, k <= 30)")


def test_criterion_08_forbidden_intervals(lce_case_table):
    expected, reports = lce_case_table
    collected = [(p, rep.candidate) for p, rep in reports.items() if rep.certified_exact]
    # also the certified values arising in the smaller threshold runs
    for p in (2, 3, 5):
        R = ring2(p)
        for a in (ideal(R, "x^2", "y^3"), ideal(R, "x^3", "y^3")):
            rep = lce(a, 4)
            if rep.certified_exact:
                collected.append((p, rep.candidate))
    assert len(collected) >= 7
    for p, lam in collected:
        assert not violates_forbidden_interval(lam, p, 5), (p, lam)
    report(8, f"({len(collected)} certified values avoid all forbidden intervals)")


def test_criterion_09_kernel_micro_suites():
    # Dickson against the factorial oracle
    for p in (2, 3, 5, 7):
        for parts in (2, 3):
            for u in itertools.product(range(13), repeat=parts):
                if sum(u) <= 12:
                    assert multinomial_nonzero_mod_p(u, p) == (
                        multinomial(u) % p != 0
                    )
    # Groebner determinism and membership witnesses
    rng = random.Random(99)
    for p in (2, 3, 5):
        R = ring2(p)
        gens = [random_poly(rng, R) for _ in range(3)]
        while all(g.is_zero() for g in gens):
            gens = [random_poly(rng, R) for _ in range(3)]
        gb1 = groebner_basis(gens)
        gb2 = groebner_basis(gens)
        assert gb1.polys == gb2.polys
        for _ in range(20):
            witness = R.zero()
            for g in gens:
                witness = witness + random_poly(rng, R, max_terms=3) * g
            assert normal_form(witness, gb1).is_zero()
    # Skoda identity on a [0, 3) grid
    for p in (2, 3, 5):
        R = ring2(p)
        for a in (maximal(R), ideal(R, "x^2", "y^3"), ideal(R, "x^2+y^3")):
            for num in range(0, 24):
                t = Fraction(num, 8)
                whole, frac = skoda_split(a, t)
                assert ideal_product(whole, frac) == rational_power(a, t)
    report(9, "(Dickson, Groebner, Skoda micro-suites)")
