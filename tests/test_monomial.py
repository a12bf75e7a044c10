import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from frobpow import monomial
from frobpow.cli import _ideal_result
from frobpow.arith import MAX_EXPONENT
from frobpow.errors import ExponentOverflowError, PreconditionError, ResourceCapError
from frobpow.groebner import groebner_basis, normal_form
from frobpow.ideal import Ideal, frob_root, ideal_contains
from frobpow.monomial import (
    MonomialIdeal,
    minimalize,
    mono_bracket,
    mono_contains,
    mono_contains_points,
    _enumerate_facets,
    _newton_facets,
    mono_member,
    mono_power,
    mono_product,
    mono_root,
    newton_fpt,
    newton_jump_candidates,
    newton_tau,
)
from frobpow.poly import MonomialOrder, PolyRing

from helpers import in_newton, maximal, mono, newton_member_fm, ring2


def test_member_examples():
    R = ring2(3)
    a = mono(R, "x^2", "y^5")
    assert mono_member((2, 3), a)
    assert not mono_member((1, 0), mono(R, "x^2"))
    assert not mono_member((5, 5), mono(R, "x^9", "y^9"))


def test_minimalize_idempotent_and_antichain():
    rng = random.Random(3)
    for _ in range(200):
        pts = [
            (rng.randint(0, 8), rng.randint(0, 8)) for _ in range(rng.randint(1, 10))
        ]
        kept = minimalize(pts)
        assert minimalize(kept) == kept
        for u in kept:
            for v in kept:
                if u != v:
                    assert not all(a <= b for a, b in zip(u, v))
        # membership unchanged by minimalization
        for w in itertools.product(range(9), repeat=2):
            direct = any(all(a <= b for a, b in zip(v, w)) for v in pts)
            pruned = any(all(a <= b for a, b in zip(v, w)) for v in kept)
            assert direct == pruned


def test_minimalize_three_variables():
    pts = [(1, 2, 3), (1, 2, 4), (0, 5, 0), (1, 1, 3), (2, 0, 0)]
    assert set(minimalize(pts)) == {(1, 1, 3), (0, 5, 0), (2, 0, 0)}


exponent_lists = st.integers(2, 3).flatmap(
    lambda n: st.lists(st.tuples(*[st.integers(0, 6)] * n), min_size=1, max_size=8)
)


@given(exps=exponent_lists, seed=st.integers(0, 10**6))
def test_shuffled_exponents_give_an_equal_ideal_and_hash(exps, seed):
    R = PolyRing(3, ("x", "y", "z")[: len(exps[0])])
    shuffled = list(exps)
    random.Random(seed).shuffle(shuffled)
    a, b = MonomialIdeal(R, exps), MonomialIdeal(R, shuffled)
    assert a == b and hash(a) == hash(b)
    assert a.gens == b.gens


@given(
    exps=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=10),
    probes=st.lists(st.tuples(st.integers(0, 14), st.integers(0, 14)), max_size=10),
)
def test_staircase_bisection_matches_brute_force(exps, probes):
    R = ring2(5)
    a, b = MonomialIdeal(R, exps), MonomialIdeal(R, probes)

    def divides(v, u):
        return v[0] <= u[0] and v[1] <= u[1]

    for u in probes:
        assert mono_member(u, a) == any(divides(v, u) for v in exps)
    assert mono_contains(a, b) == all(any(divides(v, u) for v in exps) for u in probes)


@given(data=st.data())
def test_membership_kernel_is_divisibility(data):
    n = data.draw(st.integers(1, 4))
    R = PolyRing(5, ("x", "y", "z", "w")[:n])
    vec = st.tuples(*[st.integers(0, 5)] * n)
    # an empty list is the zero ideal; the origin makes the unit ideal
    gens = data.draw(st.lists(vec, max_size=6) | st.just([(0,) * n]))
    points = data.draw(st.lists(vec, max_size=6))
    a = MonomialIdeal(R, gens)

    def member(u):
        return any(all(g <= e for g, e in zip(v, u)) for v in gens)

    got = mono_contains_points(a, points)
    assert got == all(map(member, points))
    assert mono_contains_points(a, iter(points)) == got
    for u in points:
        assert mono_member(u, a) == mono_contains_points(a, [u]) == member(u)
    assert mono_contains(a, MonomialIdeal(R, points)) == got
    f = R.poly((u, 1) for u in points)
    assert ideal_contains(Ideal.from_monomial(a), Ideal(R, [f])) == got


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_membership_kernel_on_the_zero_and_unit_ideals(n):
    R = PolyRing(3, ("x", "y", "z", "w")[:n])
    points = [(0,) * n, (2,) * n]
    assert mono_contains_points(MonomialIdeal(R, [(0,) * n]), points)
    assert not mono_contains_points(MonomialIdeal(R, []), points[1:])
    assert mono_contains_points(MonomialIdeal(R, []), [])


staircases = st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)), min_size=1, max_size=12)


@given(p=st.sampled_from([2, 3, 5]), e=st.integers(0, 2), exps_a=staircases, exps_b=staircases)
def test_two_variable_product_and_root_match_the_generic_build(p, e, exps_a, exps_b):
    # the kernel sorts the set of pair sums (or quotients) and sweeps it;
    # the reference is the validated constructor over the same points, and
    # the minimal points counted one pair at a time
    R, q = ring2(p), p**e
    a, b = MonomialIdeal(R, exps_a), MonomialIdeal(R, exps_b)
    sums = [((u[0] + v[0]) // q, (u[1] + v[1]) // q) for u in a.gens for v in b.gens]
    roots = [(u[0] // q, u[1] // q) for u in a.gens]
    for got, pts in ((mono_product(a, b, q), sums), (mono_root(a, q), roots)):
        assert got == MonomialIdeal(R, pts)
        assert set(got.gens) == {
            u for u in pts if not any(v != u and v[0] <= u[0] and v[1] <= u[1] for v in pts)
        }


class _PairGuard(tuple):
    """A generator tuple that may be indexed but not iterated."""

    def __iter__(self):
        raise AssertionError("a pair of generators was formed")


def test_two_variable_product_overflow_raises_before_any_pair():
    R = ring2(2)
    b = MonomialIdeal(R, [(0, 3), (2**62, 0)])
    # (2^62 - 1) + 2^62 = MAX_EXPONENT is the largest sum that fits
    fits = MonomialIdeal(R, [(2**62 - 1, 0), (0, 1)])
    assert mono_product(fits, b).gens[-1] == (MAX_EXPONENT, 0)
    a = MonomialIdeal(R, [(2**62, 0), (0, 1)])
    a.gens, b.gens = _PairGuard(a.gens), _PairGuard(b.gens)
    for q in (1, 2, 4):
        with pytest.raises(ExponentOverflowError):
            mono_product(a, b, q)


def test_product_refuses_past_the_composition_cap_before_any_pair():
    # 1001 x 1000 generators make 1,001,000 pairs, one thousand past the cap
    for n in (2, 3):
        R = PolyRing(3, ("x", "y", "z")[:n])
        a = MonomialIdeal._of(R, _PairGuard((i, 1000 - i, 0)[:n] for i in range(1001)))
        b = MonomialIdeal._of(R, _PairGuard((i, 999 - i, 0)[:n] for i in range(1000)))
        for q in (1, 3):
            with pytest.raises(ResourceCapError, match="COMPOSITION_CAP"):
                mono_product(a, b, q)


def test_three_variable_minimalize_is_priced_as_points_times_kept():
    R = PolyRing(3, ("x", "y", "z"))
    # 317^2 = 100,489 incomparable sums: refused once 100 of them are kept
    a = MonomialIdeal(R, [(i, 0, 4000 - i) for i in range(317)])
    b = MonomialIdeal(R, [(0, j, 4000 - j) for j in range(317)])
    with pytest.raises(ResourceCapError, match="MINIMALIZE_CAP"):
        mono_product(a, b)
    # 231^2 = 53,361 pairs fall on the 861 monomials of degree 40: priced
    # 861 * 861, under the cap
    m20 = MonomialIdeal(R, [(i, j, 20 - i - j) for i in range(21) for j in range(21 - i)])
    assert len(mono_product(m20, m20).gens) == 861


ORDERS = [MonomialOrder.lex(), MonomialOrder.grevlex(), MonomialOrder.elimination((1,))]


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.kind)
@given(exps=exponent_lists)
def test_generators_leave_the_engine_in_descending_ring_order(order, exps):
    R = PolyRing(3, ("x", "y", "z")[: len(exps[0])], order)
    a = MonomialIdeal(R, exps)
    expect = sorted(a.gens, key=R.sort_key(), reverse=True)
    assert [g.leading_exponent() for g in a.polynomials()] == expect
    assert [g.leading_exponent() for g in Ideal.from_monomial(a).gens] == expect
    names = [str(R.monomial(u)) for u in expect]
    assert repr(a) == f"MonomialIdeal<{', '.join(names)}>"
    # the CLI renders text and JSON from the same list
    assert _ideal_result(Ideal.from_monomial(a)) == (", ".join(names), {"generators": names})


def test_membership_matches_groebner_normal_form():
    rng = random.Random(11)
    R = ring2(5)
    for _ in range(25):
        exps = [(rng.randint(0, 6), rng.randint(0, 6)) for _ in range(3)]
        a = MonomialIdeal(R, exps)
        gb = groebner_basis([R.monomial(u) for u in a.gens])
        for _ in range(10):
            w = (rng.randint(0, 8), rng.randint(0, 8))
            assert mono_member(w, a) == normal_form(R.monomial(w), gb).is_zero()


def test_root_examples():
    R = ring2(3)
    assert mono_root(mono(R, "x^5", "y^5"), 3) == mono(R, "x", "y")
    assert mono_root(mono(R, "x^9"), 9) == mono(R, "x")
    squared = mono(R, "x^10", "x^5*y^5", "y^10")
    assert mono_root(squared, 3) == mono(R, "x^3", "x*y", "y^3")


@pytest.mark.parametrize("p,q", [(2, 2), (2, 4), (3, 3), (5, 5)])
def test_root_agrees_with_generic_path(p, q):
    rng = random.Random(60 + p + q)
    R = ring2(p)
    for _ in range(20):
        exps = [(rng.randint(0, 12), rng.randint(0, 12)) for _ in range(3)]
        a = MonomialIdeal(R, exps)
        generic = frob_root(Ideal(R, [R.monomial(u) for u in a.gens]), q)
        assert generic.to_monomial() == mono_root(a, q)


def _antichains_in_box(size):
    def rec(x_min, y_max):
        for x in range(x_min, size):
            for y in range(y_max, -1, -1):
                yield [(x, y)]
                if y > 0:
                    for tail in rec(x + 1, y - 1):
                        yield [(x, y)] + tail

    yield from rec(0, size - 1)


@pytest.mark.parametrize("p,q", [(2, 2), (3, 3), (3, 9)])
def test_root_is_smallest_monomial_cover(p, q):
    R = ring2(p)
    for exps in [[(5, 0), (0, 5)], [(9, 2), (1, 7)], [(10, 10)], [(6, 1), (3, 3), (0, 6)]]:
        a = MonomialIdeal(R, exps)
        r = mono_root(a, q)
        box = max(e for u in exps for e in u) // q + 2
        valid = [
            c
            for chosen in _antichains_in_box(box)
            for c in [MonomialIdeal(R, chosen)]
            if mono_contains(mono_bracket(c, q), a)
        ]
        assert r in valid
        for c in valid:
            assert mono_contains(c, r)


# -- Newton polyhedron oracles ----------------------------------------------------


def test_tau_table_values():
    R = ring2(7)
    m7 = mono(R, *[f"x^{7-i}*y^{i}" if 0 < i < 7 else ("x^7" if i == 0 else "y^7") for i in range(8)])
    m = maximal(R).to_monomial()
    m2 = mono(R, "x^2", "x*y", "y^2")
    unit = MonomialIdeal(R, [(0, 0)])
    assert newton_tau(m7, Fraction(3, 7)) == m2
    assert newton_tau(m7, Fraction(1, 7)) == unit
    b = mono(R, "x^5", "y^5")
    assert newton_tau(b, Fraction(3, 5)) == m2
    assert newton_tau(b, Fraction(2, 5)) == m
    assert newton_tau(b, Fraction(1, 3)) == unit


def test_tau_at_zero_is_unit():
    R = ring2(3)
    assert newton_tau(mono(R, "x^2", "y^3"), 0) == MonomialIdeal(R, [(0, 0)])


def _tau_brute_force(a, t, box):
    # independent check over a larger box, straight from the interior test
    facets = _newton_facets(a)
    found = [
        u
        for u in itertools.product(range(box), repeat=a.ring.nvars)
        if in_newton(facets, [x + 1 for x in u], t, strict=True)
    ]
    return MonomialIdeal(a.ring, found)


@pytest.mark.parametrize(
    "exps", [["x^7", "y^7", "x^3*y^3"], ["x^5", "y^5"], ["x^2", "y^3"], ["x^4*y", "x*y^4"]]
)
def test_tau_search_bound_matches_bigger_box(exps):
    R = ring2(5)
    a = mono(R, *exps)
    rng = random.Random(5)
    for _ in range(12):
        t = Fraction(rng.randint(1, 60), rng.randint(30, 40))
        expected = _tau_brute_force(a, t, box=40)
        assert newton_tau(a, t) == expected


@given(
    exps=st.one_of(
        st.lists(st.tuples(*[st.integers(0, 6)] * 2), min_size=1, max_size=5),
        st.lists(st.tuples(*[st.integers(0, 2)] * 3), min_size=1, max_size=4),
    ),
    t=st.fractions(0, Fraction(3, 2), max_denominator=6),
)
def test_newton_tau_matches_brute_force(exps, t):
    n = len(exps[0])
    a = MonomialIdeal(PolyRing(3, ("x", "y", "z")[:n]), exps)
    # two past newton_tau's bound t * max|g| + n in every coordinate
    box = math.ceil(t * max(sum(u) for u in a.gens)) + n + 3
    assert newton_tau(a, t) == _tau_brute_force(a, t, box)


def test_fpt_examples():
    R = ring2(3)
    m7 = mono(R, "x^7", "x^6*y", "x^5*y^2", "x^4*y^3", "x^3*y^4", "x^2*y^5", "x*y^6", "y^7")
    assert newton_fpt(m7) == Fraction(2, 7)
    assert newton_fpt(mono(R, "x^5", "y^5")) == Fraction(2, 5)
    assert newton_fpt(mono(R, "x", "y")) == 2
    assert newton_fpt(mono(R, "x")) == 1
    assert newton_fpt(mono(R, "x^2", "y^3")) == Fraction(5, 6)
    with pytest.raises(PreconditionError):
        newton_fpt(MonomialIdeal(R, [(0, 0)]))


def test_fpt_diagonal_point_sits_on_boundary():
    # 1/fpt * (1,1) is in the polyhedron but not interior
    rng = random.Random(9)
    R = ring2(3)
    for _ in range(30):
        exps = [(rng.randint(0, 7), rng.randint(0, 7)) for _ in range(3)]
        a = MonomialIdeal(R, exps)
        if a.is_unit() or a.is_zero():
            continue
        lam = newton_fpt(a)
        facets = _newton_facets(a)
        s = Fraction(1) / lam
        assert in_newton(facets, (s, s), Fraction(1), strict=False)
        assert not in_newton(facets, (s, s), Fraction(1), strict=True)


def test_three_variable_paths_against_hand_formulas():
    R = PolyRing(5, ("x", "y", "z"))
    m = MonomialIdeal(R, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert newton_fpt(m) == 3
    diag = MonomialIdeal(R, [(2, 0, 0), (0, 3, 0), (0, 0, 6)])
    assert newton_fpt(diag) == 1
    # tau(m^t) = m^s with s the least integer strictly exceeding t - 3
    for t, s in [(Fraction(1, 2), 0), (Fraction(7, 2), 1), (Fraction(3), 1), (Fraction(4), 2), (Fraction(14, 3), 2)]:
        got = newton_tau(m, t)
        expect = m
        from frobpow.monomial import mono_power

        expect = mono_power(m, s) if s else MonomialIdeal(R, [(0, 0, 0)])
        assert got == expect, (t, s)
    # <x,y,z>^3..^5 and <x,y,z,w>^3: fpt(m^k) = n/k, and tau((m^k)^t) = m^s
    # with s = max(0, floor(k t - n) + 1)
    for n, k in [(3, 3), (3, 4), (3, 5), (4, 3)]:
        Rn = PolyRing(5, ("x", "y", "z", "w")[:n])
        mn = MonomialIdeal(Rn, [tuple(int(i == j) for j in range(n)) for i in range(n)])
        mk = mono_power(mn, k)
        assert newton_fpt(mk) == Fraction(n, k)
        for t in (Fraction(1, 2), Fraction(n + 1, k)):
            s = max(0, math.floor(k * t - n) + 1)
            expect = mono_power(mn, s) if s else MonomialIdeal(Rn, [(0,) * n])
            assert newton_tau(mk, t) == expect, (n, k, t)


def test_facet_enumeration_cap_fires_before_any_work(monkeypatch):
    R = PolyRing(5, ("x", "y", "z", "w", "v"))
    m6 = MonomialIdeal(R, [u for u in itertools.product(range(7), repeat=5) if sum(u) == 6])
    monkeypatch.setattr(monomial, "_null_vector", None)  # enumerating would call it
    subsets = math.comb(len(m6.gens) + 5, 5)
    for oracle in (newton_fpt, lambda a: newton_tau(a, Fraction(1, 2))):
        with pytest.raises(ResourceCapError) as exc:
            oracle(m6)
        assert "FACET_SUBSET_CAP (100000)" in str(exc.value)
        assert str(subsets) in str(exc.value)


def test_newton_tau_walk_cap_fires_before_any_work(monkeypatch):
    # <x^2, y^3> at t = 10^4 has 30003 prefixes and 3 facets; t = 200 (603
    # prefixes) answers in milliseconds: x^i y^j with 3(i + 1) + 2(j + 1) > 1200.
    R = PolyRing(3, ("x", "y"))
    a = MonomialIdeal(R, [(2, 0), (0, 3)])
    prefixes = 3 * 10**4 + 2 + 1
    price = prefixes * (prefixes + 3)
    assert price > monomial.NEWTON_WALK_CAP
    assert newton_tau(a, 200).gens == tuple((i, (1197 - 3 * i) // 2) for i in range(400))
    monkeypatch.setattr(monomial, "operator", None)  # the prefix loop reads it
    with pytest.raises(ResourceCapError) as exc:
        newton_tau(a, 10**4)
    assert f"NEWTON_WALK_CAP ({monomial.NEWTON_WALK_CAP})" in str(exc.value)
    assert str(price) in str(exc.value)


three_variable_antichains = st.lists(
    st.tuples(*[st.integers(0, 4)] * 3), min_size=1, max_size=4
)
small_fractions = st.fractions(0, 6, max_denominator=3)


@given(
    exps=three_variable_antichains,
    points=st.lists(st.tuples(*[small_fractions] * 3), max_size=4),
    t=st.fractions(Fraction(1, 3), 3, max_denominator=4),
)
def test_facet_membership_matches_fourier_motzkin(exps, points, t):
    a = MonomialIdeal(PolyRing(3, ("x", "y", "z")), exps)
    facets = _newton_facets(a)
    # the scaled generators sit on the boundary of t*N or inside it
    for w in points + [tuple(t * e for e in g) for g in a.gens]:
        for strict in (True, False):
            assert in_newton(facets, w, t, strict) == newton_member_fm(a, w, t, strict)


@given(exps=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=1, max_size=8))
def test_staircase_sweep_and_enumeration_give_the_same_facets(exps):
    a = MonomialIdeal(ring2(5), exps)
    assert set(_newton_facets(a)) == set(_enumerate_facets(a.gens, 2))


@given(
    exps=st.lists(st.tuples(*[st.integers(0, 3)] * 3), min_size=1, max_size=3),
    k=st.integers(2, 3),
    t=st.fractions(0, 1, max_denominator=4),
)
def test_newton_oracles_scale_with_ideal_powers(exps, k, t):
    a = MonomialIdeal(PolyRing(3, ("x", "y", "z")), exps)
    assume(not a.is_unit())
    ak = mono_power(a, k)
    assert newton_fpt(ak) == newton_fpt(a) / k
    assert newton_tau(ak, t) == newton_tau(a, k * t)


def test_jump_candidates_reject_the_zero_ideal():
    with pytest.raises(PreconditionError):
        newton_jump_candidates(MonomialIdeal(ring2(3), []), Fraction(2))


def test_tau_right_constant_between_jump_candidates():
    R = ring2(3)
    rng = random.Random(21)
    for exps in [["x^5", "y^5"], ["x^2", "y^3"], ["x^7", "x^3*y^3", "y^7"]]:
        a = mono(R, *exps)
        candidates = newton_jump_candidates(a, Fraction(2))
        assert candidates, "jump candidate set should not be empty"
        # descending values across candidates, constant strictly between them
        edges = [Fraction(0)] + candidates
        for lo, hi in zip(edges, edges[1:]):
            midpoint = (lo + hi) / 2
            probe = lo + (hi - lo) * Fraction(rng.randint(1, 9), 10)
            assert newton_tau(a, midpoint) == newton_tau(a, probe)
            assert mono_contains(newton_tau(a, midpoint), newton_tau(a, hi))
