import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from frobpow.cli import _ideal_result
from frobpow.errors import PreconditionError
from frobpow.groebner import groebner_basis, normal_form
from frobpow.ideal import Ideal, frob_root
from frobpow.monomial import (
    MonomialIdeal,
    minimalize,
    mono_bracket,
    mono_contains,
    mono_member,
    mono_root,
    newton_fpt,
    newton_jump_candidates,
    newton_tau,
)
from frobpow.poly import MonomialOrder, PolyRing

from helpers import maximal, mono, ring2


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
    from frobpow.monomial import _newton_polygon

    polygon = _newton_polygon(a)
    found = []
    for u in itertools.product(range(box), repeat=2):
        w = [Fraction(u[0] + 1), Fraction(u[1] + 1)]
        if polygon.member(w, t, strict=True):
            found.append(u)
    return MonomialIdeal(a.ring, minimalize(found)) if found else MonomialIdeal(a.ring, [])


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
    from frobpow.monomial import _newton_polygon

    rng = random.Random(9)
    R = ring2(3)
    for _ in range(30):
        exps = [(rng.randint(0, 7), rng.randint(0, 7)) for _ in range(3)]
        a = MonomialIdeal(R, exps)
        if a.is_unit() or a.is_zero():
            continue
        lam = newton_fpt(a)
        polygon = _newton_polygon(a)
        s = Fraction(1) / lam
        assert polygon.member((s, s), Fraction(1), strict=False)
        assert not polygon.member((s, s), Fraction(1), strict=True)


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
