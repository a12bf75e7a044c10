import random
from itertools import product
from operator import add, le

import pytest
from hypothesis import given, strategies as st

from frobpow import groebner
from frobpow.arith import MAX_EXPONENT
from frobpow.errors import ExponentOverflowError, ResourceCapError
from frobpow.groebner import _monic, _packing, _reduce_full, groebner_basis, normal_form
from frobpow.ideal import Ideal, eliminate, ideal_contains
from frobpow.poly import MonomialOrder, PolyRing

from helpers import buchberger_reference, ideal, maximal, random_poly, reduce_full_reference, ring2

LEX = MonomialOrder.lex()
ORDERS = [MonomialOrder.grevlex(), LEX, MonomialOrder.elimination([0])]


def test_basis_of_principal_ideal():
    R = ring2(3)
    gb = groebner_basis([R.var("x")])
    assert [str(g) for g in gb.polys] == ["x"]


def test_basis_single_reduction_step():
    R = PolyRing(3, ("x", "y"), LEX)
    gb = groebner_basis([R.parse("x+y"), R.parse("y")])
    assert [str(g) for g in gb.polys] == ["y", "x"]


def test_basis_s_pair_reduces_to_zero():
    R = ring2(5)
    gb = groebner_basis([R.parse("x^2"), R.parse("x*y")])
    assert sorted(str(g) for g in gb.polys) == ["x*y", "x^2"]


def test_zero_and_unit_normalization():
    R = ring2(3)
    assert groebner_basis([R.zero()]).polys == ()
    gb = groebner_basis([R.parse("x"), R.parse("x+1")])
    assert [str(g) for g in gb.polys] == ["1"]
    assert gb.is_unit()


def test_normal_form_examples():
    R = ring2(3)
    gb = groebner_basis([R.var("x")])
    assert normal_form(R.parse("x^2"), gb).is_zero()
    gb = groebner_basis([R.parse("x^2")])
    assert normal_form(R.parse("x^2+y"), gb) == R.parse("y")
    Rlex = PolyRing(3, ("x", "y"), LEX)
    gb = groebner_basis([Rlex.parse("x+y")])
    assert normal_form(Rlex.parse("x*y"), gb) == Rlex.parse("2*y^2")


@pytest.mark.parametrize("p", [2, 3, 5])
def test_normal_form_idempotent(p):
    rng = random.Random(90 + p)
    R = ring2(p)
    for _ in range(40):
        gens = [random_poly(rng, R) for _ in range(2)]
        if all(g.is_zero() for g in gens):
            continue
        gb = groebner_basis(gens)
        f = random_poly(rng, R, max_terms=6)
        r = normal_form(f, gb)
        assert normal_form(r, gb) == r


@pytest.mark.parametrize("p", [2, 3, 5])
def test_membership_of_explicit_combinations(p):
    rng = random.Random(700 + p)
    R = ring2(p)
    for _ in range(40):
        gens = [random_poly(rng, R) for _ in range(3)]
        if all(g.is_zero() for g in gens):
            continue
        gb = groebner_basis(gens)
        witness = R.zero()
        for g in gens:
            witness = witness + random_poly(rng, R, max_terms=3) * g
        assert normal_form(witness, gb).is_zero()


@st.composite
def basis_cases(draw, max_exponent=3):
    """(ring, generators): 2 or 3 variables, p in {2, 3, 5}, each order."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.sampled_from([2, 3]))
    R = PolyRing(p, ("x", "y", "z")[:n], draw(st.sampled_from(ORDERS)))
    term = st.tuples(st.tuples(*[st.integers(0, max_exponent)] * n), st.integers(1, p - 1))
    polys = st.lists(term, min_size=1, max_size=3).map(R.poly)
    return R, draw(st.lists(polys, min_size=1, max_size=3))


@given(case=basis_cases())
def test_basis_carries_its_leads_in_ascending_order(case):
    R, gens = case
    gb = groebner_basis(gens)
    key = R.sort_key()
    leads = [lm for lm, _ in gb.reducers]
    assert leads == [g.leading_exponent(key) for g in gb.polys]
    assert all(g.terms[lm] == 1 for lm, g in zip(leads, gb.polys))
    assert all(key(a) < key(b) for a, b in zip(leads, leads[1:]))
    for i, a in enumerate(leads):
        for j, b in enumerate(leads):
            assert i == j or not all(x <= y for x, y in zip(a, b))
    assert Ideal(R, gens).canonical_generators() == list(reversed(gb.polys))


@given(case=basis_cases(), data=st.data())
def test_heap_division_matches_the_rescanning_reference(case, data):
    """The engine's remainders equal the max-scan division's, both by a
    reduced basis and by the generators themselves (not a basis, so which
    reducer divides first matters)."""
    R, gens = case
    key, packing = R.sort_key(), _packing(R.order, R.nvars)
    p = R.p
    raw = sorted(
        (_monic(packing.pack_terms(g.terms), p) for g in gens if not g.is_zero()),
        key=lambda r: r[0],
    )
    term = st.tuples(st.tuples(*[st.integers(0, 5)] * R.nvars), st.integers(1, p - 1))
    basis = [(packing.pack(lm), packing.pack_terms(g)) for lm, g in groebner_basis(gens).reducers]
    for packed in (basis, raw):
        reducers = [(packing.unpack(lm), packing.unpack_terms(g)) for lm, g in packed]
        f = data.draw(st.lists(term, max_size=6).map(R.poly)).terms
        remainder = _reduce_full(packing.pack_terms(f), packed, p, packing.guard)
        assert packing.unpack_terms(remainder) == reduce_full_reference(f, reducers, p, key)


# The reference reduces every pair by rescanning division, so cases stay at
# exponent 2: at 3, one block-order case took it 19 s (2,025 reductions).
@given(case=basis_cases(max_exponent=2))
def test_basis_matches_the_reference_buchberger(case):
    R, gens = case
    expect = buchberger_reference([g.terms for g in gens], R.p, R.sort_key())
    assert list(groebner_basis(gens).reducers) == expect


@given(data=st.data())
def test_packed_monomials_follow_the_order(data):
    n = data.draw(st.integers(1, 4))
    order = data.draw(st.sampled_from(
        ORDERS + [MonomialOrder.elimination([n - 1]), MonomialOrder.elimination(range(n))]
    ))
    exponent = st.integers(0, 3) | st.integers(0, MAX_EXPONENT)
    u, w = data.draw(st.tuples(*[st.tuples(*[exponent] * n)] * 2))
    key, packing = order.sort_key(), _packing(order, n)
    pu, pw = packing.pack(u), packing.pack(w)
    assert (pu < pw) == (key(u) < key(w))
    assert (pu == pw) == (u == w)
    assert packing.unpack(pu) == u
    assert (not (pw - pu) & packing.guard) == all(map(le, u, w))
    # a sum packs additively while it fits; past MAX_EXPONENT the guard shows
    total = tuple(map(add, u, w))
    if max(total) <= MAX_EXPONENT:
        assert pu + pw == packing.pack(total) and not (pu + pw) & packing.guard
    else:
        assert (pu + pw) & packing.guard


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_packing_orders_the_extreme_monomials(n):
    # a weight row sums up to n maximal exponents and must not carry into
    # the row above it
    corners = list(product((0, 1, MAX_EXPONENT - 1, MAX_EXPONENT), repeat=n))
    for order in ORDERS + [MonomialOrder.elimination([n - 1])]:
        key, packing = order.sort_key(), _packing(order, n)
        assert sorted(corners, key=packing.pack) == sorted(corners, key=key)


def test_basis_refuses_an_exponent_past_the_bound():
    # under lex the S-polynomial of x + 4*y^MAX and x*y + 4 is 4*y^(MAX+1) - 4
    R = PolyRing(5, ("x", "y"), LEX)
    f = R.poly([((1, 0), 1), ((0, MAX_EXPONENT), 4)])
    with pytest.raises(ExponentOverflowError):
        groebner_basis([f, R.parse("x*y + 4")])
    # and dividing x*y by x + 4*y^MAX would leave y^(MAX+1)
    with pytest.raises(ExponentOverflowError):
        normal_form(R.parse("x*y"), groebner_basis([f]))


def test_s_pair_cap_stops_a_long_run(monkeypatch):
    # pool ideal 29 of the benchmark's gb corpus reduces 41 S-polynomials
    R = PolyRing(3, ("x", "y", "z"))
    gens = ["x^2*y^2*z + x^2*y*z^2 + 2*y", "2*x*y*z^3 + x^2 + z", "x^4*z + x + 2*x*z"]
    a = ideal(R, *gens)
    monkeypatch.setattr(groebner, "S_PAIR_CAP", 40)
    with pytest.raises(ResourceCapError, match=r"S_PAIR_CAP \(40\).*reached 41"):
        groebner_basis(a.gens)
    with pytest.raises(ResourceCapError, match="S_PAIR_CAP"):
        a.is_unit()
    monkeypatch.setattr(groebner, "S_PAIR_CAP", 41)
    assert len(groebner_basis(a.gens).polys) == 13


@given(
    order=st.sampled_from(ORDERS),
    pair=st.integers(1, 4).flatmap(lambda n: st.tuples(*[st.tuples(*[st.integers(0, 4)] * n)] * 2)),
)
def test_descending_key_reverses_the_sort_key(order, pair):
    u, v = pair
    key, desc = order.sort_key(), order.descending_key()
    assert (desc(u) < desc(v)) == (key(u) > key(v))
    assert (desc(u) == desc(v)) == (u == v)


def test_determinism_and_input_order_independence():
    R = ring2(5)
    gens = [R.parse("x^2+y"), R.parse("x*y+3"), R.parse("y^3+x")]
    first = groebner_basis(gens)
    second = groebner_basis(gens)
    assert first.polys == second.polys
    shuffled = groebner_basis(list(reversed(gens)))
    assert shuffled.polys == first.polys


def test_containment_examples():
    R = ring2(3)
    m = maximal(R)
    assert ideal_contains(m, ideal(R, "x"))
    assert not ideal_contains(ideal(R, "x"), ideal(R, "x+y"))
    cube = ideal(R, "x^3", "y^3")
    from frobpow.ideal import ideal_power

    assert ideal_contains(cube, ideal_power(m, 5))


def test_eliminate_examples():
    R = PolyRing(3, ("x", "y", "z"))
    a = Ideal(R, [R.var("x"), R.var("y")])
    down = eliminate(a, ["z"])
    assert down.ring.variables == ("x", "y")
    assert down == maximal(down.ring)

    b = Ideal(R, [R.parse("z*x"), R.parse("z-1")])
    down = eliminate(b, ["z"])
    assert down == Ideal(down.ring, [down.ring.var("x")])

    c = Ideal(R, [R.parse("z-x^2")])
    assert eliminate(c, ["z"]).is_zero()


def test_eliminate_middle_variable():
    R = PolyRing(5, ("x", "z", "y"))
    a = Ideal(R, [R.parse("z*x - 1"), R.parse("z - y")])
    down = eliminate(a, ["z"])
    expect = Ideal(down.ring, [down.ring.parse("x*y-1")])
    assert down == expect


@pytest.mark.parametrize("p", [2, 5])
def test_extension_contraction_round_trip(p):
    rng = random.Random(40 + p)
    R = ring2(p)
    S = R.extend(["z1", "z2"])
    for _ in range(12):
        gens = [random_poly(rng, R) for _ in range(2)]
        b = Ideal(R, gens)
        extended = Ideal(S, [g.remap(S) for g in gens])
        down = eliminate(extended, ["z1", "z2"])
        assert Ideal(R, [g.remap(R) for g in down.gens]) == b


def test_ideal_equality_via_reduced_bases():
    R = ring2(5)
    a = ideal(R, "x+y", "y")
    b = ideal(R, "x", "y", "x+2*y")
    assert a == b
    assert hash(a) == hash(b)
    assert a != ideal(R, "x")
