"""Cross-implementation check of the Groebner engine (skipped without sympy).

Kept deliberately small: sympy's groebner is slow enough that a handful of
random ideals per prime is the right budget for a routine suite.
"""

import random

import pytest

sympy = pytest.importorskip("sympy")

from frobpow.groebner import groebner_basis
from frobpow.poly import MonomialOrder, PolyRing
from sympy.polys.orderings import ProductOrder, grevlex


def to_sympy(f, syms):
    expr = sympy.Integer(0)
    for u, c in f.terms.items():
        term = sympy.Integer(c)
        for s, e in zip(syms, u):
            term *= s**e
        expr += term
    return expr


def from_sympy(expr, ring, syms):
    poly = sympy.Poly(expr, *syms, modulus=ring.p)
    return ring.poly([(m, int(c) % ring.p) for m, c in poly.terms()])


# our order and sympy's for each order the engine runs; the block order is
# the one `eliminate` uses to drop x.  Every random ideal is checked in all
# three.
ORDERS = {
    "grevlex": (MonomialOrder.grevlex(), "grevlex"),
    "lex": (MonomialOrder.lex(), "lex"),
    "block": (
        MonomialOrder.elimination([0]),
        ProductOrder((grevlex, lambda m: m[:1]), (grevlex, lambda m: m[1:])),
    ),
}


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_reduced_bases_match_sympy(p):
    syms = sympy.symbols("x y z")
    ring = PolyRing(p, ("x", "y", "z"))
    rng = random.Random(42 * p)
    for _ in range(6):
        gens = []
        for _ in range(3):
            terms = [
                (tuple(rng.randint(0, 2) for _ in range(3)), rng.randint(1, p - 1))
                for _ in range(rng.randint(1, 3))
            ]
            gens.append(ring.poly(terms))
        if all(g.is_zero() for g in gens):
            continue
        for name, (order, sympy_order) in ORDERS.items():
            ours = sorted(str(g) for g in groebner_basis(gens, order).polys)
            theirs = sympy.groebner(
                [to_sympy(g, syms) for g in gens if not g.is_zero()],
                *syms,
                modulus=p,
                order=sympy_order,
            )
            converted = sorted(str(from_sympy(e, ring, syms)) for e in theirs.exprs)
            assert ours == converted, name
