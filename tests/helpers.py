"""Shared construction helpers for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

from frobpow import Ideal, PolyRing
from frobpow.arith import floor_fraction


def ring2(p, order=None):
    return PolyRing(p, ("x", "y")) if order is None else PolyRing(p, ("x", "y"), order)


def ideal(ring, *texts):
    return Ideal(ring, [ring.parse(t) for t in texts])


def maximal(ring):
    return Ideal(ring, [ring.var(name) for name in ring.variables])


def mono(ring, *texts):
    return ideal(ring, *texts).to_monomial()


def random_poly(rng: random.Random, ring, max_terms=4, max_exp=4):
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        u = tuple(rng.randint(0, max_exp) for _ in range(ring.nvars))
        terms.append((u, rng.randint(1, ring.p - 1)))
    return ring.poly(terms)


def sample_fractions(rng: random.Random, count, max_den=40):
    out = []
    while len(out) < count:
        den = rng.randint(2, max_den)
        num = rng.randint(1, den - 1)
        out.append(Fraction(num, den))
    return out


def sample_tame_fractions(rng: random.Random, p, count, max_den=30, max_order=4):
    """Fractions in (0,1) whose p-adic data keeps the power loop desk-scale."""
    from frobpow.arith import multiplicative_order

    out = []
    while len(out) < count:
        den = rng.randint(2, max_den)
        num = rng.randint(1, den - 1)
        t = Fraction(num, den)
        free = t.denominator
        while free % p == 0:
            free //= p
        if free == 1 or multiplicative_order(p, free) <= max_order:
            out.append(t)
    return out


def candidate_grid(p, lo, hi, b_max, c_max):
    """Sorted rationals k/(p^b (p^c - 1)) and k/p^b, b <= b_max, c <= c_max, in (lo, hi].

    The materialized grid the critical-exponent search once walked; kept as
    the reference for its successor function.
    """
    dens = set()
    for b in range(b_max + 1):
        dens.add(p**b)
        for c in range(1, c_max + 1):
            dens.add(p**b * (p**c - 1))
    out = set()
    for d in dens:
        for k in range(floor_fraction(lo * d) + 1, floor_fraction(hi * d) + 1):
            lam = Fraction(k, d)
            if lo < lam <= hi:
                out.add(lam)
    return sorted(out)
