"""Shared construction helpers for the test suite."""

from __future__ import annotations

import itertools
import math
import operator
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from frobpow import Ideal, PolyRing, ResourceCapError, frob_power_int
from frobpow.arith import COMPOSITION_CAP


SRC = Path(__file__).resolve().parent.parent / "src"


def modules_after(code):
    """The modules a fresh interpreter (no site hooks) holds after running code."""
    done = subprocess.run(
        [sys.executable, "-S", "-c", f"{code}\nimport sys\nprint(*sys.modules)"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=60,
        check=True,
    )
    return set(done.stdout.splitlines()[-1].split())


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
        for k in range(math.floor(lo * d) + 1, math.floor(hi * d) + 1):
            lam = Fraction(k, d)
            if lo < lam <= hi:
                out.add(lam)
    return sorted(out)


def violates_forbidden_interval(lam, p, e_cap):
    """Whether lam lies in a forbidden interval: some q = p^e with
    1 <= e <= e_cap and integer k with k/q < lam < k/(q - 1).

    Written from the definition, as the reference for the integer steps of
    the critical-exponent search.  k/q < lam < k/(q - 1) says that k lies
    strictly between lam (q - 1) and lam q, so only the largest integer
    below lam q can do.
    """
    for e in range(1, e_cap + 1):
        q = p**e
        k = math.ceil(lam * q) - 1
        if Fraction(k, q) < lam < Fraction(k, q - 1):
            return True
    return False


def adds_without_carrying(ks, p):
    """Whether the base-p additions of the integers never carry: at every
    base-p position their digits sum below p."""
    ks = list(ks)
    while any(ks):
        if sum(k % p for k in ks) >= p:
            return False
        ks = [k // p for k in ks]
    return True


def multinomial(u):
    """Exact multinomial coefficient (|u| choose u), from factorials."""
    out = math.factorial(sum(u))
    for e in u:
        out //= math.factorial(e)
    return out


def multinomial_nonzero_mod_p(u, p):
    """Whether (|u| choose u) is nonzero mod p, by Lucas's theorem: mod p it
    is the product over the base-p positions of the multinomial coefficient
    of the digits of u there, a factor that is 0 when those digits do not
    sum to the digit of |u|."""
    n, u, product = sum(u), list(u), 1
    while n:
        n, top = divmod(n, p)
        digits = [e % p for e in u]
        u = [e // p for e in u]
        product = product * (multinomial(digits) if sum(digits) == top else 0) % p
    return product != 0


def frob_power_int_gens(a, k):
    """a^{[k]} from the generator formula: the products of the f_i^{u_i} over
    the exponent tuples u with |u| = k whose multinomial coefficient is
    nonzero mod p.  Each tuple's product is built on its own.  Refuses past
    COMPOSITION_CAP tuples, as ideal_power does.  The oracle for the digit
    products of frob_power_int."""
    if k == 0:
        return Ideal.unit(a.ring)
    gens, one = a.gens, a.ring.one()
    count = math.comb(k + len(gens) - 1, len(gens) - 1)
    if count > COMPOSITION_CAP:
        raise ResourceCapError(f"{count} exponent tuples exceed COMPOSITION_CAP ({COMPOSITION_CAP})")
    products = []
    for picks in itertools.combinations_with_replacement(range(len(gens)), k):
        u = [picks.count(i) for i in range(len(gens))]
        if multinomial_nonzero_mod_p(u, a.ring.p):
            products.append(math.prod((f**e for f, e in zip(gens, u)), start=one))
    return Ideal(a.ring, products)


def jumps_reference(a, e_max):
    """(breakpoints, values) of t -> a^{[t]} on the grid k/p^e_max, from the
    power at every grid point with equal neighbours folded.

    jumps_scan once walked the grid this way; kept as the reference for its
    monotone search.
    """
    q = a.ring.p**e_max
    breakpoints, values = [], [Ideal.unit(a.ring)]
    for k in range(1, q):
        value = frob_power_int(a, k, q)
        if value != values[-1]:
            breakpoints.append(Fraction(k, q))
            values.append(value)
    return tuple(breakpoints), tuple(values)


def fourier_motzkin_feasible(constraints, nvars):
    """Strict/loose feasibility of sum_i coeffs[i] x_i >= rhs (strict: >).

    Eliminates variables one at a time.  The Newton oracles once decided
    membership this way; kept as the reference for their facet list.
    """
    system = constraints
    for var in range(nvars):
        upper, lower, rest = [], [], []
        for coeffs, rhs, strict in system:
            c = coeffs[var]
            if c > 0:
                lower.append((coeffs, rhs, strict))
            elif c < 0:
                upper.append((coeffs, rhs, strict))
            else:
                rest.append((coeffs, rhs, strict))
        new_system = rest
        for lc, lr, ls in lower:
            for uc, ur, us in upper:
                scale_l, scale_u = -uc[var], lc[var]
                coeffs = [scale_l * lc[i] + scale_u * uc[i] for i in range(len(lc))]
                new_system.append((coeffs, scale_l * lr + scale_u * ur, ls or us))
        system = new_system
    zero = Fraction(0)
    return all(zero > rhs if strict else zero >= rhs for _, rhs, strict in system)


def in_newton(facets, w, t, strict):
    """Whether w lies in t*N (in its interior when strict), N described by
    its facets (alpha, c), alpha . w >= c; the definition newton_tau's
    closed form and newton_fpt are checked against."""
    num, den = t.numerator, t.denominator
    if strict:
        return all(
            den * sum(map(operator.mul, alpha, w)) > num * c for alpha, c in facets
        )
    return all(den * sum(map(operator.mul, alpha, w)) >= num * c for alpha, c in facets)


def reduce_full_reference(f, reducers, p, key):
    """Full normal form of the term dict f by monic (lead, terms) reducers,
    ``key`` the order's ascending sort key.

    Each step rescans the work dict for its largest term and divides it by
    the first reducer whose lead divides it.  The Groebner engine once
    reduced this way; kept as the reference for its heap division.
    """
    result = {}
    work = dict(f)
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        hit = None
        for lm, g in reducers:
            if all(a <= b for a, b in zip(lm, m)):
                hit = (lm, g)
                break
        if hit is None:
            result[m] = c
            continue
        lm, g = hit
        shift = tuple(b - a for a, b in zip(lm, m))
        for gm, gc in g.items():
            if gm == lm:
                continue
            nm = tuple(a + b for a, b in zip(gm, shift))
            nc = (work.get(nm, 0) - c * gc) % p
            if nc:
                work[nm] = nc
            elif nm in work:
                del work[nm]
    return result


def buchberger_reference(gens, p, key):
    """Reduced Groebner basis of the term dicts gens, ``key`` the order's
    ascending sort key, as monic (lead, terms) sorted by ascending lead.

    Every pair is reduced by reduce_full_reference, with no criterion to skip
    any; then each element whose lead another lead divides is dropped (of
    equal leads the first stays), and each one left is reduced by the rest.
    The Groebner engine's reference for its packed division and pair update.
    """

    def monic(f):
        lead = max(f, key=key)
        inv = pow(f[lead], -1, p)
        return lead, {m: c * inv % p for m, c in f.items()}

    basis = [monic(f) for f in gens if f]
    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    while pairs:
        # the pair of least lcm next (the normal strategy)
        lcm, i, j = min(
            ((tuple(map(max, basis[i][0], basis[j][0])), i, j) for i, j in pairs),
            key=lambda e: key(e[0]),
        )
        pairs.remove((i, j))
        s = {}
        for (lead, f), sign in ((basis[i], 1), (basis[j], -1)):
            shift = tuple(map(operator.sub, lcm, lead))
            for m, c in f.items():
                nm = tuple(map(operator.add, m, shift))
                s[nm] = (s.get(nm, 0) + sign * c) % p
        r = reduce_full_reference({m: c for m, c in s.items() if c}, basis, p, key)
        if r:
            pairs += [(k, len(basis)) for k in range(len(basis))]
            basis.append(monic(r))
    minimal = [
        (lead, f)
        for k, (lead, f) in enumerate(basis)
        if not any(
            all(map(operator.le, other, lead)) and (other != lead or h < k)
            for h, (other, _) in enumerate(basis)
            if h != k
        )
    ]
    reduced = [
        (lead, reduce_full_reference(f, [r for r in minimal if r[0] != lead], p, key))
        for lead, f in minimal
    ]
    return sorted(reduced, key=lambda r: key(r[0]))


def newton_member_fm(a, w, scale, strict):
    """w/scale in the Newton polyhedron of a (interior when strict).

    Feasibility of: lambda >= 0, sum lambda = 1, sum lambda_j g_j <= w/scale
    (strict <), by Fourier-Motzkin elimination.
    """
    m = len(a.gens)
    constraints = []
    for j in range(m):
        unit = [Fraction(0)] * m
        unit[j] = Fraction(1)
        constraints.append((unit, Fraction(0), False))
    ones = [Fraction(1)] * m
    constraints.append((ones, Fraction(1), False))
    constraints.append(([-c for c in ones], Fraction(-1), False))
    for i in range(a.ring.nvars):
        coeffs = [-scale * Fraction(a.gens[j][i]) for j in range(m)]
        constraints.append((coeffs, -Fraction(w[i]), strict))
    return fourier_motzkin_feasible(constraints, m)
