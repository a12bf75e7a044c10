"""Rational Frobenius powers a^{[t]} and step-function scans over [0,1).

The p-rational case is a^{[k/q]} = (a^{[k]})^{[1/q]}.  General rational t
runs the stabilization loop on the p-adic data t = k/(p^b (p^c - 1)):
starting from the root of a^{[r+1]}, repeatedly take
(a^{[r]} * current)^{[1/p^c]}; the iterates ascend, so they stabilize, and
the answer is (a^{[l]} * limit)^{[1/p^b]}.  Every one of these is a single
``frob_power_int(a, k, q, seed)`` call, which takes the root digit by digit
and never builds a^{[k]}.

Only rational exponents are accepted: exposing irrational t would require an
effective right-constancy radius that is not available.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import p_adic_decompose
from .errors import PreconditionError, ResourceCapError
from .ideal import Ideal, compact, frob_power_int, ideal_contains

ITERATION_CAP = 64


def p_rational_power(a: Ideal, k: int, q: int) -> Ideal:
    """a^{[k/q]} = (a^{[k]})^{[1/q]}; independent of the representation of k/q.

    The root is taken digit by digit, so a^{[k]} is never built (see
    :func:`frobpow.ideal.frob_power_int`).
    """
    return frob_power_int(a, k, q)


def rational_power(a: Ideal, t: Fraction | int) -> Ideal:
    """The Frobenius power a^{[t]} at any nonnegative rational t.

    The zeroth power is the unit ideal even for the zero ideal (a^0 = R), so
    right constancy fails at t = 0 for the zero ideal: a^{[t]} = <0> for every
    t > 0 there.
    """
    t = Fraction(t)
    if t < 0:
        raise PreconditionError("rational_power requires t >= 0")
    if t == 0:
        return Ideal.unit(a.ring)
    if a.is_zero():
        return a
    p = a.ring.p
    dec = p_adic_decompose(t, p)
    if dec.c == 0:
        return p_rational_power(a, dec.k, p**dec.b)
    return _general_power(a, dec.b, dec.c, dec.l, dec.r)


def _general_power(a: Ideal, b: int, c: int, l: int, r: int) -> Ideal:
    """Stabilization loop for t = ((p^c - 1) l + r) / (p^b (p^c - 1)), c > 0."""
    p = a.ring.p
    qc = p**c
    if not 0 <= r < qc - 1:
        # r = p^c - 1 would break the digit-disjointness behind the recursion
        raise PreconditionError("division data out of range: need 0 <= r < p^c - 1")
    current = compact(frob_power_int(a, r + 1, qc))
    for _ in range(ITERATION_CAP):
        nxt = compact(frob_power_int(a, r, qc, current))
        if ideal_contains(current, nxt):
            break
        current = nxt
    else:
        raise ResourceCapError(
            "rational_power iteration cap exceeded; this signals a bug, not a math failure"
        )
    return frob_power_int(a, l, p**b, current)


def skoda_split(a: Ideal, t: Fraction | int) -> tuple[Ideal, Ideal]:
    """(a^{[floor t]}, a^{[frac t]}); their product is a^{[t]}."""
    t = Fraction(t)
    if t < 0:
        raise PreconditionError("skoda_split requires t >= 0")
    whole = t.numerator // t.denominator
    return frob_power_int(a, whole), rational_power(a, t - whole)


@dataclass(frozen=True)
class StepFunction:
    """Right-constant map [0,1) -> ideals: jump points plus interval values.

    values[i] is taken on [breakpoints[i-1], breakpoints[i]) with the
    conventions breakpoints[-1] = 0 and breakpoints[len] = 1; consecutive
    values differ and descend under containment.
    """

    breakpoints: tuple[Fraction, ...]
    values: tuple[Ideal, ...]
    resolution: Fraction | None = None

    def __post_init__(self):
        if len(self.values) != len(self.breakpoints) + 1:
            raise PreconditionError("need one value per interval")
        if any(not (0 < b < 1) for b in self.breakpoints):
            raise PreconditionError("breakpoints must lie in (0,1)")
        if list(self.breakpoints) != sorted(set(self.breakpoints)):
            raise PreconditionError("breakpoints must be strictly ascending")

    def value_at(self, t: Fraction | int) -> Ideal:
        t = Fraction(t)
        if not 0 <= t < 1:
            raise PreconditionError("step functions are defined on [0,1)")
        idx = 0
        for b in self.breakpoints:
            if t >= b:
                idx += 1
            else:
                break
        return self.values[idx]

    def intervals(self) -> list[tuple[Fraction, Fraction, Ideal]]:
        edges = [Fraction(0), *self.breakpoints, Fraction(1)]
        return [
            (edges[i], edges[i + 1], self.values[i]) for i in range(len(self.values))
        ]


def jumps_scan(a: Ideal, e_max: int) -> StepFunction:
    """Scan a^{[k/p^e_max]} over the grid and fold equal neighbours.

    Breakpoints are grid-resolved lower bounds for the true jumps; a finer
    grid can only refine them.  Coarse levels are computed first, and for
    monomial ideals a grid point strictly between two equal coarser values is
    skipped (monotonicity pins its value).
    """
    if e_max < 1:
        raise PreconditionError("jumps_scan requires e_max >= 1")
    p = a.ring.p
    prune = a.is_monomial
    q = p**e_max
    cache: dict[Fraction, Ideal] = {Fraction(0): Ideal.unit(a.ring)}
    for e in range(1, e_max + 1):
        qe = p**e
        for k in range(qe):
            t = Fraction(k, qe)
            if t in cache:
                continue
            if prune:
                coarse = Fraction(k // p, qe // p)
                nxt = Fraction(k // p + 1, qe // p)
                left = cache.get(coarse)
                right = cache.get(nxt) if nxt < 1 else None
                if left is not None and right is not None and left == right:
                    cache[t] = left
                    continue
            cache[t] = p_rational_power(a, k, qe)
    points = sorted(cache)
    breakpoints: list[Fraction] = []
    values: list[Ideal] = [cache[Fraction(0)]]
    for t in points[1:]:
        if cache[t] != values[-1]:
            breakpoints.append(t)
            values.append(cache[t])
    return StepFunction(
        breakpoints=tuple(breakpoints),
        values=tuple(values),
        resolution=Fraction(1, q),
    )
