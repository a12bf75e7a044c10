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

from fractions import Fraction
from typing import Callable, NamedTuple

from .arith import p_adic_decompose
from .errors import PreconditionError, ResourceCapError
from .ideal import Ideal, frob_power_int, ideal_contains

ITERATION_CAP = 64


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
        return frob_power_int(a, dec.k, p**dec.b)
    return _general_power(a, dec.b, dec.c, dec.l, dec.r)


def _general_power(a: Ideal, b: int, c: int, l: int, r: int) -> Ideal:
    """Stabilization loop for t = ((p^c - 1) l + r) / (p^b (p^c - 1)), c > 0."""
    p = a.ring.p
    qc = p**c
    if not 0 <= r < qc - 1:
        # r = p^c - 1 would break the digit-disjointness behind the recursion
        raise PreconditionError("division data out of range: need 0 <= r < p^c - 1")
    current = frob_power_int(a, r + 1, qc)
    for _ in range(ITERATION_CAP):
        nxt = frob_power_int(a, r, qc, current)
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


class StepFunction(
    NamedTuple("StepFunction", [("breakpoints", tuple), ("values", tuple), ("resolution", Fraction | None)])
):
    """Right-constant map [0,1) -> ideals: jump points plus interval values.

    values[i] is taken on [breakpoints[i-1], breakpoints[i]) with the
    conventions breakpoints[-1] = 0 and breakpoints[len] = 1; consecutive
    values differ and descend under containment.  A named tuple
    (breakpoints, values, resolution), validated when made.
    """

    __slots__ = ()

    def __new__(
        cls,
        breakpoints: tuple[Fraction, ...],
        values: tuple[Ideal, ...],
        resolution: Fraction | None = None,
    ):
        if len(values) != len(breakpoints) + 1:
            raise PreconditionError("need one value per interval")
        if any(not (0 < b < 1) for b in breakpoints):
            raise PreconditionError("breakpoints must lie in (0,1)")
        if list(breakpoints) != sorted(set(breakpoints)):
            raise PreconditionError("breakpoints must be strictly ascending")
        return super().__new__(cls, breakpoints, values, resolution)

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


def _last_true(holds: Callable[[int], bool], lo: int, hi: int) -> int:
    """The largest k with holds(k), for a predicate true up to some point
    and false beyond it, given holds(lo) and hi > lo: doubling bracket,
    then bisection.

    Frobenius powers descend as t grows, so every question "how far does
    a^{[k/q]} keep a property" has this shape: mu and jumps_scan both ask it.
    """
    while holds(hi):
        lo = hi
        hi *= 2
    # invariant: holds(lo), not holds(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return lo


def jumps_scan(a: Ideal, e_max: int) -> StepFunction:
    """The step function t -> a^{[t]} on the grid k/q, q = p^e_max.

    Powers descend as t grows, so each constant stretch is found by one
    monotone search: the next breakpoint is one past the last grid k whose
    a^{[k/q]} equals the current value.  A breakpoint b is a grid-resolved
    upper bound: the true jump lies in (b - 1/q, b].  A finer grid can only
    move a breakpoint down or split it into several.
    """
    if e_max < 1:
        raise PreconditionError("jumps_scan requires e_max >= 1")
    q = a.ring.p**e_max
    breakpoints: list[Fraction] = []
    values = [Ideal.unit(a.ring)]

    def unchanged(k: int) -> bool:
        return k < q and frob_power_int(a, k, q) == values[-1]

    k = 0
    while (k := _last_true(unchanged, k, k + 1) + 1) < q:
        breakpoints.append(Fraction(k, q))
        values.append(frob_power_int(a, k, q))
    return StepFunction(
        breakpoints=tuple(breakpoints),
        values=tuple(values),
        resolution=Fraction(1, q),
    )
