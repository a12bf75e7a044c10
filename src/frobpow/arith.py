"""Base-p integer combinatorics and the p-adic shape of rationals.

Digits are stored little-endian: digit ``i`` is the coefficient of ``p^i``,
so digit ``i`` lines up with the bracket power ``[p^i]`` used elsewhere.
Rationals are plain ``fractions.Fraction`` values (always reduced, exact);
:func:`p_adic_decompose` extracts the parameters ``t = k / (p^b (p^c - 1))``
that drive the rational-power iteration.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import PreconditionError, ResourceCapError

# Exponents of ring variables are policy-capped at 64 bits so that runaway
# computations fail loudly instead of grinding through astronomical monomials.
MAX_EXPONENT = (1 << 63) - 1
# Products one call may form: the products of generator powers behind an
# ideal power, and the generator pairs of a monomial product.  10^6 pairs
# with distinct sums took 2.0 s in two variables and 3.8 s in three, where
# minimalize refused them (Python 3.11, one Xeon core).
COMPOSITION_CAP = 10**6
# A rational power with period c = ord_d(p) runs Horner steps over the c
# base-p digits of integers near p^c, so its time grows like c^2: <x,y>^5 at
# p = 3 took 0.36, 1.07, 3.2-3.5, 6.0-6.5 and 19.5 s at c = 10038, 20020,
# 40012, 59008 and 100002 (Python 3.11, one Xeon core).  The cap stops such
# a call below 10 s, as NEWTON_WALK_CAP does the Newton walk.
PERIOD_CAP = 6 * 10**4


def is_prime(n: int) -> bool:
    """Deterministic primality test, adequate for moduli below 2^31."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def is_power_of(q: int, p: int) -> bool:
    """Whether q = p^e for some e >= 0; false for every q < 1 and every q
    that is not an int."""
    if type(q) is not int or q < 1:
        return False
    while q % p == 0:
        q //= p
    return q == 1


def base_p_digits(n: int, p: int) -> tuple[int, ...]:
    """Little-endian base-p digits of n >= 0; the empty tuple represents 0."""
    if n < 0:
        raise PreconditionError("base_p_digits requires n >= 0")
    digits = []
    while n:
        n, d = divmod(n, p)
        digits.append(d)
    return tuple(digits)


def multiplicative_order(p: int, d: int) -> int:
    """Least c >= 1 with p^c = 1 mod d (requires gcd(p, d) = 1, d >= 2).

    Raises ResourceCapError once c passes PERIOD_CAP.
    """
    if d < 2 or math.gcd(p, d) != 1:
        raise PreconditionError(f"multiplicative order undefined for p={p} mod d={d}")
    acc = p % d
    c = 1
    while acc != 1:
        if c == PERIOD_CAP:
            raise ResourceCapError(
                f"the period of p={p} mod d={d} exceeds PERIOD_CAP "
                f"({PERIOD_CAP}): p^c != 1 mod d for every c up to {c}"
            )
        acc = (acc * p) % d
        c += 1
    return c


class PadicDecomposition(NamedTuple):
    """Parameters of t = k / (p^b (p^c - 1)); c = 0 flags a pure p-power denominator.

    When c = 0 the value is t = k / p^b and the division data l, r are unused
    (stored as 0).  Otherwise b and c are minimal, k = numerator(t) * (p^c - 1)
    / d for d the p-free part of the denominator, and k = (p^c - 1) l + r with
    0 <= r < p^c - 1.  A named tuple: it unpacks as (b, c, k, l, r).
    """

    b: int
    c: int
    k: int
    l: int
    r: int

    def reassemble(self, p: int) -> Fraction:
        if self.c == 0:
            return Fraction(self.k, p**self.b)
        return Fraction(self.k, p**self.b * (p**self.c - 1))


def p_adic_decompose(t: Fraction | int, p: int) -> PadicDecomposition:
    """Decompose a nonnegative rational as t = k / (p^b (p^c - 1)).

    b is the p-adic valuation of the denominator and c the multiplicative
    order of p modulo the p-free part of the denominator; both are minimal.
    A pure p-power denominator is signalled by the sentinel c = 0.
    """
    t = Fraction(t)
    if t < 0:
        raise PreconditionError("p_adic_decompose requires t >= 0")
    den = t.denominator
    b = 0
    while den % p == 0:
        den //= p
        b += 1
    if den == 1:
        return PadicDecomposition(b=b, c=0, k=t.numerator, l=0, r=0)
    c = multiplicative_order(p, den)
    k = t.numerator * ((p**c - 1) // den)
    l, r = divmod(k, p**c - 1)
    return PadicDecomposition(b=b, c=c, k=k, l=l, r=r)


def ceil_fraction(x: Fraction) -> int:
    """Exact ceiling of a rational."""
    return -((-x.numerator) // x.denominator)
