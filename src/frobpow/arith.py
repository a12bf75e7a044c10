"""Base-p integer combinatorics and the p-adic shape of rationals.

Digits are stored little-endian: digit ``i`` is the coefficient of ``p^i``,
so digit ``i`` lines up with the bracket power ``[p^i]`` used elsewhere.
Rationals are plain ``fractions.Fraction`` values (always reduced, exact);
:func:`p_adic_decompose` extracts the parameters ``t = k / (p^b (p^c - 1))``
that drive the rational-power iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import PreconditionError

# Exponents of ring variables are policy-capped at 64 bits so that runaway
# computations fail loudly instead of grinding through astronomical monomials.
MAX_EXPONENT = (1 << 63) - 1


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
    """Whether q = p^e for some e >= 0; false for every q < 1."""
    if q < 1:
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


def digits_to_int(digits: Sequence[int], p: int) -> int:
    """Inverse of :func:`base_p_digits`."""
    n = 0
    for d in reversed(digits):
        n = n * p + d
    return n


def adds_without_carrying(ks: Iterable[int], p: int) -> bool:
    """Whether the base-p additions of the given integers never carry.

    Equivalently, at every base-p position the digit sums stay below p, so
    the digits of the sum are the digit-wise sums.
    """
    ks = [int(k) for k in ks]
    if any(k < 0 for k in ks):
        raise PreconditionError("adds_without_carrying requires nonnegative entries")
    while any(ks):
        if sum(k % p for k in ks) >= p:
            return False
        ks = [k // p for k in ks]
    return True


def multinomial_nonzero_mod_p(u: Sequence[int], p: int) -> bool:
    """Whether the multinomial coefficient (|u| choose u) is nonzero mod p.

    By Dickson's criterion this holds exactly when the components of u sum
    to |u| without carrying in base p.
    """
    return adds_without_carrying(u, p)


def multinomial(u: Sequence[int]) -> int:
    """Exact multinomial coefficient (|u| choose u); the factorial oracle."""
    total = sum(u)
    out = math.factorial(total)
    for e in u:
        out //= math.factorial(e)
    return out


def multiplicative_order(p: int, d: int) -> int:
    """Least c >= 1 with p^c = 1 mod d (requires gcd(p, d) = 1, d >= 2)."""
    if d < 2 or math.gcd(p, d) != 1:
        raise PreconditionError(f"multiplicative order undefined for p={p} mod d={d}")
    acc = p % d
    c = 1
    while acc != 1:
        acc = (acc * p) % d
        c += 1
    return c


@dataclass(frozen=True)
class PadicDecomposition:
    """Parameters of t = k / (p^b (p^c - 1)); c = 0 flags a pure p-power denominator.

    When c = 0 the value is t = k / p^b and the division data l, r are unused
    (stored as 0).  Otherwise b and c are minimal, k = numerator(t) * (p^c - 1)
    / d for d the p-free part of the denominator, and k = (p^c - 1) l + r with
    0 <= r < p^c - 1.
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


def floor_fraction(x: Fraction) -> int:
    """Exact floor of a rational."""
    return x.numerator // x.denominator
