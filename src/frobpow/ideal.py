"""Ideal algebra: bracket powers, integral Frobenius powers, Frobenius roots.

An :class:`Ideal` stores a generator list (possibly redundant) plus a cache
of reduced Groebner bases keyed by monomial order.  Every operation is
invariant under replacing the generators by another generating set of the
same ideal.  Equality is mathematical: reduced bases are canonical forms.

This module is the single dispatch point between the two representations.
A monomial ideal built by :meth:`Ideal.from_monomial` is a view over an
antichain of :mod:`frobpow.monomial`: it stores no polynomials until
``gens`` is read, and every operation below hands monomial inputs to the
antichain kernel, which is what keeps large-characteristic computations
fast.  Principal ideals use the identity <f>^{[k]} = <f^k>.
"""

from __future__ import annotations

import math
from typing import Iterable

from .arith import base_p_digits, is_power_of, multinomial_nonzero_mod_p
from .errors import PreconditionError, ResourceCapError
from .groebner import GroebnerBasis, groebner_basis
from .monomial import (
    MonomialIdeal,
    mono_bracket,
    mono_contains,
    mono_frob_power_int,
    mono_power,
    mono_product,
    mono_root,
    mono_sum,
)
from .poly import MonomialOrder, Polynomial, PolyRing

COMPOSITION_CAP = 10**6
COMPACT_THRESHOLD = 48


class Ideal:
    """Finitely generated ideal of a polynomial ring over Z/p.

    Generators are stored monic, deduplicated and canonically sorted; the
    zero ideal has an empty generator list.  A monomial view keeps only its
    antichain and builds ``gens`` from it on first access.
    """

    __slots__ = ("ring", "_gens", "_cache", "_mono")

    def __init__(self, ring: PolyRing, gens: Iterable[Polynomial]):
        key = ring.sort_key()
        cleaned: dict = {}
        for g in gens:
            if g.ring != ring:
                raise PreconditionError("generator lives in a different ring")
            if g.is_zero():
                continue
            g = g.monic()
            cleaned[frozenset(g.terms.items())] = g
        self.ring = ring
        self._gens = tuple(
            sorted(
                cleaned.values(),
                key=lambda g: (key(g.leading_exponent(key)), sorted(g.terms.items())),
                reverse=True,
            )
        )
        self._cache: dict[MonomialOrder, GroebnerBasis] = {}
        self._mono: MonomialIdeal | None = None

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def from_monomial(mi: MonomialIdeal) -> "Ideal":
        """Zero-copy view of an antichain (already minimal, sorted by ring order)."""
        ideal = object.__new__(Ideal)
        ideal.ring = mi.ring
        ideal._gens = None
        ideal._cache = {}
        ideal._mono = mi
        return ideal

    @staticmethod
    def unit(ring: PolyRing) -> "Ideal":
        return Ideal.from_monomial(MonomialIdeal._build(ring, [(0,) * ring.nvars]))

    @staticmethod
    def zero(ring: PolyRing) -> "Ideal":
        return Ideal.from_monomial(MonomialIdeal._build(ring, ()))

    # -- structure ------------------------------------------------------------

    @property
    def gens(self) -> tuple[Polynomial, ...]:
        if self._gens is None:
            self._gens = tuple(
                Polynomial(self.ring, {u: 1}, _canonical=True) for u in self._mono.gens
            )
        return self._gens

    def is_zero(self) -> bool:
        if self._mono is not None:
            return self._mono.is_zero()
        return not self._gens

    @property
    def is_monomial(self) -> bool:
        return self._mono is not None or all(g.is_term() for g in self._gens)

    def to_monomial(self) -> MonomialIdeal:
        if self._mono is None:
            if not self.is_monomial:
                raise PreconditionError("not a monomial ideal")
            self._mono = MonomialIdeal(
                self.ring, [g.leading_exponent() for g in self._gens]
            )
        return self._mono

    def is_unit(self) -> bool:
        if self.is_monomial:
            return self.to_monomial().is_unit()
        if any(g.is_constant() for g in self._gens):
            return True
        return self.reduced_basis().is_unit()

    def is_proper(self) -> bool:
        return not self.is_unit()

    def reduced_basis(self, order: MonomialOrder | None = None) -> GroebnerBasis:
        order = order or self.ring.order
        gb = self._cache.get(order)
        if gb is None:
            gens = list(self.gens) or [self.ring.zero()]
            gb = groebner_basis(gens, order)
            self._cache[order] = gb
        return gb

    def canonical_generators(self) -> list[Polynomial]:
        """Reduced basis for general ideals, minimal generators for monomial ones."""
        if self.is_monomial:
            return self.to_monomial().polynomials()
        key = self.ring.sort_key()
        return sorted(
            self.reduced_basis().polys,
            key=lambda g: key(g.leading_exponent(key)),
            reverse=True,
        )

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        if self.ring != other.ring:
            return False
        if self.is_monomial and other.is_monomial:
            return self.to_monomial() == other.to_monomial()
        if self.gens == other.gens:
            return True
        return self.reduced_basis().polys == other.reduced_basis().polys

    def __hash__(self):
        if self.is_monomial:
            return hash(self.to_monomial())
        return hash(self.reduced_basis().polys)

    def __repr__(self):
        inside = ", ".join(str(g) for g in self.gens) if self.gens else "0"
        return f"Ideal<{inside}>"


# -- basic algebra --------------------------------------------------------------


def ideal_sum(a: Ideal, b: Ideal) -> Ideal:
    _same_ring(a, b)
    if a.is_monomial and b.is_monomial:
        return Ideal.from_monomial(mono_sum(a.to_monomial(), b.to_monomial()))
    return Ideal(a.ring, a.gens + b.gens)


def ideal_product(a: Ideal, b: Ideal) -> Ideal:
    _same_ring(a, b)
    if a.is_zero() or b.is_zero():
        return Ideal.zero(a.ring)
    if a.is_monomial and b.is_monomial:
        return Ideal.from_monomial(mono_product(a.to_monomial(), b.to_monomial()))
    return Ideal(a.ring, [f * g for f in a.gens for g in b.gens])


def ideal_power(a: Ideal, k: int) -> Ideal:
    if k < 0:
        raise PreconditionError("negative ideal power")
    if k == 0:
        return Ideal.unit(a.ring)
    if a.is_monomial:
        return Ideal.from_monomial(mono_power(a.to_monomial(), k))
    if len(a.gens) == 1:
        return Ideal(a.ring, [a.gens[0] ** k])
    result = a
    for _ in range(k - 1):
        result = compact(ideal_product(result, a))
    return result


def bracket_power(a: Ideal, q: int) -> Ideal:
    """Ideal generated by q-th powers of the generators, q a power of p."""
    _check_q(a.ring, q)
    if a.is_monomial:
        return Ideal.from_monomial(mono_bracket(a.to_monomial(), q))
    return Ideal(a.ring, [g.frobenius(q) for g in a.gens])


def prune_generators(a: Ideal) -> Ideal:
    """Drop generators lying inside the monomial part of the other generators.

    A generator all of whose terms are divisible by some single-term
    generator is redundant; single-term generators are minimalized among
    themselves.  Cheap, and usually enough to keep digit products small
    without a basis computation.
    """
    from .monomial import minimalize

    monos = minimalize(
        g.leading_exponent() for g in a.gens if g.is_term()
    )
    kept: list[Polynomial] = []
    for g in a.gens:
        if g.is_term():
            if g.leading_exponent() in monos:
                kept.append(g)
            continue
        redundant = all(
            any(all(x <= y for x, y in zip(v, u)) for v in monos) for u in g.terms
        )
        if not redundant:
            kept.append(g)
    if len(kept) == len(a.gens):
        return a
    return Ideal(a.ring, kept)


def compact(a: Ideal) -> Ideal:
    """The same ideal with a smaller generator list when the list has bloated.

    Generator lists explode combinatorially under products; past
    COMPACT_THRESHOLD generators the cheap monomial-part pruning runs, and
    past four times that the reduced basis replaces the list.  Monomial
    ideals are already minimal.
    """
    if a.is_monomial:
        return a
    if len(a.gens) > COMPACT_THRESHOLD:
        a = prune_generators(a)
    if len(a.gens) > 4 * COMPACT_THRESHOLD:
        a = Ideal(a.ring, a.reduced_basis().polys)
    return a


def frob_power_int(a: Ideal, k: int) -> Ideal:
    """Integral Frobenius power via the base-p digits of k."""
    if k < 0:
        raise PreconditionError("negative Frobenius power")
    if k == 0:
        return Ideal.unit(a.ring)
    if a.is_zero():
        return a
    p = a.ring.p
    if a.is_monomial:
        return Ideal.from_monomial(mono_frob_power_int(a.to_monomial(), k))
    if len(a.gens) == 1:
        # Principal ideals: Frobenius powers are plain powers.
        return Ideal(a.ring, [a.gens[0] ** k])
    result = Ideal.unit(a.ring)
    for i, d in enumerate(base_p_digits(k, p)):
        if d:
            result = compact(
                ideal_product(result, bracket_power(ideal_power(a, d), p**i))
            )
    return result


def frob_power_int_gens(a: Ideal, k: int, cap: int = COMPOSITION_CAP) -> Ideal:
    """Integral Frobenius power from the multinomial generator formula.

    Generated by products f^u over exponent tuples u of total degree k whose
    multinomial coefficient survives mod p.  Enumerates all compositions of k,
    so it is the independent oracle, not the production path.
    """
    if k < 0:
        raise PreconditionError("negative Frobenius power")
    if k == 0:
        return Ideal.unit(a.ring)
    if a.is_zero():
        return a
    m = len(a.gens)
    if math.comb(k + m - 1, m - 1) > cap:
        raise ResourceCapError(
            f"composition enumeration exceeds cap ({cap}) for k={k}, m={m}"
        )
    p = a.ring.p
    gens: list[Polynomial] = []
    for u in _compositions(k, m):
        if multinomial_nonzero_mod_p(u, p):
            prod = a.ring.one()
            for f, e in zip(a.gens, u):
                if e:
                    prod = prod * f**e
            gens.append(prod)
    return Ideal(a.ring, gens)


def _compositions(k: int, m: int):
    if m == 1:
        yield (k,)
        return
    for head in range(k + 1):
        for tail in _compositions(k - head, m - 1):
            yield (head,) + tail


def frob_root(a: Ideal, q: int) -> Ideal:
    """Frobenius root: the smallest ideal c with a contained in c^{[q]}.

    Splits each generator along exponent residue classes mod q; the class
    part x^u factors out of (g_u)^q x^u and the quotient exponents drop by a
    factor of q.  Coefficients are already q-th roots over Z/p.
    """
    _check_q(a.ring, q)
    if q == 1 or a.is_zero():
        return a
    if a.is_monomial:
        return Ideal.from_monomial(mono_root(a.to_monomial(), q))
    return _root_split(a.ring, a.gens, q)


def frob_root_product(a: Ideal, b: Ideal, q: int) -> Ideal:
    """(a b)^{[1/q]} = frob_root(ideal_product(a, b), q), without the product.

    Each product f g of generators goes through the residue-class split as
    soon as it is formed, so only the (smaller) root generators are kept.
    """
    _same_ring(a, b)
    _check_q(a.ring, q)
    if a.is_zero() or b.is_zero():
        return Ideal.zero(a.ring)
    if a.is_monomial and b.is_monomial:
        return Ideal.from_monomial(
            mono_root(mono_product(a.to_monomial(), b.to_monomial()), q)
        )
    return _root_split(a.ring, (f * g for f in a.gens for g in b.gens), q)


def _root_split(ring: PolyRing, polys: Iterable[Polynomial], q: int) -> Ideal:
    def parts():
        for g in polys:
            classes: dict[tuple[int, ...], dict] = {}
            for u, c in g.terms.items():
                res = tuple(e % q for e in u)
                classes.setdefault(res, {})[tuple(e // q for e in u)] = c
            for part in classes.values():
                yield Polynomial(ring, part, _canonical=True)

    return Ideal(ring, parts())


# -- decision procedures ---------------------------------------------------------


def ideal_contains(a: Ideal, b: Ideal) -> bool:
    """Whether a contains b: every generator of b reduces to zero mod a."""
    _same_ring(a, b)
    if b.is_zero():
        return True
    if a.is_zero():
        return False
    if a.is_monomial and b.is_monomial:
        return mono_contains(a.to_monomial(), b.to_monomial())
    gb = a.reduced_basis()
    return all(gb.reduces_to_zero(g) for g in b.gens)


def ideal_equal(a: Ideal, b: Ideal) -> bool:
    return a == b


def eliminate(a: Ideal, drop: Iterable[str]) -> Ideal:
    """Generators of a intersected with the subring without `drop`.

    Uses a block order with the dropped variables leading; the result lives
    in the smaller ring (same characteristic, remaining variables, default
    order of the source ring).
    """
    ring = a.ring
    drop = set(drop)
    for name in drop:
        if name not in ring.variables:
            raise PreconditionError(f"cannot eliminate unknown variable {name!r}")
    lead = tuple(i for i, name in enumerate(ring.variables) if name in drop)
    small = PolyRing(
        ring.p,
        tuple(name for name in ring.variables if name not in drop),
        ring.order,
    )
    if a.is_zero():
        return Ideal.zero(small)
    gb = a.reduced_basis(MonomialOrder.elimination(lead))
    kept = [
        g.remap(small)
        for g in gb.polys
        if all(all(u[i] == 0 for i in lead) for u in g.terms)
    ]
    return Ideal(small, kept)


def _same_ring(a: Ideal, b: Ideal):
    if a.ring != b.ring:
        raise PreconditionError("ideals live in different rings")


def _check_q(ring: PolyRing, q: int):
    if not is_power_of(q, ring.p):
        raise PreconditionError(
            "q must be a positive power of p"
            if q < 1
            else "q must be a power of the characteristic"
        )
