"""Ideal algebra: bracket powers, integral Frobenius powers, Frobenius roots.

An :class:`Ideal` is one of two representations, fixed when it is made.
An ideal with a generator of two or more terms stores its generator list
(possibly redundant) plus a cache of reduced Groebner bases keyed by
monomial order.  Every other ideal, one whose generators are all single
terms (the zero ideal included), is a view over an antichain of
:mod:`frobpow.monomial`, whether it was built from polynomials or by
:meth:`Ideal.from_monomial`: it stores no polynomials until ``gens`` is
read.  Every operation is invariant under replacing the generators by
another generating set of the same ideal.  Equality is mathematical:
reduced bases and antichains are canonical forms.

This module is the single dispatch point between the two representations.
Every operation below hands monomial inputs to the antichain kernel, which
is what keeps large-characteristic computations fast; membership in a
monomial ideal is always decided there, term by term.  Principal ideals use
the identity <f>^{[k]} = <f^k>.
"""

from __future__ import annotations

import math
from itertools import accumulate, repeat
from operator import itemgetter, mul
from typing import TYPE_CHECKING, Iterable

from .arith import COMPOSITION_CAP, base_p_digits, is_power_of
from .errors import PreconditionError, ResourceCapError
from .monomial import (
    MonomialIdeal,
    mono_bracket,
    mono_contains,
    mono_contains_points,
    mono_power,
    mono_product,
    mono_root,
    mono_sum,
)
from .poly import MonomialOrder, Polynomial, PolyRing

if TYPE_CHECKING:
    from .groebner import GroebnerBasis


class Ideal:
    """Finitely generated ideal of a polynomial ring over Z/p.

    When every generator has at most one term the ideal is a monomial view:
    it keeps only the antichain of their exponents, coefficients dropped,
    and builds ``gens`` from it, the minimal generators in descending ring
    order, on first access.  So ``Ideal(R, [x^2, x^3, 2*x*y]).gens`` is
    ``(x^2, x*y)``, and the zero ideal has an empty generator list.  Any
    other list is stored monic, deduplicated and canonically sorted.
    """

    __slots__ = ("ring", "_gens", "_cache", "_mono")

    def __init__(self, ring: PolyRing, gens: Iterable[Polynomial]):
        gens = list(gens)
        if any(g.ring != ring for g in gens):
            raise PreconditionError("generator lives in a different ring")
        self.ring = ring
        self._cache: dict[MonomialOrder, GroebnerBasis] = {}
        self._mono: MonomialIdeal | None = None
        if all(len(g.terms) <= 1 for g in gens):
            self._gens = None
            self._mono = MonomialIdeal._build(ring, (u for g in gens for u in g.terms))
            return
        key, desc = ring.sort_key(), ring.order.descending_key()
        p = ring.p
        monic: list[tuple[tuple, Polynomial]] = []
        for g in gens:
            terms = g.terms
            if not terms:
                continue
            lead = min(terms, key=desc)
            lc = terms[lead]
            if lc != 1:
                inv = pow(lc, p - 2, p)
                g = Polynomial(ring, {m: (c * inv) % p for m, c in terms.items()}, _canonical=True)
            monic.append((key(lead), g))
        monic.sort(key=itemgetter(0), reverse=True)
        # Equal generators share a lead, so only a tie on leads can hide a
        # repeat or need the terms to break it.
        if any(a[0] == b[0] for a, b in zip(monic, monic[1:])):
            unique = {frozenset(g.terms.items()): (k, g) for k, g in monic}
            monic = sorted(
                unique.values(),
                key=lambda e: (e[0], sorted(e[1].terms.items())),
                reverse=True,
            )
        self._gens = tuple(g for _, g in monic)

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def from_monomial(mi: MonomialIdeal) -> "Ideal":
        """Zero-copy view of an antichain; ``gens`` lists it in ring order."""
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
        """The stored generators; a monomial view's minimal ones, monic and
        in descending ring order."""
        if self._gens is None:
            self._gens = tuple(self._mono.polynomials())
        return self._gens

    def is_zero(self) -> bool:
        return self._mono is not None and self._mono.is_zero()

    @property
    def is_monomial(self) -> bool:
        return self._mono is not None

    def to_monomial(self) -> MonomialIdeal:
        """The antichain of a monomial view; raises PreconditionError on a
        generator list, which always holds a generator of two or more terms."""
        if self._mono is None:
            raise PreconditionError("not a monomial ideal")
        return self._mono

    def is_unit(self) -> bool:
        if self.is_monomial:
            return self.to_monomial().is_unit()
        if any(g.is_constant() for g in self._gens):
            return True
        return self.reduced_basis().is_unit()

    def reduced_basis(self, order: MonomialOrder | None = None) -> GroebnerBasis:
        order = order or self.ring.order
        gb = self._cache.get(order)
        if gb is None:
            from .groebner import groebner_basis  # the engine loads with a first basis

            gens = list(self.gens) or [self.ring.zero()]
            gb = groebner_basis(gens, order)
            self._cache[order] = gb
        return gb

    def canonical_generators(self) -> list[Polynomial]:
        """Reduced basis for general ideals, minimal generators for monomial ones."""
        if self.is_monomial:
            return self.to_monomial().polynomials()
        return list(reversed(self.reduced_basis().polys))

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
        # Equal ideals have equal initial ideals; a monomial ideal is its own.
        if self.is_monomial:
            return hash(self.to_monomial())
        lead = (lm for lm, _ in self.reduced_basis().reducers)
        return hash(MonomialIdeal._build(self.ring, lead))

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
    if k == 1:
        return a
    # The single-term generators walk as one factor, their monomial ideal M,
    # and the products inside M^k are pruned.
    polys = [g for g in a.gens if not g.is_term()]
    monos = [g.leading_exponent() for g in a.gens if g.is_term()]
    monos = MonomialIdeal._build(a.ring, monos) if monos else None
    return prune_generators(Ideal(a.ring, _products(polys, k, monos=monos)))


def bracket_power(a: Ideal, q: int) -> Ideal:
    """Ideal generated by q-th powers of the generators, q a power of p."""
    _check_q(a.ring, q)
    if a.is_monomial:
        return Ideal.from_monomial(mono_bracket(a.to_monomial(), q))
    return Ideal(a.ring, [g.frobenius(q) for g in a.gens])


def prune_generators(a: Ideal) -> Ideal:
    """Drop generators lying inside the ideal of the single-term generators.

    The single-term generators span a monomial ideal of the kernel; its
    minimal generators are kept, and so is every generator with a term
    outside it.  Cheap, and enough to keep digit products small without a
    basis computation: every non-monomial root and every high-digit product
    of frob_power_int, and every digit power, passes through it.  A monomial
    view, which every list of single terms is, is already minimal and is
    returned as it is.
    """
    if a._mono is not None:
        return a
    monos = MonomialIdeal._build(
        a.ring, (g.leading_exponent() for g in a.gens if g.is_term())
    )
    kept = monos.polynomials() + [g for g in a.gens if not mono_contains_points(monos, g.terms)]
    if len(kept) == len(a.gens):
        return a
    return Ideal(a.ring, kept)


# The ideal raised last, with its digit powers {d: a^d}, for the threshold
# searches that raise one ideal at many exponents in a row.
# Identity is a sound key, as ideals never change, and needs no hashing (a
# non-monomial hash computes a reduced basis).  A new ideal replaces the pair
# in one store; the list is never rebound.  One slot bounds memory to what a
# call holds anyway: a slot per ideal costs +13.9% power-sandwich peak RSS.
_LAST_RAISED: list[tuple[Ideal, dict[int, Ideal]] | None] = [None]


def _digit_power(a: Ideal, d: int) -> Ideal:
    """a^d, built once while a is the ideal raised last."""
    last = _LAST_RAISED[0]
    if last is None or last[0] is not a:
        last = _LAST_RAISED[0] = (a, {})
    powers = last[1]
    if d not in powers:
        powers[d] = ideal_power(a, d)
    return powers[d]


def frob_power_int(a: Ideal, k: int, q: int = 1, seed: Ideal | None = None) -> Ideal:
    """(seed * a^{[k]})^{[1/q]}, q a power of p; no seed means the unit ideal.

    With q = 1 and no seed this is the integral Frobenius power a^{[k]}, the
    product of the (a^d)^{[p^i]} over the base-p digits d of k.  For
    q = p^e the projection formula (I^{[p]} J)^{[1/p]} = I J^{[1/p]} roots
    the e low digits d_i of k in Horner form, R <- (R a^{d_i})^{[1/p]}, so
    a^{[k]} is never built and no intermediate ideal is larger than a root;
    R is then multiplied by a^{[k // q]}.  The digit powers a^d (d < p) are
    kept for the ideal raised last, keyed by identity: calls on the same
    object, as a search makes, build each a^d once between them, and a call
    on any other object replaces that one entry.  The operations are chosen
    once per call: when a and the seed are monomial the loop runs on
    antichains (`mono_root`, one fused product-and-root `mono_product` per
    step, `mono_bracket`) and the result is wrapped in one view; any other
    input runs the same loop on the dispatching operations of this module.
    """
    if k < 0:
        raise PreconditionError("negative Frobenius power")
    _check_q(a.ring, q)
    if seed is not None:
        _same_ring(a, seed)
    p = a.ring.p
    monomial = a.is_monomial and (seed is None or seed.is_monomial)

    def power(d: int) -> Ideal | MonomialIdeal:
        return _digit_power(a, d).to_monomial() if monomial else _digit_power(a, d)

    if monomial:
        root, root_product, bracket = mono_root, mono_product, mono_bracket
        product = mono_product
        result = None if seed is None else seed.to_monomial()
    else:
        root, root_product, bracket = frob_root, frob_root_product, bracket_power
        product = lambda r, t: prune_generators(ideal_product(r, t))
        result = seed
    high = k
    while q > 1:
        high, d = divmod(high, p)
        q //= p
        if d and result is None:
            result = root(power(d), p)
        elif d:
            result = root_product(result, power(d), p)
        elif result is not None:
            result = root(result, p)
    for i, d in enumerate(base_p_digits(high, p)):
        if d:
            term = bracket(power(d), p**i)
            result = term if result is None else product(result, term)
    if result is None:
        return Ideal.unit(a.ring)
    return Ideal.from_monomial(result) if monomial else result


def _frob_power_inside(a: Ideal, k: int, c: Ideal) -> bool:
    """Whether a^{[k]} lies in c, without building a^{[k]}.

    a^{[k]} is generated by the products of one generator from each factor
    (a^{d_i})^{[p^i]}, d_i the nonzero base-p digits of k.  A depth-first
    walk forms each prefix product once, shares it with the products that
    extend it, tests each product as it is formed and stops at the first one
    outside c; it holds only the chain of prefixes.  The test is chosen once:
    the membership kernel on the terms for a monomial c, a reduction to zero
    mod c's basis otherwise.  Raises ResourceCapError once the products
    formed pass COMPOSITION_CAP.
    """
    _same_ring(a, c)
    if k == 0:
        return c.is_unit()
    p = a.ring.p
    factors = [
        [g.frobenius(p**i) for g in _digit_power(a, d).gens]
        for i, d in enumerate(base_p_digits(k, p))
        if d
    ]
    if c.is_monomial:
        cm = c.to_monomial()
        inside = lambda f: mono_contains_points(cm, f.terms)
    else:
        inside = c.reduced_basis().reduces_to_zero
    last, formed = len(factors) - 1, 0

    def all_inside(i: int, prefix: Polynomial | None) -> bool:
        nonlocal formed
        for g in factors[i]:
            if prefix is not None:
                formed += 1
                if formed > COMPOSITION_CAP:
                    raise ResourceCapError(
                        f"a^[{k}] needs more than COMPOSITION_CAP ({COMPOSITION_CAP}) products"
                    )
                g = prefix * g
            if not (inside(g) if i == last else all_inside(i + 1, g)):
                return False
        return True

    return all_inside(0, None)


def _products(polys, k: int, monos: MonomialIdeal | None = None):
    """The products f^u of the polynomials over the tuples u with |u| = k.
    Each f^e is built once, and one multiplication per prefix of u is shared
    by the tuples that extend it.  With monos, a monomial ideal M, u has one
    more entry j, and f^u is taken times each minimal generator of M^j.
    Refuses before any polynomial product when the products would exceed
    the cap.
    """
    r = len(polys)
    # M^j has j + 1 or more minimal generators when M has two or more (the
    # vertices of an edge of its Newton polyhedron give them), so the count
    # has a lower bound, checked before M is raised.
    m = r + min(len(monos.gens), 2) if monos else r
    count, table = math.comb(k + m - 1, m - 1), [(None,)]
    if monos and count <= COMPOSITION_CAP:
        count = math.comb(k + r - 1, r - 1)
        for j, power in enumerate(accumulate(repeat(monos, k - 1), mono_product, initial=monos), 1):
            count += math.comb(k - j + r - 1, r - 1) * len(power.gens)
            if count > COMPOSITION_CAP:
                break
            table.append(power.polynomials())
    if count > COMPOSITION_CAP:
        raise ResourceCapError(f"power {k} needs more than COMPOSITION_CAP ({COMPOSITION_CAP}) products")
    # None stands for 1: a factor f^0 or M^0, and the empty prefix.
    tables = [[(None,), *((g,) for g in accumulate(repeat(f, k), mul))] for f in polys]
    tables += [table] if monos else []
    times = lambda g, h: h if g is None else g if h is None else g * h

    def walk(i: int, left: int, prefix: Polynomial | None):
        if i < len(tables) - 1:
            for e in range(left + 1):
                for g in tables[i][e]:
                    yield from walk(i + 1, left - e, times(prefix, g))
        else:
            for g in tables[i][left]:
                yield times(prefix, g)

    return walk(0, k, None)


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
        return Ideal.from_monomial(mono_product(a.to_monomial(), b.to_monomial(), q))
    return _root_split(a.ring, (f * g for f in a.gens for g in b.gens), q)


def _root_split(ring: PolyRing, polys: Iterable[Polynomial], q: int) -> Ideal:
    """The q-th root of the ideal the polynomials generate, from their
    residue-class parts, pruned against its single-term parts: most parts of
    a product are single terms, so this is where a root sheds its bulk."""

    def parts():
        # A term part is known by its exponent alone: repeats are dropped
        # here, as a power's generators can split into millions of them.
        seen = set()
        for g in polys:
            classes: dict[tuple[int, ...], dict] = {}
            for u, c in g.terms.items():
                res = tuple(e % q for e in u)
                classes.setdefault(res, {})[tuple(e // q for e in u)] = c
            for part in classes.values():
                key = next(iter(part)) if len(part) == 1 else frozenset(part.items())
                if key not in seen:
                    seen.add(key)
                    yield Polynomial(ring, part, _canonical=True)

    return prune_generators(Ideal(ring, parts()))


# -- decision procedures ---------------------------------------------------------


def ideal_contains(a: Ideal, b: Ideal) -> bool:
    """Whether a contains b.  A polynomial lies in a monomial ideal exactly
    when each of its terms does, so a monomial a is decided by the antichain
    kernel whatever b is; otherwise b's generators are reduced mod a's basis."""
    _same_ring(a, b)
    if b.is_zero():
        return True
    if a.is_zero():
        return False
    if a.is_monomial:
        am = a.to_monomial()
        if b.is_monomial:
            return mono_contains(am, b.to_monomial())
        return mono_contains_points(am, (u for g in b.gens for u in g.terms))
    gb = a.reduced_basis()
    return all(gb.reduces_to_zero(g) for g in b.gens)


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
        raise PreconditionError(f"q = {q} is not a power of p = {ring.p}")
