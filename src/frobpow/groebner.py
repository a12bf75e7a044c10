"""Buchberger engine: reduced Groebner bases and normal forms.

Buchberger's algorithm with the Gebauer-Moeller pair update; no F4/F5.
Inputs are desk scale and the priority is determinism: a fixed order and
generator list always produce the bit-identical reduced basis, so reduced
bases double as canonical forms for ideal equality.

Inside the engine a monomial is one int (Bachmann and Schoenemann, ISSAC
1998).  Its high fields pack the order's weight rows: the unit rows for lex;
the degree, then the reversed prefix sums, for grevlex; grevlex on each block
for a block order.  Its low fields pack the exponents, 64 bits each with a
guard bit at bit 63.  So ints compare as the monomials do, a product is
``+``, l divides m exactly when ``(m - l) & guard`` is 0, and a formed term
with a guard bit set is past MAX_EXPONENT.  Division is the heap division of
Monagan and Pearce (CASC 2007).  Pairs follow the UPDATE step of Becker and
Weispfenning (*Groebner Bases*, 1993, p. 230), after Gebauer and Moeller
(J. Symbolic Comput. 6, 1988): a new element makes only the pairs the chain
and product criteria keep, drops the pending pairs it makes redundant, and
retires the elements whose leads its lead divides.  A retired element makes
no pairs and reduces nothing, but its pending pairs stay.  The ideal-level
wrappers (containment, equality, elimination) live in :mod:`frobpow.ideal`.
"""

from __future__ import annotations

from bisect import insort
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import takewhile
from operator import itemgetter, mul
from typing import Sequence

from .errors import ExponentOverflowError, PreconditionError, ResourceCapError
from .poly import Exponent, MonomialOrder, Polynomial, PolyRing

Terms = dict[Exponent, int]
Packed = dict[int, int]  # packed monomial -> coefficient
_Reducer = tuple[int, Packed]  # (packed lead, packed terms) of a monic polynomial

# S-polynomials one Buchberger run may reduce.  A reduction costs more as the
# basis grows: 0.05-0.5 ms on the perfbench gb pool, 2-13 ms in runs that
# last seconds (Python 3.11, one Xeon core).  Five random 3- and 4-variable
# ideals that ran past 10 s had reduced 596-1379 by then, so the cap stops
# such a run at about 10 s.  The test suite's largest run reduces 125.
S_PAIR_CAP = 1000

_FIELD, _LOW = 64, (1 << 64) - 1


class _Packing:
    """The packed monomials of one order in n variables; ``cols[j]`` packs x_j."""

    __slots__ = ("cols", "shifts", "guard")

    def __init__(self, order: MonomialOrder, n: int):
        if order.kind == "lex":
            blocks = [[j] for j in range(n)]
        elif order.kind in ("grevlex", "block"):
            lead = order.lead if order.kind == "block" else range(n)
            blocks = [list(lead), [j for j in range(n) if j not in lead]]
        else:
            raise PreconditionError(f"unknown monomial order kind {order.kind!r}")
        # a block's prefixes, longest first, are its grevlex rows; a row sums
        # at most n exponents, and a formed term adds two rows
        rows = [block[:k] for block in blocks for k in range(len(block), 0, -1)]
        at = [_FIELD * n + (_FIELD + 1 + n.bit_length()) * r for r in reversed(range(len(rows)))]
        self.cols = tuple((1 << _FIELD * j) + sum(1 << a for row, a in zip(rows, at) if j in row)
                          for j in range(n))
        self.shifts = tuple(range(0, _FIELD * n, _FIELD))
        self.guard = sum(1 << s + _FIELD - 1 for s in self.shifts)

    def pack(self, u: Exponent) -> int:
        return sum(map(mul, u, self.cols))

    def unpack(self, m: int) -> Exponent:
        return tuple(map(_LOW.__and__, map(m.__rshift__, self.shifts)))

    def pack_terms(self, f: Terms) -> Packed:
        return {self.pack(u): c for u, c in f.items()}

    def unpack_terms(self, f: Packed) -> Terms:
        return {self.unpack(m): c for m, c in f.items()}


_packing = lru_cache(maxsize=None)(_Packing)


def _reduce_full(f: Packed, reducers: Sequence[_Reducer], p: int, guard: int) -> Packed:
    """Full normal form of f: no remaining term is divisible by any lead.

    ``guard`` is the packing's guard mask.  A reduction step adds only terms
    below the one it removes, so a popped monomial never returns; one whose
    coefficient cancelled stays in ``work`` at 0 and is skipped.
    """
    result: Packed = {}
    work = dict(f)
    heap = [-m for m in work]
    heapify(heap)
    while heap:
        m = -heappop(heap)
        c = work.pop(m)
        if not c:
            continue
        for lm, g in reducers:
            if not (shift := m - lm) & guard:
                break
        else:
            result[m] = c
            continue
        for gm, gc in g.items():
            if gm != lm:
                nm = gm + shift
                old = work.get(nm)
                if old is None:
                    if nm & guard:
                        raise ExponentOverflowError("a Groebner term exponent exceeds the 64-bit bound")
                    work[nm] = -c * gc % p
                    heappush(heap, -nm)
                else:
                    work[nm] = (old - c * gc) % p
    return result


def _monic(f: Packed, p: int) -> _Reducer:
    """The reducer of packed f: its lead and f scaled to leading coefficient 1."""
    lead = max(f)
    lc = f[lead]
    if lc != 1:
        inv = pow(lc, p - 2, p)
        f = {m: (c * inv) % p for m, c in f.items()}
    return lead, f


def _buchberger(gens: list[Terms], p: int, packing: _Packing) -> list[_Reducer]:
    """Reduced Groebner basis of the given generators, as packed reducers."""
    guard, pack, unpack = packing.guard, packing.pack, packing.unpack
    first: list[_Reducer] = []
    for g in sorted((_monic(packing.pack_terms(f), p) for f in gens if f), key=itemgetter(0)):
        # Equal generators share a lead, so a repeat of g sits in the run of
        # g's lead at the end of the list.
        if g not in takewhile(lambda h: h[0] == g[0], reversed(first)):
            first.append(g)
    elements: list[_Reducer] = []  # in insertion order; pairs index into it
    basis: list[int] = []  # the elements not retired
    reducers: list[_Reducer] = []  # the same elements, sorted by lead
    pairs: dict[tuple[int, int], int] = {}  # pending (i, j), i < j -> lcm of the leads

    def update(h: _Reducer):
        new, lead = len(elements), h[0]
        e = unpack(lead)
        lcms = [pack(tuple(map(max, e, unpack(g[0])))) for g in elements]
        # Chain criterion: (k, new) goes when a later candidate's or a kept pair's
        # lcm divides its lcm; coprime leads stay to drop others, then go.
        candidates = [(lcms[k], k) for k in basis]
        kept: list[tuple[int, int]] = []
        for n, (l, k) in enumerate(candidates):
            if l == lead + elements[k][0] or not any(
                not (l - other) & guard for other, _ in candidates[n + 1 :] + kept
            ):
                kept.append((l, k))
        # A pending pair goes when the new lead divides its lcm, unless that
        # lcm is the new lead's lcm with one of the pair's leads.
        for (i, j), l in list(pairs.items()):
            if not (l - lead) & guard and lcms[i] != l and lcms[j] != l:
                del pairs[i, j]
        pairs.update(((k, new), l) for l, k in kept if l != lead + elements[k][0])
        basis[:] = [k for k in basis if (elements[k][0] - lead) & guard] + [new]
        reducers[:] = [r for r in reducers if (r[0] - lead) & guard]
        elements.append(h)
        insort(reducers, h, key=itemgetter(0))

    for g in first:
        update(g)
    reduced = 0
    while pairs:
        l, i, j = min((l, i, j) for (i, j), l in pairs.items())  # the least lcm next
        del pairs[i, j]
        reduced += 1
        if reduced > S_PAIR_CAP:
            raise ResourceCapError(f"Groebner basis needs more than S_PAIR_CAP ({S_PAIR_CAP}) S-polynomial "
                                   f"reductions: reached {reduced} with {len(pairs)} pairs pending")
        s: Packed = {}
        for (lm, g), sign in ((elements[i], 1), (elements[j], -1)):
            for gm, gc in g.items():
                nm = gm + l - lm
                if nm & guard:
                    raise ExponentOverflowError("a Groebner term exponent exceeds the 64-bit bound")
                nc = (s.get(nm, 0) + sign * gc) % p
                if nc:
                    s[nm] = nc
                elif nm in s:
                    del s[nm]
        r = _reduce_full(s, reducers, p, guard)
        if r:
            update(_monic(r, p))
    return _interreduce(reducers, p, guard)


def _interreduce(reducers: list[_Reducer], p: int, guard: int) -> list[_Reducer]:
    """Prune reducers sorted by lead to the reduced basis, in the same order.

    A kept lead divides no other kept lead, so reducing a kept element by
    the others leaves its leading term, and the result is monic with the
    same lead.
    """
    kept: list[_Reducer] = []
    for lm, f in reducers:
        if all((lm - v) & guard for v, _ in kept):
            kept.append((lm, f))
    return [
        (lm, _reduce_full(f, kept[:i] + kept[i + 1 :], p, guard))
        for i, (lm, f) in enumerate(kept)
    ]


class GroebnerBasis:
    """Reduced Groebner basis: monic, interreduced, sorted by ascending lead.

    ``reducers`` holds each element as (lead, term dict) and ``polys`` as a
    polynomial.
    """

    __slots__ = ("ring", "order", "reducers", "polys", "_packing")

    def __init__(self, ring: PolyRing, order: MonomialOrder, packing: _Packing, packed: Sequence[_Reducer]):
        self.ring = ring
        self.order = order
        self._packing = packing
        self.polys = tuple(Polynomial(ring, packing.unpack_terms(f), _canonical=True) for _, f in packed)
        self.reducers = tuple((packing.unpack(lm), g.terms) for (lm, _), g in zip(packed, self.polys))

    def __repr__(self):
        return f"GroebnerBasis[{', '.join(str(g) for g in self.polys)}]"

    def is_unit(self) -> bool:
        return len(self.polys) == 1 and self.polys[0].is_constant()

    def _remainder(self, f: Polynomial) -> Packed:
        # packed per call, so that a cached basis keeps one copy of its terms
        pk = self._packing
        packed = [(pk.pack(lm), pk.pack_terms(g)) for lm, g in self.reducers]
        return _reduce_full(pk.pack_terms(f.terms), packed, self.ring.p, pk.guard)

    def reduces_to_zero(self, f: Polynomial) -> bool:
        return not self._remainder(f)


def groebner_basis(
    gens: Sequence[Polynomial], order: MonomialOrder | None = None
) -> GroebnerBasis:
    """Reduced Groebner basis of <gens>.

    Zero generators are allowed and filtered; the zero ideal yields the empty
    basis and the unit ideal normalizes to {1}.
    """
    if not gens:
        raise PreconditionError("groebner_basis needs a nonempty generator list")
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise PreconditionError("generators live in different rings")
    order = order or ring.order
    packing = _packing(order, ring.nvars)
    return GroebnerBasis(ring, order, packing, _buchberger([g.terms for g in gens], ring.p, packing))


def normal_form(f: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """The unique remainder of f modulo gb; zero exactly on ideal members."""
    if f.ring != gb.ring:
        raise PreconditionError("polynomial and basis live in different rings")
    return Polynomial(f.ring, gb._packing.unpack_terms(gb._remainder(f)), _canonical=True)
