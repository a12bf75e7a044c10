"""Buchberger engine: reduced Groebner bases and normal forms.

Plain Buchberger with the product and chain pair-elimination criteria; no
F4/F5.  Inputs are desk scale and the priority is determinism: a fixed order
and generator list always produce the bit-identical reduced basis, so reduced
bases double as canonical forms for ideal equality.

The engine works on raw term dictionaries.  Each basis element travels as a
reducer, its leading exponent beside its monic term dict, from the moment
:func:`_monic` finds the lead until :class:`GroebnerBasis` hands it out.
Every term and every S-pair is keyed once: division is the heap division of
Monagan and Pearce ("Polynomial division using dynamic arrays, heaps, and
packed exponent vectors", CASC 2007), which keys a term when it enters the
heap and pops the largest next, and the pending S-pairs wait in a heap
keyed when each pair is made.  No step rescans a dict for its largest term
or its next pair.  The ideal-level wrappers (containment, equality,
elimination) live in :mod:`frobpow.ideal`.
"""

from __future__ import annotations

from bisect import insort
from heapq import heapify, heappop, heappush
from itertools import takewhile
from operator import add, le, sub
from typing import Sequence

from .errors import PreconditionError
from .poly import Exponent, MonomialOrder, Polynomial, PolyRing

Terms = dict[Exponent, int]

# (leading exponent, term dict) of a monic polynomial, sorted by lead
_Reducer = tuple[Exponent, Terms]


def _reduce_full(f: Terms, reducers: Sequence[_Reducer], p: int, key) -> Terms:
    """Full normal form of f: no remaining term is divisible by any lead.

    ``key`` is the order's descending key.  Each term is keyed once, when it
    enters the heap as the one tuple key(m) + (m,), and the largest is popped
    next.  A reduction step adds only terms below the one it removes, so a
    popped monomial never returns; one whose coefficient cancelled stays in
    ``work`` at 0 and is skipped.
    """
    result: Terms = {}
    work = dict(f)
    heap = [key(m) + (m,) for m in work]
    heapify(heap)
    while heap:
        m = heappop(heap)[-1]
        c = work.pop(m)
        if not c:
            continue
        for lm, g in reducers:
            if all(map(le, lm, m)):
                break
        else:
            result[m] = c
            continue
        shift = tuple(map(sub, m, lm))
        for gm, gc in g.items():
            if gm != lm:
                nm = tuple(map(add, gm, shift))
                old = work.get(nm)
                if old is None:
                    work[nm] = -c * gc % p
                    heappush(heap, key(nm) + (nm,))
                else:
                    work[nm] = (old - c * gc) % p
    return result


def _monic(f: Terms, p: int, key) -> _Reducer:
    """The reducer of f: its lead and f scaled to leading coefficient 1.
    ``key`` is the order's descending key."""
    lead = min(f, key=key)
    lc = f[lead]
    if lc != 1:
        inv = pow(lc, p - 2, p)
        f = {m: (c * inv) % p for m, c in f.items()}
    return lead, f


def _buchberger(gens: list[Terms], p: int, order: MonomialOrder) -> list[_Reducer]:
    """Reduced Groebner basis of the given generators, as reducers."""
    key, desc = order.sort_key(), order.descending_key()
    first: list[_Reducer] = []
    for g in sorted((_monic(f, p, desc) for f in gens if f), key=lambda g: key(g[0])):
        # Equal generators share a lead, so a repeat of g sits in the run of
        # g's lead at the end of the list.
        if g not in takewhile(lambda h: h[0] == g[0], reversed(first)):
            first.append(g)
    G: list[_Reducer] = []  # in insertion order; pairs index into it
    reducers: list[_Reducer] = []  # the same elements, sorted by lead
    # waiting[j] holds each i < j whose pair (i, j) is unselected, and the
    # heap holds key(lcm) + (i, j) for each such pair.  A pair leaves both
    # only when it is selected, so the heap's minimum is the next pair; the
    # keys of one order have one length, so (i, j) breaks ties.
    waiting: list[set[int]] = []
    queue: list[tuple] = []

    def insert(g: _Reducer):
        new, lead = len(G), g[0]
        waiting.append(set(range(new)))
        for k, (lk, _) in enumerate(G):
            heappush(queue, key(tuple(map(max, lk, lead))) + (k, new))
        G.append(g)
        # The first elements arrive sorted, and a fully reduced remainder's
        # lead equals no earlier lead, so this is the place a stable sort of
        # G by lead would give it.
        insort(reducers, g, key=lambda r: key(r[0]))

    def handled(a: int, b: int) -> bool:
        return a not in waiting[b] if a < b else b not in waiting[a]

    for g in first:
        insert(g)
    while queue:
        *_, i, j = heappop(queue)
        waiting[j].remove(i)
        li, lj = G[i][0], G[j][0]
        lij = tuple(map(max, li, lj))
        # Product criterion: coprime leads always reduce to zero.
        if all(a + b == c for a, b, c in zip(li, lj, lij)):
            continue
        # Chain criterion: some third lead divides the lcm and both linking
        # pairs are already handled.
        if any(
            k != i and k != j and all(map(le, lk, lij)) and handled(i, k) and handled(j, k)
            for k, (lk, _) in enumerate(G)
        ):
            continue
        s: Terms = {}
        for (lm, g), sign in ((G[i], 1), (G[j], -1)):
            shift = tuple(map(sub, lij, lm))
            for gm, gc in g.items():
                nm = tuple(map(add, gm, shift))
                nc = (s.get(nm, 0) + sign * gc) % p
                if nc:
                    s[nm] = nc
                elif nm in s:
                    del s[nm]
        r = _reduce_full(s, reducers, p, desc)
        if r:
            insert(_monic(r, p, desc))
    return _interreduce(reducers, p, desc)


def _interreduce(reducers: list[_Reducer], p: int, key) -> list[_Reducer]:
    """Prune reducers sorted by lead to the reduced basis, in the same order.
    ``key`` is the order's descending key.

    A kept lead divides no other kept lead, so reducing a kept element by
    the others leaves its leading term, and the result is monic with the
    same lead.
    """
    kept: list[_Reducer] = []
    for lm, f in reducers:
        if not any(all(map(le, v, lm)) for v, _ in kept):
            kept.append((lm, f))
    return [
        (lm, _reduce_full(f, kept[:i] + kept[i + 1 :], p, key))
        for i, (lm, f) in enumerate(kept)
    ]


class GroebnerBasis:
    """Reduced Groebner basis: monic, interreduced, sorted by ascending lead.

    ``reducers`` holds each element as (lead, term dict); ``polys`` holds the
    same elements as polynomials.
    """

    __slots__ = ("ring", "order", "reducers", "polys")

    def __init__(self, ring: PolyRing, order: MonomialOrder, reducers: Sequence[_Reducer]):
        self.ring = ring
        self.order = order
        self.reducers = tuple(reducers)
        self.polys = tuple(Polynomial(ring, f, _canonical=True) for _, f in reducers)

    def __repr__(self):
        return f"GroebnerBasis[{', '.join(str(g) for g in self.polys)}]"

    def is_unit(self) -> bool:
        return len(self.polys) == 1 and self.polys[0].is_constant()

    def reduces_to_zero(self, f: Polynomial) -> bool:
        return not _reduce_full(dict(f.terms), self.reducers, self.ring.p, self.order.descending_key())


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
    reducers = _buchberger([dict(g.terms) for g in gens], ring.p, order)
    return GroebnerBasis(ring, order, reducers)


def normal_form(f: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """The unique remainder of f modulo gb; zero exactly on ideal members."""
    if f.ring != gb.ring:
        raise PreconditionError("polynomial and basis live in different rings")
    r = _reduce_full(dict(f.terms), gb.reducers, f.ring.p, gb.order.descending_key())
    return Polynomial(f.ring, r, _canonical=True)
