"""Buchberger engine: reduced Groebner bases and normal forms.

Plain Buchberger with the product and chain pair-elimination criteria; no
F4/F5.  Inputs are desk scale and the priority is determinism: a fixed order
and generator list always produce the bit-identical reduced basis, so reduced
bases double as canonical forms for ideal equality.

The engine works on raw term dictionaries.  Each basis element travels as a
reducer, its leading exponent beside its monic term dict, from the moment
:func:`_monic` finds the lead until :class:`GroebnerBasis` hands it out, and
each S-pair's sort key is computed once, when the pair is made.  The
ideal-level wrappers (containment, equality, elimination) live in
:mod:`frobpow.ideal`.
"""

from __future__ import annotations

from bisect import insort
from typing import Sequence

from .errors import PreconditionError
from .poly import Exponent, MonomialOrder, Polynomial, PolyRing

Terms = dict[Exponent, int]

# (leading exponent, term dict) of a monic polynomial, sorted by lead
_Reducer = tuple[Exponent, Terms]


def _reduce_full(f: Terms, reducers: Sequence[_Reducer], p: int, key) -> Terms:
    """Full normal form of f: no remaining term is divisible by any lead."""
    result: Terms = {}
    work = dict(f)
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        hit = None
        for lm, g in reducers:
            ok = True
            for a, b in zip(lm, m):
                if a > b:
                    ok = False
                    break
            if ok:
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


def _monic(f: Terms, p: int, key) -> _Reducer:
    """The reducer of f: its lead and f scaled to leading coefficient 1."""
    lead = max(f, key=key)
    lc = f[lead]
    if lc != 1:
        inv = pow(lc, p - 2, p)
        f = {m: (c * inv) % p for m, c in f.items()}
    return lead, f


def _buchberger(gens: list[Terms], p: int, key) -> list[_Reducer]:
    """Reduced Groebner basis of the given generators, as reducers."""
    first: list[_Reducer] = []
    seen = set()
    for f in gens:
        if not f:
            continue
        g = _monic(f, p, key)
        fk = frozenset(g[1].items())
        if fk not in seen:
            seen.add(fk)
            first.append(g)
    first.sort(key=lambda g: key(g[0]))
    G: list[_Reducer] = []  # in insertion order; pairs index into it
    reducers: list[_Reducer] = []  # the same elements, sorted by lead
    # (i, j) -> (key(lcm), (i, j), lcm): the minimum is the next pair
    pending: dict[tuple[int, int], tuple] = {}

    def add(g: _Reducer):
        new = len(G)
        for k, (lk, _) in enumerate(G):
            lcm = tuple(max(a, b) for a, b in zip(lk, g[0]))
            pending[k, new] = (key(lcm), (k, new), lcm)
        G.append(g)
        # The first elements arrive sorted, and a fully reduced remainder's
        # lead equals no earlier lead, so this is the place a stable sort of
        # G by lead would give it.
        insort(reducers, g, key=lambda r: key(r[0]))

    for g in first:
        add(g)
    while pending:
        _, (i, j), lij = min(pending.values())
        del pending[i, j]
        # Product criterion: coprime leads always reduce to zero.
        if all(a + b == c for a, b, c in zip(G[i][0], G[j][0], lij)):
            continue
        # Chain criterion: some third lead divides the lcm and both linking
        # pairs are already handled.
        skip = False
        for k, (lk, _) in enumerate(G):
            if k != i and k != j and all(a <= b for a, b in zip(lk, lij)):
                pik = (min(i, k), max(i, k))
                pjk = (min(j, k), max(j, k))
                if pik not in pending and pjk not in pending:
                    skip = True
                    break
        if skip:
            continue
        s: Terms = {}
        for (lm, g), sign in ((G[i], 1), (G[j], -1)):
            shift = tuple(a - b for a, b in zip(lij, lm))
            for gm, gc in g.items():
                nm = tuple(a + b for a, b in zip(gm, shift))
                nc = (s.get(nm, 0) + sign * gc) % p
                if nc:
                    s[nm] = nc
                elif nm in s:
                    del s[nm]
        r = _reduce_full(s, reducers, p, key)
        if r:
            add(_monic(r, p, key))
    return _interreduce(reducers, p, key)


def _interreduce(reducers: list[_Reducer], p: int, key) -> list[_Reducer]:
    """Prune reducers sorted by lead to the reduced basis, in the same order.

    A kept lead divides no other kept lead, so reducing a kept element by
    the others leaves its leading term, and the result is monic with the
    same lead.
    """
    kept: list[_Reducer] = []
    for lm, f in reducers:
        if not any(all(a <= b for a, b in zip(v, lm)) for v, _ in kept):
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
        return not _reduce_full(dict(f.terms), self.reducers, self.ring.p, self.order.sort_key())


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
    reducers = _buchberger([dict(g.terms) for g in gens], ring.p, order.sort_key())
    return GroebnerBasis(ring, order, reducers)


def normal_form(f: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """The unique remainder of f modulo gb; zero exactly on ideal members."""
    if f.ring != gb.ring:
        raise PreconditionError("polynomial and basis live in different rings")
    r = _reduce_full(dict(f.terms), gb.reducers, f.ring.p, gb.order.sort_key())
    return Polynomial(f.ring, r, _canonical=True)
