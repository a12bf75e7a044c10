"""Buchberger engine: reduced Groebner bases and normal forms.

Plain Buchberger with the product and chain pair-elimination criteria; no
F4/F5.  Inputs are desk scale and the priority is determinism: a fixed order
and generator list always produce the bit-identical reduced basis, so reduced
bases double as canonical forms for ideal equality.

The engine works on raw term dictionaries; the ideal-level wrappers
(containment, equality, elimination) live in :mod:`frobpow.ideal`.
"""

from __future__ import annotations

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


def _monic(f: Terms, p: int, key) -> Terms:
    lc = f[max(f, key=key)]
    if lc == 1:
        return f
    inv = pow(lc, p - 2, p)
    return {m: (c * inv) % p for m, c in f.items()}


def _reducers(polys: Sequence[Terms], key) -> list[_Reducer]:
    """Reducers for monic polynomials, sorted by lead."""
    return sorted(((max(g, key=key), g) for g in polys), key=lambda t: key(t[0]))


def _buchberger(gens: list[Terms], p: int, key) -> list[Terms]:
    """Reduced Groebner basis of the given generators (raw dict form)."""
    G: list[Terms] = []
    seen = set()
    for f in gens:
        if not f:
            continue
        f = _monic(f, p, key)
        fk = frozenset(f.items())
        if fk not in seen:
            seen.add(fk)
            G.append(f)
    G.sort(key=lambda f: key(max(f, key=key)))
    if not G:
        return []
    lms = [max(f, key=key) for f in G]
    pending = {(i, j) for i in range(len(G)) for j in range(i + 1, len(G))}

    def lcm(i: int, j: int) -> Exponent:
        return tuple(max(a, b) for a, b in zip(lms[i], lms[j]))

    while pending:
        i, j = min(pending, key=lambda ij: (key(lcm(*ij)), ij))
        pending.discard((i, j))
        lij = lcm(i, j)
        # Product criterion: coprime leads always reduce to zero.
        if all(a + b == c for a, b, c in zip(lms[i], lms[j], lij)):
            continue
        # Chain criterion: some third lead divides the lcm and both linking
        # pairs are already handled.
        skip = False
        for k in range(len(G)):
            if k != i and k != j and all(a <= b for a, b in zip(lms[k], lij)):
                pik = (min(i, k), max(i, k))
                pjk = (min(j, k), max(j, k))
                if pik not in pending and pjk not in pending:
                    skip = True
                    break
        if skip:
            continue
        s: Terms = {}
        for idx, sign in ((i, 1), (j, -1)):
            shift = tuple(a - b for a, b in zip(lij, lms[idx]))
            for gm, gc in G[idx].items():
                nm = tuple(a + b for a, b in zip(gm, shift))
                nc = (s.get(nm, 0) + sign * gc) % p
                if nc:
                    s[nm] = nc
                elif nm in s:
                    del s[nm]
        r = _reduce_full(s, _reducers(G, key), p, key)
        if r:
            G.append(_monic(r, p, key))
            lms.append(max(r, key=key))
            new = len(G) - 1
            pending.update((k, new) for k in range(new))
    return _interreduce(G, p, key)


def _interreduce(G: list[Terms], p: int, key) -> list[Terms]:
    """Prune to the reduced basis: minimal leads, fully reduced tails."""
    order_idx = sorted(range(len(G)), key=lambda i: (key(max(G[i], key=key)), i))
    kept: list[Terms] = []
    kept_lms: list[Exponent] = []
    for i in order_idx:
        lm = max(G[i], key=key)
        if any(all(a <= b for a, b in zip(v, lm)) for v in kept_lms):
            continue
        kept.append(G[i])
        kept_lms.append(lm)
    out: list[Terms] = []
    for i, f in enumerate(kept):
        others = _reducers([g for j, g in enumerate(kept) if j != i], key)
        r = _reduce_full(f, others, p, key)
        if r:
            out.append(_monic(r, p, key))
    out.sort(key=lambda f: key(max(f, key=key)))
    return out


class GroebnerBasis:
    """Reduced Groebner basis: monic, interreduced, canonically sorted."""

    __slots__ = ("ring", "order", "polys", "_table")

    def __init__(self, ring: PolyRing, order: MonomialOrder, polys: tuple[Polynomial, ...]):
        self.ring = ring
        self.order = order
        self.polys = polys
        self._table = None

    def __iter__(self):
        return iter(self.polys)

    def __eq__(self, other):
        return (
            isinstance(other, GroebnerBasis)
            and self.ring == other.ring
            and self.order == other.order
            and self.polys == other.polys
        )

    def __hash__(self):
        return hash((self.ring, self.order, self.polys))

    def __repr__(self):
        return f"GroebnerBasis[{', '.join(str(g) for g in self.polys)}]"

    def is_zero(self) -> bool:
        return not self.polys

    def is_unit(self) -> bool:
        return len(self.polys) == 1 and self.polys[0].is_constant()

    def reducers(self) -> list[_Reducer]:
        if self._table is None:
            self._table = _reducers([g.terms for g in self.polys], self.order.sort_key())
        return self._table

    def reduces_to_zero(self, f: Polynomial) -> bool:
        return not _reduce_full(dict(f.terms), self.reducers(), self.ring.p, self.order.sort_key())


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
    key = order.sort_key()
    raw = _buchberger([dict(g.terms) for g in gens], ring.p, key)
    polys = tuple(Polynomial(ring, f, _canonical=True) for f in raw)
    return GroebnerBasis(ring=ring, order=order, polys=polys)


def normal_form(f: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """The unique remainder of f modulo gb; zero exactly on ideal members."""
    if f.ring != gb.ring:
        raise PreconditionError("polynomial and basis live in different rings")
    r = _reduce_full(dict(f.terms), gb.reducers(), f.ring.p, gb.order.sort_key())
    return Polynomial(f.ring, r, _canonical=True)
