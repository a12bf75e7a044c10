"""Exact combinatorics of monomial ideals.

A monomial ideal is stored as its minimal generators: an antichain of
exponent vectors under componentwise <=, kept in the order `minimalize`
gives it (in two variables: x ascending, so y strictly descending).  That
order is canonical, so equality and hashing compare the tuples directly, and
the engine never sorts by the ring's monomial order; only `polynomials()`
and `repr`, where generators leave the engine, list them in descending ring
order.  All operations here are pure exponent manipulation, which is what
makes the monomial fast path of the Frobenius-power routines cheap.

`mono_product(a, b, q)` is the fused product-and-root (ab)^{[1/q]}.  It is
the step of the digit-by-digit Frobenius roots of
:func:`frobpow.ideal.frob_power_int`, so p-rational powers, the
stabilization loop and the mu search never build a^{[k]}, whose staircase
can hold hundreds of thousands of generators when the root holds a few dozen.
For a monomial ideal that whole loop runs on antichains, one call here per
step (`mono_root`, `mono_product`, `mono_bracket`).  In two variables a
product or a root builds the sorted set of its points and hands it to the
staircase sweep that `minimalize` runs, with no other layer between.

The Newton-polyhedron routines (`newton_tau`, `newton_fpt`) are the
characteristic-independent test-ideal oracles.  In every arity they read one
exact facet list of the polyhedron: a lower-hull sweep in two variables, an
enumeration of facets through integer null vectors otherwise.  `newton_tau`
is Howald's formula in closed form: each prefix of n - 1 coordinates gets
its smallest admissible last coordinate from the facets, and one
`minimalize` keeps the generators.
"""

from __future__ import annotations

import itertools
import math
import operator
from bisect import bisect_right
from fractions import Fraction
from typing import Iterable, Sequence

from .arith import COMPOSITION_CAP, MAX_EXPONENT, ceil_fraction
from .errors import (
    ArityMismatchError,
    ExponentOverflowError,
    PreconditionError,
    ResourceCapError,
)
from .poly import Exponent, PolyRing, Polynomial, monomial_scale

# In three or more variables minimalize compares each of its n points with
# up to the k points kept before it, so it is priced as n * k comparisons.
# One costs about 0.8 us (Python 3.11, one Xeon core): 3600 and 10^4 pairwise
# incomparable points, 6.5 * 10^6 and 5 * 10^7 comparisons, took 5.3 and
# 40.8 s.  The cap stops a call at about 8 s.
MINIMALIZE_CAP = 10**7


def minimalize(exponents: Iterable[Exponent]) -> tuple[Exponent, ...]:
    """Prune to the antichain of componentwise-minimal exponent vectors.

    The result is sorted lexicographically in two variables (x ascending, y
    strictly descending) and by total degree, ties lexicographic, otherwise.
    In three or more variables, raises ResourceCapError once the points times
    those kept pass MINIMALIZE_CAP.
    """
    pts = sorted(set(map(tuple, exponents)))
    if pts and len(pts[0]) == 2:
        return _staircase(pts)
    pts.sort(key=sum)
    kept: list[Exponent] = []
    for u in pts:
        if not any(all(a <= b for a, b in zip(v, u)) for v in kept):
            kept.append(u)
            if len(pts) * len(kept) > MINIMALIZE_CAP:
                raise ResourceCapError(
                    f"minimalize: {len(pts)} points times {len(kept)} kept "
                    f"exceed MINIMALIZE_CAP ({MINIMALIZE_CAP})"
                )
    return tuple(kept)


def _staircase(pts: Iterable[Exponent]) -> tuple[Exponent, ...]:
    """The minimal points of 2-variable exponents sorted lexicographically:
    one sweep with a running y-minimum keeps each point below all before it."""
    kept: list[Exponent] = []
    min_y = math.inf
    for u in pts:
        if u[1] < min_y:
            kept.append(u)
            min_y = u[1]
    return tuple(kept)


class MonomialIdeal:
    """Monomial ideal given by its minimal generators."""

    __slots__ = ("ring", "gens")

    def __init__(self, ring: PolyRing, exponents: Iterable[Exponent]):
        exps = [tuple(u) for u in exponents]
        for u in exps:
            if len(u) != ring.nvars:
                raise ArityMismatchError(
                    f"expected {ring.nvars} exponents, got {len(u)}"
                )
            if any(type(e) is not int or e < 0 for e in u):
                raise PreconditionError(f"monomial ideal exponents must be nonnegative integers: {u}")
        self.ring = ring
        self.gens = minimalize(exps)

    @classmethod
    def _build(cls, ring: PolyRing, exponents: Iterable[Exponent]) -> "MonomialIdeal":
        # Trusted internal path: skips per-generator validation.
        return cls._of(ring, minimalize(exponents))

    @classmethod
    def _of(cls, ring: PolyRing, gens: tuple[Exponent, ...]) -> "MonomialIdeal":
        # Trusted internal path: gens are already minimal and in order.
        obj = object.__new__(cls)
        obj.ring = ring
        obj.gens = gens
        return obj

    # -- structure ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.gens

    def is_unit(self) -> bool:
        return any(not any(u) for u in self.gens)

    def polynomials(self) -> list[Polynomial]:
        """The minimal generators as monomials, in descending ring order."""
        ring = self.ring
        return [
            Polynomial(ring, {u: 1}, _canonical=True)
            for u in sorted(self.gens, key=ring.sort_key(), reverse=True)
        ]

    def __eq__(self, other):
        return (
            isinstance(other, MonomialIdeal)
            and self.ring == other.ring
            and self.gens == other.gens
        )

    def __hash__(self):
        return hash((self.ring, self.gens))

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.polynomials()) or "0"
        return f"MonomialIdeal<{gens}>"


def mono_member(u: Exponent, a: MonomialIdeal) -> bool:
    """Membership of x^u: does some minimal generator divide it?"""
    u = tuple(u)
    if len(u) != a.ring.nvars:
        raise ArityMismatchError("exponent arity mismatch")
    if len(u) == 2:
        return _staircase_index(a.gens, u, 0) > 0
    return any(all(g <= e for g, e in zip(v, u)) for v in a.gens)


def _staircase_index(gens: Sequence[Exponent], u: Exponent, start: int) -> int:
    """For a 2-variable staircase: 1 + the index of a generator dividing x^u, or 0.

    The generators with x-exponent <= u_x form a prefix (x ascending), and the
    last of them has the smallest y-exponent; the search starts at `start`.
    """
    i = bisect_right(gens, (u[0], math.inf), start)
    return i if i and gens[i - 1][1] <= u[1] else 0


def mono_contains(a: MonomialIdeal, b: MonomialIdeal) -> bool:
    """Whether a contains b."""
    if a.ring.nvars == 2:
        # b's generators are x ascending too, so each search starts where
        # the previous one ended.
        i = 0
        for u in b.gens:
            i = _staircase_index(a.gens, u, i)
            if not i:
                return False
        return True
    return all(mono_member(u, a) for u in b.gens)


def mono_sum(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    return MonomialIdeal._build(a.ring, a.gens + b.gens)


def mono_product(a: MonomialIdeal, b: MonomialIdeal, q: int = 1) -> MonomialIdeal:
    """Product ideal, or with q > 1 its Frobenius root (ab)^{[1/q]}.

    The root floor-divides each pair sum by q and minimalizes once; in two
    variables the sorted set of sums (or quotients) goes straight to the
    staircase sweep that `minimalize` runs.  Raises ResourceCapError when
    the pairs of generators would exceed COMPOSITION_CAP, and
    ExponentOverflowError as the general path does: that path multiplies
    every pair of generators, so it overflows exactly when some coordinate's
    maxima over a and over b sum past MAX_EXPONENT.  Both are tested before
    any pair is formed.
    """
    pairs = len(a.gens) * len(b.gens)
    if pairs > COMPOSITION_CAP:
        raise ResourceCapError(
            f"monomial product: {len(a.gens)} x {len(b.gens)} = {pairs} "
            f"generator pairs exceed COMPOSITION_CAP ({COMPOSITION_CAP})"
        )
    if a.is_zero() or b.is_zero():
        return MonomialIdeal._build(a.ring, ())
    if a.ring.nvars == 2:
        # x ascending, y descending: each coordinate's maximum is at one end
        top = (a.gens[-1][0] + b.gens[-1][0], a.gens[0][1] + b.gens[0][1])
    else:
        top = tuple(
            max(u[i] for u in a.gens) + max(v[i] for v in b.gens)
            for i in range(a.ring.nvars)
        )
    if max(top) > MAX_EXPONENT:
        raise ExponentOverflowError(f"product exponent exceeds 64-bit bound: {top}")
    if a.ring.nvars != 2:
        gens = [
            tuple((x + y) // q for x, y in zip(u, v)) for u in a.gens for v in b.gens
        ]
        return MonomialIdeal._build(a.ring, gens)
    if q == 1:
        # the hot plain product: floor division by 1 costs ~10% of a mu probe
        pts = {(ux + vx, uy + vy) for ux, uy in a.gens for vx, vy in b.gens}
    else:
        pts = {
            ((ux + vx) // q, (uy + vy) // q) for ux, uy in a.gens for vx, vy in b.gens
        }
    return MonomialIdeal._of(a.ring, _staircase(sorted(pts)))


def _unit(ring: PolyRing) -> MonomialIdeal:
    return MonomialIdeal._build(ring, ((0,) * ring.nvars,))


def mono_power(a: MonomialIdeal, k: int) -> MonomialIdeal:
    if k < 0:
        raise PreconditionError("negative ideal power")
    if k == 0:
        return _unit(a.ring)
    # Square-and-multiply, starting from the first factor rather than the
    # unit ideal.
    result = None
    base = a
    while True:
        if k & 1:
            result = base if result is None else mono_product(result, base)
        k >>= 1
        if not k:
            return result
        base = mono_product(base, base)


def mono_bracket(a: MonomialIdeal, q: int) -> MonomialIdeal:
    # Scaling by q keeps the generators minimal and in minimalize's order
    # (lexicographic, and by total degree): no rebuild.
    return MonomialIdeal._of(a.ring, tuple(monomial_scale(u, q) for u in a.gens))


def mono_root(a: MonomialIdeal, q: int) -> MonomialIdeal:
    """Frobenius root: componentwise floor division of the generators by q."""
    if a.ring.nvars == 2:
        pts = sorted({(x // q, y // q) for x, y in a.gens})
        return MonomialIdeal._of(a.ring, _staircase(pts))
    return MonomialIdeal._build(a.ring, [tuple(e // q for e in u) for u in a.gens])


# -- Newton polyhedron ---------------------------------------------------------
#
# N = conv(minimal generators) + nonnegative orthant, described by its facets:
# integer pairs (alpha, c), alpha >= 0 and primitive, meaning alpha . w >= c.
# The coordinate facets w_i >= min g_i are among them.

FACET_SUBSET_CAP = 10**5
# newton_tau visits the comb(bound + n - 1, n - 1) prefixes (the first n - 1
# coordinates of u, |u| <= bound), testing each against every facet, and
# minimalizes one point per prefix: quadratic in the prefixes in three or
# more variables.  It is priced as prefixes * (prefixes + facets); a unit
# costs 0.27-0.57 us (Python 3.11, one Xeon core), so the cap stops a call
# at about 11 s.  <x,y,z> at t = 90 counts 1.995 * 10^7 (7-11 s).
NEWTON_WALK_CAP = 2 * 10**7


def _newton_facets(a: MonomialIdeal) -> tuple[tuple[Exponent, int], ...]:
    """The facets of a's Newton polyhedron: w in N iff alpha . w >= c for all."""
    if a.ring.nvars != 2:
        return _enumerate_facets(a.gens, a.ring.nvars)
    pts = a.gens  # x ascending; antichain makes y strictly descending
    # Lower convex chain of the staircase (Andrew's monotone chain), O(m).
    hull: list[Exponent] = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (pt[1] - y1) - (y2 - y1) * (pt[0] - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    facets = [((1, 0), pts[0][0]), ((0, 1), pts[-1][1])]
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        g = math.gcd(y1 - y2, x2 - x1)
        alpha = ((y1 - y2) // g, (x2 - x1) // g)
        facets.append((alpha, alpha[0] * x1 + alpha[1] * y1))
    return tuple(facets)


def _enumerate_facets(
    gens: Sequence[Exponent], n: int
) -> tuple[tuple[Exponent, int], ...]:
    """Facets of conv(gens) + orthant in n variables, by exact enumeration.

    The rows (g, 1) and (e_i, 0) generate the cone over N; its facets other
    than the one at infinity (alpha = 0) are those of N.  Each is the null
    vector (alpha, -c) of n independent rows on which every row is >= 0.
    Raises ResourceCapError when the n-subsets of rows exceed FACET_SUBSET_CAP.
    """
    rows = [tuple(g) + (1,) for g in gens]
    rows += [tuple(int(i == j) for j in range(n + 1)) for i in range(n)]
    count = math.comb(len(rows), n)
    if count > FACET_SUBSET_CAP:
        raise ResourceCapError(
            f"Newton facet enumeration: {count} row subsets exceed "
            f"FACET_SUBSET_CAP ({FACET_SUBSET_CAP})"
        )
    facets: list[tuple[Exponent, int]] = []
    tight: list[int] = []  # bitmask of the rows on each facet found
    for subset in itertools.combinations(range(len(rows)), n):
        mask = sum(1 << i for i in subset)
        if any(mask & t == mask for t in tight):
            continue
        v = _null_vector([rows[i] for i in subset])
        if v is None or not any(v[:n]):
            continue
        values = [sum(map(operator.mul, v, r)) for r in rows]
        if min(values) < 0:
            if max(values) > 0:
                continue
            v = [-x for x in v]
        facets.append((tuple(v[:n]), -v[n]))
        tight.append(sum(1 << i for i, x in enumerate(values) if x == 0))
    return tuple(facets)


def _null_vector(rows: list[Sequence[int]]) -> list[int] | None:
    """The primitive integer vector spanning the null space of k rows of
    length k + 1, or None when their rank is below k.

    Fraction-free Gauss-Jordan elimination: each pivot row ends as
    d * x_pivot + f * x_free = 0.
    """
    mat = [list(r) for r in rows]
    k = len(mat)
    pivots: list[int] = []
    for col in range(k + 1):
        r = len(pivots)
        i = next((i for i in range(r, k) if mat[i][col]), None)
        if i is None:
            continue
        mat[r], mat[i] = mat[i], mat[r]
        top = mat[r]
        for j, row in enumerate(mat):
            if j != r and row[col]:
                d, f = top[col], row[col]
                mat[j] = [d * x - f * y for x, y in zip(row, top)]
        pivots.append(col)
        if len(pivots) == k:
            break
    if len(pivots) < k:
        return None
    free = next(c for c in range(k + 1) if c not in pivots)
    scale = math.lcm(*(mat[r][c] for r, c in enumerate(pivots)))
    v = [0] * (k + 1)
    v[free] = scale
    for r, c in enumerate(pivots):
        v[c] = -mat[r][free] * scale // mat[r][c]
    g = math.gcd(*v)
    return [x // g for x in v]


def newton_tau(a: MonomialIdeal, t: Fraction | int) -> MonomialIdeal:
    """Monomial test ideal: generated by x^u with u + 1 interior to t*N.

    Howald's formula, one prefix u' (the first n - 1 coordinates) at a time:
    the facets with alpha_n > 0 give the smallest admissible last coordinate
    in closed form, and those with alpha_n = 0 must hold for u' + 1 alone.
    Raises ResourceCapError when prefixes * (prefixes + facets) passes
    NEWTON_WALK_CAP.
    """
    t = Fraction(t)
    if t < 0:
        raise PreconditionError("newton_tau requires t >= 0")
    ring = a.ring
    n = ring.nvars
    if a.is_zero():
        if t == 0:
            return _unit(ring)
        return a
    if t == 0 or a.is_unit():
        return _unit(ring)

    bound = ceil_fraction(t * max(sum(u) for u in a.gens)) + n
    facets = _newton_facets(a)
    prefixes = math.comb(bound + n - 1, n - 1)
    price = prefixes * (prefixes + len(facets))
    if price > NEWTON_WALK_CAP:
        raise ResourceCapError(
            f"newton_tau: {prefixes} prefixes times {prefixes + len(facets)} "
            f"(prefixes plus facets) = {price} exceed "
            f"NEWTON_WALK_CAP ({NEWTON_WALK_CAP})"
        )
    # u + 1 interior to t*N: den * alpha . (u + 1) > num * c on every facet.
    num, den = t.numerator, t.denominator
    lifts = [(alpha[:-1], den * alpha[-1], num * c) for alpha, c in facets if alpha[-1]]
    walls = [(alpha[:-1], num * c) for alpha, c in facets if not alpha[-1]]
    heads: list[Exponent] = [()]
    for _ in range(n - 1):
        heads = [h + (e,) for h in heads for e in range(bound - sum(h) + 1)]
    points = []
    for head in heads:
        w = [x + 1 for x in head]
        if any(den * sum(map(operator.mul, beta, w)) <= rhs for beta, rhs in walls):
            continue
        last = max(
            0,
            *((rhs - den * sum(map(operator.mul, beta, w))) // d for beta, d, rhs in lifts),
        )
        if last <= bound - sum(head):
            points.append(head + (last,))
    return MonomialIdeal._build(ring, points)


def newton_fpt(a: MonomialIdeal) -> Fraction:
    """F-pure threshold of a monomial ideal: the diagonal hits the boundary.

    Returns the unique rational t with (1/t, ..., 1/t) on the boundary of the
    Newton polyhedron; characteristic-independent.
    """
    if a.is_zero() or a.is_unit():
        raise PreconditionError("newton_fpt requires a nonzero proper ideal")
    return 1 / max(Fraction(c, sum(alpha)) for alpha, c in _newton_facets(a))


def newton_jump_candidates(a: MonomialIdeal, limit: Fraction) -> list[Fraction]:
    """Parameters where newton_tau can change value, up to `limit`.

    Candidates are the t at which some integer point u + 1 meets the boundary
    of t*N; exact, used by right-constancy tests.
    """
    if a.ring.nvars != 2:
        raise PreconditionError("jump candidates implemented for two variables")
    if a.is_zero():
        raise PreconditionError("newton_jump_candidates requires a nonzero ideal")
    facets = _newton_facets(a)
    max_norm = max(sum(u) for u in a.gens)
    bound = ceil_fraction(limit * max_norm) + 2
    out: set[Fraction] = set()
    for ux in range(bound + 1):
        for uy in range(bound + 1 - ux):
            w = (ux + 1, uy + 1)
            for alpha, c in facets:
                if c:
                    out.add(Fraction(alpha[0] * w[0] + alpha[1] * w[1], c))
    return sorted(x for x in out if 0 < x <= limit)
