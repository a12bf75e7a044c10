"""Exact combinatorics of monomial ideals.

A monomial ideal is stored as its minimal generators: an antichain of
exponent vectors under componentwise <=.  All operations here are pure
exponent manipulation, which is what makes the monomial fast path of the
Frobenius-power routines cheap.

The Newton-polyhedron routines (`newton_tau`, `newton_fpt`) are the
characteristic-independent test-ideal oracles.  In two variables the
polyhedron is an exact staircase polygon; higher arity falls back to strict
rational feasibility via Fourier-Motzkin elimination, guarded by a size cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .arith import base_p_digits, ceil_fraction
from .errors import ArityMismatchError, PreconditionError, ResourceCapError
from .poly import Exponent, PolyRing, Polynomial, monomial_scale

FM_CONSTRAINT_CAP = 20000


def minimalize(exponents: Iterable[Exponent]) -> tuple[Exponent, ...]:
    """Prune to the antichain of componentwise-minimal exponent vectors."""
    pts = sorted(set(tuple(u) for u in exponents))
    if pts and len(pts[0]) == 2:
        # Two variables: one sweep with a running y-minimum suffices.
        kept2: list[Exponent] = []
        min_y = None
        for u in pts:
            if min_y is None or u[1] < min_y:
                kept2.append(u)
                min_y = u[1]
        return tuple(kept2)
    pts.sort(key=sum)
    kept: list[Exponent] = []
    for u in pts:
        if not any(all(a <= b for a, b in zip(v, u)) for v in kept):
            kept.append(u)
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
            if any(e < 0 for e in u):
                raise PreconditionError("negative exponent in monomial ideal")
        key = ring.sort_key()
        self.ring = ring
        self.gens = tuple(sorted(minimalize(exps), key=key, reverse=True))

    @classmethod
    def _build(cls, ring: PolyRing, exponents: Iterable[Exponent]) -> "MonomialIdeal":
        # Trusted internal path: skips per-generator validation.
        obj = object.__new__(cls)
        obj.ring = ring
        obj.gens = tuple(sorted(minimalize(exponents), key=ring.sort_key(), reverse=True))
        return obj

    # -- structure ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.gens

    def is_unit(self) -> bool:
        return any(not any(u) for u in self.gens)

    def is_proper(self) -> bool:
        return not self.is_unit()

    def polynomials(self) -> list[Polynomial]:
        return [self.ring.monomial(u) for u in self.gens]

    def __eq__(self, other):
        return (
            isinstance(other, MonomialIdeal)
            and self.ring == other.ring
            and self.gens == other.gens
        )

    def __hash__(self):
        return hash((self.ring, self.gens))

    def __repr__(self):
        gens = ", ".join(str(self.ring.monomial(u)) for u in self.gens) or "0"
        return f"MonomialIdeal<{gens}>"


def mono_member(u: Exponent, a: MonomialIdeal) -> bool:
    """Membership of x^u: does some minimal generator divide it?"""
    u = tuple(u)
    if len(u) != a.ring.nvars:
        raise ArityMismatchError("exponent arity mismatch")
    if len(u) == 2:
        ux, uy = u
        return any(vx <= ux and vy <= uy for vx, vy in a.gens)
    return any(all(g <= e for g, e in zip(v, u)) for v in a.gens)


def mono_contains(a: MonomialIdeal, b: MonomialIdeal) -> bool:
    """Whether a contains b."""
    if a.ring.nvars == 2:
        gens = a.gens
        return all(
            any(vx <= ux and vy <= uy for vx, vy in gens) for ux, uy in b.gens
        )
    return all(mono_member(u, a) for u in b.gens)


def mono_sum(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    return MonomialIdeal._build(a.ring, a.gens + b.gens)


def mono_product(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    if a.is_zero() or b.is_zero():
        return MonomialIdeal._build(a.ring, ())
    if a.ring.nvars == 2:
        gens = [(ux + vx, uy + vy) for ux, uy in a.gens for vx, vy in b.gens]
    else:
        gens = [tuple(x + y for x, y in zip(u, v)) for u in a.gens for v in b.gens]
    return MonomialIdeal._build(a.ring, gens)


def mono_power(a: MonomialIdeal, k: int) -> MonomialIdeal:
    if k < 0:
        raise PreconditionError("negative ideal power")
    result = MonomialIdeal._build(a.ring, ((0,) * a.ring.nvars,))
    base = a
    while k:
        if k & 1:
            result = mono_product(result, base)
        k >>= 1
        if k:
            base = mono_product(base, base)
    return result


def mono_bracket(a: MonomialIdeal, q: int) -> MonomialIdeal:
    # Scaling by q keeps the generators minimal and in ring order: no rebuild.
    out = object.__new__(MonomialIdeal)
    out.ring = a.ring
    out.gens = tuple(monomial_scale(u, q) for u in a.gens)
    return out


def mono_root(a: MonomialIdeal, q: int) -> MonomialIdeal:
    """Frobenius root: componentwise floor division of the generators by q."""
    return MonomialIdeal._build(a.ring, [tuple(e // q for e in u) for u in a.gens])


def mono_frob_power_int(a: MonomialIdeal, k: int) -> MonomialIdeal:
    """Integral Frobenius power along the base-p digits of k."""
    p = a.ring.p
    result = MonomialIdeal._build(a.ring, ((0,) * a.ring.nvars,))
    for i, d in enumerate(base_p_digits(k, p)):
        if d:
            result = mono_product(result, mono_bracket(mono_power(a, d), p**i))
    return result


# -- Newton polyhedron ---------------------------------------------------------
#
# N = conv(minimal generators) + nonnegative orthant.


@dataclass(frozen=True)
class _Polygon:
    """Facet description of a 2-variable Newton polyhedron.

    Membership: w in N iff w_i >= low_i and alpha . w >= c for every chain
    facet; interiority replaces >= with >.
    """

    low: tuple[int, int]
    facets: tuple[tuple[tuple[int, int], int], ...]  # ((alpha_x, alpha_y), c)

    def member(self, w: Sequence[Fraction], scale: Fraction, strict: bool) -> bool:
        cmp = (lambda x, y: x > y) if strict else (lambda x, y: x >= y)
        for i in range(2):
            if not cmp(w[i], scale * self.low[i]):
                return False
        for alpha, c in self.facets:
            if not cmp(alpha[0] * w[0] + alpha[1] * w[1], scale * c):
                return False
        return True


def _newton_polygon(a: MonomialIdeal) -> _Polygon:
    pts = sorted(a.gens)  # x ascending; antichain makes y strictly descending
    low = (min(x for x, _ in pts), min(y for _, y in pts))
    # Lower convex chain of the antichain (Andrew's monotone chain, lower hull).
    hull: list[tuple[int, int]] = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (pt[1] - y1) - (y2 - y1) * (pt[0] - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    facets = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        alpha = (y1 - y2, x2 - x1)
        facets.append((alpha, alpha[0] * x1 + alpha[1] * y1))
    return _Polygon(low=low, facets=tuple(facets))


def _fourier_motzkin_feasible(
    constraints: list[tuple[list[Fraction], Fraction, bool]], nvars: int
) -> bool:
    """Strict/loose feasibility of sum_i coeffs[i] x_i >= rhs (strict: >).

    Eliminates variables one at a time; raises ResourceCapError when the
    intermediate system grows past FM_CONSTRAINT_CAP.
    """
    system = constraints
    for var in range(nvars):
        upper, lower, rest = [], [], []
        for coeffs, rhs, strict in system:
            c = coeffs[var]
            if c > 0:
                lower.append((coeffs, rhs, strict))
            elif c < 0:
                upper.append((coeffs, rhs, strict))
            else:
                rest.append((coeffs, rhs, strict))
        new_system = rest
        for lc, lr, ls in lower:
            for uc, ur, us in upper:
                scale_l, scale_u = -uc[var], lc[var]
                coeffs = [
                    scale_l * lc[i] + scale_u * uc[i] for i in range(len(lc))
                ]
                new_system.append((coeffs, scale_l * lr + scale_u * ur, ls or us))
        if len(new_system) > FM_CONSTRAINT_CAP:
            raise ResourceCapError(
                "Fourier-Motzkin system exceeded the constraint cap"
            )
        system = new_system
    for coeffs, rhs, strict in system:
        zero = Fraction(0)
        if strict and not (zero > rhs):
            return False
        if not strict and not (zero >= rhs):
            return False
    return True


def _newton_member_fm(
    a: MonomialIdeal, w: Sequence[Fraction], scale: Fraction, strict: bool
) -> bool:
    """w/scale in N (interior when strict), via convex-combination feasibility.

    Feasibility of: lambda >= 0, sum lambda = 1, sum lambda_j g_j <= w/scale
    (strict <).  Scale-cleared to keep everything in integers/fractions.
    """
    m = len(a.gens)
    n = a.ring.nvars
    constraints: list[tuple[list[Fraction], Fraction, bool]] = []
    for j in range(m):
        unit = [Fraction(0)] * m
        unit[j] = Fraction(1)
        constraints.append((unit, Fraction(0), False))
    ones = [Fraction(1)] * m
    constraints.append((ones, Fraction(1), False))
    constraints.append(([-c for c in ones], Fraction(-1), False))
    for i in range(n):
        coeffs = [-scale * Fraction(a.gens[j][i]) for j in range(m)]
        constraints.append((coeffs, -Fraction(w[i]), strict))
    return _fourier_motzkin_feasible(constraints, m)


def newton_tau(a: MonomialIdeal, t: Fraction | int) -> MonomialIdeal:
    """Monomial test ideal: generated by x^u with u + 1 interior to t*N."""
    t = Fraction(t)
    if t < 0:
        raise PreconditionError("newton_tau requires t >= 0")
    ring = a.ring
    n = ring.nvars
    if a.is_zero():
        if t == 0:
            return MonomialIdeal(ring, ((0,) * n,))
        return a
    if t == 0 or a.is_unit():
        return MonomialIdeal(ring, ((0,) * n,))

    max_norm = max(sum(u) for u in a.gens)
    bound = ceil_fraction(t * max_norm) + n
    polygon = _newton_polygon(a) if n == 2 else None

    def interior(u: Exponent) -> bool:
        w = [Fraction(e + 1) for e in u]
        if polygon is not None:
            return polygon.member(w, t, strict=True)
        return _newton_member_fm(a, w, t, strict=True)

    found: list[Exponent] = []

    def walk(prefix: list[int], remaining: int):
        if len(prefix) == n - 1:
            # Smallest admissible last coordinate: generators above it are redundant.
            for e in range(remaining + 1):
                u = tuple(prefix) + (e,)
                if any(all(a_ <= b_ for a_, b_ in zip(v, u)) for v in found):
                    return
                if interior(u):
                    found.append(u)
                    return
            return
        for e in range(remaining + 1):
            walk(prefix + [e], remaining - e)

    walk([], bound)
    return MonomialIdeal(ring, found)


def newton_fpt(a: MonomialIdeal) -> Fraction:
    """F-pure threshold of a monomial ideal: the diagonal hits the boundary.

    Returns the unique rational t with (1/t, ..., 1/t) on the boundary of the
    Newton polyhedron; characteristic-independent.
    """
    if a.is_zero() or a.is_unit():
        raise PreconditionError("newton_fpt requires a nonzero proper ideal")
    n = a.ring.nvars
    if n == 2:
        polygon = _newton_polygon(a)
        s = max(
            [Fraction(polygon.low[0]), Fraction(polygon.low[1])]
            + [Fraction(c, alpha[0] + alpha[1]) for alpha, c in polygon.facets]
        )
        return 1 / s
    # General arity: minimal s with s*(1,...,1) in N, through Fourier-Motzkin
    # on (lambda, s); surviving constraints are exact rational bounds on s.
    m = len(a.gens)
    constraints: list[tuple[list[Fraction], Fraction, bool]] = []
    for j in range(m):
        unit = [Fraction(0)] * (m + 1)
        unit[j] = Fraction(1)
        constraints.append((unit, Fraction(0), False))
    ones = [Fraction(1)] * m + [Fraction(0)]
    constraints.append((ones, Fraction(1), False))
    constraints.append(([-c for c in ones], Fraction(-1), False))
    for i in range(a.ring.nvars):
        coeffs = [-Fraction(a.gens[j][i]) for j in range(m)] + [Fraction(1)]
        constraints.append((coeffs, Fraction(0), False))
    system = constraints
    for var in range(m):
        upper, lower, rest = [], [], []
        for coeffs, rhs, strict in system:
            c = coeffs[var]
            if c > 0:
                lower.append((coeffs, rhs, strict))
            elif c < 0:
                upper.append((coeffs, rhs, strict))
            else:
                rest.append((coeffs, rhs, strict))
        system = rest
        for lc, lr, ls in lower:
            for uc, ur, us in upper:
                scale_l, scale_u = -uc[var], lc[var]
                coeffs = [scale_l * lc[i] + scale_u * uc[i] for i in range(m + 1)]
                system.append((coeffs, scale_l * lr + scale_u * ur, ls or us))
        if len(system) > FM_CONSTRAINT_CAP:
            raise ResourceCapError("Fourier-Motzkin system exceeded the constraint cap")
    best: Fraction | None = None
    for coeffs, rhs, _ in system:
        c = coeffs[m]
        if c > 0 and (best is None or rhs / c > best):
            best = rhs / c
    if best is None or best <= 0:
        raise PreconditionError("degenerate Newton polyhedron")
    return 1 / best


def newton_jump_candidates(a: MonomialIdeal, limit: Fraction) -> list[Fraction]:
    """Parameters where newton_tau can change value, up to `limit`.

    Candidates are the t at which some integer point u + 1 meets the boundary
    of t*N; exact, used by right-constancy tests.
    """
    if a.ring.nvars != 2:
        raise PreconditionError("jump candidates implemented for two variables")
    polygon = _newton_polygon(a)
    max_norm = max(sum(u) for u in a.gens)
    bound = ceil_fraction(limit * max_norm) + 2
    out: set[Fraction] = set()
    for ux in range(bound + 1):
        for uy in range(bound + 1 - ux):
            w = (ux + 1, uy + 1)
            for i in range(2):
                if polygon.low[i]:
                    out.add(Fraction(w[i], polygon.low[i]))
            for alpha, c in polygon.facets:
                if c:
                    out.add(Fraction(alpha[0] * w[0] + alpha[1] * w[1], c))
    return sorted(x for x in out if 0 < x <= limit)
