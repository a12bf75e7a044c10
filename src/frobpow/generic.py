"""Generic linear combinations: principalization and stratification.

Given generators g_1, ..., g_m, the polynomial G = z_1 g_1 + ... + z_m g_m in
the extended ring turns Frobenius powers of the ideal into test ideals of a
hypersurface: tau(G^t) expands a^{[t]} to the extended ring for 0 < t < 1,
and intersecting back with the base ring recovers a^{[t]}.  That elimination
route is the cross-implementation oracle for the whole power stack.

The stratification side expands G^i as a polynomial in the base variables
with coefficients in the z's; the coefficients attached to monomials outside
b^{[q]} cut out the locus of scalar specializations whose F-threshold drops.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import PreconditionError
from .frobpower import rational_power
from .ideal import Ideal, _check_q, eliminate
from .monomial import MonomialIdeal, mono_bracket, mono_member
from .poly import Exponent, Polynomial, PolyRing


def _generic(gens: Sequence[Polynomial]) -> tuple[tuple[str, ...], Polynomial]:
    """Fresh auxiliary names z1..zm for nonzero generators and G in the
    base ring extended by them."""
    gens = list(gens)
    if not gens or any(g.is_zero() for g in gens):
        raise PreconditionError("generators must be nonzero")
    base, m = gens[0].ring, len(gens)
    stem = "z"
    while any(f"{stem}{i}" in base.variables for i in range(1, m + 1)):
        stem += "z"
    names = tuple(f"{stem}{i}" for i in range(1, m + 1))
    ext = base.extend(names)
    G = ext.zero()
    for name, g in zip(names, gens):
        G = G + ext.var(name) * g.remap(ext)
    return names, G


def tau_generic(gens: Sequence[Polynomial], t: Fraction | int) -> Ideal:
    """tau(G^t) = <G>^{[t]} in the extended ring (principal, so powers are plain)."""
    t = Fraction(t)
    if t <= 0:
        raise PreconditionError("tau_generic requires t > 0")
    _, G = _generic(gens)
    return rational_power(Ideal(G.ring, [G]), t)


def principal_power_oracle(gens: Sequence[Polynomial], t: Fraction | int) -> Ideal:
    """a^{[t]} = tau(G^t) intersected with the base ring, for 0 < t < 1."""
    t = Fraction(t)
    if not 0 < t < 1:
        raise PreconditionError("principal_power_oracle requires 0 < t < 1")
    names, G = _generic(gens)
    # the eliminated ring keeps the base's p, variables and order: it is the base
    return eliminate(rational_power(Ideal(G.ring, [G]), t), names)


def stratify(
    gens: Sequence[Polynomial], b: MonomialIdeal, i: int, q: int
) -> list[tuple[Exponent, Polynomial]]:
    """Coefficient extraction behind the F-threshold strata.

    Expands G^i as sum_u H_u(z) x^u and returns the pairs whose base monomial
    x^u lies outside b^{[q]}; the surviving H_u cut out the closed stratum
    for the chosen (i, q).  Raises when no monomial survives, i.e. when G^i
    lies in the extended b^{[q]}.
    """
    if i < 1:
        raise PreconditionError("stratify requires i >= 1")
    names, G = _generic(gens)
    base = b.ring
    if G.ring != base.extend(names):
        raise PreconditionError("monomial ideal lives in a different ring")
    if b.is_zero() or b.is_unit():
        raise PreconditionError("stratify needs a nonzero proper monomial ideal")
    _check_q(base, q)
    power = G**i
    nbase = base.nvars
    bq = mono_bracket(b, q)
    z_ring = PolyRing(base.p, names)
    grouped: dict[Exponent, dict[Exponent, int]] = {}
    for w, c in power.terms.items():
        xu, zu = w[:nbase], w[nbase:]
        grouped.setdefault(xu, {})[zu] = c
    survivors = [
        (xu, Polynomial(z_ring, terms, _canonical=True))
        for xu, terms in grouped.items()
        if not mono_member(xu, bq)
    ]
    if not survivors:
        raise PreconditionError(f"G^{i} lies in b^[{q}]: no stratum data here")
    key = base.sort_key()
    survivors.sort(key=lambda pair: key(pair[0]), reverse=True)
    return survivors
