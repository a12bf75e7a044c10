"""Critical Frobenius exponents: mu/nu sequences, truncations, reconstruction.

mu(q) is the largest k with a^{[k]} not inside b^{[q]}; the truncations
mu(q)/q increase to the critical exponent, and mu(q) = ceil(q*crit) - 1 pins
crit inside (mu(q)/q, (mu(q)+1)/q].  Reconstruction searches that interval
for rationals of the shape k/(p^b (p^c - 1)) with user-capped b, c, accepts a
candidate when its predicted mu-pattern matches every computed value and its
Frobenius power lands inside b, and reports the smallest accepted candidate.
Every rational in the interval predicts the same pattern, so the pattern is
one check on the computed mus; the candidates are never listed: the search
bisects on values and steps with a successor function.

Exactness certification is conservative and conditional: critical exponents
are rational, but no effective denominator bound is available, so
``certified_exact`` asserts exactness under the supplied b/c caps (unique
accepted candidate, strict non-containment just below the interval).  For
least critical exponents the forbidden-interval theory sharpens this: lce
never lies in (k/q, k/(q-1)), so lce >= mu(q)/(q-1), and when the Frobenius
power at mu(q)/(q-1) already lands inside the maximal ideal that lower bound
is attained -- an unconditional certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import is_power_of
from .errors import PreconditionError
from .frobpower import rational_power
from .ideal import Ideal, bracket_power, frob_power_int, ideal_contains
from .monomial import mono_member
from .poly import Polynomial

RADICAL_EXPONENT_CAP = 1 << 10


@dataclass(frozen=True)
class TruncationReport:
    """Truncation data for one critical exponent.

    certified_interval is (interval_low, interval_high] = (mu/q, (mu+1)/q] at
    the finest computed q; mu_over_q lists the e-th truncations, which are
    non-decreasing.  candidate, when present, lies in the interval; it is
    exact under the search bounds iff certified_exact.
    """

    q_list: tuple[int, ...]
    mu_list: tuple[int, ...]
    mu_over_q: tuple[Fraction, ...]
    interval_low: Fraction
    interval_high: Fraction
    candidate: Fraction | None
    certified_exact: bool


def _poly_in_ideal(f: Polynomial, b: Ideal) -> bool:
    if b.is_monomial:
        bm = b.to_monomial()
        return all(mono_member(u, bm) for u in f.terms)
    return b.reduced_basis().reduces_to_zero(f)


def _in_radical(f: Polynomial, b: Ideal, cap: int = RADICAL_EXPONENT_CAP) -> bool:
    if b.is_monomial:
        # the radical of a monomial ideal is monomial (supports of the
        # generators), and membership there is term by term: exact, no cap
        bm = b.to_monomial()
        return all(
            any(all(u > 0 or v == 0 for u, v in zip(term, gen)) for gen in bm.gens)
            for term in f.terms
        )
    from .groebner import normal_form

    gb = b.reduced_basis()
    w = normal_form(f, gb)
    e = 1
    while e <= cap:
        if w.is_zero():
            return True
        w = normal_form(w * w, gb)
        e <<= 1
    return False


def check_radical_containment(a: Ideal, b: Ideal, cap: int = RADICAL_EXPONENT_CAP):
    """Verify a is contained in the radical of b; undetermined cases raise."""
    for g in a.gens:
        if not _in_radical(g, b, cap):
            raise PreconditionError(
                f"radical containment undetermined for generator {g} (cap {cap})"
            )


def _validate_pair(a: Ideal, b: Ideal, q: int):
    if q < a.ring.p or not is_power_of(q, a.ring.p):
        raise PreconditionError("q must be a positive power of p (q >= p)")
    if a.is_zero() or a.is_unit() or b.is_zero() or b.is_unit():
        raise PreconditionError("mu/nu need nonzero proper ideals")


def mu(a: Ideal, b: Ideal, q: int, *, _skip_checks: bool = False, _seed: int = 0) -> int:
    """max{k : a^{[k]} not contained in b^{[q]}}.

    Exponential bracketing from a known-outside seed, then binary search;
    monotonicity of k -> a^{[k]} makes the predicate monotone.
    """
    if not _skip_checks:
        _validate_pair(a, b, q)
        check_radical_containment(a, b)
    p = a.ring.p
    bq = bracket_power(b, q)

    def outside(k: int) -> bool:
        return not ideal_contains(bq, frob_power_int(a, k))

    lo = _seed
    if not outside(lo):
        raise PreconditionError("invalid search seed for mu")
    # Seeded from p*mu(q/p), the next value sits within p of the seed; start
    # the doubling bracket there and widen only if needed.
    hi = lo + p if lo else 1
    while outside(hi):
        lo = hi
        hi *= 2
    # invariant: outside(lo), not outside(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if outside(mid):
            lo = mid
        else:
            hi = mid
    return lo


def nu(f: Polynomial, b: Ideal, q: int) -> int:
    """max{k : f^k not in b^{[q]}}: the F-threshold numerator for powers of f."""
    if f.is_zero():
        raise PreconditionError("nu requires a nonzero polynomial")
    _validate_pair(Ideal(f.ring, [f]), b, q)
    if not _in_radical(f, b):
        raise PreconditionError("radical containment undetermined for nu")
    bq = bracket_power(b, q)

    def outside(k: int) -> bool:
        return not _poly_in_ideal(f**k, bq)

    lo, hi = 0, 1
    while outside(hi):
        lo = hi
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if outside(mid):
            lo = mid
        else:
            hi = mid
    return lo


def crit_truncations(a: Ideal, b: Ideal, e_max: int) -> TruncationReport:
    """mu(p^e)/p^e for e = 1..e_max, each search seeded from p * mu(previous)."""
    if e_max < 1:
        raise PreconditionError("e_max must be at least 1")
    _validate_pair(a, b, a.ring.p)
    check_radical_containment(a, b)
    p = a.ring.p
    mus: list[int] = []
    qs: list[int] = []
    for e in range(1, e_max + 1):
        q = p**e
        seed = p * mus[-1] if mus else 0
        mus.append(mu(a, b, q, _skip_checks=True, _seed=seed))
        qs.append(q)
    q_max, mu_max = qs[-1], mus[-1]
    return TruncationReport(
        q_list=tuple(qs),
        mu_list=tuple(mus),
        mu_over_q=tuple(Fraction(m, q) for m, q in zip(mus, qs)),
        interval_low=Fraction(mu_max, q_max),
        interval_high=Fraction(mu_max + 1, q_max),
        candidate=None,
        certified_exact=False,
    )


def _denominators(p: int, b_max: int, c_max: int) -> list[int]:
    """The denominators p^b and p^b (p^c - 1) with b <= b_max, 1 <= c <= c_max."""
    dens: set[int] = set()
    for b in range(b_max + 1):
        dens.add(p**b)
        for c in range(1, c_max + 1):
            dens.add(p**b * (p**c - 1))
    return sorted(dens)


def _forbidden_end(lam: Fraction, p: int, e_cap: int) -> Fraction | None:
    """k/(q-1) when lam lies strictly inside (k/q, k/(q-1)) for some q = p^e <= p^e_cap."""
    for e in range(1, e_cap + 1):
        q = p**e
        scaled = lam * q
        if scaled.denominator == 1:
            continue
        k = scaled.numerator // scaled.denominator
        if k >= 1 and lam * (q - 1) < k:
            return Fraction(k, q - 1)
    return None


def violates_forbidden_interval(lam: Fraction, p: int, e_cap: int) -> bool:
    """Whether lam lies strictly inside some (k/q, k/(q-1)) with q = p^e <= p^e_cap."""
    return _forbidden_end(lam, p, e_cap) is not None


def _next_candidate(
    x: Fraction, dens: list[int], p: int, forbidden_cap: int = 0, strict: bool = True
) -> Fraction:
    """The smallest k/d > x (>= x unless strict) with d in dens that lies in no
    forbidden interval (k/q, k/(q-1)) with q <= p^forbidden_cap."""
    while True:
        n, m = x.numerator, x.denominator
        lam = min(
            Fraction(n * d // m + 1 if strict else -(-n * d // m), d) for d in dens
        )
        end = _forbidden_end(lam, p, forbidden_cap) if forbidden_cap else None
        if end is None:
            return lam
        # every k/d in (lam, end) is forbidden too; end itself is not
        x, strict = end, False


def _reconstruct(
    a: Ideal,
    b: Ideal,
    report: TruncationReport,
    b_max: int,
    c_max: int,
    *,
    forbidden_cap: int = 0,
) -> TruncationReport:
    p = a.ring.p
    lo, hi = report.interval_low, report.interval_high
    # Every lam in (lo, hi] predicts mu(q_j) = floor(mu_e / (q_e / q_j)) for the
    # finest level e, so the computed mus either fit every candidate or none.
    q_max, mu_max = report.q_list[-1], report.mu_list[-1]
    if any(m != mu_max // (q_max // q) for q, m in zip(report.q_list, report.mu_list)):
        return report
    dens = _denominators(p, b_max, c_max)

    def after(x: Fraction, strict: bool = True) -> Fraction:
        return _next_candidate(x, dens, p, forbidden_cap, strict)

    # a^{[t]} <= b is monotone in t, so the accepted candidates form a suffix.
    # Bisect on values: every candidate <= left is rejected, and the
    # candidates still open lie in (left, top).  `best` is the smallest
    # candidate known to be accepted.
    left, top, best = lo, after(hi), None
    while after(left) < top:
        mid = (left + top) / 2
        probe = after(mid, strict=False)  # the candidate nearest mid from above
        if probe >= top:
            top = mid  # the open candidates all lie below mid
        elif ideal_contains(b, rational_power(a, probe)):
            top = best = probe
        else:
            left = probe
    if best is None:
        return report
    certified = after(best) > hi and not ideal_contains(b, rational_power(a, lo))
    return TruncationReport(
        q_list=report.q_list,
        mu_list=report.mu_list,
        mu_over_q=report.mu_over_q,
        interval_low=lo,
        interval_high=hi,
        candidate=best,
        certified_exact=certified,
    )


def crit_reconstruct(
    a: Ideal, b: Ideal, e_max: int, b_max: int = 4, c_max: int = 4
) -> TruncationReport:
    """Truncations plus an exact-candidate search inside the certified interval."""
    report = crit_truncations(a, b, e_max)
    return _reconstruct(a, b, report, b_max, c_max)


def lce(a: Ideal, e_max: int, b_max: int = 4, c_max: int = 4) -> TruncationReport:
    """Least critical exponent at the origin: crit against <x_1, ..., x_n>.

    Candidates must additionally avoid every forbidden interval
    (k/q, k/(q-1)), q <= p^e_max.  The forbidden bound mu(q)/(q-1) <= lce is
    tested first: when the Frobenius power there already lands inside the
    maximal ideal, that value is the exact answer.
    """
    ring = a.ring
    if a.is_zero():
        raise PreconditionError("lce requires a nonzero ideal")
    zero_exp = (0,) * ring.nvars
    if any(zero_exp in g.terms for g in a.gens):
        raise PreconditionError(
            "lce requires the ideal to sit inside <x_1, ..., x_n>"
        )
    maximal = Ideal(ring, [ring.var(name) for name in ring.variables])
    report = crit_truncations(a, maximal, e_max)
    q_max, mu_max = report.q_list[-1], report.mu_list[-1]
    sharp_low = Fraction(mu_max, q_max - 1)
    if ideal_contains(maximal, rational_power(a, sharp_low)):
        return TruncationReport(
            q_list=report.q_list,
            mu_list=report.mu_list,
            mu_over_q=report.mu_over_q,
            interval_low=report.interval_low,
            interval_high=report.interval_high,
            candidate=sharp_low,
            certified_exact=True,
        )
    return _reconstruct(a, maximal, report, b_max, c_max, forbidden_cap=e_max)
