"""Critical Frobenius exponents: mu/nu sequences, truncations, reconstruction.

mu(q) is the largest k with a^{[k]} not inside b^{[q]}, equivalently with
a^{[k/q]} not inside b; on monomial ideals the search tests the second form,
so it never builds a^{[k]}.  nu(q) for a polynomial f is mu(q) of <f>, whose
Frobenius powers are the ordinary powers <f^k>.  The truncations mu(q)/q
increase to the critical exponent, and mu(q) = ceil(q*crit) - 1 pins crit
inside (mu(q)/q, (mu(q)+1)/q].  Reconstruction searches that interval for
rationals of the shape k/(p^b (p^c - 1)) with user-capped b, c, accepts a
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

from fractions import Fraction
from typing import NamedTuple

from .errors import PreconditionError
from .frobpower import _last_true, rational_power
from .ideal import Ideal, _check_q, _frob_power_inside, bracket_power, frob_power_int, ideal_contains
from .monomial import MonomialIdeal
from .poly import Polynomial


class TruncationReport(NamedTuple):
    """Truncation data for one critical exponent.

    certified_interval is (interval_low, interval_high] = (mu/q, (mu+1)/q] at
    the finest computed q; mu_over_q lists the e-th truncations, which are
    non-decreasing.  candidate, when present, lies in the interval; it is
    exact under the search bounds iff certified_exact.  A named tuple:
    ``_replace`` makes a copy with some fields changed.
    """

    q_list: tuple[int, ...]
    mu_list: tuple[int, ...]
    mu_over_q: tuple[Fraction, ...]
    interval_low: Fraction
    interval_high: Fraction
    candidate: Fraction | None
    certified_exact: bool


def _monomials_in_radical(exponents, b: MonomialIdeal) -> bool:
    # the radical of a monomial ideal is monomial (supports of the
    # generators), and membership there is term by term: exact, no cap
    return all(
        any(all(u > 0 or v == 0 for u, v in zip(term, gen)) for gen in b.gens)
        for term in exponents
    )


def _in_radical(f: Polynomial, b: Ideal) -> bool:
    if b.is_monomial:
        return _monomials_in_radical(f.terms, b.to_monomial())
    # Rabinowitsch: f is in the radical of b iff 1 is in b + <1 - t f> in
    # R[t] for a fresh variable t, so one basis decides both ways.
    ring = b.ring
    t = "t" * (1 + max(map(len, ring.variables)))
    rt = ring.extend([t])
    return Ideal(rt, [g.remap(rt) for g in b.gens] + [1 - rt.var(t) * f.remap(rt)]).is_unit()


def check_radical_containment(a: Ideal, b: Ideal):
    """Verify a is contained in the radical of b, exactly.

    Raises PreconditionError naming the first generator of a outside it.
    Monomial a and b test a's antichain.  A non-monomial b decides each
    generator f by one Groebner basis of b + <1 - t f> in one extra variable
    t, under S_PAIR_CAP.
    """
    if a.is_monomial and b.is_monomial and _monomials_in_radical(a.to_monomial().gens, b.to_monomial()):
        return
    for g in a.gens:
        if not _in_radical(g, b):
            raise PreconditionError(f"generator {g} is not in the radical of b")


def _validate_pair(a: Ideal, b: Ideal, q: int):
    # a is proper once it lies in the radical of a proper b, so a unit a
    # fails the radical check, which runs last.
    _check_q(a.ring, q)
    if q < a.ring.p:
        raise PreconditionError("q must be a positive power of p (q >= p)")
    if a.is_zero() or b.is_zero() or b.is_unit():
        raise PreconditionError("a and b must be nonzero proper ideals")
    check_radical_containment(a, b)


def mu(a: Ideal, b: Ideal, q: int) -> int:
    """max{k : a^{[k]} not contained in b^{[q]}}.

    The pair is checked first: a must lie in the radical of b, which is
    decided exactly (see check_radical_containment).  Then exponential
    bracketing from k = 0, and binary search; monotonicity of k -> a^{[k]}
    makes the predicate monotone.  For a monomial a each probe tests
    a^{[k/q]} inside b instead, which is the same question (I is inside
    J^{[q]} iff I^{[1/q]} is inside J) and never forms a^{[k]}.  For any
    other a each probe streams the products of one generator from each
    digit factor (a^d)^{[p^i]} of a^{[k]}, tests each against b^{[q]} as it
    is formed (term by term in the antichain kernel when b is monomial, by
    reduction mod its basis otherwise) and stops at the first one outside;
    it never forms a^{[k]} either, and raises ResourceCapError once the
    products formed in one probe pass COMPOSITION_CAP.
    """
    _validate_pair(a, b, q)
    return _search(a, b, q, 0)


def _search(a: Ideal, b: Ideal, q: int, seed: int) -> int:
    # mu(q) of a checked pair, searched upward from a seed known to be outside
    p = a.ring.p
    if a.is_monomial:

        def outside(k: int) -> bool:
            return not ideal_contains(b, frob_power_int(a, k, q))

    else:
        # One product of digit-factor generators at a time, stopping at the
        # first outside b^{[q]}: general-path mu(a2, m, 625) at p = 5 took
        # 0.96-1.21 s when a^{[k]} was built, pruned and then tested, and
        # takes 0.42-0.47 s this way (2-core x86).  Dropping the terms that already
        # lie in b^{[q]}, or testing the rooted form as monomial a does
        # (0.01 s), would answer it inside the 0.2 s budget of perfbench's
        # budget self-test, whose slow call it is; both wait for the
        # benchmark change (ROADMAP direction 1) that gives it another.
        bq = bracket_power(b, q)

        def outside(k: int) -> bool:
            return not _frob_power_inside(a, k, bq)

    if not outside(seed):
        raise PreconditionError("invalid search seed for mu")
    # Seeded from p*mu(q/p), the next value sits within p of the seed; start
    # the doubling bracket there and widen only if needed.
    return _last_true(outside, seed, seed + p if seed else 1)


def nu(f: Polynomial, b: Ideal, q: int) -> int:
    """max{k : f^k not in b^{[q]}}: the F-threshold numerator for powers of f.

    This is mu of the principal ideal <f>, whose Frobenius powers are the
    ordinary powers <f^k>.
    """
    return mu(Ideal(f.ring, [f]), b, q)


def crit_truncations(a: Ideal, b: Ideal, e_max: int) -> TruncationReport:
    """mu(p^e)/p^e for e = 1..e_max, each search seeded from p * mu(previous).

    The pair is checked once, at q = p, as mu checks it: a must lie in the
    radical of b, which is decided exactly.
    """
    if e_max < 1:
        raise PreconditionError("e_max must be at least 1")
    p = a.ring.p
    _validate_pair(a, b, p)
    mus: list[int] = []
    qs: list[int] = []
    for e in range(1, e_max + 1):
        q = p**e
        seed = p * mus[-1] if mus else 0
        mus.append(_search(a, b, q, seed))
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


def _check_caps(b_max: int, c_max: int):
    if b_max < 0 or c_max < 0:
        raise PreconditionError(
            f"candidate caps must be nonnegative, got b_max={b_max}, c_max={c_max}"
        )


def _denominators(p: int, b_max: int, c_max: int) -> list[int]:
    """The denominators p^b and p^b (p^c - 1) with b <= b_max, 1 <= c <= c_max."""
    dens: set[int] = set()
    for b in range(b_max + 1):
        dens.add(p**b)
        for c in range(1, c_max + 1):
            dens.add(p**b * (p**c - 1))
    return sorted(dens)


def _forbidden_end(n: int, m: int, p: int, e_cap: int) -> tuple[int, int] | None:
    """(k, q - 1) when n/m lies strictly inside (k/q, k/(q-1)) for some
    q = p^e <= p^e_cap, tested in integers: k = floor(n q / m), n q / m is
    no integer, and n (q - 1) < k m.  That is the whole test for n/m <= 1,
    where every lce lies (a^{[1]} = a is inside the maximal ideal)."""
    for e in range(1, e_cap + 1):
        q = p**e
        k, rem = divmod(n * q, m)
        if rem and k >= 1 and n * (q - 1) < k * m:
            return k, q - 1
    return None


def _next_candidate(
    x: Fraction, dens: list[int], p: int, forbidden_cap: int = 0, strict: bool = True
) -> Fraction:
    """The smallest k/d > x (>= x unless strict) with d in dens that lies in no
    forbidden interval (k/q, k/(q-1)) with q <= p^forbidden_cap.

    The steps run on integer pairs: each d gives the least k with k/d past
    x, the best (k, d) is kept by cross-multiplication, and one Fraction is
    built, for the candidate returned.
    """
    n, m = x.numerator, x.denominator
    while True:
        k, d = None, 1
        for d2 in dens:
            k2 = n * d2 // m + 1 if strict else -(-n * d2 // m)
            if k is None or k2 * d < k * d2:
                k, d = k2, d2
        end = _forbidden_end(k, d, p, forbidden_cap) if forbidden_cap else None
        if end is None:
            return Fraction(k, d)
        # every candidate in (k/d, end) is forbidden too; end itself is not
        (n, m), strict = end, False


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
    return report._replace(candidate=best, certified_exact=certified)


def crit_reconstruct(
    a: Ideal, b: Ideal, e_max: int, b_max: int = 4, c_max: int = 4
) -> TruncationReport:
    """Truncations plus an exact-candidate search inside the certified interval."""
    _check_caps(b_max, c_max)
    report = crit_truncations(a, b, e_max)
    return _reconstruct(a, b, report, b_max, c_max)


def lce(a: Ideal, e_max: int, b_max: int = 4, c_max: int = 4) -> TruncationReport:
    """Least critical exponent at the origin: crit against <x_1, ..., x_n>.

    Candidates must additionally avoid every forbidden interval
    (k/q, k/(q-1)), q <= p^e_max.  The forbidden bound mu(q)/(q-1) <= lce is
    tested first: when the Frobenius power there already lands inside the
    maximal ideal, that value is the exact answer.  A zero a, or one not
    inside <x_1, ..., x_n>, fails crit_truncations' check of the pair with
    PreconditionError.
    """
    _check_caps(b_max, c_max)
    ring = a.ring
    maximal = Ideal(ring, [ring.var(name) for name in ring.variables])
    report = crit_truncations(a, maximal, e_max)
    q_max, mu_max = report.q_list[-1], report.mu_list[-1]
    sharp_low = Fraction(mu_max, q_max - 1)
    if ideal_contains(maximal, rational_power(a, sharp_low)):
        return report._replace(candidate=sharp_low, certified_exact=True)
    return _reconstruct(a, maximal, report, b_max, c_max, forbidden_cap=e_max)
