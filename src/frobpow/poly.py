"""Sparse multivariate polynomial arithmetic over Z/p.

A polynomial is a mapping {exponent tuple -> coefficient} with coefficients
kept canonical in [1, p) (zero coefficients are never stored), attached to a
:class:`PolyRing` that fixes the characteristic, the variable list and the
active monomial order.  Two polynomials are equal exactly when their rings
and term mappings coincide.

The text grammar shared with the CLI: a polynomial is terms joined by '+'
or '-'; a term is an optional integer coefficient, an optional '*', then
variable factors ``var`` or ``var^exp`` joined by '*'.  An integer is a run
of decimal digits; a name starts with a letter or '_' (any word character
but a decimal digit) and goes on with word characters, and a ring's variables
must be identifiers of that form.  Whitespace may separate any two tokens,
and a coefficient may be followed by a factor without '*' (``2 x`` is 2*x).
Examples::

    x^5 + y^5        2*x^2*y - 3        x*y^2
"""

from __future__ import annotations

import re
from operator import add, neg
from typing import Callable, Iterable, NamedTuple

from .arith import MAX_EXPONENT, base_p_digits, is_prime
from .errors import (
    ArityMismatchError,
    ExponentOverflowError,
    ParseError,
    PreconditionError,
)

Exponent = tuple[int, ...]

_GREVLEX_KEY = lambda u: (sum(u), tuple(map(neg, reversed(u))))
_GREVLEX_DESCENDING = lambda u: (-sum(u), u[::-1])
_NAME = re.compile(r"[^\W\d]\w*")  # a variable name, in a ring and in the grammar


class MonomialOrder(NamedTuple):
    """A monomial order: total, multiplicative, with 1 minimal.

    kind is one of "lex", "grevlex" or "block"; a block order compares the
    leading variable block (grevlex) first, then the rest (grevlex), which
    makes it an elimination order for the leading block.  A named tuple
    (kind, lead): equal orders are equal and hash alike, so they key caches.
    """

    kind: str
    lead: tuple[int, ...] = ()

    @staticmethod
    def lex() -> "MonomialOrder":
        return MonomialOrder("lex")

    @staticmethod
    def grevlex() -> "MonomialOrder":
        return MonomialOrder("grevlex")

    @staticmethod
    def elimination(lead: Iterable[int]) -> "MonomialOrder":
        return MonomialOrder("block", tuple(sorted(set(lead))))

    def sort_key(self) -> Callable[[Exponent], tuple]:
        """Key function; larger keys correspond to larger monomials."""
        return self._key(lambda u: u, _GREVLEX_KEY)

    def descending_key(self) -> Callable[[Exponent], tuple]:
        """Key function reversing :meth:`sort_key`: smaller keys correspond to
        larger monomials, so ``min`` and a heap yield the largest first."""
        return self._key(lambda u: tuple(map(neg, u)), _GREVLEX_DESCENDING)

    def _key(self, lex, grevlex):
        """This order's key, from a lex key and a grevlex key for one block."""
        if self.kind == "lex":
            return lex
        if self.kind == "grevlex":
            return grevlex
        if self.kind == "block":
            lead = self.lead

            def key(u: Exponent):
                head = tuple(u[i] for i in lead)
                tail = tuple(e for i, e in enumerate(u) if i not in lead)
                return (grevlex(head), grevlex(tail))

            return key
        raise PreconditionError(f"unknown monomial order kind {self.kind!r}")


# -- Exponent-tuple helpers (the Monomial type is a plain tuple of ints) -----


def monomial_scale(u: Exponent, q: int) -> Exponent:
    w = tuple(e * q for e in u)
    if max(w, default=0) > MAX_EXPONENT:
        raise ExponentOverflowError(f"exponent exceeds 64-bit bound: {w}")
    return w


class PolyRing(NamedTuple("PolyRing", [("p", int), ("variables", tuple), ("order", MonomialOrder)])):
    """Ring descriptor: characteristic, ordered variables, active order.

    A named tuple (p, variables, order), validated when made: rings with
    equal fields are equal and hash alike, and no field can be set.
    """

    __slots__ = ()

    def __new__(cls, p: int, variables: tuple[str, ...], order: MonomialOrder = MonomialOrder.grevlex()):
        # Test the bound first: trial division is only fast below it.
        if p >= 1 << 31:
            raise PreconditionError("characteristic must be below 2^31")
        if not is_prime(p):
            raise PreconditionError(f"{p} is not prime")
        if len(set(variables)) != len(variables):
            raise PreconditionError("duplicate variable names")
        for name in variables:
            if not (name.isidentifier() and _NAME.fullmatch(name)):
                raise PreconditionError(f"bad variable name {name!r}")
        return super().__new__(cls, p, variables, order)

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def zero(self) -> "Polynomial":
        return Polynomial(self, {}, _canonical=True)

    def one(self) -> "Polynomial":
        return self.const(1)

    def const(self, c: int) -> "Polynomial":
        c %= self.p
        terms = {(0,) * self.nvars: c} if c else {}
        return Polynomial(self, terms, _canonical=True)

    def var(self, name: str) -> "Polynomial":
        idx = self.variables.index(name)
        u = tuple(1 if i == idx else 0 for i in range(self.nvars))
        return Polynomial(self, {u: 1}, _canonical=True)

    def monomial(self, exponents: Iterable[int], coeff: int = 1) -> "Polynomial":
        return self.poly([(tuple(exponents), coeff)])

    def poly(self, terms: Iterable[tuple[Exponent, int]]) -> "Polynomial":
        """Canonicalize raw (monomial, coefficient) pairs into a polynomial."""
        acc: dict[Exponent, int] = {}
        for u, c in terms:
            u = tuple(u)
            if len(u) != self.nvars:
                raise ArityMismatchError(
                    f"expected {self.nvars} exponents, got {len(u)}"
                )
            if any(type(e) is not int or e < 0 or e > MAX_EXPONENT for e in u):
                if not all(type(e) is int for e in u):
                    raise PreconditionError(f"exponents must be integers: {u}")
                raise ExponentOverflowError(f"exponent out of range: {u}")
            c = (acc.get(u, 0) + c) % self.p
            if c:
                acc[u] = c
            elif u in acc:
                del acc[u]
        return Polynomial(self, acc, _canonical=True)

    def parse(self, text: str) -> "Polynomial":
        return parse_polynomial(self, text)

    def extend(self, new_vars: Iterable[str]) -> "PolyRing":
        return PolyRing(self.p, self.variables + tuple(new_vars), self.order)

    def sort_key(self) -> Callable[[Exponent], tuple]:
        return self.order.sort_key()


class Polynomial:
    """Immutable sparse polynomial over Z/p."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: PolyRing, terms: dict[Exponent, int], *, _canonical=False):
        if not _canonical:
            terms = ring.poly(terms.items()).terms
        self.ring = ring
        self.terms = terms
        self._hash = None

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(u) for u in self.terms)

    def is_term(self) -> bool:
        """Single-term polynomial (a scalar times one monomial)."""
        return len(self.terms) == 1

    def leading_exponent(self, key: Callable[[Exponent], tuple] | None = None) -> Exponent:
        if not self.terms:
            raise PreconditionError("the zero polynomial has no leading term")
        return max(self.terms, key=key or self.ring.sort_key())

    def leading_coefficient(self) -> int:
        return self.terms[self.leading_exponent()]

    def sorted_terms(self) -> list[tuple[Exponent, int]]:
        key = self.ring.sort_key()
        return sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=True)

    # -- arithmetic ----------------------------------------------------------

    def _check_ring(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise PreconditionError("polynomials live in different rings")

    def __add__(self, other: "Polynomial | int") -> "Polynomial":
        if isinstance(other, int):
            other = self.ring.const(other)
        elif not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ring(other)
        p = self.ring.p
        acc = dict(self.terms)
        for u, c in other.terms.items():
            s = (acc.get(u, 0) + c) % p
            if s:
                acc[u] = s
            elif u in acc:
                del acc[u]
        return Polynomial(self.ring, acc, _canonical=True)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        p = self.ring.p
        return Polynomial(
            self.ring, {u: p - c for u, c in self.terms.items()}, _canonical=True
        )

    def __sub__(self, other: "Polynomial | int") -> "Polynomial":
        if not isinstance(other, (int, Polynomial)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: int) -> "Polynomial":
        if not isinstance(other, int):
            return NotImplemented
        return -self + other

    def scale(self, c: int) -> "Polynomial":
        c %= self.ring.p
        if c == 0:
            return self.ring.zero()
        p = self.ring.p
        return Polynomial(
            self.ring, {u: (c * v) % p for u, v in self.terms.items()}, _canonical=True
        )

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ring(other)
        p = self.ring.p
        acc: dict[Exponent, int] = {}
        small, big = self.terms, other.terms
        if len(small) > len(big):
            small, big = big, small
        # Over a domain deg_i(fg) = deg_i(f) + deg_i(g), so the product
        # overflows exactly when some variable's degrees sum past the bound.
        top = map(add, map(max, zip(*small)), map(max, zip(*big)))
        if max(top, default=0) > MAX_EXPONENT:
            raise ExponentOverflowError("product exponent exceeds 64-bit bound")
        for u, cu in small.items():
            for v, cv in big.items():
                w = tuple(map(add, u, v))
                s = (acc.get(w, 0) + cu * cv) % p
                if s:
                    acc[w] = s
                elif w in acc:
                    del acc[w]
        return Polynomial(self.ring, acc, _canonical=True)

    __rmul__ = __mul__

    def frobenius(self, q: int) -> "Polynomial":
        """Termwise q-th power (q a power of p): exponents scale, coefficients fix."""
        return Polynomial(
            self.ring,
            {monomial_scale(u, q): c for u, c in self.terms.items()},
            _canonical=True,
        )

    def _pow_small(self, k: int) -> "Polynomial":
        result = self.ring.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __pow__(self, k: int) -> "Polynomial":
        """Exact k-th power, split along base-p digits of k.

        f^k factors as the product over i of (f^{k_i})^{p^i}, and the inner
        p^i-th power acts termwise, which keeps sparse polynomials sparse.
        """
        if k < 0:
            raise PreconditionError("negative polynomial power")
        if k == 0:
            return self.ring.one()
        # Over a domain deg_i(f^k) = k deg_i(f): refuse before multiplying.
        if k * max(map(max, zip(*self.terms)), default=0) > MAX_EXPONENT:
            raise ExponentOverflowError(f"power {k} exponent exceeds 64-bit bound")
        p = self.ring.p
        result = self.ring.one()
        for i, d in enumerate(base_p_digits(k, p)):
            if d:
                result = result * self._pow_small(d).frobenius(p**i)
        return result

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        lc = self.leading_coefficient()
        if lc == 1:
            return self
        return self.scale(pow(lc, self.ring.p - 2, self.ring.p))

    # -- ring moves ----------------------------------------------------------

    def remap(self, target: PolyRing) -> "Polynomial":
        """Reinterpret in a ring with a different variable list (match by name).

        Variables missing from the target must not occur in any term.
        """
        if target.p != self.ring.p:
            raise PreconditionError("cannot remap across characteristics")
        dest: list[int | None] = []
        for name in self.ring.variables:
            dest.append(target.variables.index(name) if name in target.variables else None)
        out: dict[Exponent, int] = {}
        for u, c in self.terms.items():
            w = [0] * target.nvars
            for i, e in enumerate(u):
                if e == 0:
                    continue
                j = dest[i]
                if j is None:
                    raise PreconditionError(
                        f"variable {self.ring.variables[i]!r} does not exist in the target ring"
                    )
                w[j] = e
            out[tuple(w)] = c
        return Polynomial(target, out, _canonical=True)

    # -- equality / printing --------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self.terms.items())))
        return self._hash

    def __str__(self):
        return format_polynomial(self)

    def __repr__(self):
        return f"Polynomial({format_polynomial(self)!r})"


# -- text form ----------------------------------------------------------------


def format_polynomial(f: Polynomial) -> str:
    """Canonical text form; re-parsing yields an equal polynomial."""
    if f.is_zero():
        return "0"
    names = f.ring.variables
    parts = []
    for u, c in f.sorted_terms():
        factors = []
        for name, e in zip(names, u):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(factors))
        else:
            parts.append("*".join([str(c)] + factors))
    return " + ".join(parts)


# One match per token; whitespace matches no group, so finditer skips it.
_TOKEN = re.compile(rf"(?P<int>\d+)|(?P<name>{_NAME.pattern})|(?P<op>[-+*^])|(?P<bad>\S)")


def parse_polynomial(
    ring: PolyRing, text: str, line: int = 1, col_offset: int = 0
) -> Polynomial:
    """Parse the shared polynomial grammar; errors carry line and column."""
    toks = [(m.lastgroup, m.group(), m.start()) for m in _TOKEN.finditer(text)]
    toks.append(("end", "", len(text)))

    def error(message: str, i: int):
        raise ParseError(message, line, col_offset + toks[i][2] + 1)

    for i, (kind, tok, _) in enumerate(toks):
        if kind == "bad":
            error(f"unexpected character {tok!r}", i)
    if len(toks) == 1:
        error("empty polynomial", 0)
    var_index = {name: i for i, name in enumerate(ring.variables)}
    terms: list[tuple[Exponent, int]] = []
    i = 0
    while toks[i][0] != "end":
        # A term is an optional sign, an optional coefficient and '*', then
        # factors; its factor loop stops only at a sign or at the end.
        sign = -1 if toks[i][1] == "-" else 1
        if toks[i][1] in ("+", "-"):
            i += 1
        coeff = 1
        exps = [0] * ring.nvars
        saw_factor = False
        if toks[i][0] == "int":
            coeff = int(toks[i][1])
            saw_factor = True
            i += 1
            if toks[i][1] == "*":
                i += 1
                saw_factor = False  # a variable factor must follow the '*'
        while toks[i][0] != "end" and toks[i][1] not in ("+", "-"):
            kind, tok, _ = toks[i]
            if kind != "name":
                error(f"expected a variable, found {tok!r}", i)
            if tok not in var_index:
                error(f"undeclared variable {tok!r}", i)
            i += 1
            exp = 1
            if toks[i][1] == "^":
                if toks[i + 1][0] != "int":
                    error("expected an integer exponent", i + 1)
                exp = int(toks[i + 1][1])
                if exp > MAX_EXPONENT:
                    error("exponent exceeds 64-bit bound", i - 1)
                i += 2
            exps[var_index[tok]] += exp
            saw_factor = True
            if toks[i][1] == "*":
                i += 1
                saw_factor = False
            elif toks[i][0] in ("name", "int"):
                error("factors must be joined by '*'", i)
        if not saw_factor:
            error("dangling '*' or empty term", i)
        terms.append((tuple(exps), sign * coeff))
    return ring.poly(terms)
