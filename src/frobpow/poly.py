"""Sparse multivariate polynomial arithmetic over Z/p.

A polynomial is a mapping {exponent tuple -> coefficient} with coefficients
kept canonical in [1, p) (zero coefficients are never stored), attached to a
:class:`PolyRing` that fixes the characteristic, the variable list and the
active monomial order.  Two polynomials are equal exactly when their rings
and term mappings coincide.

The text grammar shared with the CLI: a polynomial is terms joined by '+'
or '-'; a term is an optional integer coefficient, an optional '*', then
variable factors ``var`` or ``var^exp`` joined by '*'.  Examples::

    x^5 + y^5        2*x^2*y - 3        x*y^2
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from .arith import MAX_EXPONENT, base_p_digits, is_prime
from .errors import (
    ArityMismatchError,
    ExponentOverflowError,
    ParseError,
    PreconditionError,
)

Exponent = tuple[int, ...]

_GREVLEX_KEY = lambda u: (sum(u), tuple(-e for e in reversed(u)))


class FieldElement:
    """A residue in Z/p, canonical representative in [0, p)."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        self.value = value % p
        self.p = p

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.p != self.p:
                raise PreconditionError("mixed moduli in field arithmetic")
            return other
        return FieldElement(other, self.p)

    def __add__(self, other):
        other = self._coerce(other)
        return FieldElement(self.value + other.value, self.p)

    def __sub__(self, other):
        other = self._coerce(other)
        return FieldElement(self.value - other.value, self.p)

    def __neg__(self):
        return FieldElement(-self.value, self.p)

    def __mul__(self, other):
        other = self._coerce(other)
        return FieldElement(self.value * other.value, self.p)

    def inverse(self) -> "FieldElement":
        if self.value == 0:
            raise ZeroDivisionError("inverse of zero in Z/p")
        return FieldElement(pow(self.value, self.p - 2, self.p), self.p)

    def __truediv__(self, other):
        other = self._coerce(other)
        return self * other.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return FieldElement(pow(self.value, e, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.value == other % self.p
        return (
            isinstance(other, FieldElement)
            and self.p == other.p
            and self.value == other.value
        )

    def __hash__(self):
        return hash((self.value, self.p))

    def __repr__(self):
        return f"FieldElement({self.value}, p={self.p})"


@dataclass(frozen=True)
class MonomialOrder:
    """A monomial order: total, multiplicative, with 1 minimal.

    kind is one of "lex", "grevlex" or "block"; a block order compares the
    leading variable block (grevlex) first, then the rest (grevlex), which
    makes it an elimination order for the leading block.
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
        if self.kind == "lex":
            return lambda u: u
        if self.kind == "grevlex":
            return _GREVLEX_KEY
        if self.kind == "block":
            lead = self.lead

            def key(u: Exponent, _lead=lead):
                head = tuple(u[i] for i in _lead)
                tail = tuple(e for i, e in enumerate(u) if i not in _lead)
                return (_GREVLEX_KEY(head), _GREVLEX_KEY(tail))

            return key
        raise PreconditionError(f"unknown monomial order kind {self.kind!r}")


# -- Exponent-tuple helpers (the Monomial type is a plain tuple of ints) -----


def monomial_scale(u: Exponent, q: int) -> Exponent:
    w = tuple(e * q for e in u)
    if max(w, default=0) > MAX_EXPONENT:
        raise ExponentOverflowError(f"exponent exceeds 64-bit bound: {w}")
    return w


@dataclass(frozen=True)
class PolyRing:
    """Ring descriptor: characteristic, ordered variables, active order."""

    p: int
    variables: tuple[str, ...]
    order: MonomialOrder = field(default_factory=MonomialOrder.grevlex)

    def __post_init__(self):
        if not is_prime(self.p):
            raise PreconditionError(f"{self.p} is not prime")
        if self.p >= 1 << 31:
            raise PreconditionError("characteristic must be below 2^31")
        if len(set(self.variables)) != len(self.variables):
            raise PreconditionError("duplicate variable names")
        for name in self.variables:
            if not name.isidentifier():
                raise PreconditionError(f"bad variable name {name!r}")

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
            if any(e < 0 or e > MAX_EXPONENT for e in u):
                raise ExponentOverflowError(f"exponent out of range: {u}")
            if isinstance(c, FieldElement):
                c = c.value
            c = (acc.get(u, 0) + c) % self.p
            if c:
                acc[u] = c
            elif u in acc:
                del acc[u]
        return Polynomial(self, acc, _canonical=True)

    def parse(self, text: str) -> "Polynomial":
        return parse_polynomial(self, text)

    def with_order(self, order: MonomialOrder) -> "PolyRing":
        return PolyRing(self.p, self.variables, order)

    def extend(self, new_vars: Iterable[str], order: MonomialOrder | None = None) -> "PolyRing":
        return PolyRing(
            self.p,
            self.variables + tuple(new_vars),
            order if order is not None else self.order,
        )

    def sort_key(self) -> Callable[[Exponent], tuple]:
        return self.order.sort_key()


def poly_canonicalize(ring: PolyRing, terms: Iterable[tuple[Exponent, int]]) -> "Polynomial":
    """Merge duplicate monomials, drop zeros, and fix the term order."""
    return ring.poly(terms)


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

    def constant_value(self) -> int:
        if not self.terms:
            return 0
        return self.terms[(0,) * self.ring.nvars]

    def degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(u) for u in self.terms)

    def leading_exponent(self, key: Callable[[Exponent], tuple] | None = None) -> Exponent:
        if not self.terms:
            raise PreconditionError("the zero polynomial has no leading term")
        return max(self.terms, key=key or self.ring.sort_key())

    def leading_coefficient(self) -> int:
        return self.terms[self.leading_exponent()]

    def coefficient(self, u: Exponent) -> FieldElement:
        return FieldElement(self.terms.get(tuple(u), 0), self.ring.p)

    def sorted_terms(self) -> list[tuple[Exponent, int]]:
        key = self.ring.sort_key()
        return sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=True)

    def support(self) -> list[Exponent]:
        """Monomials appearing with a nonzero coefficient, descending."""
        return [u for u, _ in self.sorted_terms()]

    # -- arithmetic ----------------------------------------------------------

    def _check_ring(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise PreconditionError("polynomials live in different rings")

    def __add__(self, other: "Polynomial") -> "Polynomial":
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

    def __neg__(self) -> "Polynomial":
        p = self.ring.p
        return Polynomial(
            self.ring, {u: p - c for u, c in self.terms.items()}, _canonical=True
        )

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

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
        self._check_ring(other)
        p = self.ring.p
        acc: dict[Exponent, int] = {}
        small, big = self.terms, other.terms
        if len(small) > len(big):
            small, big = big, small
        for u, cu in small.items():
            for v, cv in big.items():
                w = tuple(a + b for a, b in zip(u, v))
                s = (acc.get(w, 0) + cu * cv) % p
                if s:
                    acc[w] = s
                elif w in acc:
                    del acc[w]
        if acc and any(e > MAX_EXPONENT for w in acc for e in w):
            raise ExponentOverflowError("product exponent exceeds 64-bit bound")
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


class _Tokens:
    """Single-line tokenizer for the polynomial grammar."""

    def __init__(self, text: str, line: int = 1, col_offset: int = 0):
        self.text = text
        self.line = line
        self.col_offset = col_offset
        self.pos = 0
        self.tokens: list[tuple[str, str, int]] = []
        self._scan()
        self.idx = 0

    def _scan(self):
        text, n = self.text, len(self.text)
        i = 0
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch.isdigit():
                j = i
                while j < n and text[j].isdigit():
                    j += 1
                self.tokens.append(("int", text[i:j], i))
                i = j
            elif ch.isalpha() or ch == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.tokens.append(("name", text[i:j], i))
                i = j
            elif ch in "+-*^":
                self.tokens.append((ch, ch, i))
                i += 1
            else:
                raise ParseError(
                    f"unexpected character {ch!r}", self.line, self.col_offset + i + 1
                )

    def peek(self):
        return self.tokens[self.idx] if self.idx < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is not None:
            self.idx += 1
        return tok

    def error(self, message: str, tok=None):
        col = self.col_offset + (tok[2] + 1 if tok else len(self.text) + 1)
        raise ParseError(message, self.line, col)


def parse_polynomial(
    ring: PolyRing, text: str, line: int = 1, col_offset: int = 0
) -> Polynomial:
    """Parse the shared polynomial grammar; errors carry line and column."""
    toks = _Tokens(text, line, col_offset)
    var_index = {name: i for i, name in enumerate(ring.variables)}
    terms: list[tuple[Exponent, int]] = []
    sign = 1
    first = True
    while True:
        tok = toks.peek()
        if tok is None:
            if first:
                toks.error("empty polynomial")
            break
        if not first:
            if tok[0] == "+":
                sign = 1
            elif tok[0] == "-":
                sign = -1
            else:
                toks.error(f"expected '+' or '-', found {tok[1]!r}", tok)
            toks.next()
        elif tok[0] in "+-":
            sign = 1 if tok[0] == "+" else -1
            toks.next()
        first = False

        coeff = 1
        exps = [0] * ring.nvars
        saw_factor = False
        tok = toks.peek()
        if tok is not None and tok[0] == "int":
            coeff = int(tok[1])
            saw_factor = True
            toks.next()
            if toks.peek() is not None and toks.peek()[0] == "*":
                toks.next()
                saw_factor = False  # a variable factor must follow the '*'
        while True:
            tok = toks.peek()
            if tok is None or tok[0] in "+-":
                break
            if tok[0] != "name":
                toks.error(f"expected a variable, found {tok[1]!r}", tok)
            if tok[1] not in var_index:
                toks.error(f"undeclared variable {tok[1]!r}", tok)
            toks.next()
            exp = 1
            nxt = toks.peek()
            if nxt is not None and nxt[0] == "^":
                toks.next()
                etok = toks.peek()
                if etok is None or etok[0] != "int":
                    toks.error("expected an integer exponent", etok)
                exp = int(etok[1])
                toks.next()
            if exp > MAX_EXPONENT:
                toks.error("exponent exceeds 64-bit bound", tok)
            exps[var_index[tok[1]]] += exp
            saw_factor = True
            nxt = toks.peek()
            if nxt is not None and nxt[0] == "*":
                toks.next()
                saw_factor = False
            elif nxt is not None and nxt[0] in ("name", "int"):
                toks.error("factors must be joined by '*'", nxt)
        if not saw_factor:
            toks.error("dangling '*' or empty term", toks.peek())
        terms.append((tuple(exps), sign * coeff))
    return ring.poly(terms)
