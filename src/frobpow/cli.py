"""Command-line surface: problem files in, text or JSON out.

Problem file grammar (one directive per line, '#' starts a comment)::

    p 3
    vars x y
    ideal a = x^5, y^5
    rational t0 = 2/5

``COMMANDS`` is the command set: each entry gives a command's help line, its
options (keys of ``_OPTIONS``) and a handler, which returns the text output
and the JSON fields after ``command``/``p``/``vars``.  ``build_parser`` and
``run_command`` read the table; q and t go to the library, which rejects bad
values.  Results print as canonical generator lists (reduced basis for
general ideals, minimal generators for monomial ones, grevlex-descending) or
reduced rationals.  Exit codes: 0 success, 2 parse error, 3 precondition
violation, 4 resource cap exceeded.

This module imports only what parsing needs (``errors``, ``arith``,
``poly``, ``ideal``).  Each handler imports the layers it runs when it
runs, so a command loads no other layer, and a tracer that rebinds a
layer's functions is seen by the next call.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, NamedTuple

from .arith import p_adic_decompose
from .errors import (
    ExponentOverflowError,
    FrobpowError,
    ParseError,
    PreconditionError,
    ResourceCapError,
)
from .ideal import Ideal, frob_root
from .poly import PolyRing, parse_polynomial

if TYPE_CHECKING:
    from .thresholds import TruncationReport

OUTPUT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["command", "p", "vars", "result"],
    "additionalProperties": False,
    "properties": {
        "command": {"type": "string"},
        "p": {"type": "integer"},
        "vars": {"type": "array", "items": {"type": "string"}},
        "result": {
            "oneOf": [
                {
                    "type": "object",
                    "required": ["generators"],
                    "additionalProperties": False,
                    "properties": {
                        "generators": {"type": "array", "items": {"type": "string"}}
                    },
                },
                {
                    "type": "object",
                    "required": ["value"],
                    "additionalProperties": False,
                    "properties": {"value": {"type": ["string", "null"]}},
                },
                {
                    "type": "object",
                    "required": ["pairs"],
                    "additionalProperties": False,
                    "properties": {
                        "pairs": {
                            "type": "array",
                            "items": {
                                "type": "object",
                                "required": ["monomial", "coefficient"],
                                "additionalProperties": False,
                                "properties": {
                                    "monomial": {"type": "string"},
                                    "coefficient": {"type": "string"},
                                },
                            },
                        }
                    },
                },
            ]
        },
        "certification": {
            "type": "object",
            "required": [
                "q_list",
                "mu_list",
                "truncations",
                "interval_low",
                "interval_high",
                "candidate",
                "certified_exact",
            ],
            "additionalProperties": False,
            "properties": {
                "q_list": {"type": "array", "items": {"type": "integer"}},
                "mu_list": {"type": "array", "items": {"type": "integer"}},
                "truncations": {"type": "array", "items": {"type": "string"}},
                "interval_low": {"type": "string"},
                "interval_high": {"type": "string"},
                "candidate": {"type": ["string", "null"]},
                "certified_exact": {"type": "boolean"},
            },
        },
        "grid": {
            "type": "object",
            "required": ["resolution", "breakpoints", "intervals"],
            "additionalProperties": False,
            "properties": {
                "resolution": {"type": "string"},
                "breakpoints": {"type": "array", "items": {"type": "string"}},
                "intervals": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["start", "end", "generators"],
                        "additionalProperties": False,
                        "properties": {
                            "start": {"type": "string"},
                            "end": {"type": "string"},
                            "generators": {
                                "type": "array",
                                "items": {"type": "string"},
                            },
                        },
                    },
                },
            },
        },
        "decomposition": {
            "type": "object",
            "required": ["b", "c", "k", "l", "r"],
            "additionalProperties": False,
            "properties": {
                "b": {"type": "integer"},
                "c": {"type": "integer"},
                "k": {"type": "string"},
                "l": {"type": "string"},
                "r": {"type": "string"},
            },
        },
    },
}


class ProblemFile(NamedTuple):
    """Parsed problem file: characteristic, ring, named ideals and rationals,
    as a named tuple (p, ring, ideals, rationals)."""

    p: int
    ring: PolyRing
    ideals: dict[str, Ideal]
    rationals: dict[str, Fraction]

    def ideal(self, name: str) -> Ideal:
        """The ideal declared under `name`."""
        if name not in self.ideals:
            raise PreconditionError(f"no ideal named {name!r} in the input")
        return self.ideals[name]

    def rational(self, text: str) -> Fraction:
        """The rational declared under `text`, else `text` read as a rational."""
        if text in self.rationals:
            return self.rationals[text]
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise PreconditionError(f"bad rational {text!r}")


def parse_input(text: str) -> ProblemFile:
    """Parse the problem-file grammar; errors carry line and column."""
    p: int | None = None
    ring: PolyRing | None = None
    ideals: dict[str, Ideal] = {}
    rationals: dict[str, Fraction] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        indent = len(line) - len(line.lstrip()) + 1
        head, _, rest = stripped.partition(" ")
        rest = rest.strip()
        if head == "p":
            if p is not None:
                raise ParseError("duplicate 'p' line", lineno, indent)
            try:
                p = int(rest)
            except ValueError:
                raise ParseError(f"bad characteristic {rest!r}", lineno, indent)
            try:
                PolyRing(p, ())
            except PreconditionError as exc:
                raise ParseError(str(exc), lineno, indent)
        elif head == "vars":
            if ring is not None:
                raise ParseError("duplicate 'vars' line", lineno, indent)
            if p is None:
                raise ParseError("'vars' must come after 'p'", lineno, indent)
            names = rest.split()
            if not names:
                raise ParseError("empty variable list", lineno, indent)
            try:
                ring = PolyRing(p, tuple(names))
            except PreconditionError as exc:
                raise ParseError(str(exc), lineno, indent)
        elif head in ("ideal", "rational"):
            if ring is None:
                raise ParseError(
                    f"{head!r} must come after 'p' and 'vars'", lineno, indent
                )
            name, eq, body = rest.partition("=")
            name = name.strip()
            if not eq or not name.isidentifier():
                raise ParseError(f"expected '{head} <name> = ...'", lineno, indent)
            if name in ideals or name in rationals:
                raise ParseError(f"duplicate name {name!r}", lineno, indent)
            col0 = raw.index("=") + 1
            if head == "ideal":
                gens = []
                offset = col0
                for chunk in body.split(","):
                    if not chunk.strip():
                        raise ParseError("empty generator", lineno, offset + 1)
                    gens.append(
                        parse_polynomial(ring, chunk, line=lineno, col_offset=offset)
                    )
                    offset += len(chunk) + 1
                ideals[name] = Ideal(ring, gens)
            else:
                try:
                    value = Fraction(body.strip())
                except (ValueError, ZeroDivisionError):
                    raise ParseError(f"bad rational {body.strip()!r}", lineno, col0 + 1)
                if value < 0:
                    raise ParseError("rationals must be nonnegative", lineno, col0 + 1)
                rationals[name] = value
        else:
            raise ParseError(f"unknown directive {head!r}", lineno, indent)
    if p is None or ring is None:
        raise ParseError("problem file needs 'p' and 'vars' lines", 1, 1)
    return ProblemFile(p=p, ring=ring, ideals=ideals, rationals=rationals)


# -- commands and their output ---------------------------------------------------

Output = tuple[str, dict]  # text output, JSON fields after command/p/vars


def _ideal_result(a: Ideal) -> tuple[str, dict]:
    """The text and the JSON ``result`` object of an ideal."""
    names = [str(g) for g in a.canonical_generators()] or ["0"]
    return ", ".join(names), {"generators": names}


def _ideal_output(a: Ideal) -> Output:
    text, result = _ideal_result(a)
    return text, {"result": result}


def _value_output(value) -> Output:
    return str(value), {"result": {"value": str(value)}}


def _report_output(report: TruncationReport, verbose: bool) -> Output:
    low, high = report.interval_low, report.interval_high
    candidate = None if report.candidate is None else str(report.candidate)
    if candidate is None:
        text = f"no candidate in ({low}, {high}]"
    else:
        text = f"{candidate} ({'certified' if report.certified_exact else 'heuristic'})"
    truncations = [str(t) for t in report.mu_over_q]
    if verbose:
        text += f"\ntruncations: {', '.join(truncations)}\ninterval: ({low}, {high}]"
    return text, {
        "result": {"value": candidate},
        "certification": {
            "q_list": list(report.q_list),
            "mu_list": list(report.mu_list),
            "truncations": truncations,
            "interval_low": str(low),
            "interval_high": str(high),
            "candidate": candidate,
            "certified_exact": report.certified_exact,
        },
    }


def _power(file: ProblemFile, args: argparse.Namespace) -> Output:
    from .frobpower import rational_power

    t = file.rational(args.t)
    text, fields = _ideal_output(rational_power(file.ideal(args.ideal), t))
    if args.verbose:
        d = p_adic_decompose(t, file.p)
        fields["decomposition"] = {
            "b": d.b, "c": d.c, "k": str(d.k), "l": str(d.l), "r": str(d.r)
        }
        text += f"\nt = {t}: b={d.b} c={d.c} k={d.k} l={d.l} r={d.r}"
    return text, fields


def _root(file: ProblemFile, args: argparse.Namespace) -> Output:
    return _ideal_output(frob_root(file.ideal(args.ideal), args.q))


def _mu(file: ProblemFile, args: argparse.Namespace) -> Output:
    from .thresholds import mu

    return _value_output(mu(file.ideal(args.num), file.ideal(args.den), args.q))


def _nu(file: ProblemFile, args: argparse.Namespace) -> Output:
    from .thresholds import nu

    f = file.ideal(args.poly)
    if len(f.gens) != 1:
        raise PreconditionError(
            f"--poly needs a principal ideal, {args.poly!r} has {len(f.gens)} generators"
        )
    return _value_output(nu(f.gens[0], file.ideal(args.den), args.q))


def _crit(file: ProblemFile, args: argparse.Namespace) -> Output:
    from .thresholds import crit_reconstruct

    a, b = file.ideal(args.num), file.ideal(args.den)
    report = crit_reconstruct(a, b, args.emax, args.bmax, args.cmax)
    return _report_output(report, args.verbose)


def _lce(file: ProblemFile, args: argparse.Namespace) -> Output:
    from .thresholds import lce

    report = lce(file.ideal(args.ideal), args.emax, args.bmax, args.cmax)
    return _report_output(report, args.verbose)


def _tau_monomial(file: ProblemFile, args: argparse.Namespace) -> Output:
    from .monomial import newton_tau

    a = file.ideal(args.ideal).to_monomial()
    return _ideal_output(Ideal.from_monomial(newton_tau(a, file.rational(args.t))))


def _fpt_monomial(file: ProblemFile, args: argparse.Namespace) -> Output:
    from .monomial import newton_fpt

    return _value_output(newton_fpt(file.ideal(args.ideal).to_monomial()))


def _jumps(file: ProblemFile, args: argparse.Namespace) -> Output:
    from .frobpower import jumps_scan

    step = jumps_scan(file.ideal(args.ideal), args.emax)
    shown = [(lo, hi, *_ideal_result(v)) for lo, hi, v in step.intervals()]
    text = "\n".join(f"[{lo}, {hi}): {gens}" for lo, hi, gens, _ in shown)
    grid = {
        "resolution": str(step.resolution),
        "breakpoints": [str(b) for b in step.breakpoints],
        "intervals": [
            {"start": str(lo), "end": str(hi), **result} for lo, hi, _, result in shown
        ],
    }
    return text, {"grid": grid, "result": shown[0][3]}


def _principalize(file: ProblemFile, args: argparse.Namespace) -> Output:
    from .generic import principal_power_oracle

    gens = list(file.ideal(args.ideal).gens)
    return _ideal_output(principal_power_oracle(gens, file.rational(args.t)))


def _stratify(file: ProblemFile, args: argparse.Namespace) -> Output:
    from .generic import stratify

    gens, b = list(file.ideal(args.ideal).gens), file.ideal(args.den).to_monomial()
    pairs = [
        {"monomial": str(file.ring.monomial(u)), "coefficient": str(h)}
        for u, h in stratify(gens, b, args.i, args.q)
    ]
    text = "\n".join(f"{d['monomial']}: {d['coefficient']}" for d in pairs)
    return text, {"result": {"pairs": pairs}}


class Command(NamedTuple):
    help: str
    options: str  # space-separated keys of _OPTIONS
    run: Callable[[ProblemFile, argparse.Namespace], Output]


# argparse settings of each option: required strings and integers, crit/lce caps
_OPTIONS = dict.fromkeys(("ideal", "num", "den", "poly", "t"), {"required": True})
_OPTIONS.update(dict.fromkeys(("q", "i", "emax"), {"required": True, "type": int}))
_OPTIONS.update(dict.fromkeys(("bmax", "cmax"), {"type": int, "default": 4}))

COMMANDS: dict[str, Command] = {
    "power": Command("rational Frobenius power a^[t]", "ideal t", _power),
    "root": Command("Frobenius root a^[1/q]", "ideal q", _root),
    "mu": Command("critical numerator mu(q)", "num den q", _mu),
    "nu": Command("F-threshold numerator nu(q) for a polynomial", "poly den q", _nu),
    "crit": Command(
        "critical exponent truncations + candidate", "num den emax bmax cmax", _crit
    ),
    "lce": Command("least critical exponent at the origin", "ideal emax bmax cmax", _lce),
    "tau-monomial": Command("Newton-polyhedron test ideal", "ideal t", _tau_monomial),
    "fpt-monomial": Command("F-pure threshold of a monomial ideal", "ideal", _fpt_monomial),
    "jumps": Command("step function of a^[t] on a p-power grid", "ideal emax", _jumps),
    "principalize": Command("a^[t] through the generic hypersurface", "ideal t", _principalize),
    "stratify": Command("coefficient extraction for strata", "ideal den i q", _stratify),
}


def run_command(file: ProblemFile, command: str, args: argparse.Namespace) -> dict:
    """Run a command on build_parser's arguments; returns {'text': ..., 'json': ...}."""
    if command not in COMMANDS:
        raise PreconditionError(f"unknown command {command!r}")
    text, fields = COMMANDS[command].run(file, args)
    payload = {"command": command, "p": file.p, "vars": list(file.ring.variables)}
    return {"text": text, "json": {**payload, **fields}}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frobpow",
        description="Exact Frobenius powers, roots and critical exponents over Z/p.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        sp = sub.add_parser(name, help=command.help)
        for option in command.options.split():
            sp.add_argument(f"--{option}", **_OPTIONS[option])
        sp.add_argument("input", help="problem file path, or '-' for stdin")
        sp.add_argument("--format", choices=["text", "json"], default="text")
        sp.add_argument("--verbose", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            try:
                with open(args.input, "r", encoding="utf-8") as handle:
                    text = handle.read()
            except OSError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        file = parse_input(text)
        out = run_command(file, args.command, args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ResourceCapError, ExponentOverflowError) as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 4
    except FrobpowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if args.format == "json":
        print(json.dumps(out["json"]))
    else:
        print(out["text"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
