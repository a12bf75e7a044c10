"""Command-line surface: problem files in, text or JSON out.

Problem file grammar (one directive per line, '#' starts a comment)::

    p 3
    vars x y
    ideal a = x^5, y^5
    rational t0 = 2/5

Commands dispatch to the kernel; results print as canonical generator lists
(reduced basis for general ideals, minimal generators for monomial ones,
grevlex-descending) or reduced rationals.  Exit codes: 0 success, 2 parse
error, 3 precondition violation, 4 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .arith import is_power_of, p_adic_decompose
from .errors import (
    ExponentOverflowError,
    FrobpowError,
    ParseError,
    PreconditionError,
    ResourceCapError,
)
from .frobpower import StepFunction, jumps_scan, rational_power
from .generic import principal_power_oracle, stratify
from .ideal import Ideal, frob_root
from .monomial import newton_fpt, newton_tau
from .poly import PolyRing, parse_polynomial
from .thresholds import TruncationReport, crit_reconstruct, lce, mu, nu

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


@dataclass
class ProblemFile:
    """Parsed problem file: characteristic, ring, named ideals and rationals."""

    p: int
    ring: PolyRing
    ideals: dict[str, Ideal] = field(default_factory=dict)
    rationals: dict[str, Fraction] = field(default_factory=dict)


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


# -- result rendering ------------------------------------------------------------


def _ideal_strings(a: Ideal) -> list[str]:
    gens = a.canonical_generators()
    if not gens:
        return ["0"]
    return [str(g) for g in gens]


def _ideal_result(a: Ideal) -> tuple[str, dict]:
    names = _ideal_strings(a)
    return ", ".join(names), {"generators": names}


def _certification(report: TruncationReport) -> dict:
    return {
        "q_list": list(report.q_list),
        "mu_list": list(report.mu_list),
        "truncations": [str(t) for t in report.mu_over_q],
        "interval_low": str(report.interval_low),
        "interval_high": str(report.interval_high),
        "candidate": None if report.candidate is None else str(report.candidate),
        "certified_exact": report.certified_exact,
    }


def _report_text(report: TruncationReport, verbose: bool) -> str:
    if report.candidate is None:
        line = (
            f"no candidate in ({report.interval_low}, {report.interval_high}]"
        )
    else:
        tag = "certified" if report.certified_exact else "heuristic"
        line = f"{report.candidate} ({tag})"
    if verbose:
        truncs = ", ".join(str(t) for t in report.mu_over_q)
        line += f"\ntruncations: {truncs}"
        line += f"\ninterval: ({report.interval_low}, {report.interval_high}]"
    return line


def _grid_payload(step: StepFunction) -> dict:
    return {
        "resolution": str(step.resolution),
        "breakpoints": [str(b) for b in step.breakpoints],
        "intervals": [
            {"start": str(lo), "end": str(hi), "generators": _ideal_strings(v)}
            for lo, hi, v in step.intervals()
        ],
    }


def _monomial_of(file: ProblemFile, name: str):
    return _named_ideal(file, name).to_monomial()


def _named_ideal(file: ProblemFile, name: str) -> Ideal:
    if name not in file.ideals:
        raise PreconditionError(f"no ideal named {name!r} in the input")
    return file.ideals[name]


def _named_poly(file: ProblemFile, name: str):
    a = _named_ideal(file, name)
    if len(a.gens) != 1:
        raise PreconditionError(f"--poly needs a principal ideal, {name!r} has {len(a.gens)} generators")
    return a.gens[0]


def _parse_t(file: ProblemFile, text: str) -> Fraction:
    if text in file.rationals:
        return file.rationals[text]
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise PreconditionError(f"bad rational {text!r}")
    if value < 0:
        raise PreconditionError("t must be nonnegative")
    return value


def run_command(file: ProblemFile, command: str, args: argparse.Namespace) -> dict:
    """Execute one command; returns {'text': ..., 'json': ...}."""
    payload: dict = {
        "command": command,
        "p": file.p,
        "vars": list(file.ring.variables),
    }
    verbose = getattr(args, "verbose", False)
    if command == "power":
        t = _parse_t(file, args.t)
        result = rational_power(_named_ideal(file, args.ideal), t)
        text, payload["result"] = _ideal_result(result)
        if verbose:
            dec = p_adic_decompose(t, file.p)
            payload["decomposition"] = {
                "b": dec.b,
                "c": dec.c,
                "k": str(dec.k),
                "l": str(dec.l),
                "r": str(dec.r),
            }
            text += f"\nt = {t}: b={dec.b} c={dec.c} k={dec.k} l={dec.l} r={dec.r}"
    elif command == "root":
        result = frob_root(_named_ideal(file, args.ideal), _parse_q(file, args.q))
        text, payload["result"] = _ideal_result(result)
    elif command == "mu":
        value = mu(
            _named_ideal(file, args.num),
            _named_ideal(file, args.den),
            _parse_q(file, args.q),
        )
        text, payload["result"] = str(value), {"value": str(value)}
    elif command == "nu":
        value = nu(
            _named_poly(file, args.poly),
            _named_ideal(file, args.den),
            _parse_q(file, args.q),
        )
        text, payload["result"] = str(value), {"value": str(value)}
    elif command == "crit":
        report = crit_reconstruct(
            _named_ideal(file, args.num),
            _named_ideal(file, args.den),
            args.emax,
            args.bmax,
            args.cmax,
        )
        text = _report_text(report, verbose)
        payload["result"] = {
            "value": None if report.candidate is None else str(report.candidate)
        }
        payload["certification"] = _certification(report)
    elif command == "lce":
        report = lce(_named_ideal(file, args.ideal), args.emax, args.bmax, args.cmax)
        text = _report_text(report, verbose)
        payload["result"] = {
            "value": None if report.candidate is None else str(report.candidate)
        }
        payload["certification"] = _certification(report)
    elif command == "tau-monomial":
        result = newton_tau(_monomial_of(file, args.ideal), _parse_t(file, args.t))
        text, payload["result"] = _ideal_result(Ideal.from_monomial(result))
    elif command == "fpt-monomial":
        value = newton_fpt(_monomial_of(file, args.ideal))
        text, payload["result"] = str(value), {"value": str(value)}
    elif command == "jumps":
        step = jumps_scan(_named_ideal(file, args.ideal), args.emax)
        payload["grid"] = _grid_payload(step)
        first = step.values[0]
        text_lines = [
            f"[{lo}, {hi}): {', '.join(_ideal_strings(v))}"
            for lo, hi, v in step.intervals()
        ]
        text = "\n".join(text_lines)
        payload["result"] = {"generators": _ideal_strings(first)}
    elif command == "principalize":
        result = principal_power_oracle(
            list(_named_ideal(file, args.ideal).gens), _parse_t(file, args.t)
        )
        text, payload["result"] = _ideal_result(result)
    elif command == "stratify":
        pairs = stratify(
            list(_named_ideal(file, args.ideal).gens),
            _monomial_of(file, args.den),
            args.i,
            _parse_q(file, args.q),
        )
        rendered = [
            {
                "monomial": str(file.ring.monomial(u)),
                "coefficient": str(h),
            }
            for u, h in pairs
        ]
        payload["result"] = {"pairs": rendered}
        text = "\n".join(f"{d['monomial']}: {d['coefficient']}" for d in rendered)
    else:
        raise PreconditionError(f"unknown command {command!r}")
    return {"text": text, "json": payload}


def _parse_q(file: ProblemFile, q: int) -> int:
    if not is_power_of(q, file.p):
        raise PreconditionError(f"q = {q} is not a power of p = {file.p}")
    return q


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frobpow",
        description="Exact Frobenius powers, roots and critical exponents over Z/p.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("input", help="problem file path, or '-' for stdin")
        sp.add_argument("--format", choices=["text", "json"], default="text")
        sp.add_argument("--verbose", action="store_true")

    sp = sub.add_parser("power", help="rational Frobenius power a^[t]")
    sp.add_argument("--ideal", required=True)
    sp.add_argument("--t", required=True)
    common(sp)

    sp = sub.add_parser("root", help="Frobenius root a^[1/q]")
    sp.add_argument("--ideal", required=True)
    sp.add_argument("--q", required=True, type=int)
    common(sp)

    sp = sub.add_parser("mu", help="critical numerator mu(q)")
    sp.add_argument("--num", required=True)
    sp.add_argument("--den", required=True)
    sp.add_argument("--q", required=True, type=int)
    common(sp)

    sp = sub.add_parser("nu", help="F-threshold numerator nu(q) for a polynomial")
    sp.add_argument("--poly", required=True)
    sp.add_argument("--den", required=True)
    sp.add_argument("--q", required=True, type=int)
    common(sp)

    sp = sub.add_parser("crit", help="critical exponent truncations + candidate")
    sp.add_argument("--num", required=True)
    sp.add_argument("--den", required=True)
    sp.add_argument("--emax", required=True, type=int)
    sp.add_argument("--bmax", type=int, default=4)
    sp.add_argument("--cmax", type=int, default=4)
    common(sp)

    sp = sub.add_parser("lce", help="least critical exponent at the origin")
    sp.add_argument("--ideal", required=True)
    sp.add_argument("--emax", required=True, type=int)
    sp.add_argument("--bmax", type=int, default=4)
    sp.add_argument("--cmax", type=int, default=4)
    common(sp)

    sp = sub.add_parser("tau-monomial", help="Newton-polyhedron test ideal")
    sp.add_argument("--ideal", required=True)
    sp.add_argument("--t", required=True)
    common(sp)

    sp = sub.add_parser("fpt-monomial", help="F-pure threshold of a monomial ideal")
    sp.add_argument("--ideal", required=True)
    common(sp)

    sp = sub.add_parser("jumps", help="step function of a^[t] on a p-power grid")
    sp.add_argument("--ideal", required=True)
    sp.add_argument("--emax", required=True, type=int)
    common(sp)

    sp = sub.add_parser("principalize", help="a^[t] through the generic hypersurface")
    sp.add_argument("--ideal", required=True)
    sp.add_argument("--t", required=True)
    common(sp)

    sp = sub.add_parser("stratify", help="coefficient extraction for strata")
    sp.add_argument("--ideal", required=True)
    sp.add_argument("--den", required=True)
    sp.add_argument("--i", required=True, type=int)
    sp.add_argument("--q", required=True, type=int)
    common(sp)

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
