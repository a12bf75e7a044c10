"""The four benchmark workloads: task lists built from a seed, answers, checks.

A workload is a list of tasks.  Each task is one public library call (or,
for ``cli-readme``, one CLI invocation) on inputs generated from the seed;
``build`` returns fresh input objects every time it is called, so no Ideal
cache survives from one pass to the next and no two tasks share an input
object.  Cheap tasks appear several times in a pass (see ``REPEATS``).  Each task names its answer in a canonical text form; the digest of
that text is what the benchmark pins and records.

Seeds vary the inputs without changing how much work they need, so figures
from different seeds are comparable:

* every workload runs its tasks in seeded order;
* ``crit-monomial`` and ``cli-readme`` have fixed inputs.
* ``power-sandwich`` draws its ``t`` values from the seed, stratified and in
  antithetic pairs (t, 1 - t), which narrows the seed-to-seed spread of the
  total work.
* ``general-path`` applies a seeded diagonal change of variables
  x_i -> c_i x_i to every polynomial input.  That automorphism fixes the
  maximal ideal and commutes with bracket powers and Frobenius roots, so
  every answer maps back to the pinned answer of the unscaled input, and
  Buchberger runs an isomorphic computation at the same cost.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from functools import partial
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from frobpow import (
    GroebnerBasis,
    Ideal,
    MonomialIdeal,
    PolyRing,
    StepFunction,
    TruncationReport,
    crit_reconstruct,
    crit_truncations,
    groebner_basis,
    ideal_power,
    jumps_scan,
    lce,
    mu,
    newton_fpt,
    newton_tau,
    nu,
    principal_power_oracle,
    rational_power,
)
from frobpow.monomial import mono_contains

HERE = Path(__file__).resolve().parent
PROBLEM_FILE = HERE / "problem.frob"

@dataclass
class Task:
    """One timed call.  ``key`` identifies the input, not the seed."""

    key: str
    fn: Callable[[], Any] | CliCall
    # maps the returned value to its canonical answer text (run untimed)
    answer: Callable[[Any], str]


@dataclass
class Workload:
    name: str
    tasks: list[Task]
    # independent answer checks, run untimed on {key: value} of one pass;
    # each returns a list of failure messages
    checks: list[Callable[[dict[str, Any]], list[str]]]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- canonical answers ------------------------------------------------------------


def _poly_list(polys) -> str:
    return ", ".join(str(g) for g in polys) or "0"


def _sorted_monic(ring: PolyRing, polys) -> list:
    key = ring.sort_key()
    return sorted(
        (g.monic() for g in polys if not g.is_zero()),
        key=lambda g: key(g.leading_exponent(key)),
        reverse=True,
    )


def answer_of(value: Any) -> str:
    """Canonical text of a library result."""
    if isinstance(value, Ideal):
        return "ideal " + _poly_list(value.canonical_generators())
    if isinstance(value, MonomialIdeal):
        return "monomial " + _poly_list(value.polynomials())
    if isinstance(value, GroebnerBasis):
        return "basis " + _poly_list(value.polys)
    if isinstance(value, TruncationReport):
        return (
            f"crit candidate={value.candidate} certified={value.certified_exact} "
            f"mu={list(value.mu_list)}"
        )
    if isinstance(value, StepFunction):
        parts = [
            f"[{lo},{hi}):{_poly_list(v.canonical_generators())}"
            for lo, hi, v in value.intervals()
        ]
        return "steps " + " ".join(parts)
    if isinstance(value, (int, Fraction)):
        return f"value {value}"
    raise TypeError(f"no canonical answer for {type(value).__name__}")


# -- shared construction ----------------------------------------------------------


def ring(p: int, names: str = "xy") -> PolyRing:
    return PolyRing(p, tuple(names))


def maximal(R: PolyRing) -> Ideal:
    return Ideal(R, [R.var(v) for v in R.variables])


def ideal(R: PolyRing, *texts: str) -> Ideal:
    return Ideal(R, [R.parse(t) for t in texts])


# -- crit-monomial ------------------------------------------------------------------


def named_ideal(R: PolyRing, name: str) -> Ideal:
    """``m^d`` is the d-th power of the maximal ideal; otherwise the name lists
    the generators, comma-separated."""
    if name.startswith("m^"):
        return ideal_power(maximal(R), int(name[2:]))
    return ideal(R, *name.split(","))


CRIT_SWEEP_IDEALS = [f"m^{d}" for d in range(2, 8)] + ["x^2,y^3", "x^5,y^5"]


def build_crit_monomial(seed: int) -> Workload:
    tasks: list[Task] = []
    for p in (2, 3, 5, 7, 11):
        a = named_ideal(ring(p), "m^5")
        tasks.append(Task(f"lce/p{p}/m^5/e5", partial(lce, a, e_max=5), answer_of))
    for p in (5, 7, 11):
        a, m = named_ideal(ring(p), "m^5"), maximal(ring(p))
        tasks.append(Task(f"crit/p{p}/m^5/e3", partial(crit_reconstruct, a, m, 3), answer_of))
    for p in (2, 3, 5, 7):
        for name in CRIT_SWEEP_IDEALS:
            for e in (1, 2, 3):
                a, m = named_ideal(ring(p), name), maximal(ring(p))
                tasks.append(Task(f"mu/p{p}/{name}/q{p**e}", partial(mu, a, m, p**e), answer_of))
    return Workload("crit-monomial", tasks, [check_crit_reproduces_mu])


def check_crit_reproduces_mu(values: dict[str, Any]) -> list[str]:
    """Every certified candidate predicts mu(q) = ceil(crit q) - 1 for each
    computed mu of the same ideal and characteristic."""
    certified = {
        tuple(key.split("/")[1:3]): value.candidate
        for key, value in values.items()
        if key.split("/")[0] in ("lce", "crit") and value.certified_exact
    }
    problems = []
    for key, value in values.items():
        kind, p, name, last = key.split("/")
        crit = certified.get((p, name))
        if crit is None:
            continue
        if kind == "mu":
            pairs = [(int(last[1:]), value)]
        else:
            pairs = zip(value.q_list, value.mu_list)
        for q, m in pairs:
            if math.ceil(crit * q) - 1 != m:
                problems.append(f"{key}: mu({q}) = {m} disagrees with certified {crit}")
    return problems


# -- power-sandwich -----------------------------------------------------------------


SANDWICH_CORPUS = [f"m^{d}" for d in range(1, 8)] + [
    f"x^{a},y^{b}" for a in range(1, 7) for b in range(1, 7) if (a, b) != (1, 1)
]

# Three-variable staircases that Fourier-Motzkin settles in milliseconds, and
# m^3 = <x,y,z>^3, on which both Newton oracles hit ResourceCapError in the seed.
NEWTON3_IDEALS = [
    "x^2,y^2,z^2", "x^2,y*z,z^3", "x*y,y*z,x*z", "x^3,y^2,z",
    "x^2,x*y,y^3,z^2", "m^1", "m^2",
]


def _sandwich_ts(rng: random.Random) -> list[Fraction]:
    """Twenty t on the 1/120 grid: one seeded numerator k from each of
    [1, 6], [7, 12], ..., [55, 60) and its mirror 120 - k."""
    ks = [6 * j + rng.randint(1, 6 if j < 9 else 5) for j in range(10)]
    return [Fraction(k, 120) for k in ks] + [Fraction(120 - k, 120) for k in ks]


def build_power_sandwich(seed: int) -> Workload:
    rng = random.Random(seed)
    tasks: list[Task] = []
    for p in (3, 5, 7):
        for name in SANDWICH_CORPUS:
            for t in _sandwich_ts(rng):
                a = named_ideal(ring(p), name)
                am = named_ideal(ring(p), name).to_monomial()
                tasks.append(Task(f"power/p{p}/{name}/{t}", partial(rational_power, a, t), answer_of))
                tasks.append(Task(f"tau/p{p}/{name}/{t}", partial(newton_tau, am, t), answer_of))
    for name in ("m^5", "x^5,y^5"):
        a = named_ideal(ring(3), name)
        tasks.append(Task(f"jumps/p3/{name}/e4", partial(jumps_scan, a, 4), answer_of))
    R3 = ring(3, "xyz")
    for name in NEWTON3_IDEALS:
        am = named_ideal(R3, name).to_monomial()
        t = Fraction(rng.randint(1, 11), 12)
        tasks.append(Task(f"fpt3/p3/{name}", partial(newton_fpt, am), answer_of))
        tasks.append(Task(f"tau3/p3/{name}/{t}", partial(newton_tau, am, t), answer_of))
    m3 = named_ideal(R3, "m^3").to_monomial()
    tasks.append(Task("fpt3/p3/m^3", partial(newton_fpt, m3), answer_of))
    tasks.append(Task("tau3/p3/m^3/1/2", partial(newton_tau, m3, Fraction(1, 2)), answer_of))
    return Workload("power-sandwich", tasks, [check_sandwich])


def check_sandwich(values: dict[str, Any]) -> list[str]:
    """tau(a^(t + shift)) <= a^[t] <= tau(a^t), shift = (#gens - 1)/(p - 1)."""
    problems = []
    for key, power in values.items():
        if not key.startswith("power/"):
            continue
        _, p, name, t = key.split("/", 3)
        upper = values.get(f"tau/{p}/{name}/{t}")
        if upper is None:
            continue
        p = int(p[1:])
        am = named_ideal(ring(p), name).to_monomial()
        lower = newton_tau(am, Fraction(t) + Fraction(len(am.gens) - 1, p - 1))
        pm = power.to_monomial()
        if not (mono_contains(upper, pm) and mono_contains(pm, lower)):
            problems.append(f"{key}: sandwich containment fails")
    return problems


# -- general-path -------------------------------------------------------------------


GENERAL_IDEALS = {
    "a1": ("x^2+y^2", "x*y"),
    "a2": ("x^2+x*y", "y^3+x^2*y"),
    "a3": ("x^2+y*z", "y^2+x*z", "z^2+x*y"),
}

# The 3-variable p = 2 ideal on which rational_power(., 5/7) reaches the
# missing prune_generators import in frobpower._compact.
COMPACT_REPRO = (
    "x^4*y^5*z^5 + y^3*z^5",
    "x^5*y^4*z^4 + x^3*y^4*z^2 + x^5*y*z + y*z^4 + y^3",
    "x^3*y^5*z^4 + x^2*y^5*z^4 + x^4*y^4*z",
    "x^2*y^5*z^5 + x^5*y^3*z^3 + x^4*y^5*z + x^2*y^4*z^3 + x^4*z^3",
    "x^4*y^3*z^2",
)

GB_POOL_SEED = 1802_02705
GB_POOL_SIZE = 40


def gb_pool() -> list[tuple[int, str, tuple[str, ...]]]:
    """The fixed pool of random ideals behind the Groebner corpus:
    (p, variables, generator texts), 3 generators of 3 terms each."""
    rng = random.Random(GB_POOL_SEED)
    pool = []
    for i in range(GB_POOL_SIZE):
        p = (2, 3, 5, 7)[i % 4]
        names = ("xy", "xyz")[(i // 4) % 2]
        deg = 6 if len(names) == 2 else 5
        gens = []
        for _ in range(3):
            terms: dict[tuple[int, ...], int] = {}
            while len(terms) < 3:
                d = rng.randint(1, deg)
                cuts = sorted(rng.randint(0, d) for _ in range(len(names) - 1))
                u = tuple(b - a for a, b in zip([0, *cuts], [*cuts, d]))
                terms[u] = rng.randint(1, p - 1)
            gens.append(" + ".join(
                f"{c}*" + "*".join(f"{v}^{e}" for v, e in zip(names, u) if e)
                for u, c in terms.items()
            ))
        pool.append((p, names, tuple(gens)))
    return pool


class Scaling:
    """The automorphism x_i -> c_i x_i of a ring and its inverse."""

    def __init__(self, R: PolyRing, rng: random.Random):
        p = R.p
        self.ring = R
        self.c = tuple(rng.randint(1, p - 1) for _ in R.variables)
        self.inv = tuple(pow(c, -1, p) for c in self.c)

    @staticmethod
    def _apply(f, c):
        p = f.ring.p
        out = []
        for u, coeff in f.terms.items():
            for ci, e in zip(c, u):
                coeff = coeff * pow(ci, e, p) % p
            out.append((u, coeff))
        return f.ring.poly(out)

    def ideal(self, *texts: str) -> Ideal:
        return Ideal(self.ring, [self._apply(self.ring.parse(t), self.c) for t in texts])

    def poly(self, text: str):
        return self._apply(self.ring.parse(text), self.c)

    def answer(self, value: Any) -> str:
        """Canonical answer of the unscaled problem."""
        if isinstance(value, Ideal):
            polys = value.canonical_generators()
        elif isinstance(value, GroebnerBasis):
            polys = value.polys
        else:
            return answer_of(value)
        back = [self._apply(g, self.inv) for g in polys]
        tag = "ideal " if isinstance(value, Ideal) else "basis "
        return tag + _poly_list(_sorted_monic(self.ring, back))


def build_general_path(seed: int) -> Workload:
    rng = random.Random(seed)
    tasks: list[Task] = []

    def scaled(p: int, name: str) -> tuple[Scaling, Ideal]:
        s = Scaling(ring(p, "xyz" if name == "a3" else "xy"), rng)
        return s, s.ideal(*GENERAL_IDEALS[name])

    for i, (p, names, gens) in enumerate(gb_pool()):
        s = Scaling(ring(p, names), rng)
        tasks.append(Task(f"gb/p{p}/pool{i}", partial(groebner_basis, list(s.ideal(*gens).gens)), s.answer))
    mu_cases = [(n, p, p**e) for n in ("a1", "a2") for p in (2, 3, 5, 7) for e in (1, 2)]
    mu_cases += [(n, p, p**3) for n in ("a1", "a2") for p in (2, 3, 5)]
    mu_cases += [("a3", 2, 2), ("a3", 2, 4), ("a3", 3, 3), ("a3", 3, 9), ("a3", 5, 5)]
    for name, p, q in mu_cases:
        s, a = scaled(p, name)
        tasks.append(Task(f"mu/p{p}/{name}/q{q}", partial(mu, a, maximal(s.ring), q), s.answer))
    for name, p in [(n, p) for n in ("a1", "a2") for p in (2, 3, 5, 7)] + [("a3", 2), ("a3", 3)]:
        s, a = scaled(p, name)
        tasks.append(Task(f"trunc/p{p}/{name}/e2", partial(crit_truncations, a, maximal(s.ring), 2), s.answer))
    power_cases = [(n, p, t) for n in ("a1", "a2") for p in (3, 5, 7)
                   for t in (Fraction(1), Fraction(7, 6), Fraction(3, 2), Fraction(5, 3))]
    power_cases += [("a3", p, t) for p in (2, 3) for t in (Fraction(1, 2), Fraction(3, 2))]
    oracle_cases = [(n, p, t) for n in ("a1", "a2") for p in (2, 3, 5)
                    for t in sorted({Fraction(1, p), Fraction(p - 1, p)})]
    for name, p, t in power_cases + oracle_cases:
        s, a = scaled(p, name)
        tasks.append(Task(f"power/p{p}/{name}/{t}", partial(rational_power, a, t), s.answer))
    for name, p, t in oracle_cases:
        s, a = scaled(p, name)
        tasks.append(Task(f"oracle/p{p}/{name}/{t}", partial(principal_power_oracle, list(a.gens), t), s.answer))
    for text in ("x^2+y^3", "x^3+y^4", "x^2*y+y^4"):
        for p in (2, 3, 5, 7):
            s = Scaling(ring(p), rng)
            tasks.append(Task(f"nu/p{p}/{text}/q{p * p}", partial(nu, s.poly(text), maximal(s.ring), p * p), s.answer))
    s = Scaling(ring(2, "xyz"), rng)
    tasks.append(Task("power/p2/compact-repro/5/7",
                      partial(rational_power, s.ideal(*COMPACT_REPRO), Fraction(5, 7)), s.answer))
    s, a = scaled(3, "a1")
    tasks.append(Task("crit/p3/a1/e3", partial(crit_reconstruct, a, maximal(s.ring), 3), s.answer))
    return Workload("general-path", tasks, [check_oracle_matches_power, check_truncations_match_mu])


def check_oracle_matches_power(values: dict[str, Any]) -> list[str]:
    """principal_power_oracle and rational_power agree wherever both ran."""
    problems = []
    for key, value in values.items():
        if key.startswith("oracle/"):
            other = values.get("power/" + key[len("oracle/"):])
            if other is not None and other != value:
                problems.append(f"{key}: principal_power_oracle differs from rational_power")
    return problems


def check_truncations_match_mu(values: dict[str, Any]) -> list[str]:
    """crit_truncations lists the same mu(q) as the standalone mu calls."""
    problems = []
    for key, value in values.items():
        if not key.startswith("trunc/"):
            continue
        _, p, name, _ = key.split("/")
        for q, m in zip(value.q_list, value.mu_list):
            single = values.get(f"mu/{p}/{name}/q{q}")
            if single is not None and single != m:
                problems.append(f"{key}: mu({q}) = {m}, standalone mu gives {single}")
    return problems


# -- cli-readme ---------------------------------------------------------------------


README_COMMANDS = (
    ("power", "--ideal", "a", "--t", "2/5"),
    ("root", "--ideal", "a", "--q", "3"),
    ("mu", "--num", "a", "--den", "m", "--q", "9"),
    ("nu", "--poly", "f", "--den", "m", "--q", "9"),
    ("crit", "--num", "a", "--den", "m", "--emax", "3"),
    ("lce", "--ideal", "a", "--emax", "4"),
    ("tau-monomial", "--ideal", "a", "--t", "3/5"),
    ("fpt-monomial", "--ideal", "a"),
    ("jumps", "--ideal", "a", "--emax", "3"),
    ("principalize", "--ideal", "a", "--t", "2/5"),
    ("stratify", "--ideal", "m", "--den", "m", "--i", "1", "--q", "3"),
)
CLI_REPEATS = 10


@dataclass
class CliCall:
    """A CLI invocation: the arguments after ``python -m frobpow.cli``."""

    argv: list[str]


def build_cli_readme(seed: int) -> Workload:
    tasks = []
    for rep in range(CLI_REPEATS):
        for command in README_COMMANDS:
            argv = [*command, "--format", "json", str(PROBLEM_FILE)]
            tasks.append(Task(f"cli/{command[0]}/{rep}", CliCall(argv), answer_of_cli))
    return Workload("cli-readme", tasks, [])


def answer_of_cli(payload: dict) -> str:
    return "json " + json.dumps(payload, sort_keys=True)


def answer_key(key: str) -> str:
    """Repeated CLI invocations share one pinned answer."""
    if key.startswith("cli/"):
        return key.rsplit("/", 1)[0]
    return key


BUILDERS = {
    "crit-monomial": build_crit_monomial,
    "power-sandwich": build_power_sandwich,
    "general-path": build_general_path,
    "cli-readme": build_cli_readme,
}


# Cheap tasks run several times per pass, each time on fresh inputs and
# shuffled among the rest, so their latency is a median over the whole run
# rather than one sample; tasks that take seconds run once.  The CLI
# workload already holds ten invocations of each command.
REPEATS = {
    "crit-monomial": (5, ("lce/", "crit/")),
    "power-sandwich": (1, ()),
    "general-path": (5, ("mu/p5/a2/q125", "trunc/p7/a2/", "power/p2/compact-repro/", "crit/")),
    "cli-readme": (1, ()),
}


def build(name: str, seed: int) -> Workload:
    """The task list of one pass, in seeded order.  Builders draw from the
    seed deterministically, so each repeat has the same keys and fresh
    input objects."""
    repeats, once = REPEATS[name]
    first = BUILDERS[name](seed)
    keys = [t.key for t in first.tasks]
    if len(set(keys)) != len(keys):
        raise ValueError("duplicate task keys")
    tasks = list(first.tasks)
    for _ in range(repeats - 1):
        tasks += [t for t in BUILDERS[name](seed).tasks if not t.key.startswith(once)]
    random.Random(seed).shuffle(tasks)
    return Workload(name, tasks, first.checks)


WORKLOADS = tuple(BUILDERS)
