import json
import shlex
import time
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

from frobpow.cli import COMMANDS, OUTPUT_SCHEMA, build_parser, main, parse_input
from frobpow.errors import ParseError
from frobpow.ideal import Ideal

from helpers import modules_after

M5_FILE = """\
# fifth power of the maximal ideal
p 3
vars x y
ideal a = x^5, x^4*y, x^3*y^2, x^2*y^3, x*y^4, y^5
ideal m = x, y
ideal f = x^2 + y^3
rational half = 1/2
"""


@pytest.fixture
def m5_path(tmp_path):
    path = tmp_path / "m5.frob"
    path.write_text(M5_FILE)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- parsing ------------------------------------------------------------------


def test_parse_input_example():
    pf = parse_input("p 3\nvars x y\nideal a = x^5, y^5\n")
    assert pf.p == 3
    assert pf.ring.variables == ("x", "y")
    assert pf.ideals["a"] == Ideal(pf.ring, [pf.ring.parse("x^5"), pf.ring.parse("y^5")])


def test_parse_input_principal():
    pf = parse_input("p 2\nvars x y\nideal a = x^2 + y^3\n")
    assert len(pf.ideals["a"].gens) == 1


def test_parse_input_rationals_and_comments():
    pf = parse_input("p 5\nvars x\n# note\nrational t = 7/5\n")
    assert pf.rationals["t"] == Fraction(7, 5)


def test_parse_rejects_composite_characteristic():
    with pytest.raises(ParseError) as err:
        parse_input("p 4\nvars x y\n")
    assert "not prime" in str(err.value)


def test_parse_rejects_undeclared_variable():
    with pytest.raises(ParseError) as err:
        parse_input("p 3\nvars x y\nideal a = x + w\n")
    assert err.value.line == 3


def test_parse_positions_of_errors():
    with pytest.raises(ParseError) as err:
        parse_input("p 3\nvars x y\nideal a = x^5, y^^5\n")
    assert err.value.line == 3


# -- command surface -----------------------------------------------------------


def test_power_command_text(capsys, m5_path):
    code, out, _ = run(capsys, ["power", "--ideal", "a", "--t", "2/5", m5_path])
    assert code == 0
    assert out.strip() == "x, y"


def test_power_at_zero(capsys, m5_path):
    code, out, _ = run(capsys, ["power", "--ideal", "a", "--t", "0", m5_path])
    assert code == 0
    assert out.strip() == "1"


def test_power_accepts_named_rational(capsys, m5_path):
    code, out, _ = run(capsys, ["power", "--ideal", "a", "--t", "half", m5_path])
    assert code == 0
    assert out.strip() == "x, y"


def test_root_command(capsys, m5_path):
    code, out, _ = run(capsys, ["root", "--ideal", "a", "--q", "3", m5_path])
    assert code == 0
    assert out.strip() == "x, y"


def test_mu_and_nu_commands(capsys, m5_path):
    code, out, _ = run(capsys, ["mu", "--num", "a", "--den", "m", "--q", "9", m5_path])
    assert (code, out.strip()) == (0, "2")
    code, out, _ = run(capsys, ["nu", "--poly", "f", "--den", "m", "--q", "3", m5_path])
    assert (code, out.strip()) == (0, "1")


def test_nu_reads_a_redundant_list_of_terms_as_principal(capsys, tmp_path):
    # x^3 lies in <x^2>: the list is the principal ideal <x^2>
    path = tmp_path / "r.frob"
    path.write_text("p 3\nvars x y\nideal r = x^2, x^3\nideal s = x^2\nideal m = x, y\n")
    code, out, err = run(capsys, ["nu", "--poly", "r", "--den", "m", "--q", "9", str(path)])
    assert (code, err) == (0, "")
    assert (code, out) == run(capsys, ["nu", "--poly", "s", "--den", "m", "--q", "9", str(path)])[:2]


def test_lce_command_certified(capsys, m5_path):
    code, out, _ = run(capsys, ["lce", "--ideal", "a", "--emax", "4", m5_path])
    assert code == 0
    assert out.strip() == "1/3 (certified)"


def test_crit_command(capsys, m5_path):
    code, out, _ = run(
        capsys, ["crit", "--num", "a", "--den", "m", "--emax", "3", m5_path]
    )
    assert code == 0
    assert out.strip() == "1/3 (certified)"


def test_tau_and_fpt_commands(capsys, m5_path):
    code, out, _ = run(capsys, ["tau-monomial", "--ideal", "a", "--t", "3/5", m5_path])
    assert (code, out.strip()) == (0, "x^2, x*y, y^2")
    code, out, _ = run(capsys, ["fpt-monomial", "--ideal", "a", m5_path])
    assert (code, out.strip()) == (0, "2/5")


def test_jumps_command(capsys, m5_path):
    code, out, _ = run(capsys, ["jumps", "--ideal", "a", "--emax", "3", m5_path])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "[0, 1/3): 1"
    assert lines[1] == "[1/3, 16/27): x, y"
    assert lines[-1] == "[7/9, 1): x^3, x^2*y, x*y^2, y^3"


def test_principalize_command(capsys, m5_path):
    code, out, _ = run(capsys, ["principalize", "--ideal", "a", "--t", "2/5", m5_path])
    assert (code, out.strip()) == (0, "x, y")


def test_stratify_command(capsys, m5_path):
    code, out, _ = run(
        capsys,
        ["stratify", "--ideal", "m", "--den", "m", "--i", "1", "--q", "3", m5_path],
    )
    assert code == 0
    assert out.strip().splitlines() == ["x: z1", "y: z2"]


def test_verbose_power_shows_decomposition(capsys, m5_path):
    code, out, _ = run(
        capsys, ["power", "--ideal", "a", "--t", "2/5", "--verbose", m5_path]
    )
    assert code == 0
    assert "b=0 c=4 k=32" in out


# -- exit codes -------------------------------------------------------------------


def test_reads_problem_from_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(M5_FILE))
    code, out, _ = run(capsys, ["fpt-monomial", "--ideal", "a", "-"])
    assert (code, out.strip()) == (0, "2/5")


def test_exit_code_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.frob"
    bad.write_text("p 4\nvars x y\n")
    code, _, err = run(capsys, ["power", "--ideal", "a", "--t", "1/2", str(bad)])
    assert code == 2
    assert "parse error" in err


@pytest.mark.parametrize(
    "text,message",
    [
        ("p 2305843009213693951\nvars x y\n", "1:1: characteristic must be below 2^31"),
        ("p 3\nvars x y\nideal a = x^², y\n", "3:13: expected an integer exponent"),
        ("p 3\nvars x‿y\n", "2:1: bad variable name 'x‿y'"),
    ],
    ids=["huge-characteristic", "superscript-exponent", "unwritable-variable"],
)
def test_exit_code_parse_error_is_one_line(capsys, tmp_path, text, message):
    bad = tmp_path / "bad.frob"
    bad.write_text(text)
    code, out, err = run(capsys, ["power", "--ideal", "a", "--t", "1", str(bad)])
    assert (code, out) == (2, "")
    assert err == f"parse error: {message}\n"


def test_exit_code_missing_file(capsys):
    code, _, err = run(capsys, ["power", "--ideal", "a", "--t", "1/2", "/no/such/file"])
    assert code == 2


def test_exit_code_precondition(capsys, m5_path):
    code, _, err = run(capsys, ["power", "--ideal", "nope", "--t", "1/2", m5_path])
    assert code == 3
    code, _, err = run(capsys, ["root", "--ideal", "a", "--q", "4", m5_path])
    assert code == 3
    code, _, err = run(
        capsys, ["stratify", "--ideal", "f", "--den", "m", "--i", "3", "--q", "3", m5_path]
    )
    assert code == 3  # G^3 lies inside m^[3]


@pytest.mark.parametrize(
    "argv",
    [
        ["crit", "--num", "a", "--den", "m", "--emax", "3", "--bmax", "-1"],
        ["crit", "--num", "a", "--den", "m", "--emax", "3", "--cmax", "-1"],
        ["lce", "--ideal", "a", "--emax", "3", "--bmax", "-1"],
    ],
    ids=lambda a: " ".join(a[-2:]),
)
def test_exit_code_negative_candidate_caps(capsys, m5_path, argv):
    code, out, err = run(capsys, argv + [m5_path])
    assert (code, out) == (3, "")
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "nonnegative" in err


def test_exit_code_resource_cap(capsys, tmp_path):
    path = tmp_path / "big.frob"
    path.write_text("p 2\nvars x y\nideal a = x^4611686018427387904\n")
    code, _, err = run(capsys, ["power", "--ideal", "a", "--t", "3", str(path)])
    assert code == 4
    assert "resource" in err
    # x is not in the radical of <y^2 + x*y>: decided exactly, a precondition
    path.write_text("p 3\nvars x y\nideal a = x\nideal b = y^2 + x*y\n")
    code, _, err = run(capsys, ["mu", "--num", "a", "--den", "b", "--q", "9", str(path)])
    assert code == 3
    assert "generator x is not in the radical of b" in err
    # the Newton test ideal is priced before its prefix loop: t = 200 answers,
    # t = 10^4 (30003 prefixes times 30006) is refused
    path.write_text("p 3\nvars x y\nideal a = x^2, y^3\n")
    code, _, err = run(capsys, ["tau-monomial", "--ideal", "a", "--t", "200", str(path)])
    assert code == 0
    code, _, err = run(capsys, ["tau-monomial", "--ideal", "a", "--t", "10000", str(path)])
    assert code == 4
    assert "NEWTON_WALK_CAP" in err
    assert str(30003 * 30006) in err
    # t = 1/100003 has period 100002 at p = 3: refused before any power
    code, _, err = run(capsys, ["power", "--ideal", "a", "--t", "1/100003", str(path)])
    assert code == 4
    assert "PERIOD_CAP" in err


def test_exit_code_resource_cap_of_a_large_monomial_power(capsys, m5_path):
    # the Horner steps of a^[10^11] grow until a product needs more than
    # 10^6 generator pairs; it is refused before forming them
    start = time.perf_counter()
    code, _, err = run(capsys, ["power", "--ideal", "a", "--t", "100000000000", m5_path])
    assert code == 4
    assert "COMPOSITION_CAP" in err
    assert time.perf_counter() - start < 30


def test_a_command_loads_only_the_layers_it_runs(m5_path):
    loaded = modules_after(
        f"import frobpow.cli\nfrobpow.cli.main(['power', '--ideal', 'a', '--t', '2/5', {m5_path!r}])"
    )
    assert "frobpow.frobpower" in loaded
    unused = {"dataclasses", "inspect", "heapq", "frobpow.thresholds", "frobpow.generic", "frobpow.groebner"}
    assert not loaded & unused


# -- structured output ---------------------------------------------------------------


ALL_COMMANDS = [
    ["power", "--ideal", "a", "--t", "2/5"],
    ["power", "--ideal", "a", "--t", "2/5", "--verbose"],
    ["root", "--ideal", "a", "--q", "3"],
    ["mu", "--num", "a", "--den", "m", "--q", "9"],
    ["nu", "--poly", "f", "--den", "m", "--q", "3"],
    ["crit", "--num", "a", "--den", "m", "--emax", "3"],
    ["lce", "--ideal", "a", "--emax", "3"],
    ["tau-monomial", "--ideal", "a", "--t", "3/5"],
    ["fpt-monomial", "--ideal", "a"],
    ["jumps", "--ideal", "a", "--emax", "2"],
    ["principalize", "--ideal", "a", "--t", "2/5"],
    ["stratify", "--ideal", "m", "--den", "m", "--i", "1", "--q", "3"],
]


@pytest.mark.parametrize("argv", ALL_COMMANDS, ids=lambda a: " ".join(a[:2]))
def test_json_outputs_validate_against_schema(capsys, m5_path, argv):
    code, out, _ = run(capsys, argv + ["--format", "json", m5_path])
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, OUTPUT_SCHEMA)
    assert payload["command"] == argv[0]
    assert payload["p"] == 3


def test_text_and_json_encode_the_same_ideal(capsys, m5_path):
    _, text_out, _ = run(capsys, ["power", "--ideal", "a", "--t", "2/5", m5_path])
    _, json_out, _ = run(
        capsys, ["power", "--ideal", "a", "--t", "2/5", "--format", "json", m5_path]
    )
    gens = json.loads(json_out)["result"]["generators"]
    assert ", ".join(gens) == text_out.strip()


def test_round_trip_printed_ideal_reparses_equal(capsys, m5_path):
    pf = parse_input(M5_FILE)
    _, out, _ = run(capsys, ["power", "--ideal", "a", "--t", "2/3", m5_path])
    reparsed = Ideal(pf.ring, [pf.ring.parse(chunk) for chunk in out.strip().split(",")])
    from frobpow.frobpower import rational_power

    assert reparsed == rational_power(pf.ideals["a"], Fraction(2, 3))


def test_readme_and_tests_cover_the_command_table():
    # every `frobpow <command> ...` line of README's CLI block parses, and the
    # lines name exactly the commands of the table; so does ALL_COMMANDS
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    argvs = [words[1:] for words in lines if words[:1] == ["frobpow"]]
    parser = build_parser()
    assert {parser.parse_args(argv).command for argv in argvs} == set(COMMANDS)
    assert len(argvs) == len(COMMANDS)
    assert {argv[0] for argv in ALL_COMMANDS} == set(COMMANDS)
