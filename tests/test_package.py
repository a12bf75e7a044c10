"""The package surface: lazy exports and the value semantics of its records."""

import importlib
import sys
from fractions import Fraction

import pytest

import frobpow
from frobpow.arith import PadicDecomposition, p_adic_decompose
from frobpow.cli import ProblemFile, parse_input
from frobpow.errors import PreconditionError
from frobpow.frobpower import StepFunction
from frobpow.ideal import Ideal
from frobpow.poly import MonomialOrder, PolyRing
from frobpow.thresholds import TruncationReport

from helpers import maximal, modules_after, ring2

def test_importing_the_package_loads_none_of_its_modules():
    loaded = modules_after("import frobpow")
    assert "frobpow" in loaded
    assert not {m for m in loaded if m.startswith("frobpow.")}


def test_every_export_resolves_to_the_object_in_its_home_module():
    for name in frobpow.__all__:
        home = importlib.import_module(f"frobpow.{frobpow._HOME[name]}")
        assert getattr(frobpow, name) is getattr(home, name)
    assert frobpow.thresholds is sys.modules["frobpow.thresholds"]
    assert set(frobpow.__all__) <= set(dir(frobpow))
    assert {"cli", "groebner", "thresholds"} <= set(dir(frobpow))
    with pytest.raises(AttributeError):
        frobpow.frob_power_int_gens


def test_star_import_binds_every_export():
    names = {}
    exec("from frobpow import *", names)
    assert set(frobpow.__all__) <= set(names)


def _records():
    """(record, an equal one built from the same fields) for each record class."""
    R = ring2(3)
    m = maximal(R)
    report = TruncationReport((3,), (1,), (Fraction(1, 3),), Fraction(1, 3), Fraction(2, 3), None, False)
    return [
        (p_adic_decompose(Fraction(2, 5), 3), PadicDecomposition(0, 4, 32, 0, 32)),
        (MonomialOrder.elimination((1, 0)), MonomialOrder("block", (0, 1))),
        (R, PolyRing(3, ("x", "y"))),
        (StepFunction((Fraction(1, 2),), (Ideal.unit(R), m)), StepFunction((Fraction(1, 2),), (Ideal.unit(R), m), None)),
        (report, report._replace(candidate=None)),
    ]


@pytest.mark.parametrize("index", range(5))
def test_records_compare_and_hash_by_value_and_refuse_assignment(index):
    record, twin = _records()[index]
    assert record == twin and record is not twin
    assert hash(record) == hash(twin)
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)


def test_problem_files_compare_by_value_and_refuse_assignment():
    text = "p 3\nvars x y\nideal m = x, y\nrational half = 1/2\n"
    file = parse_input(text)
    assert file == parse_input(text)
    assert file == ProblemFile(3, PolyRing(3, ("x", "y")), {"m": maximal(file.ring)}, {"half": Fraction(1, 2)})
    with pytest.raises(AttributeError):
        file.p = 5


def test_validation_survives_the_tuple_form():
    for p, names in ((4, ("x",)), (3, ("x", "x")), (3, ("1x",))):
        with pytest.raises(PreconditionError):
            PolyRing(p, names)
    with pytest.raises(PreconditionError):
        StepFunction((Fraction(1, 2),), ())


def test_an_equal_but_distinct_order_hits_the_basis_cache(monkeypatch):
    R = ring2(3)
    a = Ideal(R, [R.parse("x^2+y^2"), R.parse("x*y")])
    gb = a.reduced_basis(MonomialOrder("lex"))

    def refuse(*args, **kwargs):
        raise AssertionError("a second basis was computed")

    import frobpow.groebner

    monkeypatch.setattr(frobpow.groebner, "groebner_basis", refuse)
    assert a.reduced_basis(MonomialOrder.lex()) is gb
