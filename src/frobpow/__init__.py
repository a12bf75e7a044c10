"""Exact Frobenius powers of ideals in polynomial rings over Z/p.

Core objects: :class:`~frobpow.poly.PolyRing` / Polynomial,
:class:`~frobpow.ideal.Ideal`, :class:`~frobpow.monomial.MonomialIdeal`.
Core operations: bracket powers, integral and rational Frobenius powers,
Frobenius roots, critical exponents and their certification, Newton
polyhedron test-ideal oracles, principalization and stratification.

Importing the package loads none of its modules.  ``_EXPORTS`` maps each
module to the names it exports; the first use of a name, or of a module as
an attribute (``frobpow.thresholds``), imports that module (PEP 562).  So a
CLI command loads only the layers it runs.
"""

import importlib

_EXPORTS = {
    "arith": "PadicDecomposition base_p_digits p_adic_decompose",
    "errors": "ArityMismatchError ExponentOverflowError FrobpowError ParseError "
    "PreconditionError ResourceCapError",
    "frobpower": "StepFunction jumps_scan rational_power skoda_split",
    "generic": "principal_power_oracle stratify tau_generic",
    "groebner": "GroebnerBasis groebner_basis normal_form",
    "ideal": "Ideal bracket_power eliminate frob_power_int frob_root ideal_contains ideal_power "
    "ideal_product ideal_sum",
    "monomial": "MonomialIdeal mono_member mono_root newton_fpt newton_tau",
    "poly": "MonomialOrder Polynomial PolyRing parse_polynomial",
    "thresholds": "TruncationReport crit_reconstruct crit_truncations lce mu nu",
    "cli": "",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME, key=str.lower)


def __getattr__(name: str):
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_HOME, *_EXPORTS})
