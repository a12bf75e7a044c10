"""Exact Frobenius powers of ideals in polynomial rings over Z/p.

Core objects: :class:`~frobpow.poly.PolyRing` / Polynomial,
:class:`~frobpow.ideal.Ideal`, :class:`~frobpow.monomial.MonomialIdeal`.
Core operations: bracket powers, integral and rational Frobenius powers,
Frobenius roots, critical exponents and their certification, Newton
polyhedron test-ideal oracles, principalization and stratification.
"""

from .arith import PadicDecomposition, adds_without_carrying, base_p_digits, multinomial_nonzero_mod_p, p_adic_decompose
from .errors import (
    ArityMismatchError,
    ExponentOverflowError,
    FrobpowError,
    ParseError,
    PreconditionError,
    ResourceCapError,
)
from .frobpower import StepFunction, jumps_scan, rational_power, skoda_split
from .generic import principal_power_oracle, stratify, tau_generic
from .groebner import GroebnerBasis, groebner_basis, normal_form
from .ideal import (
    Ideal,
    bracket_power,
    eliminate,
    frob_power_int,
    frob_power_int_gens,
    frob_root,
    ideal_contains,
    ideal_power,
    ideal_product,
    ideal_sum,
)
from .monomial import MonomialIdeal, mono_member, mono_root, newton_fpt, newton_tau
from .poly import MonomialOrder, Polynomial, PolyRing, parse_polynomial
from .thresholds import TruncationReport, crit_reconstruct, crit_truncations, lce, mu, nu

__all__ = [
    "adds_without_carrying",
    "ArityMismatchError",
    "base_p_digits",
    "bracket_power",
    "crit_reconstruct",
    "crit_truncations",
    "eliminate",
    "ExponentOverflowError",
    "frob_power_int",
    "frob_power_int_gens",
    "frob_root",
    "FrobpowError",
    "GroebnerBasis",
    "groebner_basis",
    "Ideal",
    "ideal_contains",
    "ideal_power",
    "ideal_product",
    "ideal_sum",
    "jumps_scan",
    "lce",
    "MonomialIdeal",
    "MonomialOrder",
    "mono_member",
    "mono_root",
    "mu",
    "multinomial_nonzero_mod_p",
    "newton_fpt",
    "newton_tau",
    "normal_form",
    "nu",
    "p_adic_decompose",
    "PadicDecomposition",
    "ParseError",
    "parse_polynomial",
    "Polynomial",
    "PolyRing",
    "PreconditionError",
    "principal_power_oracle",
    "rational_power",
    "ResourceCapError",
    "skoda_split",
    "StepFunction",
    "stratify",
    "tau_generic",
    "TruncationReport",
]
