"""simra: a laboratory for simultaneous rational approximation.

Enumerate the minimal (best-approximation) integer points of a real target,
measure exact heights of the rational subspaces those points span, verify
the going-up subspace construction and its product identities, estimate
approximation exponents against the admissible spectrum, and check candidate
extremal sequences against the structural conditions that near-extremal
behaviour forces.
"""

from . import (construction, errors, minpoints, model, presets, reporting,
               rigorous, spectra, subspaces, transference)
from .construction import (SubspaceFamily, build_subspace_family,
                           family_report, lemma32_check, select_indices,
                           theorem31_ratio, verify_family_identities)
from .errors import SimraError
from .minpoints import (MinimalPointEntry, MinimalPointSequence,
                        brute_force_reference, dirichlet_check,
                        enumerate_minimal_points, envelope, exhaustive_scan,
                        verify_minimality, verify_properties)
from .model import (CongruenceSet, FullLattice, IntegerPoint, Sublattice,
                    TargetPoint, l_value, load_target)
from .presets import load_preset, preset_config, preset_names
from .rigorous import (RigorousReal, algebraic_root, decimal_literal,
                       rational)
from .spectra import frontier, lambda_n, liouville_preset
from .subspaces import (RationalSubspace, height, intersect, saturate,
                        schmidt_ratio, sum_)
from .transference import (ExponentEstimate, TransferenceProfile,
                           check_sandwich, epsilon_delta, eps_threshold,
                           estimate_exponents, growth_conditions,
                           lemma41_check, mm_lhs, phi_functions,
                           verify_extremal_sequence)

__version__ = "0.1.0"

__all__ = [
    "CongruenceSet", "ExponentEstimate", "FullLattice", "IntegerPoint",
    "MinimalPointEntry", "MinimalPointSequence", "RationalSubspace",
    "RigorousReal", "SimraError", "Sublattice", "SubspaceFamily",
    "TargetPoint", "TransferenceProfile", "algebraic_root",
    "brute_force_reference", "build_subspace_family", "check_sandwich",
    "construction", "decimal_literal", "dirichlet_check",
    "enumerate_minimal_points", "envelope", "eps_threshold", "epsilon_delta",
    "errors", "estimate_exponents", "exhaustive_scan", "family_report",
    "frontier", "growth_conditions", "height", "intersect", "l_value",
    "lambda_n", "lemma32_check", "lemma41_check", "liouville_preset",
    "load_preset", "load_target", "minpoints", "mm_lhs", "model",
    "phi_functions", "preset_config", "preset_names", "presets", "rational",
    "reporting", "rigorous", "saturate", "schmidt_ratio", "select_indices",
    "spectra", "subspaces", "sum_", "theorem31_ratio", "transference",
    "verify_extremal_sequence", "verify_family_identities",
    "verify_minimality", "verify_properties",
]
