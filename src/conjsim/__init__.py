"""Conjugation-based simulations of quantum experiments, EPR self-tests, and 6-state QKD.

The exported names are looked up in their defining modules on first use
(PEP 562), so ``import conjsim`` and the CLI's argument parsing load neither
numpy nor any numeric module.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "family": (
        "KrausMap", "Povm", "SimParams", "c_of", "c_property_suite", "multiparty_sim_state",
        "sim_hamiltonian", "sim_kraus", "sim_povm", "sim_unitary_evolve", "to_real_simulation",
    ),
    "selftest": (
        "CorrelationTable", "EquivalenceReport", "Experiment", "anticommutator_residual",
        "check_against_reference", "check_d_collapse", "check_state_equalities",
        "correlations", "estimate_family_params", "extraction_isometry", "family_experiment",
        "reference_experiment", "run_selftest", "sampled_correlations", "y_coefficient_check",
    ),
    "sixstate": (
        "Conjugate", "CustomState", "Honest", "MismatchedFlags", "QberReport", "Transcript",
        "ZPremeasure", "eve_flip_correction", "run_rounds", "sift", "zpremeasure_analysis",
    ),
    "states": (
        "DensityMatrix", "StateVector", "epr_pair", "partial_trace",
    ),
}
_SUBMODULES = ("family", "linalg", "selftest", "sixstate", "states")
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_ORIGIN, *_SUBMODULES])


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _ORIGIN:
        return getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
