"""Conjugation-based simulations of quantum experiments, EPR self-tests, and 6-state QKD."""

__version__ = "0.1.0"

from .family import (
    KrausMap,
    Povm,
    SimParams,
    c_of,
    c_property_suite,
    multiparty_sim_state,
    sim_hamiltonian,
    sim_kraus,
    sim_povm,
    sim_unitary_evolve,
    to_real_simulation,
)
from .selftest import (
    CorrelationTable,
    EquivalenceReport,
    Experiment,
    anticommutator_residual,
    check_against_reference,
    check_d_collapse,
    check_state_equalities,
    correlations,
    estimate_family_params,
    extraction_isometry,
    family_experiment,
    reference_experiment,
    run_selftest,
    sampled_correlations,
    verify_equivalence,
    y_coefficient_check,
)
from .sixstate import (
    Conjugate,
    CustomState,
    Honest,
    MismatchedFlags,
    QberReport,
    Transcript,
    ZPremeasure,
    eve_flip_correction,
    run_rounds,
    sift,
    zpremeasure_analysis,
)
from .states import (
    DensityMatrix,
    SchmidtDecomposition,
    StateVector,
    epr_pair,
    expectation,
    measure,
    partial_trace,
    schmidt,
    support_projector,
)

__all__ = [name for name in dir() if not name.startswith("_")]
