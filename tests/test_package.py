import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import conjsim

EXPORTS = [
    "Conjugate", "CorrelationTable", "CustomState", "DensityMatrix", "EquivalenceReport",
    "Experiment", "Honest", "KrausMap", "MismatchedFlags", "Povm", "QberReport",
    "SimParams", "StateVector", "Transcript", "ZPremeasure",
    "anticommutator_residual", "c_of", "c_property_suite", "check_against_reference",
    "check_d_collapse", "check_state_equalities", "correlations", "epr_pair",
    "estimate_family_params", "eve_flip_correction", "expectation", "extraction_isometry",
    "family", "family_experiment", "linalg", "measure", "multiparty_sim_state", "partial_trace",
    "reference_experiment", "run_rounds", "run_selftest", "sampled_correlations",
    "selftest", "sift", "sim_hamiltonian", "sim_kraus", "sim_povm", "sim_unitary_evolve",
    "sixstate", "states", "to_real_simulation", "y_coefficient_check", "zpremeasure_analysis",
]
SUBMODULES = ["family", "linalg", "selftest", "sixstate", "states"]


def test_all_keeps_its_names_and_order():
    assert conjsim.__all__ == EXPORTS
    assert len(EXPORTS) == 48


def test_star_import_binds_every_export_to_its_defining_object():
    namespace = {}
    exec("from conjsim import *", namespace)
    for name in EXPORTS:
        obj = namespace[name]
        assert getattr(conjsim, name) is obj, name
        if name in SUBMODULES:
            assert obj is importlib.import_module(f"conjsim.{name}")
        else:
            assert obj.__module__.startswith("conjsim."), name
            assert getattr(inspect.getmodule(obj), name) is obj, name
    assert not hasattr(conjsim, "no_such_name")


def test_bare_import_loads_nothing_and_resolves_on_use():
    probe = ("import json, sys, types, conjsim; "
             "loaded = sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'conjsim')); "
             "listed = set(conjsim.__all__) <= set(dir(conjsim)); "
             f"modules = [getattr(conjsim, m).__name__ for m in {SUBMODULES!r}]; "
             "print(json.dumps([loaded, listed, modules, conjsim.run_selftest.__module__]))")
    env = {**os.environ, "PYTHONPATH": str(Path(conjsim.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, check=True, timeout=60)
    loaded, listed, modules, origin = json.loads(out.stdout)
    assert loaded == ["conjsim"] and listed
    assert modules == [f"conjsim.{m}" for m in SUBMODULES]
    assert origin == "conjsim.selftest"
