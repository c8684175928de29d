import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import conjsim

EXPORTS = [
    "Conjugate", "CorrelationTable", "CustomState", "DensityMatrix", "EquivalenceReport",
    "Experiment", "Honest", "KrausMap", "MismatchedFlags", "Povm", "QberReport",
    "SimParams", "StateVector", "Transcript", "ZPremeasure",
    "anticommutator_residual", "c_of", "c_property_suite", "check_against_reference",
    "check_d_collapse", "check_state_equalities", "correlations", "epr_pair",
    "estimate_family_params", "extraction_isometry",
    "family", "family_experiment", "linalg", "multiparty_sim_state", "partial_trace",
    "reference_experiment", "run_rounds", "run_selftest", "sampled_correlations",
    "selftest", "sift", "sim_hamiltonian", "sim_kraus", "sim_povm", "sim_unitary_evolve",
    "sixstate", "states", "to_real_simulation", "y_coefficient_check",
]
SUBMODULES = ["family", "linalg", "selftest", "sixstate", "states"]


def test_all_keeps_its_names_and_order():
    assert conjsim.__all__ == EXPORTS
    assert len(EXPORTS) == 44


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


# The paper's objects that no job, script or other module calls.
PAPER_OBJECTS = {
    "sim_unitary_evolve": "the family's discrete evolution, C(U) rho' C(U)^dagger",
    "sim_kraus": "the family's lift of a channel in Kraus form",
    "to_real_simulation": "the basis change from the family member to the real simulation",
}


def _referenced_names(tree, skip=None) -> set[str]:
    """Names, attributes and from-imports in ``tree``, leaving out the subtree ``skip``."""
    hidden = {id(node) for node in ast.walk(skip)} if skip is not None else set()
    out = set()
    for node in ast.walk(tree):
        if id(node) in hidden:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def test_every_public_name_serves_a_job_or_is_a_paper_object():
    """Each public function or class of src/conjsim is used outside its own definition in
    src/, in scripts/ or by the benchmark's job builder, or is one of the paper's objects."""
    root = Path(__file__).resolve().parents[1]
    trees = {path: ast.parse(path.read_text())
             for path in sorted((root / "src" / "conjsim").glob("*.py"))}
    callers = set()
    for path in [*sorted((root / "scripts").glob("*.py")), root / "benchmark/conjbench/jobs.py"]:
        callers |= _referenced_names(ast.parse(path.read_text()))
    defined, unused = set(), []
    for path, tree in trees.items():
        elsewhere = callers.union(*(_referenced_names(t) for p, t in trees.items() if p != path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined.add(node.name)
                used = elsewhere | _referenced_names(tree, skip=node)
                if node.name not in used and node.name not in PAPER_OBJECTS:
                    unused.append(f"{path.stem}.{node.name}")
    assert unused == []
    assert set(PAPER_OBJECTS) <= defined


def test_no_module_imports_a_private_name_of_another():
    """A private name serves its own module: no module of src/conjsim imports an underscore
    name (dunders such as __version__ aside) from a sibling module."""
    root = Path(__file__).resolve().parents[1]
    found = []
    for path in sorted((root / "src" / "conjsim").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "conjsim"):
                found += [f"{path.stem}: {alias.name}" for alias in node.names
                          if alias.name.startswith("_") and not alias.name.startswith("__")]
    assert found == []


def test_only_the_entry_point_imports_gc():
    """conjsim.__main__.run alone turns the cyclic collector off, for a job; importing conjsim
    or calling cli.main in-process leaves it as it was."""
    root = Path(__file__).resolve().parents[1]
    found = []
    for path in sorted((root / "src" / "conjsim").glob("*.py")):
        if path.name == "__main__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.stem}:{node.lineno}" for n in names if n.split(".")[0] == "gc"]
    assert found == []


def test_records_are_built_without_dataclasses():
    """Records subclass states.Record: src/ neither imports dataclasses nor decorates a class,
    and a qkd job, which builds records of every module, never loads the dataclasses module."""
    root = Path(__file__).resolve().parents[1]
    found = []
    for path in sorted((root / "src" / "conjsim").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.ClassDef):
                names = [ast.unparse(d) for d in node.decorator_list]
            else:
                continue
            found += [f"{path.stem}:{node.lineno}" for n in names if "dataclass" in n]
    assert found == []
    # -X importtime lists every module the job imports, one "| name" per line, on stderr
    argv = ["-X", "importtime", "-m", "conjsim", "qkd", "--strategy", "conjugate",
            "--n", "300", "--seed", "1"]
    env = {**os.environ, "PYTHONPATH": str(Path(conjsim.__file__).parents[1])}
    out = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env,
                         timeout=120)
    imported = {line.rsplit("|", 1)[-1].strip() for line in out.stderr.splitlines()}
    assert out.returncode == 0 and "conjsim.sixstate" in imported
    assert "dataclasses" not in imported


def test_no_handler_catches_a_python_error_that_names_no_field():
    """No except clause in src/conjsim names TypeError, KeyError, AttributeError or IndexError:
    a document reader refuses a bad field with a ValueError naming its JSON path, so a
    handler for these would only turn a reader's gap into an error line that names none."""
    root = Path(__file__).resolve().parents[1]
    banned = {"TypeError", "KeyError", "AttributeError", "IndexError"}
    found = []
    for path in sorted((root / "src" / "conjsim").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                names = {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
                found += [f"{path.stem}:{node.lineno} {name}" for name in sorted(names & banned)]
    assert found == []


def test_no_module_takes_a_dims_product_with_numpy():
    """No module of src/conjsim calls np.prod or numpy.prod: a product of Python ints wraps
    in int64 there, so dims such as (2**62 + 1, 4) would match four amplitudes.  Dims
    products use math.prod, which does not wrap."""
    root = Path(__file__).resolve().parents[1]
    found = []
    for path in sorted((root / "src" / "conjsim").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "prod" and isinstance(
                    node.value, ast.Name) and node.value.id in ("np", "numpy"):
                found.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
                found += [f"{path.name}:{node.lineno}" for alias in node.names
                          if alias.name == "prod"]
    assert found == []


def test_the_cli_imports_no_class_of_sixstate_or_family():
    """serialize alone maps a strategy name to its class and user input to a SimParams: the
    CLI builds the describe() document and hands it over, so it imports no class of sixstate
    or family (functions such as run_rounds it does import)."""
    root = Path(__file__).resolve().parents[1]
    modules = {name: importlib.import_module(f"conjsim.{name}") for name in ("sixstate", "family")}
    imported = []
    for node in ast.walk(ast.parse((root / "src" / "conjsim" / "cli.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.level and node.module in modules:
            imported += [(node.module, alias.name) for alias in node.names]
    assert ("sixstate", "run_rounds") in imported             # the walk sees the lazy imports
    assert [(m, n) for m, n in imported if inspect.isclass(getattr(modules[m], n))] == []


def test_serialize_takes_the_cell_labels_from_sixstate():
    """The transcript encoders read each cell's labels from sixstate.CELL_LABELS; serialize
    builds no labels of its own with itertools.product."""
    root = Path(__file__).resolve().parents[1]
    tree = ast.parse((root / "src" / "conjsim" / "serialize.py").read_text())
    names = {node.attr if isinstance(node, ast.Attribute) else node.id
             for node in ast.walk(tree) if isinstance(node, (ast.Attribute, ast.Name))}
    names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for alias in node.names}
    assert "product" not in names and "CELL_LABELS" in names


# the functions of conjsim that tests/dense_reference.py may call: inputs, not kernels
DENSE_REFERENCE_INPUTS = {"reference_experiment", "reference_observables", "sampled_correlations",
                          "random_complex_matrix", "random_hermitian", "random_psd",
                          "random_unitary"}


def test_the_dense_references_import_only_inputs():
    """tests/dense_reference.py takes from conjsim only records (SimParams among them),
    upper-case constants such as SOURCE_DIMS, and DENSE_REFERENCE_INPUTS: the reference
    experiment and its observables, the random_* generators and sampled_correlations, the
    documented draw.  So no reference borrows a kernel that it checks."""
    root = Path(__file__).resolve().parents[1]
    record = importlib.import_module("conjsim.states").Record
    found = []
    for node in ast.walk(ast.parse((root / "tests" / "dense_reference.py").read_text())):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[0] == "conjsim"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "conjsim":
            module = importlib.import_module(node.module)
            for alias in node.names:
                obj = getattr(module, alias.name, None)
                allowed = (inspect.isclass(obj) and issubclass(obj, record)
                           or alias.name.isupper() and not callable(obj)
                           or alias.name in DENSE_REFERENCE_INPUTS)
                if not allowed:
                    found.append(f"{node.module}.{alias.name}")
    assert found == []


def test_the_project_version_is_the_package_version():
    """pyproject.toml's [project] version and conjsim.__version__, which every report embeds,
    are one number."""
    tomllib = pytest.importorskip("tomllib")        # Python 3.11 and later
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as f:
        assert tomllib.load(f)["project"]["version"] == conjsim.__version__
