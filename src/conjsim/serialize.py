"""JSON and CSV encodings for states, experiments, strategies, and reports.

All complex numbers serialize as [re, im] pairs of decimal doubles; matrices
are row-major nested lists of pairs.  ``dumps`` output is deterministic
(sorted keys, fixed indentation) so reports are byte-identical across runs
with identical inputs.  Transcripts are written to an open text file a chunk
of rounds at a time.  ``selftest`` and ``sixstate`` are imported only by the
functions that build or inspect their objects, so encoding a ``props`` report
loads neither.
"""

from __future__ import annotations

import io
import itertools
import json
import math
from typing import TYPE_CHECKING, TextIO

import numpy as np

from .family import SimParams
from .states import DensityMatrix, StateVector

if TYPE_CHECKING:
    from .selftest import (
        CorrelationTable,
        EquivalenceReport,
        Experiment,
        FamilyParams,
        YCoefficientReport,
    )
    from .sixstate import EveStrategy, QberReport, Transcript

CHUNK_ROUNDS = 4096     # rounds rendered per write, so a transcript's text is never whole in memory


def _finite(obj):
    """``obj`` with every non-finite float, however deeply nested, replaced by None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(value) for value in obj]
    return obj


def dumps(obj) -> str:
    """Strict JSON: a NaN or infinite float is written as null."""
    return json.dumps(_finite(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


def complex_pair(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def vector_to_json(vec: np.ndarray) -> list:
    return [complex_pair(z) for z in np.asarray(vec, dtype=complex).reshape(-1)]


def _complex(pair, what: str) -> complex:
    """The ``[re, im]`` pair as a complex; a part that is no JSON number, a bool included, is
    refused, naming ``what``."""
    if not (isinstance(pair, list) and len(pair) == 2
            and all(type(part) in (int, float) for part in pair)):
        raise ValueError(f"{what}: expected a [re, im] pair of JSON numbers, got {pair!r}")
    return complex(*pair)


def vector_from_json(data) -> np.ndarray:
    return np.array([_complex(z, "amplitudes") for z in data], dtype=complex)


def matrix_to_json(mat: np.ndarray) -> list:
    return [[complex_pair(z) for z in row] for row in np.asarray(mat, dtype=complex)]


def matrix_from_json(data, what: str = "matrix") -> np.ndarray:
    return np.array([[_complex(z, what) for z in row] for row in data], dtype=complex)


def _integer(value, what: str) -> int:
    """``value`` if it is a JSON integer; a float, string or bool is refused, naming ``what``."""
    if type(value) is not int:
        raise ValueError(f"{what}: expected a JSON integer, got {value!r}")
    return value


def _object(data, what: str) -> dict:
    """``data`` if it is a JSON object; any other value is refused, naming ``what``."""
    if not isinstance(data, dict):
        raise ValueError(f"{what}: expected a JSON object")
    return data


def _array(data, what: str) -> list:
    """``data`` if it is a JSON array; any other value is refused, naming ``what``."""
    if not isinstance(data, list):
        raise ValueError(f"{what}: expected a JSON array")
    return data


def _known_keys(data, keys, what: str) -> dict:
    """``data`` when it is a JSON object each of whose keys is in ``keys``.

    Any other value, or the first key not in ``keys``, is refused with a ValueError.
    """
    for key in _object(data, what):
        if key not in keys:
            raise ValueError(f"{key}: {what} does not read this key")
    return data


def state_to_json(state: StateVector | DensityMatrix) -> dict:
    if isinstance(state, StateVector):
        return {"dims": list(state.dims), "amplitudes": vector_to_json(state.amplitudes)}
    return {"dims": list(state.dims), "matrix": matrix_to_json(state.matrix)}


def state_from_json(data) -> StateVector | DensityMatrix:
    _known_keys(data, ("dims", "amplitudes", "matrix"), "a state")
    if "amplitudes" not in data and "matrix" not in data:
        raise ValueError("state JSON needs an 'amplitudes' or 'matrix' field")
    dims = [_integer(d, "state dims") for d in _array(data["dims"], "state dims")]
    if "amplitudes" in data:
        return StateVector(dims, vector_from_json(data["amplitudes"]))
    return DensityMatrix(dims, matrix_from_json(data["matrix"]))


def sim_params_from_json(data) -> SimParams:
    values = {"a": data["a"], "c_abs": data.get("c_abs", 0.0), "c_phase": data.get("c_phase", 0.0)}
    for key, value in values.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{key}: expected a JSON number, got {value!r}")
    return SimParams.from_polar(*map(float, values.values()))


def experiment_to_json(exp: Experiment) -> dict:
    return {
        "kind": exp.kind,
        "state": state_to_json(exp.state),
        "parties": {
            p: {
                "dims": list(exp.party_dims[p]),
                "observables": {lab: matrix_to_json(m)
                                for lab, m in exp.observables[p].items()},
            }
            for p in ("A", "B")
        },
        "flag_registers": dict(exp.flag_registers) if exp.flag_registers else None,
    }


def experiment_from_json(data) -> Experiment:
    from .selftest import Experiment

    _known_keys(data, ("kind", "state", "parties", "flag_registers"), "an experiment")
    parties = _known_keys(data["parties"], ("A", "B"), "the parties of an experiment")
    for p in ("A", "B"):
        _known_keys(parties[p], ("dims", "observables"), f"party {p}")
    flags = data.get("flag_registers")
    if flags is not None:
        _object(flags, "flag_registers")
    return Experiment(
        kind=data["kind"],
        state=state_from_json(data["state"]),
        observables={p: {lab: matrix_from_json(m, f"observable {lab}_{p}") for lab, m in
                         _object(parties[p]["observables"], f"party {p} observables").items()}
                     for p in ("A", "B")},
        party_dims={p: tuple(_integer(d, f"party {p} dims")
                             for d in _array(parties[p]["dims"], f"party {p} dims"))
                    for p in ("A", "B")},
        flag_registers=({k: _integer(v, f"flag_registers {k}") for k, v in flags.items()}
                        if flags else None),
    )


def strategy_from_json(data) -> EveStrategy:
    """The strategy a ``describe()`` document names.

    A document without a ``"strategy"`` key is the state of a custom source.
    """
    from .sixstate import Conjugate, CustomState, Honest, MismatchedFlags, ZPremeasure

    if not (isinstance(data, dict) and "strategy" in data):
        return CustomState(state_from_json(data).density())
    name = data["strategy"]
    family = ("a", "c_abs", "c_phase")
    reads = {"honest": family, "zpremeasure": family, "conjugate": (),
             "mismatched_flags": ("flag_a", "flag_b"), "custom_state": ("state",)}
    if name not in reads:
        raise ValueError(f"unknown strategy {name!r}")
    _known_keys(data, ("strategy", *reads[name]), f"strategy {name!r}")
    if name == "honest":
        return Honest(sim_params_from_json(data))
    if name == "conjugate":
        return Conjugate()
    if name == "zpremeasure":
        return ZPremeasure(sim_params_from_json(data))
    if name == "mismatched_flags":
        return MismatchedFlags(_integer(data["flag_a"], "flag_a"),
                               _integer(data["flag_b"], "flag_b"))
    return CustomState(state_from_json(data["state"]).density())


def _stderr(table: CorrelationTable, v: float) -> float:
    """Sample spread over sqrt(n) of a sampled entry v's n +/-1 products; 0 if exact or n = 1."""
    n = table.n_per_pair
    return math.sqrt((1.0 - v * v) / (n - 1)) if table.sampled and n > 1 else 0.0


def correlation_table_to_dict(table: CorrelationTable) -> dict:
    out = {
        "kind": table.kind,
        "joints": {f"{a},{b}": v for (a, b), v in sorted(table.joints.items())},
        "marginals": {f"{p},{l}": v for (p, l), v in sorted(table.marginals.items())},
    }
    if table.sampled:
        out["joint_stderr"] = {f"{a},{b}": _stderr(table, v)
                               for (a, b), v in sorted(table.joints.items())}
        out["marginal_stderr"] = {f"{p},{l}": _stderr(table, v)
                                  for (p, l), v in sorted(table.marginals.items())}
        out["n_per_pair"] = table.n_per_pair
        out["seed"] = table.seed
    return out


def correlation_table_to_csv(table: CorrelationTable) -> str:
    """Columns: setting_a, setting_b, value, stderr.  Marginal rows use 'I' for the idle side."""
    buf = io.StringIO()
    buf.write("setting_a,setting_b,value,stderr\n")
    for (a, b), v in sorted(table.joints.items()):
        buf.write(f"{a},{b},{v!r},{_stderr(table, v)!r}\n")
    for (p, l), v in sorted(table.marginals.items()):
        pair = (l, "I") if p == "A" else ("I", l)
        buf.write(f"{pair[0]},{pair[1]},{v!r},{_stderr(table, v)!r}\n")
    return buf.getvalue()


def _round_table(t: Transcript, flags: bool, render):
    """Rendered text for each cell of ``t``, plus its rounds in chunks.

    ``render`` maps a cell's [(key, value), ...] to text, with the keys
    basis_a, basis_b, (flag_a, flag_b when ``flags``,) outcome_a, outcome_b.
    A transcript has 72 cells, so each round costs one lookup instead of a
    format.  The chunks enumerate (round, cell index) for CHUNK_ROUNDS
    consecutive rounds each.
    """
    from .sixstate import BASES

    table = [render([("basis_a", ba), ("basis_b", bb),
                     *([("flag_a", flag), ("flag_b", flag)] if flags else []),
                     ("outcome_a", oa), ("outcome_b", ob)])
             for flag, ba, bb, oa, ob in itertools.product((0, 1), BASES, BASES, (0, 1), (0, 1))]
    cells = t.cells()
    chunks = (enumerate(cells[start:start + CHUNK_ROUNDS].tolist(), start)
              for start in range(0, len(cells), CHUNK_ROUNDS))
    return table, chunks


def transcript_to_csv(t: Transcript, out: TextIO) -> None:
    """Write columns round, basis_a, basis_b, outcome_a, outcome_b (flags are not written)."""
    table, chunks = _round_table(t, False, lambda items: ",".join(str(v) for _, v in items))
    out.write("round,basis_a,basis_b,outcome_a,outcome_b\n")
    for rounds in chunks:
        out.write("".join([f"{i},{table[c]}\n" for i, c in rounds]))


def transcript_to_json(t: Transcript, out: TextIO) -> None:
    """Write ``dumps`` of {"rounds": [...], "seed": ..., "strategy": ...}, rounds spliced in.

    Each round is an object with the keys basis_a, basis_b, (flag_a, flag_b,)
    outcome_a, outcome_b and round.  The rounds are written from templates in
    the layout ``dumps`` gives them (sorted keys, indent 2), so the bytes are
    those of ``dumps`` on the whole document.
    """
    head = dumps({"seed": t.seed, "strategy": t.strategy})   # "rounds" sorts first
    if not t.n:
        out.write('{\n  "rounds": [],\n' + head[2:])
        return
    table, chunks = _round_table(
        t, t.premeasured,
        lambda items: "".join(f'      "{k}": {json.dumps(v)},\n' for k, v in items))
    out.write('{\n  "rounds": [\n')
    separator = ""
    for rounds in chunks:
        out.write(separator + ",\n".join([f'    {{\n{table[c]}      "round": {i}\n    }}'
                                          for i, c in rounds]))
        separator = ",\n"
    out.write("\n  ],\n" + head[2:])


def qber_report_to_dict(report: QberReport) -> dict:
    out = {
        "sifted": dict(report.sifted),
        "errors": dict(report.errors),
        "rates": dict(report.rates),
        "total_rounds": report.total_rounds,
        "sift_fraction": report.sift_fraction,
        "abort_threshold": report.abort_threshold,
        "verdict": report.verdict,
    }
    if report.flag_mismatches is not None:
        out["flag_mismatches"] = report.flag_mismatches
        out["flag_agreements"] = report.flag_agreements
    return out


def family_params_to_dict(params: FamilyParams) -> dict:
    return {
        "population_0": params.population_0,
        "population_1": params.population_1,
        "coherence": params.coherence,
        "source": params.source,
    }


def y_check_to_dict(y: YCoefficientReport) -> dict:
    return {
        "block_norms": {p: dict(v) for p, v in y.block_norms.items()},
        "normal_form_deviation": dict(y.normal_form_deviation),
        "support_factorization": dict(y.support_factorization),
        "sign_expectation": dict(y.sign_expectation),
        "populations": list(y.populations),
        "population_mismatch": y.population_mismatch,
    }


def equivalence_report_to_dict(report: EquivalenceReport) -> dict:
    out = {
        "kind": report.kind,
        "tol": report.tol,
        "stats_tol": report.stats_tol,
        "verdict": "pass" if report.passed else "fail",
        "failures": list(report.failures),
        "refused_stage": report.refused_stage,
        "statistics": {
            "passed": report.statistics.passed,
            "worst_entry": report.statistics.worst_entry,
            "worst_deviation": report.statistics.worst_deviation,
            "deviations": dict(sorted(report.statistics.deviations.items())),
        },
        "state_equalities": dict(sorted(report.state_equalities.items())),
        "collapse_residuals": dict(sorted(report.collapse_residuals.items())),
        "anticommutators": {k: {"raw": v[0], "support": v[1]}
                            for k, v in sorted(report.anticommutators.items())},
    }
    if report.exact_deviations is not None:
        out["statistics"]["exact_deviations"] = dict(sorted(report.exact_deviations.items()))
    if report.state_fidelity is not None:
        out["state_fidelity"] = report.state_fidelity
    if report.action_fidelities is not None:
        out["action_fidelities"] = {f"{lab}_{p}": v
                                    for (p, lab), v in sorted(report.action_fidelities.items())}
    if report.y_check is not None:
        out["y_check"] = y_check_to_dict(report.y_check)
    if report.family_params is not None:
        out["flag_populations"] = family_params_to_dict(report.family_params)
    return out
