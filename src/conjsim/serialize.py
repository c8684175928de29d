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


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def complex_pair(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def vector_to_json(vec: np.ndarray) -> list:
    return [complex_pair(z) for z in np.asarray(vec, dtype=complex).reshape(-1)]


def vector_from_json(data) -> np.ndarray:
    return np.array([complex(re, im) for re, im in data], dtype=complex)


def matrix_to_json(mat: np.ndarray) -> list:
    return [[complex_pair(z) for z in row] for row in np.asarray(mat, dtype=complex)]


def matrix_from_json(data) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in data], dtype=complex)


def _integer(value, what: str) -> int:
    """``value`` if it is a JSON integer; a float, string or bool is refused, naming ``what``."""
    if type(value) is not int:
        raise ValueError(f"{what}: expected a JSON integer, got {value!r}")
    return value


def state_to_json(state: StateVector | DensityMatrix) -> dict:
    if isinstance(state, StateVector):
        return {"dims": list(state.dims), "amplitudes": vector_to_json(state.amplitudes)}
    return {"dims": list(state.dims), "matrix": matrix_to_json(state.matrix)}


def state_from_json(data) -> StateVector | DensityMatrix:
    if "amplitudes" not in data and "matrix" not in data:
        raise ValueError("state JSON needs an 'amplitudes' or 'matrix' field")
    dims = [_integer(d, "state dims") for d in data["dims"]]
    if "amplitudes" in data:
        return StateVector(dims, vector_from_json(data["amplitudes"]))
    return DensityMatrix(dims, matrix_from_json(data["matrix"]))


def sim_params_from_json(data) -> SimParams:
    return SimParams.from_polar(float(data["a"]), float(data.get("c_abs", 0.0)),
                                float(data.get("c_phase", 0.0)))


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

    flags = data.get("flag_registers")
    return Experiment(
        kind=data["kind"],
        state=state_from_json(data["state"]),
        observables={p: {lab: matrix_from_json(m)
                         for lab, m in data["parties"][p]["observables"].items()}
                     for p in ("A", "B")},
        party_dims={p: tuple(_integer(d, f"party {p} dims") for d in data["parties"][p]["dims"])
                    for p in ("A", "B")},
        flag_registers=({k: _integer(v, f"flag_registers {k}") for k, v in flags.items()}
                        if flags else None),
    )


def strategy_from_json(data) -> EveStrategy:
    from .sixstate import Conjugate, CustomState, Honest, MismatchedFlags, ZPremeasure

    name = data["strategy"]
    if name == "honest":
        return Honest(sim_params_from_json(data))
    if name == "conjugate":
        return Conjugate()
    if name == "zpremeasure":
        return ZPremeasure(sim_params_from_json(data))
    if name == "mismatched_flags":
        return MismatchedFlags(_integer(data["flag_a"], "flag_a"),
                               _integer(data["flag_b"], "flag_b"))
    if name == "custom_state":
        state = state_from_json(data["state"])
        return CustomState(state.density())
    raise ValueError(f"unknown strategy {name!r}")


def correlation_table_to_dict(table: CorrelationTable) -> dict:
    out = {
        "kind": table.kind,
        "joints": {f"{a},{b}": v for (a, b), v in sorted(table.joints.items())},
        "marginals": {f"{p},{l}": v for (p, l), v in sorted(table.marginals.items())},
    }
    if table.sampled:
        out["joint_stderr"] = {f"{a},{b}": v for (a, b), v in sorted(table.joint_stderr.items())}
        out["marginal_stderr"] = {f"{p},{l}": v
                                  for (p, l), v in sorted(table.marginal_stderr.items())}
        out["n_per_pair"] = table.n_per_pair
        out["seed"] = table.seed
    return out


def correlation_table_to_csv(table: CorrelationTable) -> str:
    """Columns: setting_a, setting_b, value, stderr.  Marginal rows use 'I' for the idle side."""
    buf = io.StringIO()
    buf.write("setting_a,setting_b,value,stderr\n")
    j_err = table.joint_stderr or {}
    m_err = table.marginal_stderr or {}
    for (a, b), v in sorted(table.joints.items()):
        buf.write(f"{a},{b},{v!r},{j_err.get((a, b), 0.0)!r}\n")
    for (p, l), v in sorted(table.marginals.items()):
        pair = (l, "I") if p == "A" else ("I", l)
        buf.write(f"{pair[0]},{pair[1]},{v!r},{m_err.get((p, l), 0.0)!r}\n")
    return buf.getvalue()


def _round_table(columns: list[tuple[str, tuple, np.ndarray]], render):
    """Rendered text for every value combination, plus the rounds in chunks.

    ``columns`` holds (key, alphabet, column) with column entries indexing the
    alphabet; ``render`` maps [(key, value), ...] to text.  A transcript has at
    most 144 combinations, so each round costs one lookup instead of a format.
    The chunks enumerate (round, index into the table) for CHUNK_ROUNDS
    consecutive rounds each.
    """
    table = [render(list(zip([key for key, _, _ in columns], values)))
             for values in itertools.product(*(alphabet for _, alphabet, _ in columns))]
    code = np.zeros(len(columns[0][2]), dtype=np.intp)
    for _, alphabet, column in columns:
        code = code * len(alphabet) + column
    chunks = (enumerate(code[start:start + CHUNK_ROUNDS].tolist(), start)
              for start in range(0, len(code), CHUNK_ROUNDS))
    return table, chunks


def _transcript_columns(t: Transcript, flags: bool) -> list[tuple[str, tuple, np.ndarray]]:
    from .sixstate import BASES

    columns = [("basis_a", BASES, t.basis_a), ("basis_b", BASES, t.basis_b)]
    if flags and t.flag_a is not None:
        columns += [("flag_a", (0, 1), t.flag_a), ("flag_b", (0, 1), t.flag_b)]
    return columns + [("outcome_a", (0, 1), t.outcome_a), ("outcome_b", (0, 1), t.outcome_b)]


def transcript_to_csv(t: Transcript, out: TextIO) -> None:
    """Write columns round, basis_a, basis_b, outcome_a, outcome_b (flags are not written)."""
    table, chunks = _round_table(_transcript_columns(t, flags=False),
                                 lambda items: ",".join(str(v) for _, v in items))
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
        _transcript_columns(t, flags=True),
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
