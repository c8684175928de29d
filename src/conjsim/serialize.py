"""JSON and CSV encodings for states, experiments, strategies, and reports.

All complex numbers serialize as [re, im] pairs of decimal doubles; matrices
are row-major nested lists of pairs.  The ``*_from_json`` readers take every
document the CLI reads (experiment, state, strategy and config fixtures): each
object's keys and each value's JSON type are checked before the value is used,
and a refusal is a ValueError that names the value's JSON path, such as
``parties.A.observables.X[0]``.  ``dumps`` output is deterministic
(sorted keys, fixed indentation) so reports are byte-identical across runs
with identical inputs.  Transcripts are written to an open text file a chunk
of rounds at a time.  ``family``, ``selftest`` and ``sixstate`` are imported
only by the functions that build or inspect their objects, so encoding a
``props`` report loads neither of the last two, reading an experiment document
loads no ``family``, and a strategy document is read, its family member
included, before ``sixstate`` is imported.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
from typing import TYPE_CHECKING, TextIO

import numpy as np

from .linalg import DEFECTS
from .states import DensityMatrix, StateVector

if TYPE_CHECKING:
    from .family import SimParams
    from .selftest import CorrelationTable, EquivalenceReport, Experiment
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


def complex_to_json(arr) -> list:
    """``arr`` as nested JSON arrays, one level per axis, of [re, im] pairs."""
    arr = np.asarray(arr, dtype=complex)
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def complex_from_json(data, rank: int, path: str) -> np.ndarray:
    """The complex array of ``rank`` axes that nested JSON arrays of [re, im] pairs write.

    Every array of a level is non-empty and as long as the level's first, and a
    pair is two JSON numbers (a bool is none).  The rule is checked a level at a
    time over the whole array; only a refusal walks the entries, to name the
    JSON path of the first one that breaks it.
    """
    level, shape = [data], []
    for depth in range(rank + 1):
        if set(map(type, level)) != {list}:
            break
        size = len(level[0])
        if set(map(len, level)) != {2 if depth == rank else size}:
            break
        shape.append(size)
        level = list(itertools.chain.from_iterable(level))
    else:
        if set(map(type, level)) <= {int, float}:
            with contextlib.suppress(OverflowError):       # an integer past the float range
                return np.array(level, dtype=float).view(complex).reshape(shape[:-1])
    _refuse_first_bad_entry(data, rank, path)
    raise _refused(path, f"expected arrays {rank} deep of [re, im] pairs")     # not reached


def _refuse_first_bad_entry(data, rank: int, path: str) -> None:
    """Refuse, naming its JSON path, the first entry of ``data`` (depth first) that breaks
    the rule of ``complex_from_json``."""
    sizes: list[int] = []

    def walk(value, depth, where):
        if depth > rank:
            _number(value, where)
            return
        if depth == rank:
            if not (type(value) is list and len(value) == 2):
                raise _refused(where, f"expected a [re, im] pair, got {_shown(value)}")
        elif type(value) is not list or not value:
            raise _refused(where, f"expected a non-empty JSON array, got {_shown(value)}")
        elif len(sizes) == depth:
            sizes.append(len(value))
        elif len(value) != sizes[depth]:
            raise _refused(where, f"expected {sizes[depth]} entries like the first array of "
                                  f"its level, got {len(value)}")
        for i, item in enumerate(value):
            walk(item, depth + 1, f"{where}[{i}]")

    walk(data, 0, path)


def _at(path: str, key: str) -> str:
    """The JSON path of member ``key`` of the object at ``path``."""
    return f"{path}.{key}" if path else key


def _shown(value) -> str:
    """``value`` as short text for an error: a scalar as JSON, an array or object by its kind."""
    if isinstance(value, list):
        return f"an array of {len(value)}"
    if isinstance(value, dict):
        return "an object"
    text = json.dumps(value)
    return text if len(text) <= 40 else text[:36] + "..."


def _refused(path: str, detail: str) -> ValueError:
    return ValueError(f"{path}: {detail}" if path else detail)


def _object(data, path: str, required=(), optional=()) -> dict:
    """``data`` if it is a JSON object with every key of ``required`` and no key outside
    ``required`` and ``optional``; a refusal names the JSON path."""
    if type(data) is not dict:
        raise _refused(path, f"expected a JSON object, got {_shown(data)}")
    for key in data:
        if key not in required and key not in optional:
            known = ", ".join((*required, *optional))
            raise ValueError(f"{_at(path, key)}: unknown key (known: {known})")
    for key in required:
        if key not in data:
            raise ValueError(f"{_at(path, key)}: required key missing")
    return data


def _array(data, path: str) -> list:
    """``data`` if it is a JSON array; any other value is refused, naming ``path``."""
    if type(data) is not list:
        raise _refused(path, f"expected a JSON array, got {_shown(data)}")
    return data


def _string(value, path: str) -> str:
    if type(value) is not str:
        raise _refused(path, f"expected a JSON string, got {_shown(value)}")
    return value


def _integer(value, path: str) -> int:
    """``value`` if it is a JSON integer; a float, string or bool is refused, naming ``path``."""
    if type(value) is not int:
        raise _refused(path, f"expected a JSON integer, got {_shown(value)}")
    return value


def _integers(data, path: str) -> list[int]:
    return [_integer(v, f"{path}[{i}]") for i, v in enumerate(_array(data, path))]


def _number(value, path: str) -> float:
    """``value`` as a float if it is a JSON number (a bool is none), naming ``path`` if not."""
    if type(value) not in (int, float):
        raise _refused(path, f"expected a JSON number, got {_shown(value)}")
    try:
        return float(value)
    except OverflowError:
        raise _refused(path, f"{_shown(value)} is past the float range") from None


def state_to_json(state: StateVector | DensityMatrix) -> dict:
    if isinstance(state, StateVector):
        return {"dims": list(state.dims), "amplitudes": complex_to_json(state.amplitudes)}
    return {"dims": list(state.dims), "matrix": complex_to_json(state.matrix)}


def state_from_json(data, path: str = "") -> StateVector | DensityMatrix:
    """The state a ``{"dims", "amplitudes" | "matrix"}`` object at ``path`` writes."""
    _object(data, path, ("dims",), ("amplitudes", "matrix"))
    if "amplitudes" in data and "matrix" in data:
        raise ValueError(f"{_at(path, 'amplitudes')}: give amplitudes or matrix, not both")
    if "amplitudes" not in data and "matrix" not in data:
        raise _refused(path, "expected the key amplitudes or matrix")
    dims = _integers(data["dims"], _at(path, "dims"))
    if "amplitudes" in data:
        return StateVector(dims, complex_from_json(data["amplitudes"], 1, _at(path, "amplitudes")))
    return DensityMatrix(dims, complex_from_json(data["matrix"], 2, _at(path, "matrix")))


def sim_params_from_json(data) -> SimParams:
    """The family member a ``{"a", "c_abs", "c_phase"}`` object writes; c_abs and c_phase
    default to 0, and a value that is not finite is refused, naming its key."""
    from .family import SimParams

    _object(data, "", ("a",), ("c_abs", "c_phase"))
    polar = {key: _number(data.get(key, 0.0), key) for key in ("a", "c_abs", "c_phase")}
    for key, value in polar.items():
        if not math.isfinite(value):
            raise _refused(key, f"expected a finite number, got {value}")
    return SimParams.from_polar(**polar)


def experiment_to_json(exp: Experiment) -> dict:
    return {
        "kind": exp.kind,
        "state": state_to_json(exp.state),
        "parties": {
            p: {
                "dims": list(exp.party_dims[p]),
                "observables": {lab: complex_to_json(m) for lab, m in exp.observables[p].items()},
            }
            for p in ("A", "B")
        },
        "flag_registers": dict(exp.flag_registers) if exp.flag_registers else None,
    }


def experiment_from_json(data) -> Experiment:
    from .selftest import PARTIES, SUBTESTS, Experiment, setting_labels

    _object(data, "", ("kind", "state", "parties"), ("flag_registers",))
    kind = _string(data["kind"], "kind")
    if kind not in SUBTESTS:
        raise ValueError(f"kind: unknown test kind {kind!r} (known: {', '.join(SUBTESTS)})")
    parties = _object(data["parties"], "parties", PARTIES)
    for p in PARTIES:
        _object(parties[p], f"parties.{p}", ("dims", "observables"))
    flags = data.get("flag_registers")
    if flags is not None:
        flags = {k: _integer(v, f"flag_registers.{k}")
                 for k, v in _object(flags, "flag_registers", (), PARTIES).items()}
    return Experiment(
        kind=kind,
        state=state_from_json(data["state"], "state"),
        observables={p: {lab: complex_from_json(m, 2, f"parties.{p}.observables.{lab}")
                         for lab, m in _object(parties[p]["observables"],
                                               f"parties.{p}.observables",
                                               setting_labels(kind)).items()}
                     for p in PARTIES},
        party_dims={p: _integers(parties[p]["dims"], f"parties.{p}.dims") for p in PARTIES},
        flag_registers=flags,
    )


def strategy_from_json(data) -> EveStrategy:
    """The strategy a ``describe()`` document names.

    A document without a ``"strategy"`` key is the state of a custom source.  The
    document, its family member and its state are read before ``sixstate`` is imported,
    so a refused member costs no import of the simulator.
    """
    if not (type(data) is dict and "strategy" in data):
        name, args = "custom_state", (state_from_json(data).density(),)
    else:
        name = _string(data["strategy"], "strategy")
        family = (("a",), ("c_abs", "c_phase"))
        reads = {"honest": family, "zpremeasure": family, "conjugate": ((), ()),
                 "mismatched_flags": (("flag_a", "flag_b"), ()),
                 "custom_state": (("state",), ())}
        if name not in reads:
            raise ValueError(f"strategy: unknown strategy {name!r} (known: {', '.join(reads)})")
        required, optional = reads[name]
        _object(data, "", ("strategy", *required), optional)
        if name in ("honest", "zpremeasure"):
            args = (sim_params_from_json({k: v for k, v in data.items() if k != "strategy"}),)
        elif name == "mismatched_flags":
            args = (_integer(data["flag_a"], "flag_a"), _integer(data["flag_b"], "flag_b"))
        elif name == "custom_state":
            args = (state_from_json(data["state"], "state").density(),)
        else:
            args = ()
    from .sixstate import Conjugate, CustomState, Honest, MismatchedFlags, ZPremeasure

    kinds = {"honest": Honest, "zpremeasure": ZPremeasure, "conjugate": Conjugate,
             "mismatched_flags": MismatchedFlags, "custom_state": CustomState}
    return kinds[name](*args)


def fixtures_from_json(config: dict) -> list[tuple[str, np.ndarray, list[str]]]:
    """(label, matrix, claims) of each fixture in a config's ``fixtures`` array.

    A fixture is ``{"matrix": ..., "label": "?", "claims": []}``, label and claims
    optional, and each claim is a key of ``linalg.DEFECTS``.  An absent or null
    ``fixtures`` lists none.  A (label, claim) pair, one report item, given twice is refused.
    """
    out = []
    seen = set()
    fixtures = config.get("fixtures")
    for i, fixture in enumerate(_array(fixtures, "fixtures") if fixtures is not None else ()):
        path = f"fixtures[{i}]"
        _object(fixture, path, ("matrix",), ("label", "claims"))
        claims = _array(fixture.get("claims", []), f"{path}.claims")
        for j, claim in enumerate(claims):
            if _string(claim, f"{path}.claims[{j}]") not in DEFECTS:
                raise ValueError(f"{path}.claims[{j}]: unknown claim {claim!r} "
                                 f"(known: {', '.join(DEFECTS)})")
        label = _string(fixture.get("label", "?"), f"{path}.label")
        for j, claim in enumerate(claims):
            if (label, claim) in seen:
                raise ValueError(f"{path}.claims[{j}]: item fixture[{label}:{claim}] given twice")
            seen.add((label, claim))
        out.append((label, complex_from_json(fixture["matrix"], 2, f"{path}.matrix"), claims))
    return out


def correlation_table_to_dict(table: CorrelationTable) -> dict:
    return {
        "kind": table.kind,
        "joints": {f"{a},{b}": v for (a, b), v in sorted(table.joints.items())},
        "marginals": {f"{p},{l}": v for (p, l), v in sorted(table.marginals.items())},
    }


def correlation_table_to_csv(table: CorrelationTable) -> str:
    """Columns: setting_a, setting_b, value, stderr.  Marginal rows use 'I' for the idle side;
    the table is exact, so every stderr is 0.0."""
    buf = io.StringIO()
    buf.write("setting_a,setting_b,value,stderr\n")
    for (a, b), v in sorted(table.joints.items()):
        buf.write(f"{a},{b},{v!r},0.0\n")
    for (p, l), v in sorted(table.marginals.items()):
        pair = (l, "I") if p == "A" else ("I", l)
        buf.write(f"{pair[0]},{pair[1]},{v!r},0.0\n")
    return buf.getvalue()


def _round_table(t: Transcript, flags: bool, render):
    """Rendered text for each cell of ``t``, plus its rounds in chunks.

    ``render`` maps a cell's [(key, value), ...] to text, with the keys
    basis_a, basis_b, (flag_a, flag_b when ``flags``,) outcome_a, outcome_b.
    A transcript has 72 cells, so each round costs one lookup instead of a
    format.  The chunks enumerate (round, cell index) for CHUNK_ROUNDS
    consecutive rounds each.
    """
    from .sixstate import CELL_LABELS

    table = [render([("basis_a", ba), ("basis_b", bb),
                     *([("flag_a", flag), ("flag_b", flag)] if flags else []),
                     ("outcome_a", oa), ("outcome_b", ob)])
             for flag, ba, bb, oa, ob in CELL_LABELS]
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
    head = dumps({"seed": t.seed, "strategy": t.strategy.describe()})   # "rounds" sorts first
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


def equivalence_report_to_dict(report: EquivalenceReport) -> dict:
    """The verdict, ``residuals`` by stage, and every field of the family estimate."""
    out = {
        "kind": report.kind,
        "tol": report.tol,
        "stats_tol": report.stats_tol,
        "verdict": "pass" if report.passed else "fail",
        "failures": list(report.failures),
        "refused_stage": report.refused_stage,
        "residuals": report.residuals,
    }
    params = report.family_params
    if params is not None:
        out["flag_populations"] = {name: getattr(params, name) for name in params._fields}
    return out
