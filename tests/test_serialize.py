import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conjsim.family import SimParams, multiparty_sim_state
from conjsim.selftest import (
    correlations,
    family_experiment,
    reference_experiment,
    run_selftest,
    sampled_correlations,
)
from conjsim.serialize import (
    CHUNK_ROUNDS,
    _round_table,
    complex_from_json,
    complex_to_json,
    correlation_table_to_csv,
    correlation_table_to_dict,
    dumps,
    equivalence_report_to_dict,
    experiment_from_json,
    experiment_to_json,
    qber_report_to_dict,
    sim_params_from_json,
    state_from_json,
    state_to_json,
    strategy_from_json,
    transcript_to_csv,
    transcript_to_json,
)
from conjsim.sixstate import (
    BASES,
    CELL_LABELS,
    CELLS,
    Conjugate,
    CustomState,
    Honest,
    MismatchedFlags,
    ZPremeasure,
    run_rounds,
    sift,
)
from conjsim.states import DensityMatrix, StateVector, epr_pair
from dense_reference import RUN_ORDER, per_pair_complex_from_json, per_pair_complex_to_json


def test_matrix_roundtrip():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    np.testing.assert_allclose(complex_from_json(complex_to_json(m), 2, "m"), m)


JSON_SCALARS = (st.none() | st.booleans() | st.text(max_size=2) | st.floats()
                | st.integers(-2**70, 2**70) | st.sampled_from([10**400, -10**400]))
JSON_VALUES = JSON_SCALARS | st.recursive(JSON_SCALARS, lambda inner: st.lists(inner, max_size=3)
                                          | st.dictionaries(st.text(max_size=1), inner,
                                                            max_size=2), max_leaves=6)
PARTS = st.floats() | st.integers(-2**70, 2**70) | st.sampled_from([0, -0.0, 2**53 + 1, 10**400])


@st.composite
def nested_pairs(draw):
    """(rank, data): a regular nesting of [re, im] pairs of ``rank`` axes, then up to three
    edits that each set a pair's part to a JSON scalar, or set, drop or add one entry at a
    random place, so it may be refused."""
    rank = draw(st.integers(1, 3))
    shape = draw(st.lists(st.integers(1, 3), min_size=rank, max_size=rank))

    def build(depth):
        if depth == rank:
            return [draw(PARTS), draw(PARTS)]
        return [build(depth + 1) for _ in range(shape[depth])]

    data = build(0)
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["part", "set", "drop", "add"]))
        value = draw(JSON_SCALARS if edit == "part" else JSON_VALUES)
        node = data
        depth = rank if edit == "part" else draw(st.integers(0, rank))
        for _ in range(depth):                          # down to an array or a pair
            child = node[draw(st.integers(0, len(node) - 1))] if node else None
            if not isinstance(child, list):
                break
            node = child
        if edit == "add" or not node:
            node.append(value)
        elif edit == "drop":
            node.pop(draw(st.integers(0, len(node) - 1)))
        else:                                           # "set" or "part"
            node[draw(st.integers(0, len(node) - 1))] = value
    return rank, data


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=nested_pairs())
def test_complex_codec_reads_what_the_per_pair_reference_reads(case):
    rank, data = case
    try:
        expected = per_pair_complex_from_json(data, rank)
    except (OverflowError, ValueError):
        expected = None
    try:
        got = complex_from_json(data, rank, "x")
    except ValueError as err:                   # the codec raises nothing else
        assert expected is None, data
        assert str(err).startswith("x"), err    # it names a path under "x"
        return
    assert expected is not None, data
    assert (got.dtype, got.shape) == (expected.dtype, expected.shape)
    assert got.tobytes() == expected.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(rank=st.integers(1, 2), data=st.data())
def test_complex_codec_round_trips_and_writes_the_per_pair_encoding(rank, data):
    shape = data.draw(st.lists(st.integers(1, 4), min_size=rank, max_size=rank))
    size = 2 * math.prod(shape)
    parts = data.draw(st.lists(st.floats(), min_size=size, max_size=size))
    arr = np.array(parts, dtype=float).view(complex).reshape(shape)
    encoded = complex_to_json(arr)
    assert json.dumps(encoded) == json.dumps(per_pair_complex_to_json(arr))
    back = complex_from_json(json.loads(json.dumps(encoded)), rank, "x")
    assert back.shape == arr.shape and back.tobytes() == arr.tobytes()


def test_state_roundtrip_vector_and_density():
    phi = epr_pair()
    back = state_from_json(state_to_json(phi))
    assert isinstance(back, StateVector)
    np.testing.assert_allclose(back.amplitudes, phi.amplitudes)
    rho = phi.density()
    back = state_from_json(state_to_json(rho))
    assert isinstance(back, DensityMatrix)
    np.testing.assert_allclose(back.matrix, rho.matrix)


def test_state_json_shape():
    data = state_to_json(epr_pair())
    assert data["dims"] == [2, 2]
    assert data["amplitudes"][0] == [pytest.approx(1 / np.sqrt(2)), 0.0]


def test_sim_params_roundtrip():
    # the README's family-parameter document; c_abs and c_phase default to 0
    p = SimParams.from_polar(0.5, 0.3, 1.2)
    back = sim_params_from_json({"a": 0.5, "c_abs": 0.3, "c_phase": 1.2})
    assert back.a == pytest.approx(p.a)
    assert back.c == pytest.approx(p.c)
    assert sim_params_from_json({"a": 0.25}) == SimParams(0.25, 0.0)
    assert sim_params_from_json({"a": 1, "c_abs": 0}) == SimParams(1.0, 0.0)


@pytest.mark.parametrize("key, value", [
    ("a", math.nan), ("a", math.inf), ("c_abs", math.inf), ("c_abs", -math.inf),
    ("c_phase", math.nan), ("c_phase", math.inf),
])
def test_a_non_finite_family_value_is_refused_naming_its_key(key, value):
    # named by its key, not as a coherence "|c| = nan exceeds sqrt(a(1-a))"; Python's json
    # reads NaN and Infinity, so a strategy document can hold them
    message = f"^{key}: expected a finite number, got {value}$"
    with pytest.raises(ValueError, match=message):
        sim_params_from_json({"a": 0.3, key: value})
    with pytest.raises(ValueError, match=message):
        strategy_from_json({"strategy": "zpremeasure", "a": 0.3, key: value})


def test_experiment_roundtrip():
    exp = family_experiment(SimParams(0.25, 0.2j), "extended")
    back = experiment_from_json(experiment_to_json(exp))
    assert back.kind == exp.kind
    assert back.party_dims == exp.party_dims
    assert back.flag_registers == exp.flag_registers
    np.testing.assert_allclose(back.state.matrix, exp.state.matrix, atol=1e-15)
    for p in ("A", "B"):
        for lab, m in exp.observables[p].items():
            np.testing.assert_allclose(back.observables[p][lab], m, atol=1e-15)
    # round-tripped experiment verifies identically
    assert run_selftest(back).passed


def test_strategy_roundtrip():
    # each strategy's describe() is the README's strategy document it is read back from
    for strat in (Honest(SimParams(0.5, 0.25)), MismatchedFlags(0, 1),
                  ZPremeasure(SimParams(1.0, 0.0)), Conjugate()):
        back = strategy_from_json(strat.describe())
        assert back.describe() == strat.describe()
    rho = multiparty_sim_state(epr_pair(), SimParams(0.3, 0.2))
    back = strategy_from_json({"strategy": "custom_state", "state": state_to_json(rho)})
    assert isinstance(back, CustomState)
    np.testing.assert_array_equal(back.state.matrix, rho.matrix)


def test_correlation_table_csv_format():
    table = correlations(reference_experiment("mayersyao"))
    csv = correlation_table_to_csv(table)
    lines = csv.strip().split("\n")
    assert lines[0] == "setting_a,setting_b,value,stderr"
    assert len(lines) == 1 + 9 + 6
    row = dict(zip(("setting_a", "setting_b", "value", "stderr"),
                   lines[1].split(",")))
    assert row["setting_a"] in ("X", "Z", "D", "I")


def test_a_correlation_table_encodes_its_entries_alone():
    # no job writes a sampled table: it encodes as an exact one does, with no stderr,
    # n_per_pair or seed; the CSV keeps its stderr column, 0.0 on every row
    exact = correlations(reference_experiment("mayersyao"))
    for table in (exact, sampled_correlations(exact, 50, seed=1)):
        data = correlation_table_to_dict(table)
        assert set(data) == {"kind", "joints", "marginals"}
        assert set(data["joints"]) == {f"{a},{b}" for a, b in table.joints}
    rows = correlation_table_to_csv(exact).splitlines()[1:]
    assert {row.split(",")[3] for row in rows} == {"0.0"}


# --------------------------------------------------------------------------
# reference encoders: one record per round, each decoded from its cell index on its own,
# a CSV f-string loop and dumps(dict)

def reference_records(t):
    records = []
    for i, cell in enumerate(t.cells()):
        flag, a, b, k = (int(x) for x in np.unravel_index(cell, CELLS))
        records.append({"round": i, "basis_a": BASES[a], "basis_b": BASES[b],
                        "outcome_a": k >> 1, "outcome_b": k & 1,
                        **({"flag_a": flag, "flag_b": flag} if t.premeasured else {})})
    return records


def test_round_table_labels_each_cell_as_sixstate_defines_it():
    # all 72 cells, in counts.ravel() order, each decoded from its index on its own
    t = run_rounds(ZPremeasure(SimParams(0.5, 0.5)), 10, seed=1)
    table, _ = _round_table(t, True, dict)
    assert len(table) == len(CELL_LABELS) == math.prod(CELLS) == 72
    for cell, (label, rendered) in enumerate(zip(CELL_LABELS, table)):
        flag, a, b, k = (int(x) for x in np.unravel_index(cell, CELLS))
        assert label == (flag, BASES[a], BASES[b], k >> 1, k & 1)
        assert rendered == {"basis_a": BASES[a], "basis_b": BASES[b], "flag_a": flag,
                            "flag_b": flag, "outcome_a": k >> 1, "outcome_b": k & 1}


def reference_csv(t):
    buf = io.StringIO()
    buf.write("round,basis_a,basis_b,outcome_a,outcome_b\n")
    for rec in reference_records(t):
        buf.write(f"{rec['round']},{rec['basis_a']},{rec['basis_b']},"
                  f"{rec['outcome_a']},{rec['outcome_b']}\n")
    return buf.getvalue()


def transcript_to_dict(t):
    return {"seed": t.seed, "strategy": t.strategy.describe(), "rounds": reference_records(t)}


def encoded(encode, t):
    buf = io.StringIO()
    encode(t, buf)
    return buf.getvalue()


@pytest.mark.parametrize("strategy, n", [
    (Honest(SimParams(0.3, 0.25 * np.exp(0.7j))), 3000),
    (ZPremeasure(SimParams(0.5, 0.5)), 3000),        # flags present
    (ZPremeasure(SimParams(1.0, 0.0)), 1),
    (Honest(SimParams(1.0, 0.0)), 1),
    (ZPremeasure(SimParams(0.5, 0.5)), 2 * CHUNK_ROUNDS + 1),     # three chunks
    (Honest(SimParams(1.0, 0.0)), CHUNK_ROUNDS),                  # exactly one
])
def test_transcript_encoders_match_reference_bytes(strategy, n):
    t = run_rounds(strategy, n, seed=4)
    assert encoded(transcript_to_csv, t) == reference_csv(t)
    assert encoded(transcript_to_json, t) == dumps(transcript_to_dict(t))


class WriteLog(io.StringIO):
    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


@pytest.mark.parametrize("encode", [transcript_to_csv, transcript_to_json])
def test_transcript_encoders_write_bounded_chunks(encode):
    # five chunks of rounds: no single write holds more than a chunk's text
    t = run_rounds(ZPremeasure(SimParams(0.5, 0.5)), 5 * CHUNK_ROUNDS, seed=1)
    out = WriteLog()
    encode(t, out)
    assert max(out.sizes) < len(out.getvalue()) / 4


def test_transcript_csv_and_dict():
    t = run_rounds(Honest(SimParams(1.0, 0.0)), 5, seed=2)
    csv = encoded(transcript_to_csv, t)
    lines = csv.strip().split("\n")
    assert lines[0] == "round,basis_a,basis_b,outcome_a,outcome_b"
    assert len(lines) == 6
    data = json.loads(encoded(transcript_to_json, t))
    assert len(data["rounds"]) == 5
    assert data["seed"] == 2


def test_qber_report_dict():
    report = sift(run_rounds(MismatchedFlags(0, 1), 200, seed=3))
    data = qber_report_to_dict(report)
    assert data["rates"]["Y"] == 1.0
    assert data["verdict"] == "not-protocol-consistent"


def test_equivalence_report_dict():
    report = run_selftest(family_experiment(SimParams(0.5, 0.5), "extended"))
    data = equivalence_report_to_dict(report)
    assert data["verdict"] == "pass"
    assert data["flag_populations"]["population_0"] == pytest.approx(0.5, abs=1e-9)
    assert "residuals" not in data["flag_populations"]
    assert list(data["residuals"]) == list(RUN_ORDER)   # a passing extended run ran every stage
    assert data["residuals"]["family_params"] == report.family_params.residuals
    json.loads(dumps(data))    # serializable


def test_dumps_deterministic():
    payload = {"b": 1.25, "a": [1e-10, 0.3333333333333333]}
    assert dumps(payload) == dumps(json.loads(dumps(payload)))
