import io
import json

import numpy as np
import pytest

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
    correlation_table_to_csv,
    correlation_table_to_dict,
    dumps,
    equivalence_report_to_dict,
    experiment_from_json,
    experiment_to_json,
    matrix_from_json,
    matrix_to_json,
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
    Conjugate,
    CustomState,
    Honest,
    MismatchedFlags,
    ZPremeasure,
    run_rounds,
    sift,
)
from conjsim.states import DensityMatrix, StateVector, epr_pair


def test_matrix_roundtrip():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    np.testing.assert_allclose(matrix_from_json(matrix_to_json(m)), m)


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
    rho = multiparty_sim_state(epr_pair(), 2, SimParams(0.3, 0.2))
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


def test_correlation_table_dict_sampled_fields():
    table = sampled_correlations(correlations(reference_experiment("mayersyao")), 50, seed=1)
    data = correlation_table_to_dict(table)
    assert data["n_per_pair"] == 50 and data["seed"] == 1
    assert set(data["joint_stderr"]) == set(data["joints"])


# --------------------------------------------------------------------------
# reference encoders: one record per round, a CSV f-string loop and dumps(dict)

def reference_records(t):
    flags = t.flag_a is not None
    return [{"round": i, "basis_a": BASES[t.basis_a[i]], "basis_b": BASES[t.basis_b[i]],
             "outcome_a": int(t.outcome_a[i]), "outcome_b": int(t.outcome_b[i]),
             **({"flag_a": int(t.flag_a[i]), "flag_b": int(t.flag_b[i])} if flags else {})}
            for i in range(t.n)]


def reference_csv(t):
    buf = io.StringIO()
    buf.write("round,basis_a,basis_b,outcome_a,outcome_b\n")
    for rec in reference_records(t):
        buf.write(f"{rec['round']},{rec['basis_a']},{rec['basis_b']},"
                  f"{rec['outcome_a']},{rec['outcome_b']}\n")
    return buf.getvalue()


def transcript_to_dict(t):
    return {"seed": t.seed, "strategy": t.strategy, "rounds": reference_records(t)}


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
    assert "y_check" in data and "statistics" in data
    json.loads(dumps(data))    # serializable


def test_dumps_deterministic():
    payload = {"b": 1.25, "a": [1e-10, 0.3333333333333333]}
    assert dumps(payload) == dumps(json.loads(dumps(payload)))
