"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import io
import json

import numpy as np

from conjsim.cli import main as cli_main
from conjsim.family import (
    SimParams,
    _hamiltonian_identity_residual,
    c_of,
    c_property_suite,
    multiparty_sim_state,
    to_real_simulation,
)
from conjsim.linalg import X, Y, Z, failing, random_hermitian, worst_failing
from conjsim.selftest import (
    check_against_reference,
    correlations,
    extraction_isometry,
    family_experiment,
    reference_experiment,
    run_selftest,
    with_observable,
    with_state,
)
from conjsim.serialize import transcript_to_json
from conjsim.sixstate import (
    Honest,
    MismatchedFlags,
    ZPremeasure,
    run_rounds,
    sift,
)
from conjsim.states import StateVector, epr_pair

from dense_reference import ancillas_last, basis_state, feasible_members

SQ2 = 1 / np.sqrt(2)


def report(line):
    print(f"\nACCEPTANCE {line}")


def test_criterion_1_reference_statistics_exact():
    table = correlations(reference_experiment("mayersyao"))
    tol = 1e-10
    for lab in ("X", "Z", "D"):
        assert abs(table.marginals[("A", lab)]) <= tol
        assert abs(table.marginals[("B", lab)]) <= tol
        assert abs(table.joints[(lab, lab)] - 1.0) <= tol
    assert abs(table.joints[("X", "Z")]) <= tol
    assert abs(table.joints[("Z", "X")]) <= tol
    for pair in (("X", "D"), ("Z", "D"), ("D", "X"), ("D", "Z")):
        assert abs(table.joints[pair] - SQ2) <= tol
    report("1: PASS reference statistics reproduce the tabulated values to 1e-10")


def test_criterion_2_extended_reference_statistics():
    table = correlations(reference_experiment("extended"))
    tol = 1e-10
    subtests = (("X", "Z", "D"), ("X", "Y", "E"), ("Y", "Z", "F"))
    for m1, m2, d in subtests:
        for lab in (m1, m2, d):
            assert abs(table.joints[(lab, lab)] - 1.0) <= tol
            assert abs(table.marginals[("A", lab)]) <= tol
            assert abs(table.marginals[("B", lab)]) <= tol
        assert abs(table.joints[(m1, m2)]) <= tol
        assert abs(table.joints[(m2, m1)]) <= tol
        for m in (m1, m2):
            assert abs(table.joints[(m, d)] - SQ2) <= tol
            assert abs(table.joints[(d, m)] - SQ2) <= tol
    assert abs(table.joints[("Y", "Y")] - 1.0) <= tol
    assert abs(table.joints[("E", "E")] - 1.0) <= tol
    assert abs(table.joints[("F", "F")] - 1.0) <= tol
    report("2: PASS extended reference reproduces all three sub-test patterns to 1e-10")


def test_criterion_3_family_indistinguishability():
    grid = feasible_members()
    ref = correlations(reference_experiment("extended"))
    for p in grid:
        exp = family_experiment(p, "extended")
        deviations, bounds = check_against_reference(correlations(exp), ref, tol=1e-10)
        assert worst_failing(deviations, bounds) == "", (p, max(deviations.values()))
        rep = run_selftest(exp, tol=1e-9)
        assert rep.passed, (p, rep.failures)
        assert rep.residuals["state_fidelity"]["ancillas"] <= 1e-9
        assert all(v <= 1e-9 for v in rep.residuals["action_fidelity"].values())
    report(f"3: PASS {len(grid)} family members indistinguishable and certified "
           "(tables 1e-10, fidelities >= 1-1e-9)")


def test_criterion_4_lifting_property_suite():
    residuals, bounds = c_property_suite(trials=100, dim=8, seed=2024)
    assert len(residuals) == 10 and failing(residuals, bounds) == {}
    assert list(residuals)[8:] == ["hamiltonian_identity", "statistics_preservation"]
    for name in list(residuals)[:8]:
        assert residuals[name] <= 1e-10, name
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(20):
        dim = int(rng.integers(2, 5))
        worst = max(worst, _hamiltonian_identity_residual(
            random_hermitian(dim, rng), (0.1, 1.0, np.pi)))
    assert worst <= 1e-8
    report("4: PASS 8-item lifting suite <= 1e-10 on 100 x dim-8 samples; "
           f"Hamiltonian identity residual {worst:.2e} <= 1e-8")


def test_criterion_5_extraction_normal_form():
    ext = extraction_isometry(reference_experiment("mayersyao"))
    psi = epr_pair().amplitudes
    collapsed = (np.eye(4) + np.kron(np.eye(2), Z)) @ psi * SQ2
    lhs = ancillas_last(ext.state)       # [junkA junkB ancA ancB]
    np.testing.assert_allclose(lhs, np.kron(collapsed, psi), atol=1e-10)
    for lab, m in (("X", X), ("Z", Z), ("D", (X + Z) * SQ2)):
        got = ancillas_last(ext.actions[("A", lab)])
        want = np.kron(collapsed, np.kron(m, np.eye(2)) @ psi)
        np.testing.assert_allclose(got, want, atol=1e-10)
    report("5: PASS extraction matches the closing identities entrywise to 1e-10")


def test_criterion_6_rejection_catalog():
    ref = reference_experiment("extended")
    catalog = {
        "D_A := X_A": (with_observable(ref, "A", "D", X), "statistics"),
        "Y_B := +Y": (with_observable(ref, "B", "Y", Y), "statistics"),
        "state |00>": (with_state(ref, basis_state([2, 2], [0, 0])), "statistics"),
        "Y_A := Z_A": (with_observable(ref, "A", "Y", Z), "anticommutator"),
    }
    for name, (exp, expected) in catalog.items():
        rep = run_selftest(exp)
        assert not rep.passed, f"false pass: {name}"
        assert any(expected in f for f in rep.failures), (name, rep.failures)
    # and no false rejection of the clean reference
    assert run_selftest(ref).passed
    report("6: PASS all four corrupted experiments rejected with the documented check; "
           "zero false passes")


def test_criterion_7_real_simulation_equivalence():
    tol = 1e-12
    corpus = [
        StateVector([2], np.array([1, 1j]) / np.sqrt(2)),
        StateVector([2], np.array([1, 0], dtype=complex)),
        StateVector([4], (np.arange(4) + 1j) / np.linalg.norm(np.arange(4) + 1j)),
    ]
    for psi in corpus:
        out = to_real_simulation(multiparty_sim_state(psi, SimParams(0.5, 0.5)))
        assert np.abs(out.amplitudes.imag).max() <= tol
    for m in (Y, X @ Y, (X + Y) / np.sqrt(2)):
        out = np.asarray(to_real_simulation(c_of(m)), dtype=complex)
        assert np.abs(out.imag).max() <= tol
    # the printed example: psi = (|0> + i|1>)/sqrt(2) -> |0>Re + |1>Im
    out = to_real_simulation(multiparty_sim_state(corpus[0], SimParams(0.5, 0.5)))
    np.testing.assert_allclose(np.abs(out.amplitudes), [SQ2, 0, 0, SQ2], atol=tol)
    report("7: PASS real-simulation outputs have |imag| <= 1e-12 across the corpus")


def test_criterion_8_qkd_invariants():
    n = 30_000
    for p in feasible_members():
        rep = sift(run_rounds(Honest(p), n, seed=7))
        assert sum(rep.errors.values()) == 0, p
    mismatch = sift(run_rounds(MismatchedFlags(0, 1), n, seed=7))
    assert mismatch.rates["Y"] == 1.0
    assert mismatch.rates["X"] == 0.0 and mismatch.rates["Z"] == 0.0
    tz = run_rounds(ZPremeasure(SimParams(0.5, 0.5)), n, seed=7)
    assert sift(tz).flag_mismatches == 0
    written = io.StringIO()
    transcript_to_json(tz, written)
    rounds = json.loads(written.getvalue())["rounds"]
    assert len(rounds) == n and all(r["flag_a"] == r["flag_b"] for r in rounds)
    report("8: PASS honest QBER exactly 0 on the grid; mismatched flags flip exactly "
           "the Y basis, so Eve who pinned them flips her Y bits; zero flag mismatches under "
           "premeasurement")


def test_criterion_9_determinism(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"report_{tag}.json"
        tr = tmp_path / f"transcript_{tag}.csv"
        code = cli_main(["qkd", "--strategy", "zpremeasure", "a=0.5", "c=0.5",
                         "--n", "10000", "--seed", "123",
                         "--out", str(out), "--transcript-out", str(tr)])
        assert code == 0
        outs.append((out, tr))
    assert outs[0][1].read_bytes() == outs[1][1].read_bytes()
    d0 = json.loads(outs[0][0].read_text())
    d1 = json.loads(outs[1][0].read_text())
    for d in (d0, d1):
        d["config"].pop("out")
        d["config"].pop("transcript_out")
    assert json.dumps(d0, sort_keys=True) == json.dumps(d1, sort_keys=True)

    tables = []
    for tag in ("a", "b"):
        path = tmp_path / f"s{tag}.json"
        code = cli_main(["selftest", "--kind", "extended", "--sampled",
                         "n=20000", "seed=5", "--out", str(path)])
        assert code == 0
        data = json.loads(path.read_text())
        data["config"].pop("out")
        tables.append(data)
    assert json.dumps(tables[0], sort_keys=True) == json.dumps(tables[1], sort_keys=True)
    report("9: PASS identical seeds give byte-identical transcripts and reports")
