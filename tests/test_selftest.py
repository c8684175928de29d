import inspect
import json
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conjsim import selftest
from conjsim.family import SimParams
from conjsim.linalg import (
    X,
    Y,
    Z,
    hermitian_defect,
    random_hermitian,
    random_unitary,
    unitary_defect,
    worst_failing,
)
from conjsim.selftest import (
    ACTION_LABELS,
    PARTIES,
    SUBTESTS,
    CorrelationTable,
    Experiment,
    Extraction,
    anticommutator_residual,
    attach_junk,
    check_against_reference,
    check_d_collapse,
    check_state_equalities,
    correlations,
    estimate_family_params,
    extraction_action_fidelities,
    extraction_isometry,
    extraction_state_fidelity,
    family_experiment,
    pair_schedule,
    purify_experiment,
    reference_experiment,
    reference_observables,
    run_selftest,
    sampled_correlations,
    setting_labels,
    with_observable,
    with_state,
    y_coefficient_check,
)
from conjsim.serialize import dumps, equivalence_report_to_dict
from conjsim.states import DensityMatrix, StateVector, epr_pair, replace

from dense_reference import (
    RUN_ORDER,
    ancillas_last,
    basis_state,
    conjugate_experiment,
    dense_attach_junk,
    dense_correlations,
    dense_extract,
    dense_joint_outcome_probs,
    dense_purify,
    dense_rotate,
    dense_run_selftest,
    dense_stabilizer_and_split,
    feasible_members,
    flip_flags,
    party_circuit,
    per_round_sampled_correlations,
    register_layout,
    register_vector,
    rejudge,
    rotate_experiment,
    support_projector,
    unjudged_names,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)

SQ2 = 1 / np.sqrt(2)


def named_entry(report, stage):
    """The entry that ``report``'s failure of ``stage`` names, or "" when the stage holds."""
    return next((f[len(stage) + 1:-1] for f in report.failures if f.startswith(f"{stage}[")), "")


def ref_table(kind):
    return correlations(reference_experiment(kind))


# --------------------------------------------------------------------------
# reference experiments and schedules


def test_reference_d_matrix():
    exp = reference_experiment("mayersyao")
    np.testing.assert_allclose(exp.observable("A", "D"), (X + Z) * SQ2, atol=1e-14)
    np.testing.assert_allclose(exp.observable("B", "D"), (X + Z) * SQ2, atol=1e-14)


def test_reference_extended_bob_conventions():
    exp = reference_experiment("extended")
    np.testing.assert_allclose(exp.observable("B", "Y"), -Y, atol=1e-14)
    np.testing.assert_allclose(exp.observable("B", "E"), (X - Y) * SQ2, atol=1e-14)
    np.testing.assert_allclose(exp.observable("B", "F"), (Z - Y) * SQ2, atol=1e-14)
    np.testing.assert_allclose(exp.observable("A", "E"), (X + Y) * SQ2, atol=1e-14)
    np.testing.assert_allclose(exp.observable("A", "F"), (Y + Z) * SQ2, atol=1e-14)


def test_reference_extended_observables_binary():
    exp = reference_experiment("extended")
    for party in ("A", "B"):
        for label, m in exp.observables[party].items():
            assert max(hermitian_defect(m), unitary_defect(m)) <= 1e-12, (party, label)


def test_schedule_is_union_of_subtests_without_cross_pairs():
    sched = set(pair_schedule("extended"))
    union = set()
    for sub in SUBTESTS["extended"]:
        union |= {(a, b) for a in sub for b in sub}
    assert sched == union
    assert ("D", "E") not in sched
    assert ("X", "F") not in sched
    full = set(pair_schedule("extended", include_cross_pairs=True))
    assert ("D", "E") in full and len(full) == 36


def test_experiment_validation():
    ref = reference_experiment("mayersyao")
    with pytest.raises(ValueError):
        Experiment(kind="mayersyao", state=epr_pair(),
                   observables={"A": {"X": X, "Z": Z},           # missing D
                                "B": ref.observables["B"]},
                   party_dims={"A": (2,), "B": (2,)})
    with pytest.raises(ValueError):
        with_observable(ref, "A", "X", np.diag([1.0, 2.0]))      # not binary
    for dims in ((2.9,), (2.0,), (True, 2)):
        with pytest.raises(ValueError, match="party A dims"):
            replace(ref, party_dims={"A": dims, "B": (2,)})
    exp = replace(ref, party_dims={"A": np.array([2]), "B": (np.int64(2),)})
    assert exp.party_dims == {"A": (2,), "B": (2,)}
    assert all(type(d) is int for p in "AB" for d in exp.party_dims[p])


# --------------------------------------------------------------------------
# correlation tables


def test_reference_correlations_mayersyao():
    table = correlations(reference_experiment("mayersyao"))
    assert table.joints[("X", "D")] == pytest.approx(SQ2, abs=1e-12)
    assert table.joints[("Z", "D")] == pytest.approx(SQ2, abs=1e-12)
    assert table.joints[("D", "X")] == pytest.approx(SQ2, abs=1e-12)
    assert table.joints[("X", "Z")] == pytest.approx(0.0, abs=1e-12)
    for lab in ("X", "Z", "D"):
        assert table.joints[(lab, lab)] == pytest.approx(1.0, abs=1e-12)
        assert table.marginals[("A", lab)] == pytest.approx(0.0, abs=1e-12)
        assert table.marginals[("B", lab)] == pytest.approx(0.0, abs=1e-12)


def test_reference_correlations_extended():
    table = correlations(reference_experiment("extended"))
    # derived oracle: <(X+Y)(x)(X-Y)>/2 = (<XX> - <YY>)/2 = (1 + 1)/2 = 1
    assert table.joints[("E", "E")] == pytest.approx(1.0, abs=1e-12)
    assert table.joints[("F", "F")] == pytest.approx(1.0, abs=1e-12)
    assert table.joints[("Y", "Y")] == pytest.approx(1.0, abs=1e-12)
    assert table.joints[("X", "E")] == pytest.approx(SQ2, abs=1e-12)
    assert table.joints[("Y", "E")] == pytest.approx(SQ2, abs=1e-12)
    assert table.joints[("Y", "F")] == pytest.approx(SQ2, abs=1e-12)
    assert table.joints[("Z", "F")] == pytest.approx(SQ2, abs=1e-12)
    assert table.joints[("X", "Y")] == pytest.approx(0.0, abs=1e-12)
    assert table.joints[("Y", "Z")] == pytest.approx(0.0, abs=1e-12)


def test_sampled_correlations_match_exact():
    n = 100_000
    table = sampled_correlations(correlations(reference_experiment("mayersyao")), n, seed=11)
    assert abs(table.joints[("X", "X")] - 1.0) <= 4 / np.sqrt(n)
    assert abs(table.joints[("X", "D")] - SQ2) <= 4 / np.sqrt(n)
    assert abs(table.marginals[("A", "X")]) <= 4 / np.sqrt(n)


def test_sampled_correlations_single_round_is_plus_minus_one():
    table = sampled_correlations(correlations(reference_experiment("mayersyao")), 1, seed=3)
    for v in table.joints.values():
        assert v in (1.0, -1.0)


def test_sampled_correlations_deterministic():
    exp = reference_experiment("mayersyao")
    t1 = sampled_correlations(correlations(exp), 500, seed=21)
    t2 = sampled_correlations(correlations(exp), 500, seed=21)
    assert t1.joints == t2.joints and t1.marginals == t2.marginals
    t3 = sampled_correlations(correlations(exp), 500, seed=22)
    assert t1.joints != t3.joints


def unequal_table():
    """One joint and its two marginals whose four joint outcomes are all unequally likely."""
    return CorrelationTable(kind="mayersyao", joints={("X", "D"): 0.45},
                            marginals={("A", "X"): -0.3, ("B", "D"): 0.2})


def test_an_inconsistent_table_has_no_outcome_distribution():
    # <A> = 1 and <B> = -1 force outcome (+, -), which <AB> = 1 excludes: the clipped
    # outcome weights are (1/2, 1/2, 0, 1/2)
    table = CorrelationTable(kind="mayersyao", joints={("X", "D"): 1.0},
                             marginals={("A", "X"): 1.0, ("B", "D"): -1.0})
    with pytest.raises(ValueError, match=r"outcome probabilities sum to 1\.5"):
        table.outcome_probs("X", "D")


def test_sampled_counts_follow_the_per_round_law():
    # each entry's count k of +1 products, over 2000 seeds at n = 4, is distributed as the
    # per-round reference's; frequencies differ by at most 5 standard errors of a difference
    exact, n, seeds = unequal_table(), 4, range(2000)
    np.testing.assert_allclose(exact.outcome_probs("X", "D"), [0.3375, 0.0125, 0.2625, 0.3875])
    counts = {"fast": [], "slow": []}
    for seed in seeds:
        fast = sampled_correlations(exact, n, seed)
        slow = per_round_sampled_correlations(exact, n, seed)
        counts["fast"].append([*fast.joints.values(), *fast.marginals.values()])
        counts["slow"].append([*slow[0].values(), *slow[1].values()])
        # each per-round stderr is the closed form sqrt((1 - v^2)/(n - 1)) of its entry's value v
        for values, errs in ((slow[0], slow[2]), (slow[1], slow[3])):
            for key, v in values.items():
                assert abs(errs[key] - math.sqrt((1 - v * v) / (n - 1))) <= 1e-12, (seed, key)
    k = {name: np.rint((np.array(c) + 1) * n / 2).astype(int) for name, c in counts.items()}
    for entry in range(k["fast"].shape[1]):
        for count in range(n + 1):
            freq = {name: np.mean(k[name][:, entry] == count) for name in k}
            pooled = (freq["fast"] + freq["slow"]) / 2
            sigma = math.sqrt(2 * pooled * (1 - pooled) / len(seeds))
            assert abs(freq["fast"] - freq["slow"]) <= 5 * sigma, (entry, count, freq)


def test_sampled_correlations_memory_does_not_grow_with_n():
    exact = unequal_table()
    sampled_correlations(exact, 10, seed=0)         # one-off allocations of a first call
    tracemalloc.start()
    try:
        sampled_correlations(exact, 2_000_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_check_against_reference_passes_exact():
    table = correlations(reference_experiment("mayersyao"))
    deviations, bounds = check_against_reference(table, ref_table("mayersyao"), tol=1e-10)
    assert worst_failing(deviations, bounds) == "" and max(deviations.values()) <= 1e-10
    assert bounds == dict.fromkeys(deviations, 1e-10)   # an exact table's bound is tol


def test_check_against_reference_flags_corrupted_d():
    exp = with_observable(reference_experiment("mayersyao"), "A", "D", X)
    deviations, bounds = check_against_reference(correlations(exp), ref_table("mayersyao"))
    assert worst_failing(deviations, bounds) == "joint(D,Z)"
    assert max(deviations.values()) == pytest.approx(SQ2, abs=1e-9)


def test_check_against_reference_family_grid():
    for p in feasible_members():
        table = correlations(family_experiment(p, "extended"))
        deviations, bounds = check_against_reference(table, ref_table("extended"), tol=1e-10)
        assert worst_failing(deviations, bounds) == "", (p, max(deviations.values()))


def test_passing_report_names_no_worst_entry():
    exp = junk_ladder_experiment(64, seed=64)
    report = run_selftest(exp)
    assert report.passed and named_entry(report, "statistics") == ""
    assert max(report.residuals["statistics"].values()) <= report.stats_tol
    assert equivalence_report_to_dict(report)["failures"] == []
    table, ref = correlations(exp), ref_table("extended")
    for entries in ("joints", "marginals"):
        values = getattr(table, entries)
        for key, value in values.items():
            perturbed = replace(table, **{entries: {**values, key: value + 1e-16}})
            assert worst_failing(*check_against_reference(perturbed, ref)) == "", key


def test_worst_entry_is_the_largest_failing_deviation():
    ref = correlations(reference_experiment("mayersyao"))
    joints = dict(ref.joints)
    joints[("X", "Z")] -= 0.5           # large, but inside 5 sqrt((1 - 0^2)/50) = 0.71
    joints[("Z", "Z")] -= 0.1           # smaller, and failing: a reference value of 1
    joints[("D", "D")] -= 0.05          # failing, but not the worst failure
    table = CorrelationTable(kind="mayersyao", joints=joints, marginals=ref.marginals,
                             n_per_pair=50)
    deviations, bounds = check_against_reference(table, ref)
    assert worst_failing(deviations, bounds) == "joint(Z,Z)"
    assert max(deviations.values()) == pytest.approx(0.5)


def test_nan_entries_fail_and_are_named():
    ref = correlations(reference_experiment("mayersyao"))
    with pytest.raises(ValueError, match="outside"):
        CorrelationTable(kind="mayersyao", joints={**ref.joints, ("X", "X"): np.nan},
                         marginals=ref.marginals)
    # a NaN value slipped past construction
    table = correlations(reference_experiment("mayersyao"))
    object.__setattr__(table, "joints", {**table.joints, ("D", "D"): np.nan})
    assert worst_failing(*check_against_reference(table, ref)) == "joint(D,D)"


def test_check_against_reference_missing_entry():
    table = correlations(reference_experiment("mayersyao"))
    broken = dict(table.joints)
    del broken[("X", "Z")]
    with pytest.raises(KeyError):
        check_against_reference(replace(table, joints=broken), ref_table("mayersyao"))


def test_sampled_table_check_with_sigma_tolerance():
    table = sampled_correlations(correlations(reference_experiment("extended")), 30_000, seed=5)
    assert worst_failing(*check_against_reference(table, ref_table("extended"))) == ""


def binomial_bound(trials, rate, alpha=1e-6):
    """The smallest k with P(Binomial(trials, rate) > k) <= alpha."""
    k, pmf = 0, (1 - rate) ** trials
    tail = 1 - pmf
    while tail > alpha:
        k += 1
        pmf *= (trials - k + 1) / k * rate / (1 - rate)
        tail -= pmf
    return k


@pytest.mark.parametrize("kind, member, sizes, seeds", [
    ("mayersyao", None, (10, 20, 50), range(100)),
    ("extended", None, (10, 20, 50), range(100)),
    ("extended", SimParams(0.3, 0.2j), (50,), range(50)),
    ("extended", SimParams(0.5, 0.5), (50,), range(50)),
    ("extended", SimParams(0.0, 0.0), (50,), range(50)),
], ids=["mayersyao", "extended", "member(0.3,0.2i)", "member(0.5,0.5)", "member(0,0)"])
def test_sampled_statistics_false_reject_rate(kind, member, sizes, seeds):
    # each entry's tolerance is the reference value's null spread, so the reference and
    # members whose tables equal it are rejected at most at the 5 sigma rate, also at small n
    exp = reference_experiment(kind) if member is None else family_experiment(member, kind)
    exact, ref = correlations(exp), ref_table(kind)
    rate = (len(ref.joints) + len(ref.marginals)) * math.erfc(5 / math.sqrt(2))
    for n in sizes:
        checks = (check_against_reference(sampled_correlations(exact, n, seed), ref)
                  for seed in seeds)
        rejects = sum(worst_failing(*check) != "" for check in checks)
        assert rejects <= binomial_bound(len(seeds), rate), (n, rejects)


@pytest.mark.parametrize("key, value", [(("X", "D"), 0.0), (("X", "Z"), 0.5), (("Z", "D"), 0.95)],
                         ids=["XD", "XZ", "ZD"])
def test_sampled_statistics_reject_an_offset_entry(key, value):
    # once 5 null standard errors are at most half the offset, every seed rejects
    ref = ref_table("mayersyao")
    r = ref.joints[key]
    n = math.ceil((2 * 5 * math.sqrt(1 - r * r) / abs(value - r)) ** 2)
    offset = replace(ref, joints={**ref.joints, key: value})
    for seed in range(200):
        deviations, bounds = check_against_reference(sampled_correlations(offset, n, seed), ref)
        assert worst_failing(deviations, bounds) == f"joint({key[0]},{key[1]})", seed


# --------------------------------------------------------------------------
# state equalities, collapse, anti-commutators


def test_state_equalities_reference():
    res = check_state_equalities(reference_experiment("mayersyao"))
    assert max(res.values()) <= 1e-12


def test_state_equalities_extended_reference_and_family():
    assert max(check_state_equalities(reference_experiment("extended")).values()) <= 1e-12
    for p in (SimParams(0.0, 0.0), SimParams(0.5, 0.5), SimParams(0.25, 0.2j)):
        res = check_state_equalities(family_experiment(p, "extended"))
        assert max(res.values()) <= 1e-10, p


def test_state_equalities_rotated_reference():
    rng = np.random.default_rng(17)
    exp = rotate_experiment(reference_experiment("mayersyao"),
                            {"A": random_unitary(2, rng), "B": random_unitary(2, rng)})
    assert max(check_state_equalities(exp).values()) <= 1e-10


def test_state_equalities_detect_corrupted_d():
    exp = with_observable(reference_experiment("mayersyao"), "A", "D", X)
    res = check_state_equalities(exp)
    assert res["transfer=D"] > 0.5
    assert list(res) == ["transfer=X", "transfer=Z", "transfer=D",
                         "XZD:transfer=XZ", "XZD:transfer=ZX", "XZD:orthogonality"]
    assert list(check_state_equalities(reference_experiment("extended"))) == [
        "transfer=X", "transfer=Z", "transfer=D", "transfer=Y", "transfer=E", "transfer=F",
        "XZD:transfer=XZ", "XZD:transfer=ZX", "XZD:orthogonality",
        "XYE:transfer=XY", "XYE:transfer=YX", "XYE:orthogonality",
        "YZF:transfer=YZ", "YZF:transfer=ZY", "YZF:orthogonality"]


def test_d_collapse_reference_and_family():
    assert max(check_d_collapse(reference_experiment("mayersyao")).values()) <= 1e-12
    res = check_d_collapse(family_experiment(SimParams(0.0, 0.0), "extended"))
    assert max(res.values()) <= 1e-10


def test_d_collapse_ignores_rogue_action_outside_support():
    # pad party A with a junk qubit and redefine D to act arbitrarily on the
    # orthogonal junk branch; the state never sees it
    exp = attach_junk(reference_experiment("mayersyao"), "A", basis_state([2], [0]))
    p0 = np.diag([1.0, 0.0])
    p1 = np.diag([0.0, 1.0])
    rogue_d = np.kron((X + Z) * SQ2, p0) + np.kron(X, p1)
    exp = with_observable(exp, "A", "D", rogue_d)
    assert check_d_collapse(exp)["A:D"] <= 1e-12
    table = correlations(exp)
    assert worst_failing(*check_against_reference(table, ref_table("mayersyao"))) == ""


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_support_matches_schmidt_oracle(seed):
    # the party support read from Psi (d_A, d_B) is the projector the Schmidt
    # decomposition across the party's register cut gives, to the last bit
    rng = np.random.default_rng(seed)
    party_dims = {p: [int(d) for d in rng.integers(1, 4, size=int(rng.integers(1, 3)))]
                  for p in PARTIES}
    d_a, d_b = (int(np.prod(party_dims[p])) for p in PARTIES)
    rank = int(rng.integers(1, min(d_a, d_b) + 1))       # rank-deficient as often as not
    left, right = (rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
                   for d in (d_a, d_b))
    psi = left @ right.T
    psi /= np.linalg.norm(psi)
    state = StateVector(party_dims["A"] + party_dims["B"], psi)
    n_a = len(party_dims["A"])
    registers = {"A": list(range(n_a)), "B": list(range(n_a, len(state.dims)))}
    for party in PARTIES:
        np.testing.assert_array_equal(selftest._support(psi, party),
                                      support_projector(state, registers[party]))


def test_anticommutator_reference():
    residuals = anticommutator_residual(reference_experiment("mayersyao"))
    assert list(residuals) == ["A:XZ", "B:XZ"]
    for support in residuals.values():
        assert support <= 1e-12


def test_anticommutator_family_on_support():
    residuals = anticommutator_residual(family_experiment(SimParams(0.5, 0.0), "extended"))
    assert list(residuals) == [f"{p}:{pair}" for p in PARTIES for pair in ("XZ", "XY", "YZ")]
    for key, support in residuals.items():
        assert support <= 1e-10, key


def test_anticommutator_commuting_pair():
    exp = with_observable(reference_experiment("mayersyao"), "A", "Z", X)
    support = anticommutator_residual(exp)["A:XZ"]      # {X, X} = 2
    assert support == pytest.approx(2.0, abs=1e-12)


def test_anticommutator_raw_sees_out_of_support_action():
    # N maps the junk |0> branch out of the support; M anti-commutes only there
    exp = attach_junk(reference_experiment("mayersyao"), "A", basis_state([2], [0]))
    p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    m = np.kron(X, p0) + np.kron(Y, p1)
    n = np.kron(Z, np.array([[0, 1], [1, 0]]))
    exp = with_observable(exp, "A", "X", m)
    exp = with_observable(exp, "A", "Z", n)
    assert anticommutator_residual(exp)["A:XZ"] <= 1e-10


# --------------------------------------------------------------------------
# extraction and equivalence


def test_extraction_normal_form_on_reference():
    ext = extraction_isometry(reference_experiment("mayersyao"))
    # (1/sqrt2)(I + I (x) Z_B)|psi> (x) |phi+> on (junk_A, junk_B, anc_A, anc_B)
    psi = epr_pair().amplitudes
    lhs = ancillas_last(ext.state)     # -> [junkA, junkB, ancA, ancB]
    collapsed = (np.kron(np.eye(2), np.eye(2)) + np.kron(np.eye(2), Z)) @ psi * SQ2
    rhs = np.kron(collapsed, psi)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_extraction_actions_on_reference():
    ext = extraction_isometry(reference_experiment("mayersyao"))
    psi = epr_pair().amplitudes
    collapsed = (np.kron(np.eye(2), np.eye(2)) + np.kron(np.eye(2), Z)) @ psi * SQ2
    for lab, m in (("X", X), ("Z", Z), ("D", (X + Z) * SQ2)):
        got = ancillas_last(ext.actions[("A", lab)])
        want = np.kron(collapsed, np.kron(m, np.eye(2)) @ psi)
        np.testing.assert_allclose(got, want, atol=1e-10)


def test_extraction_refuses_failing_statistics():
    bad = with_state(reference_experiment("mayersyao"), basis_state([2, 2], [0, 0]))
    report = run_selftest(bad)
    assert report.refused_stage == "extraction"
    assert "extraction_refused[joint(X,X)]" in report.failures
    assert list(report.residuals) == list(RUN_ORDER[:5])     # nothing past the gate ran
    assert isinstance(extraction_isometry(bad), Extraction)      # the circuit alone is ungated


def test_verify_equivalence_refuses_statistics_failure():
    bad = with_state(reference_experiment("mayersyao"), basis_state([2, 2], [0, 0]))
    report = run_selftest(bad)
    assert not report.passed
    assert any(f.startswith("statistics[") for f in report.failures)
    assert report.failures[-1] == "extraction_refused[joint(X,X)]"
    assert report.family_params is None


def test_extraction_rotated_reference_fidelity():
    rng = np.random.default_rng(23)
    exp = rotate_experiment(reference_experiment("mayersyao"),
                            {"A": random_unitary(2, rng), "B": random_unitary(2, rng)})
    ext = extraction_isometry(exp)
    assert extraction_state_fidelity(ext) == {"ancillas": pytest.approx(0.0, abs=1e-10)}
    residuals = extraction_action_fidelities(ext)
    assert list(residuals) == [f"{lab}_{p}" for p in PARTIES for lab in ACTION_LABELS]
    for v in residuals.values():
        assert v == pytest.approx(0.0, abs=1e-10)


def test_an_action_fidelity_is_the_modulus_of_a_complex_overlap():
    """An X_A action with overlap 0.8 e^{i pi/4} with the reference action reads 0.8, not the
    0.8 sqrt(2) of |Re| + |Im|."""
    ext = extraction_isometry(reference_experiment("extended"))
    psi = ext.state.amplitudes.reshape(2 * ext.state.dims[0], -1)
    eye = np.eye(psi.shape[0] // 2)
    target = ext.exp.act("A", np.kron(eye, reference_observables("extended")["A"]["X"]),
                         psi).reshape(-1)
    other = np.roll(target, 1)
    other -= np.vdot(target, other) * target
    other /= np.linalg.norm(other)
    action = 0.8 * np.exp(-1j * np.pi / 4) * target + 0.6 * other
    assert np.vdot(action, target) == pytest.approx(0.8 * np.exp(1j * np.pi / 4), abs=1e-12)
    actions = {**ext.actions, ("A", "X"): replace(ext.actions[("A", "X")], amplitudes=action)}
    residuals = extraction_action_fidelities(replace(ext, actions=actions))
    assert residuals["X_A"] == pytest.approx(1 - 0.8, abs=1e-12)
    assert all(v == pytest.approx(0.0, abs=1e-10) for key, v in residuals.items() if key != "X_A")


def test_run_selftest_reference_mayersyao():
    report = run_selftest(reference_experiment("mayersyao"), tol=1e-9)
    assert report.passed and report.refused_stage is None
    assert report.residuals["state_fidelity"]["ancillas"] == pytest.approx(0.0, abs=1e-10)
    for v in report.residuals["action_fidelity"].values():
        assert v == pytest.approx(0.0, abs=1e-10)


def test_run_selftest_family_member_extended():
    report = run_selftest(family_experiment(SimParams(0.25, 0.3), "extended"))
    assert report.passed and report.refused_stage is None
    p0, p1 = report.family_params.population_0, report.family_params.population_1
    assert p0 == pytest.approx(0.25, abs=1e-9)
    assert p1 == pytest.approx(0.75, abs=1e-9)


# --------------------------------------------------------------------------
# Y coefficients and family parameters


def test_y_coefficients_extended_reference():
    ext = extraction_isometry(reference_experiment("extended"))
    populations, residuals = y_coefficient_check(ext)
    assert list(residuals) == [f"{p}:{check}" for p in PARTIES for check in (
        "I", "X", "Z", "normal_form", "factorization")] + ["population_mismatch"]
    for party in ("A", "B"):
        for block in ("I", "X", "Z"):
            assert residuals[f"{party}:{block}"] <= 1e-12
        assert residuals[f"{party}:normal_form"] <= 1e-10
        assert populations[party] == pytest.approx(1.0, abs=5e-11)    # sign 2 p0 - 1 = 1
    with pytest.raises(ValueError, match="requires an extended experiment"):
        y_coefficient_check(extraction_isometry(reference_experiment("mayersyao")))


def test_y_coefficients_conjugate_member_sign():
    ext = extraction_isometry(family_experiment(SimParams(0.0, 0.0), "extended"))
    populations, residuals = y_coefficient_check(ext)
    for party in ("A", "B"):
        for block in ("I", "X", "Z"):
            assert residuals[f"{party}:{block}"] <= 1e-10
        assert populations[party] == pytest.approx(0.0, abs=5e-11)    # sign 2 p0 - 1 = -1


def test_y_coefficients_adversarial_d_substitution():
    exp = with_observable(reference_experiment("extended"), "A", "Y", (X + Z) * SQ2)
    ext = extraction_isometry(exp)     # sub-test 1 untouched, so extraction proceeds
    populations, residuals = y_coefficient_check(ext)
    assert residuals["A:X"] == pytest.approx(SQ2, abs=1e-9)
    assert residuals["A:Z"] == pytest.approx(SQ2, abs=1e-9)
    assert residuals["A:normal_form"] == pytest.approx(1.0, abs=1e-9)
    # Alice's sign block is 0, so half her weight is on its +1; Bob's sign is the identity
    assert populations == {"A": pytest.approx(0.5, abs=1e-9), "B": pytest.approx(1.0, abs=1e-9)}
    assert residuals["population_mismatch"] == pytest.approx(0.5, abs=1e-9)
    assert run_selftest(exp).failures[-1] == "y_coefficients[A:normal_form]"


def test_estimate_family_params_examples():
    for p, want in [
        (SimParams(1.0, 0.0), (1.0, 0.0, 0.0)),
        (SimParams(0.5, 0.5), (0.5, 0.5, 0.5)),
        (SimParams(0.25, 0.0), (0.25, 0.75, 0.0)),
    ]:
        exp = family_experiment(p, "extended")
        populations, _ = y_coefficient_check(extraction_isometry(exp))
        got, residuals = estimate_family_params(exp, populations)
        assert residuals == {"flag_leak": pytest.approx(0.0, abs=1e-12),
                             "A:sign_population": pytest.approx(0.0, abs=1e-12),
                             "B:sign_population": pytest.approx(0.0, abs=1e-12)}
        assert got.population_0 == pytest.approx(want[0], abs=1e-9)
        assert got.population_1 == pytest.approx(want[1], abs=1e-9)
        assert got.coherence == pytest.approx(want[2], abs=1e-9)


def test_estimate_family_params_without_flags_uses_sign_operator():
    exp = reference_experiment("extended")
    got, residuals = estimate_family_params(
        exp, populations=y_coefficient_check(extraction_isometry(exp))[0])
    assert got.source == "extracted_sign" and residuals == {}
    assert got.population_0 == pytest.approx(1.0, abs=1e-9)
    assert got.coherence == 0.0


def test_flag_populations_must_agree_with_the_y_check():
    # the data qubits named as flags read (0.5, 0.5); the extracted sign reads (0.3, 0.7)
    member = family_experiment(SimParams(0.3, 0.2), "extended")
    populations, _ = y_coefficient_check(extraction_isometry(member))
    assert estimate_family_params(member, populations)[0].population_0 == pytest.approx(0.3)
    data_as_flags = replace(member, flag_registers={"A": 1, "B": 3})
    _, residuals = estimate_family_params(data_as_flags, populations)
    assert residuals["A:sign_population"] == pytest.approx(0.2)
    assert residuals["B:sign_population"] == pytest.approx(0.2)
    report = run_selftest(data_as_flags)
    assert y_coefficient_check(extraction_isometry(data_as_flags))[0]["A"] == pytest.approx(0.3)
    assert report.family_params.population_0 == pytest.approx(0.5)
    assert report.failures == ("family_params[A:sign_population]",)


@pytest.mark.parametrize("theta", [1e-2, 1e-5])
@pytest.mark.parametrize("axis", ["X", "Z"])
def test_the_family_check_is_party_symmetric(axis, theta):
    """Alice's or Bob's Y of the flagged (0.3, 0.2) member rotated by theta about X or Z: both
    fail the same stages, family_params included.  At 1e-5 neither sign population leaves
    the flags' by more than tol, so family_params holds on both sides (the control)."""
    member = family_experiment(SimParams(0.3, 0.2))
    half = np.cos(theta / 2) * np.eye(2) - 1j * np.sin(theta / 2) * {"X": X, "Z": Z}[axis]
    u = np.kron(np.eye(2), half)                # on the data qubit; the flag qubit leads
    stages = {}
    for party in PARTIES:
        y = member.observable(party, "Y")
        report = run_selftest(with_observable(member, party, "Y", u @ y @ u.conj().T))
        stages[party] = {failure.partition("[")[0] for failure in report.failures}
    assert stages["A"] == stages["B"]
    assert ("family_params" in stages["A"]) == (theta == 1e-2)


def test_estimate_family_params_rejects_leaky_flags():
    # a non-family custom state with cross-flag support
    vec = np.zeros(16, dtype=complex)
    vec[0b0000] = SQ2          # flags (0, 0)
    vec[0b0010] = SQ2          # flags (0, 1) -> cross-flag leak
    bad_state = StateVector([2, 2, 2, 2], vec)
    exp = family_experiment(SimParams(0.5, 0.5), "extended")
    exp = replace(exp, state=bad_state)
    # the flags read p0 = 1/2; each party's extracted sign reads p0 = 1/4
    populations, _ = y_coefficient_check(extraction_isometry(exp))
    _, residuals = estimate_family_params(exp, populations)
    assert residuals == {"flag_leak": pytest.approx(0.5), "A:sign_population": pytest.approx(0.25),
                         "B:sign_population": pytest.approx(0.25)}


# --------------------------------------------------------------------------
# soundness, invariance, rejection


def test_family_soundness_grid():
    for p in feasible_members():
        report = run_selftest(family_experiment(p, "extended"))
        assert report.passed, (p, report.failures)
        assert report.residuals["state_fidelity"]["ancillas"] <= 1e-9
        for v in report.residuals["action_fidelity"].values():
            assert v <= 1e-9
        assert abs(report.family_params.population_0 - p.a) <= 1e-9


@given(seeds)
@settings(max_examples=10, deadline=None)
def test_basis_change_invariance(seed):
    rng = np.random.default_rng(seed)
    base = purify_experiment(family_experiment(SimParams(0.3, 0.2j), "extended"))
    junked = attach_junk(base, "A", StateVector([2], np.array([1, 1j]) / np.sqrt(2)))
    rotated = rotate_experiment(junked, {
        "A": random_unitary(int(np.prod(junked.party_dims["A"])), rng),
        "B": random_unitary(int(np.prod(junked.party_dims["B"])), rng),
    })
    r0 = run_selftest(base)
    r1 = run_selftest(rotated)
    assert r1.passed
    for stage in ("state_fidelity", "action_fidelity"):
        for key, v in r0.residuals[stage].items():
            assert abs(r1.residuals[stage][key] - v) <= 1e-9, key
    p0, p1 = (y_coefficient_check(extraction_isometry(e))[0] for e in (base, rotated))
    for party in PARTIES:
        assert abs(p1[party] - p0[party]) <= 1e-9


def test_rejection_catalog():
    ref = reference_experiment("extended")
    catalog = {
        "d_is_x": with_observable(ref, "A", "D", X),
        "y_sign": with_observable(ref, "B", "Y", Y),
        "product_state": with_state(ref, basis_state([2, 2], [0, 0])),
        "y_commuting": with_observable(ref, "A", "Y", Z),
    }
    expected_failure = {
        "d_is_x": "statistics",
        "y_sign": "statistics",
        "product_state": "statistics",
        "y_commuting": "anticommutator",
    }
    for name, exp in catalog.items():
        report = run_selftest(exp)
        assert not report.passed, name
        assert any(expected_failure[name] in f for f in report.failures), (name, report.failures)


def test_rejection_catalog_details():
    ref = reference_experiment("extended")
    report = run_selftest(with_observable(ref, "B", "Y", Y))
    assert any("statistics[joint(Y,Y)" in f for f in report.failures)
    report = run_selftest(with_observable(ref, "A", "Y", Z))
    assert any("anticommutator[A:" in f for f in report.failures)
    assert any("y_coefficients" in f for f in report.failures)


def test_no_false_passes_on_mayersyao_catalog():
    ref = reference_experiment("mayersyao")
    for exp in (with_observable(ref, "A", "D", X),
                with_state(ref, basis_state([2, 2], [0, 0]))):
        assert not run_selftest(exp).passed


# D tilted by TILT towards Y moves each joint by at most TILT**2 / 2, below the default
# statistics tolerance, so only the state stages can see it.
TILT = 1e-5


def tilted_d(exp, party, sign):
    d = exp.observable(party, "D")
    return with_observable(exp, party, "D", np.cos(TILT) * d + sign * np.sin(TILT) * Y)


def test_d_tilted_opposite_ways_on_both_sides_fails_only_the_d_collapse():
    report = run_selftest(tilted_d(tilted_d(reference_experiment("mayersyao"), "A", 1), "B", -1))
    assert max(report.residuals["statistics"].values()) <= TILT ** 2 / 2 < report.stats_tol
    assert max(report.residuals["state_equalities"].values()) <= report.tol   # the transfers hold
    assert report.failures == ("d_collapse[A:D]",)


def test_d_tilted_on_one_side_fails_the_state_equalities():
    report = run_selftest(tilted_d(reference_experiment("mayersyao"), "B", 1))
    assert named_entry(report, "statistics") == ""      # joint(D,D) moves by 1 - cos(TILT)
    assert report.failures == ("state_equalities[transfer=D]", "d_collapse[B:D]")


def test_run_selftest_sampled_mode():
    report = run_selftest(reference_experiment("mayersyao"), sampled_n=20_000, seed=7)
    assert report.passed
    assert named_entry(report, "statistics") == ""


def test_run_selftest_sampled_requires_seed(monkeypatch):
    with pytest.raises(ValueError):
        run_selftest(reference_experiment("mayersyao"), sampled_n=100)
    purified = []
    monkeypatch.setattr(selftest, "purify_experiment", purified.append)
    with pytest.raises(ValueError, match="seed"):       # refused before any work
        run_selftest(family_experiment(SimParams(0.3, 0.2)), sampled_n=100)
    assert purified == []


# --------------------------------------------------------------------------
# one verdict rule: residual <= bound passes, one ulp above or NaN fails

TOL, STATS_TOL = 2.0 ** -30, 2.0 ** -33
ABOVE = {bound: np.nextafter(bound, 1) for bound in (TOL, STATS_TOL, 0.625)}   # one ulp past


def report_document(report, sampled_n=None):
    """The report as the JSON text ``selftest`` writes, read back: NaN is null, and a sampled
    run's config gives its n."""
    config = {} if sampled_n is None else {"sampled": [f"n={sampled_n}"]}
    return json.loads(dumps({"config": config, "results": equivalence_report_to_dict(report)}))


def with_joint(table, key, value):
    return replace(table, joints={**table.joints, key: value})


# (stage function, how its result takes the value, value at the bound, failure names, kwargs);
# the experiment is the extended reference, whose every residual is below 1e-15
BOUNDARY_CASES = {
    "statistics": ("correlations", lambda r, v: with_joint(r, ("X", "Y"), v), STATS_TOL,
                   ["statistics[joint(X,Y)]"], {}),
    "statistics_sampled": ("sampled_correlations", lambda r, v: with_joint(r, ("X", "Y"), v),
                           0.625, ["statistics[joint(X,Y)]"],  # NSIGMA sqrt(1/64): r = 0, n = 64
                           {"sampled_n": 64, "seed": 0}),
    "state_equalities": ("check_state_equalities", lambda r, v: {**r, "XYE:orthogonality": v},
                         TOL, ["state_equalities[XYE:orthogonality]"], {}),
    "d_collapse": ("check_d_collapse", lambda r, v: {**r, "B:F": v}, TOL, ["d_collapse[B:F]"],
                   {}),
    "anticommutator": ("anticommutator_residual", lambda r, v: {**r, "B:YZ": v}, TOL,
                       ["anticommutator[B:YZ]"], {}),
    "gate_anticommutator": ("anticommutator_residual", lambda r, v: {**r, "A:XZ": v},
                            TOL, ["anticommutator[A:XZ]", "extraction_refused[A:XZ]"], {}),
    "gate_statistics": ("correlations", lambda r, v: with_joint(r, ("X", "Z"), v), STATS_TOL,
                        ["statistics[joint(X,Z)]", "extraction_refused[joint(X,Z)]"], {}),
    "state_fidelity": ("extraction_state_fidelity", lambda r, v: {**r, "ancillas": v}, TOL,
                       ["state_fidelity[ancillas]"], {}),
    "action_fidelity": ("extraction_action_fidelities", lambda r, v: {**r, "D_B": v}, TOL,
                        ["action_fidelity[D_B]"], {}),
    **{f"y_coefficients:{entry}": (
        "y_coefficient_check", lambda r, v, entry=entry: (r[0], {**r[1], entry: v}), TOL,
        [f"y_coefficients[{entry}]"], {})
       for entry in ("A:X", "B:normal_form", "B:factorization", "population_mismatch")},
    **{f"family_params:{entry}": (
        "estimate_family_params", lambda r, v, entry=entry: (r[0], {**r[1], entry: v}), TOL,
        [f"family_params[{entry}]"], {})
       for entry in ("flag_leak", "A:sign_population", "B:sign_population")},
}


@pytest.mark.parametrize("case", BOUNDARY_CASES)
def test_each_stage_passes_at_its_bound_and_fails_above(case, monkeypatch):
    stage, put, at_bound, names, kwargs = BOUNDARY_CASES[case]
    exp = reference_experiment("extended")
    original = getattr(selftest, stage)
    for value, want in [(at_bound, []), (ABOVE[at_bound], names), (np.nan, names)]:
        if np.isnan(value) and stage.endswith("correlations"):
            continue                                    # a table refuses NaN when it is built

        def patched(*args, **kw):
            result = original(*args, **kw)
            # correlations also computes the reference table, which stays as it is
            return result if stage == "correlations" and args[0] is not exp else put(result, value)

        monkeypatch.setattr(selftest, stage, patched)
        report = run_selftest(exp, tol=TOL, stats_tol=STATS_TOL, **kwargs)
        assert list(report.failures) == want, (case, value)
        assert report.refused_stage == ("extraction" if case.startswith("gate") and want
                                        else None), (case, value)
        document = report_document(report, kwargs.get("sampled_n"))
        assert rejudge(document) == (want, report.refused_stage), (case, value)
        assert unjudged_names(document) == [], (case, value)


# --------------------------------------------------------------------------
# the dense oracle: dense_run_selftest against run_selftest


def stage_numbers(residuals, populations, params):
    """Every residual, sign population and family number, keyed by where it sits."""
    out = {(stage, e): v for stage, entries in residuals.items() for e, v in entries.items()}
    out.update({("populations", party): p0 for party, p0 in populations.items()})
    if params is not None:
        out.update({("family_params", name): getattr(params, name) for name in params._fields
                    if isinstance(getattr(params, name), float)})
    return out


def assert_same_report(exp, atol=1e-12, **kwargs):
    """run_selftest and dense_run_selftest agree on ``exp``: the verdict exactly, the stage and
    entry names as ordered lists, the family estimate's source, and every residual, sign
    population and family number within ``atol``.  Returns run_selftest's report."""
    fast, dense = run_selftest(exp, **kwargs), dense_run_selftest(exp, **kwargs)
    assert (list(fast.failures), fast.refused_stage) == (dense["failures"], dense["refused_stage"])
    assert [(stage, list(entries)) for stage, entries in fast.residuals.items()] == \
        [(stage, list(entries)) for stage, entries in dense["residuals"].items()]
    family = [None if p is None else (p.source, p.coherence is None)
              for p in (fast.family_params, dense["family_params"])]
    assert family[0] == family[1]
    # no rule judges the sign populations, so a report leaves them out
    populations = {} if exp.kind != "extended" or fast.refused_stage else \
        y_coefficient_check(extraction_isometry(exp))[0]
    got = stage_numbers(fast.residuals, populations, fast.family_params)
    want = stage_numbers(dense["residuals"], dense["populations"], dense["family_params"])
    assert got.keys() == want.keys()
    worst = max((abs(got[k] - want[k]), k) for k in got)
    assert worst[0] <= atol, worst
    return fast


def swapped(exp, party, la, lb):
    """Negative control: two of one party's settings exchanged."""
    out = with_observable(exp, party, la, exp.observable(party, lb))
    return with_observable(out, party, lb, exp.observable(party, la))


def junk_ladder_experiment(dim, seed, junk_a=None):
    """A passing experiment padded with random junk on both sides to dimension ``dim``: the
    family member (0.3, 0.25 e^0.7i), purified to D = 32, from D = 64 on, the extended reference
    below.  A's junk is the qubit state ``junk_a`` when one is given."""
    rng = np.random.default_rng(seed)
    exp = reference_experiment("extended") if dim < 64 else \
        purify_experiment(family_experiment(SimParams(0.3, 0.25 * np.exp(0.7j)), "extended"))
    junk = dim // exp.state.dim
    for party, jdim in (("A", 2), ("B", junk // 2)):
        v = rng.standard_normal(jdim) + 1j * rng.standard_normal(jdim)
        state = StateVector([jdim], v / np.linalg.norm(v))
        exp = attach_junk(exp, party, junk_a if party == "A" and junk_a is not None else state)
    assert exp.state.dim == dim
    return exp


def x_as_z_outside_the_support(dim, seed):
    """The junk ladder member with A's junk |1>, whose X_A acts as its Z_A where the junk is
    |0>: X (x) |1><1| + Z (x) |0><0|.  On the support X_A and Z_A still anti-commute, so the
    member passes, but {X_A, Z_A} = 2 off it."""
    exp = junk_ladder_experiment(dim, seed, junk_a=basis_state([2], [1]))
    on = np.kron(np.eye(math.prod(exp.party_dims["A"]) // 2), np.diag([0.0, 1.0]))
    x, z = exp.observable("A", "X"), exp.observable("A", "Z")
    return with_observable(exp, "A", "X", x @ on + z @ (np.eye(len(on)) - on))


@pytest.mark.parametrize("dim", [16, 64, 256])
def test_local_kernel_matches_dense_pipeline(dim):
    rng = np.random.default_rng(dim)
    exp = junk_ladder_experiment(dim, seed=dim)
    rotated = rotate_experiment(exp, {
        p: random_unitary(int(np.prod(exp.party_dims[p])), rng) for p in PARTIES})
    outside = x_as_z_outside_the_support(dim, seed=dim)
    cases = {"passing": exp, "rotated": rotated, "x_as_z_outside_the_support": outside,
             "swapped_A": swapped(exp, "A", "X", "Z"), "swapped_B": swapped(exp, "B", "Z", "D")}
    for name, case in cases.items():
        fast = assert_same_report(case)
        assert fast.passed == (not name.startswith("swapped")), name
    table = correlations(exp)
    for la, lb in pair_schedule("extended"):
        np.testing.assert_allclose(table.outcome_probs(la, lb),
                                   dense_joint_outcome_probs(exp, la, lb), atol=1e-12)


def test_local_kernel_matches_dense_pipeline_mixed_and_sampled():
    assert_same_report(family_experiment(SimParams(0.4, 0.2), "extended"))   # a density matrix
    assert_same_report(reference_experiment("mayersyao"))
    assert_same_report(junk_ladder_experiment(64, seed=3), sampled_n=2000, seed=8)


@st.composite
def rotated_junked_members(draw):
    """A family member under random local unitaries, junk split by ``attach_junk``, D <= 64.

    Members stay well conditioned: each flag branch and each purification
    weight is either empty or at least about 1e-3.
    """
    a = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.01, 0.99)))
    c_abs = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 0.9))) * np.sqrt(a * (1 - a))
    exp = purify_experiment(family_experiment(
        SimParams.from_polar(a, c_abs, draw(st.floats(-np.pi, np.pi))), "extended"))
    rng = np.random.default_rng(draw(seeds))
    room = 64 // exp.state.dim
    junk_a = draw(st.integers(1, room))
    for party, jdim in (("A", junk_a), ("B", draw(st.integers(1, room // junk_a)))):
        if jdim > 1:
            v = rng.standard_normal(jdim) + 1j * rng.standard_normal(jdim)
            exp = attach_junk(exp, party, StateVector([jdim], v / np.linalg.norm(v)))
    exp = rotate_experiment(exp, {
        p: random_unitary(int(np.prod(exp.party_dims[p])), rng) for p in PARTIES})
    return exp, a


@given(rotated_junked_members())
@settings(max_examples=12, deadline=None, derandomize=True)
def test_party_layout_matches_register_layout_oracles(case):
    exp, a = case
    assert exp.state.dim <= 64
    ext, oracle = extraction_isometry(exp), dense_extract(exp)
    assert ext.state.dims == oracle.state.dims
    assert ext.actions.keys() == oracle.actions.keys()
    for got, want in [(ext.state, oracle.state)] + [
            (ext.actions[key], action) for key, action in oracle.actions.items()]:
        np.testing.assert_allclose(got.amplitudes, want.amplitudes, rtol=0, atol=1e-12)
    fast = assert_same_report(exp)
    assert fast.passed and fast.refused_stage is None
    assert fast.family_params.population_0 == pytest.approx(a, abs=1e-9)


def rotated_setting(exp, party, label, angle, seed):
    """``exp`` with one setting conjugated by exp(i angle H), H random with largest |eigenvalue| 1."""
    w, v = np.linalg.eigh(random_hermitian(int(np.prod(exp.party_dims[party])),
                                           np.random.default_rng(seed)))
    u = (v * np.exp(1j * angle * w / np.abs(w).max())) @ v.conj().T
    return with_observable(exp, party, label, u @ exp.observable(party, label) @ u.conj().T)


@given(rotated_junked_members(), st.sampled_from(PARTIES),
       st.sampled_from(setting_labels("extended")), st.floats(1e-6, 1e-2), seeds)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_stabilizer_and_split_norms_equal_the_kept_transfers(case, party, label, angle, seed):
    """The forms check_state_equalities leaves out equal a transfer it keeps.

    One observable is rotated by a small angle, so the identities fail by
    about that angle instead of holding at rounding level.
    """
    exp = rotated_setting(case[0], party, label, angle, seed)
    kept = check_state_equalities(exp)
    stabilizer, split = dense_stabilizer_and_split(exp)
    assert max(stabilizer.values()) > 1e-9
    for lab, value in stabilizer.items():
        assert abs(value - kept[f"transfer={lab}"]) <= 1e-12, lab
    for (m, n), value in split.items():
        assert abs(value - kept[f"transfer={n}"]) <= 1e-12, (m, n)


@given(rotated_junked_members(), st.sampled_from(PARTIES),
       st.sampled_from(setting_labels("extended")), st.floats(1e-8, 1e-2), seeds,
       st.sampled_from([None, 64, 20_000]))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_a_report_rederives_its_verdict_from_its_json(case, party, label, angle, seed,
                                                      sampled_n):
    """rejudge reads failures and refused_stage off the report's JSON, on a member, the member
    with one setting rotated and the member with X and Z swapped (whose worst entries tie)."""
    exp, _ = case
    for tested in (exp, rotated_setting(exp, party, label, angle, seed),
                   swapped(exp, party, "X", "Z")):
        report = run_selftest(tested, sampled_n=sampled_n, seed=seed)
        document = report_document(report, sampled_n)
        assert rejudge(document) == (list(report.failures), report.refused_stage)
        assert unjudged_names(document) == []


def nudged(value):
    """``value`` moved by one and two ulps each way (at most 4.5e-16 relative)."""
    out = []
    for direction in (-np.inf, np.inf):
        step = value
        for _ in range(2):
            step = np.nextafter(step, direction)
            out.append(float(step))
    return out


def tied_failures():
    """Failing members whose worst entries tie in exact arithmetic.

    Swapping X and Z makes joint(X,X) and joint(Z,Z) fail equally, and
    XZD:transfer=XZ and XZD:transfer=ZX by the same norm.
    """
    member = family_experiment(SimParams(0.3, 0.25 * np.exp(0.7j)), "extended")
    junked = junk_ladder_experiment(64, seed=2)
    return [swapped(member, "A", "X", "Z"), swapped(junked, "B", "X", "Z"),
            swapped(junked, "A", "Z", "D"), swapped(reference_experiment("mayersyao"), "A", "X", "Z")]


def test_failure_names_do_not_hang_on_rounding(monkeypatch):
    for exp in tied_failures():
        report = run_selftest(exp)
        assert not report.passed
        table, ref = correlations(exp), ref_table(exp.kind)
        for entries in ("joints", "marginals"):
            values = getattr(table, entries)
            for key, value in values.items():
                for moved in nudged(value):
                    perturbed = replace(table, **{entries: {**values, key: moved}})
                    assert worst_failing(*check_against_reference(perturbed, ref)) == \
                        named_entry(report, "statistics"), key
        for stage, field in (("check_state_equalities", "state_equalities"),
                             ("check_d_collapse", "d_collapse")):
            residuals = report.residuals[field]
            for key, value in residuals.items():
                for moved in nudged(value):
                    with monkeypatch.context() as patch:
                        patch.setattr(selftest, stage,
                                      lambda _exp, r={**residuals, key: moved}: dict(r))
                        assert run_selftest(exp).failures == report.failures, (stage, key)


@given(rotated_junked_members())
@settings(max_examples=12, deadline=None, derandomize=True)
def test_failure_names_match_dense_oracle(case):
    exp, _ = case
    for party, la, lb in (("A", "X", "Z"), ("B", "X", "Z"), ("A", "Z", "D")):
        assert not assert_same_report(swapped(exp, party, la, lb)).passed


def mayers_yao_part(exp):
    """R(exp): an extended experiment's state, party dims and flags with only its X, Z and D
    settings, as a Mayers-Yao experiment."""
    return replace(exp, kind="mayersyao",
                   observables={p: {lab: exp.observable(p, lab) for lab in "XZD"} for p in PARTIES})


@given(rotated_junked_members(), st.booleans())
@settings(max_examples=12, deadline=None, derandomize=True)
def test_the_extended_test_contains_the_mayers_yao_test(case, x_as_z):
    """Every entry of the exact run of R(exp) equals the same-named entry of the run of exp,
    and both give the same refused_stage; so a stage of R(exp) fails only where exp's does.
    On some draws X_A is replaced by Z_A, which refuses extraction."""
    exp = with_observable(case[0], "A", "X", case[0].observable("A", "Z")) if x_as_z else case[0]
    full, part = run_selftest(exp), run_selftest(mayers_yao_part(exp))
    assert part.refused_stage == full.refused_stage == ("extraction" if x_as_z else None)
    for stage, entries in part.residuals.items():
        assert entries.items() <= full.residuals[stage].items(), stage
    assert {f.partition("[")[0] for f in part.failures} <= \
        {f.partition("[")[0] for f in full.failures}


# complex conjugation K and the flag flip F (McKague-Mosca-Gisin, arXiv 0810.1923): no
# experiment tells an experiment from its conjugate, so the self-test certifies a member only up
# to K, and the flags carry the convention that tells the two apart

@given(st.integers(0, 2**20), st.floats(0.0, 1.0), st.floats(-np.pi, np.pi))
@settings(max_examples=8, deadline=None, derandomize=True)
def test_conjugation_and_a_flag_flip_map_a_member_to_its_mirror(k, share, phase):
    """K∘F(member(a, c)) is member(1 - a, c) bit for bit, state and every observable.  a is
    dyadic, so that 1 - (1 - a) is a and the flag-1 weights agree exactly."""
    a = k / 2**20
    p = SimParams(a, share * np.sqrt(a * (1 - a)) * np.exp(1j * phase))
    for kind in SUBTESTS:
        mirrored = conjugate_experiment(flip_flags(family_experiment(p, kind)))
        want = family_experiment(SimParams(1 - a, p.c), kind)
        assert np.array_equal(mirrored.state.matrix, want.state.matrix), (p, kind)
        assert mirrored.flag_registers == want.flag_registers
        for party in PARTIES:
            for label, m in want.observables[party].items():
                assert np.array_equal(mirrored.observable(party, label), m), (party, label)


def assert_mirrored_report(exp, mirrored):
    """``mirrored`` has ``exp``'s failures and refused_stage and every residual entry within
    1e-14; the estimate's populations swap."""
    report, mirror = run_selftest(exp), run_selftest(mirrored)
    assert (mirror.failures, mirror.refused_stage) == (report.failures, report.refused_stage)
    assert list(mirror.residuals) == list(report.residuals)
    for stage, entries in report.residuals.items():
        assert list(mirror.residuals[stage]) == list(entries), stage
        for name, value in entries.items():
            assert abs(mirror.residuals[stage][name] - value) <= 1e-14, (stage, name)
    if report.family_params is not None:
        assert abs(mirror.family_params.population_0 - report.family_params.population_1) <= 1e-14
        assert abs(mirror.family_params.population_1 - report.family_params.population_0) <= 1e-14
    return report


@given(rotated_junked_members(), st.sampled_from(PARTIES),
       st.sampled_from(setting_labels("extended")), st.floats(1e-6, 1e-1), seeds, st.booleans())
@settings(max_examples=12, deadline=None, derandomize=True)
def test_the_selftest_treats_an_experiment_and_its_conjugate_alike(case, party, label, angle,
                                                                   seed, rotate):
    """Without flag registers K changes no verdict and no residual, and the extracted sign
    population p0 becomes 1 - p0.  On some draws one setting is rotated, so that stages fail."""
    exp = rotated_setting(case[0], party, label, angle, seed) if rotate else case[0]
    report = assert_mirrored_report(exp, conjugate_experiment(exp))
    assert report.passed != rotate


@given(st.floats(0.0, 1.0).filter(lambda a: abs(a - 0.5) > 1e-3), st.floats(0.0, 1.0),
       st.floats(-np.pi, np.pi), st.integers(1, 4))
@settings(max_examples=5, deadline=None, derandomize=True)
def test_a_flagged_member_passes_conjugated_only_with_its_flags_flipped(a, share, phase, junk):
    """K∘F of a member, junk on A, keeps its report and swaps the flag populations.  K alone
    fails only family_params: the flags still read a while the extracted sign reads 1 - a."""
    exp = family_experiment(SimParams(a, share * np.sqrt(a * (1 - a)) * np.exp(1j * phase)))
    exp = attach_junk(purify_experiment(exp), "A", StateVector([junk], np.eye(junk)[-1]))
    assert assert_mirrored_report(exp, conjugate_experiment(flip_flags(exp))).passed
    alone = run_selftest(conjugate_experiment(exp))
    assert alone.refused_stage is None
    assert {name.partition("[")[0] for name in alone.failures} == {"family_params"}
    for party in PARTIES:
        assert alone.residuals["family_params"][f"{party}:sign_population"] == \
            pytest.approx(abs(1 - 2 * a), abs=1e-12)


@given(seeds)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_builders_match_dense_oracles(seed):
    rng = np.random.default_rng(seed)
    a = float(rng.choice([0.0, 1.0, rng.uniform(0, 1)]))
    c_abs = float(rng.choice([0.0, 1.0, rng.uniform(0, 1)])) * np.sqrt(a * (1 - a))
    mixed = family_experiment(SimParams.from_polar(a, c_abs, rng.uniform(-np.pi, np.pi)))
    exp = purify_experiment(mixed)
    dims, vec, flags = dense_purify(mixed)
    assert (exp.state.dims, exp.flag_registers) == (dims, flags)
    assert np.array_equal(exp.state.amplitudes, vec)
    room = 64 // exp.state.dim
    for party in rng.permutation(PARTIES):
        jdim = int(rng.integers(1, room + 1))
        room //= jdim
        v = rng.standard_normal(jdim) + 1j * rng.standard_normal(jdim)
        junk = StateVector([jdim], v / np.linalg.norm(v))
        dims, vec, flags = dense_attach_junk(exp, party, junk)
        exp = attach_junk(exp, party, junk)
        assert (exp.state.dims, exp.flag_registers) == (dims, flags)
        assert np.array_equal(exp.state.amplitudes, vec)
    assert exp.state.dim <= 64
    units = {p: random_unitary(int(np.prod(exp.party_dims[p])), rng) for p in PARTIES}
    np.testing.assert_allclose(rotate_experiment(exp, units).state.amplitudes,
                               dense_rotate(exp, units), rtol=0, atol=1e-14)
    with pytest.raises(ValueError, match="pure experiment"):
        rotate_experiment(mixed, {p: np.eye(4) for p in PARTIES})


def test_selftest_builds_no_full_space_operator(monkeypatch):
    exp = junk_ladder_experiment(256, seed=5)
    calls = []
    original = selftest.partial_trace

    def guarded(state, keep):
        # the self-test's one subsystem routine: it reduces state vectors from their
        # amplitudes, so a density matrix or a full-size reduced state is a full-space operator
        if isinstance(state, DensityMatrix):
            raise AssertionError(f"partial_trace of a density matrix on {state.dims}")
        reduced = original(state, keep)
        if reduced.dim >= exp.state.dim:
            raise AssertionError(f"partial_trace keeps the full space {reduced.dims}")
        calls.append(reduced.dims)
        return reduced

    monkeypatch.setattr(selftest, "partial_trace", guarded)
    assert run_selftest(exp).passed
    assert calls == [(2, 2), (2, 2)]                # the extracted ancillas, then the flags
    assert run_selftest(swapped(exp, "A", "X", "D")).refused_stage == "extraction"


def circuit_cases():
    """Ladder members at D = 16, 64 and 576, a rotated and two swapped experiments."""
    rng = np.random.default_rng(11)
    pure = purify_experiment(family_experiment(SimParams.from_polar(0.3, np.sqrt(0.21), 0.7)))
    assert pure.state.dim == 16
    ladder = {dim: junk_ladder_experiment(dim, seed=dim) for dim in (64, 576)}
    rotated = rotate_experiment(ladder[64], {
        p: random_unitary(int(np.prod(ladder[64].party_dims[p])), rng) for p in PARTIES})
    return {"D16": pure, "D64": ladder[64], "D576": ladder[576], "rotated": rotated,
            "swapped_A": swapped(ladder[64], "A", "X", "Z"),
            "swapped_B": swapped(pure, "B", "Z", "D")}


def test_swap_isometry_is_the_dense_circuit_on_a_zero_ancilla():
    """V is the circuit's ancilla-0 columns, and on the support P of the extracted state
    P U (Y (x) I) U^dag P = P V Y V^dag P."""
    for name, exp in circuit_cases().items():
        state = register_vector(extraction_isometry(exp))
        _, registers, ancillas = register_layout(exp)
        for party in PARTIES:
            u, v = party_circuit(exp, party), selftest._swap_isometry(exp, party)
            assert np.abs(v - u[:, ::2]).max() <= 1e-14, (name, party)
            proj = support_projector(state, registers[party] + [ancillas[party]])
            y = exp.observable(party, "Y")
            pushed = u @ np.kron(y, np.eye(2)) @ u.conj().T
            assert np.abs(proj @ (pushed - v @ y @ v.conj().T) @ proj).max() <= 1e-14, (name, party)


# --------------------------------------------------------------------------
# slow references: the dense correlation table, and the dense oracle's extraction gate


def mixed_with_product(exp, weight):
    """Negative control: the experiment's state mixed with |00...0> by ``weight``."""
    rho = exp.state.density().matrix
    zero = basis_state(list(exp.state.dims), [0] * len(exp.state.dims)).density().matrix
    return with_state(exp, DensityMatrix(exp.state.dims, (1 - weight) * rho + weight * zero))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_correlations_match_dense_correlations(seed):
    rng = np.random.default_rng(seed)
    member = family_experiment(SimParams(0.3, 0.2 * np.exp(0.4j)), "extended")
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    junked = attach_junk(purify_experiment(member), "B", StateVector([3], v / np.linalg.norm(v)))
    cases = [
        rotate_experiment(junked, {p: random_unitary(int(np.prod(junked.party_dims[p])), rng)
                                   for p in PARTIES}),
        junked,
        member,                                              # mixed: read as rho
        mixed_with_product(reference_experiment("extended"), 0.2),
        rotate_experiment(reference_experiment("mayersyao"),
                          {p: random_unitary(2, rng) for p in PARTIES}),
    ]
    for exp in cases:
        for cross in (False, True):
            got, want = correlations(exp, cross), dense_correlations(exp, cross)
            assert got.joints.keys() == want.joints.keys()
            assert list(got.marginals) == list(want.marginals)
            for key in want.joints:
                assert abs(got.joints[key] - want.joints[key]) <= 1e-12, key
            for key in want.marginals:
                assert abs(got.marginals[key] - want.marginals[key]) <= 1e-12, key


def test_correlations_reject_imaginary_residue():
    exp = reference_experiment("mayersyao")
    # construction refuses a non-Hermitian observable, so slip one in afterwards
    object.__setattr__(exp, "observables", {"A": dict(exp.observables["A"], X=1j * X),
                                            "B": exp.observables["B"]})
    with pytest.raises(ValueError, match="imaginary residue"):
        correlations(exp)


def gate_cases():
    ladder = junk_ladder_experiment(64, seed=11)
    rng = np.random.default_rng(11)
    rotated = rotate_experiment(ladder, {
        p: random_unitary(int(np.prod(ladder.party_dims[p])), rng) for p in PARTIES})
    commuting = with_observable(reference_experiment("extended"), "A", "Z", X)
    theta = np.pi / 4 - 1e-3                  # joints off by ~1e-6, Z marginals by ~2e-3
    tilted = with_state(reference_experiment("mayersyao"),
                        StateVector([2, 2], [np.cos(theta), 0, 0, np.sin(theta)]))
    return [
        ("ladder", ladder, {}),
        ("rotated", rotated, {}),
        ("swapped_A", swapped(ladder, "A", "X", "Z"), {}),
        ("swapped_B", swapped(rotated, "B", "Z", "D"), {}),
        ("mixed_member", family_experiment(SimParams(0.4, 0.2), "extended"), {}),
        ("mixed_noisy", mixed_with_product(reference_experiment("mayersyao"), 0.1), {}),
        ("commuting_loose_stats", commuting, {"stats_tol": 2.0}),
        ("tilted_loose_stats", tilted, {"stats_tol": 1e-4}),
        ("sampled_ladder", ladder, {"sampled_n": 500, "seed": 4}),
        ("sampled_swapped", swapped(ladder, "A", "X", "D"), {"sampled_n": 500, "seed": 4}),
    ]


def test_extraction_gate_matches_recomputing_gate():
    """The gate agrees with the dense oracle's, written out from sub-test 1, on cases that pass
    it and cases refused by each kind of entry it reads."""
    branches = set()
    for name, exp, kwargs in gate_cases():
        report = assert_same_report(exp, **kwargs)
        gate = named_entry(report, "extraction_refused")
        branches.add("anticommutator" if ":" in gate else gate.split("(")[0])
        assert report.refused_stage == ("extraction" if gate else None), name
        assert ("state_fidelity" not in report.residuals) == bool(gate), name
        assert isinstance(extraction_isometry(exp), Extraction), name
    assert branches == {"", "joint", "marginal", "anticommutator"}


def test_sampled_statistics_failure_does_not_refuse_extraction(monkeypatch):
    exp = junk_ladder_experiment(64, seed=2)
    assert dense_run_selftest(exp)["failures"] == []
    monkeypatch.setattr(selftest, "NSIGMA", 0.01)
    report = run_selftest(exp, sampled_n=400, seed=9)
    assert named_entry(report, "statistics") != ""
    assert report.failures[0].startswith("statistics[")
    assert report.refused_stage is None
    assert report.residuals["state_fidelity"]["ancillas"] == pytest.approx(0.0, abs=1e-9)
    assert "y_coefficients" in report.residuals and report.family_params is not None


def test_a_sampled_report_carries_the_exact_deviations_its_gate_judged():
    exp = with_observable(reference_experiment("mayersyao"), "A", "D", X)
    report = equivalence_report_to_dict(run_selftest(exp, sampled_n=2000, seed=3))
    assert "extraction_refused[joint(D,Z)]" in report["failures"]
    exact, _ = check_against_reference(correlations(exp), ref_table("mayersyao"))
    gate = report["residuals"]["extraction_refused"]
    # sub-test 1's 15 entries are the whole Mayers-Yao table, then the X/Z anti-commutators
    assert len(gate) == 17
    assert {key: v for key, v in gate.items() if key not in ("A:XZ", "B:XZ")} == exact
    for key in ("A:XZ", "B:XZ"):
        assert gate[key] == report["residuals"]["anticommutator"][key]
    assert gate["joint(D,Z)"] == pytest.approx(SQ2, abs=1e-12)
    assert report["residuals"]["statistics"]["joint(D,Z)"] != exact["joint(D,Z)"]
    # an exact run's gate reads the same entries
    assert equivalence_report_to_dict(run_selftest(exp))["residuals"]["extraction_refused"] == gate


@pytest.mark.parametrize("sampled", [False, True])
@pytest.mark.parametrize("kind", ["mayersyao", "extended"])
def test_run_selftest_computes_each_stage_once(kind, sampled, monkeypatch):
    exp = junk_ladder_experiment(64, seed=1) if kind == "extended" else \
        reference_experiment(kind)
    calls = {"correlations": [], "anticommutator_residual": [], "extraction_isometry": [],
             "_support": []}
    for name in calls:
        original = getattr(selftest, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name].append(args[0])
            return _original(*args, **kwargs)

        monkeypatch.setattr(selftest, name, counted)
    kwargs = {"sampled_n": 300, "seed": 3} if sampled else {}
    assert run_selftest(exp, **kwargs).refused_stage is None
    assert len(calls["correlations"]) == 2
    assert calls["correlations"][0] is exp
    assert calls["correlations"][1].state.dims == (2, 2)
    assert len(calls["anticommutator_residual"]) == len(calls["extraction_isometry"]) == 1
    # one support projector per party of Psi, and for the Y check one per party of Psi'
    assert len(calls["_support"]) <= (4 if kind == "extended" else 2)


def test_every_traced_stage_is_a_public_function_that_runs(monkeypatch):
    # the benchmark times each name of SELFTEST_STAGES; a stage run_selftest never
    # calls would read 0 there
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmark"))
    from conjbench.trace import SELFTEST_STAGES

    calls = dict.fromkeys(SELFTEST_STAGES, 0)
    for name in SELFTEST_STAGES:
        original = getattr(selftest, name, None)
        assert not name.startswith("_") and inspect.isfunction(original), name
        assert original.__module__ == selftest.__name__, name

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(selftest, name, counted)
    exp = junk_ladder_experiment(64, seed=4)
    assert run_selftest(exp).passed
    assert run_selftest(exp, sampled_n=20_000, seed=6).passed
    assert [name for name, n in calls.items() if n == 0] == []


def public_stage_maps(exp, sampled_n=None, seed=None):
    """What each stage's public function returns on the purified experiment, under the report's
    stage names; the statistics are the deviations of the (sampled) table.  The extraction gate
    is no stage function and is left out."""
    exp = purify_experiment(exp)
    table = correlations(exp)
    if sampled_n is not None:
        table = sampled_correlations(table, sampled_n, seed)
    ext = extraction_isometry(exp)
    out = {"statistics": check_against_reference(table, ref_table(exp.kind))[0],
           "state_equalities": check_state_equalities(exp),
           "d_collapse": check_d_collapse(exp),
           "anticommutator": anticommutator_residual(exp),
           "state_fidelity": extraction_state_fidelity(ext),
           "action_fidelity": extraction_action_fidelities(ext)}
    if exp.kind == "extended":
        populations, out["y_coefficients"] = y_coefficient_check(ext)
        out["family_params"] = estimate_family_params(exp, populations)[1]
    return out


def test_each_stage_writes_exactly_what_its_public_function_returns():
    rng = np.random.default_rng(36)
    ladder = junk_ladder_experiment(64, seed=36)
    rotated = rotate_experiment(ladder, {
        p: random_unitary(int(np.prod(ladder.party_dims[p])), rng) for p in PARTIES})
    cases = {"flagged_member": (family_experiment(SimParams(0.3, 0.2)), {}),
             "rotated_junked": (rotated, {}),
             "mayersyao": (reference_experiment("mayersyao"), {}),
             "sampled": (ladder, {"sampled_n": 2000, "seed": 8}),
             "refused": (swapped(ladder, "A", "X", "Z"), {})}
    assert cases["flagged_member"][0].flag_registers is not None
    assert rotated.flag_registers is None and rotated.state.dim == 64
    for name, (exp, kwargs) in cases.items():
        report = run_selftest(exp, **kwargs)
        assert report.refused_stage == ("extraction" if name == "refused" else None), name
        want = public_stage_maps(exp, **kwargs)
        ran = [stage for stage in report.residuals if stage != "extraction_refused"]
        assert ran == [stage for stage in RUN_ORDER if stage in want][:len(ran)], name
        assert len(ran) == (4 if name == "refused" else len(want)), name
        for stage in ran:
            assert report.residuals[stage] == want[stage], (name, stage)
