import numpy as np
import pytest

from conjsim import sixstate
from conjsim.family import SimParams, c_of
from conjsim.linalg import PAULIS, Y, random_psd
from conjsim.selftest import family_experiment
from conjsim.sixstate import (
    BASES,
    SOURCE_DIMS,
    Conjugate,
    CustomState,
    Honest,
    MismatchedFlags,
    Transcript,
    ZPremeasure,
    eve_flip_correction,
    expected_consistent,
    run_rounds,
    sift,
    source_state,
    zpremeasure_analysis,
)
from conjsim.states import DensityMatrix

from dense_reference import embed_operator, flag_branches


def family_grid():
    grid = []
    for a in (0.0, 0.25, 0.5, 1.0):
        cmax = np.sqrt(a * (1 - a))
        for c in {0.0, cmax, cmax * 1j}:
            grid.append(SimParams(a, c))
    return grid


# --------------------------------------------------------------------------
# dense reference: joint-outcome tables from full-space 16x16 projectors

PARTY_BLOCKS = {"A": [0, 1], "B": [2, 3]}          # (flag, data) of each party


def dense_measurement_ops():
    """Flag-conditioned Pauli of each party and basis on the whole source; Bob's Y is -Y."""
    ops = {}
    for party, block in PARTY_BLOCKS.items():
        for basis in BASES:
            m = -PAULIS[basis] if (party, basis) == ("B", "Y") else PAULIS[basis]
            ops[(party, basis)] = embed_operator(c_of(m), SOURCE_DIMS, block)
    return ops


def dense_outcome_cumulants(rho):
    ops = dense_measurement_ops()
    eye = np.eye(rho.dim)
    out = {}
    for ba in BASES:
        for bb in BASES:
            ma, mb = ops[("A", ba)], ops[("B", bb)]
            probs = []
            for sa in (1, -1):
                for sb in (1, -1):
                    proj = ((eye + sa * ma) / 2) @ ((eye + sb * mb) / 2)
                    probs.append(float(np.trace(rho.matrix @ proj).real))
            probs = np.clip(np.array(probs), 0.0, None)
            assert abs(probs.sum() - 1.0) <= 1e-9
            cum = np.cumsum(probs / probs.sum())
            cum[-1] = 1.0
            out[(ba, bb)] = cum
    return out


def random_custom_state(seed, rank):
    rng = np.random.default_rng(seed)
    if rank is None:
        mat = random_psd(16, rng)
    else:
        g = rng.standard_normal((16, rank)) + 1j * rng.standard_normal((16, rank))
        mat = g @ g.conj().T
    return CustomState(DensityMatrix(SOURCE_DIMS, mat / np.trace(mat).real))


STRATEGIES = [
    *(Honest(p) for p in (SimParams(1.0, 0.0), SimParams(0.5, 0.5), SimParams(0.25, 0.2j),
                          SimParams(0.3, 0.25 * np.exp(0.7j)))),
    Conjugate(),
    ZPremeasure(SimParams(0.5, 0.5)),
    ZPremeasure(SimParams(0.0, 0.0)),
    *(MismatchedFlags(fa, fb) for fa in (0, 1) for fb in (0, 1)),
    *(random_custom_state(seed, rank) for seed, rank in ((1, None), (2, 1), (3, 3))),
]


def source_branches(strategy):
    rho = source_state(strategy)
    if isinstance(strategy, ZPremeasure):
        return [branch for _, _, branch in flag_branches(rho)]
    return [rho]


@pytest.mark.parametrize("a", [0.0, 0.25, 0.5, 1.0])
def test_flag_branches_equal_dense_projectors(a):
    c_max = np.sqrt(a * (1 - a))
    for c in (0.0, c_max, c_max * np.exp(0.7j)):
        rho = source_state(ZPremeasure(SimParams(a, c)))
        got, want = sixstate._flag_branches(rho), flag_branches(rho)
        assert [(p, f) for p, f, _ in got] == [(p, f) for p, f, _ in want]
        for (_, _, g), (_, _, w) in zip(got, want):
            assert np.array_equal(g.matrix, w.matrix), (a, c)


def test_flag_branches_refuse_cross_flag_population():
    for rho in (source_state(MismatchedFlags(0, 1)), random_custom_state(1, None).state):
        for branches in (sixstate._flag_branches, flag_branches):
            with pytest.raises(ValueError, match="cross-flag population"):
                branches(rho)


def test_lifted_observables():
    exp = family_experiment(SimParams(1.0), "extended")
    np.testing.assert_allclose(exp.observable("A", "Y"), c_of(Y), atol=1e-14)
    np.testing.assert_allclose(exp.observable("B", "Y"), c_of(-Y), atol=1e-14)
    for (party, basis), op in dense_measurement_ops().items():
        np.testing.assert_allclose(
            embed_operator(exp.observable(party, basis), SOURCE_DIMS, PARTY_BLOCKS[party]),
            op, atol=1e-14)


@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.describe()["strategy"])
def test_outcome_tables_match_dense_reference(strategy):
    for rho in source_branches(strategy):
        got, want = sixstate._outcome_cumulants(rho), dense_outcome_cumulants(rho)
        assert got.keys() == want.keys()
        for key in want:
            np.testing.assert_allclose(got[key], want[key], rtol=0, atol=1e-12)


@pytest.mark.parametrize("seed", [0, 5, 9])
def test_run_rounds_identical_with_dense_tables(seed, monkeypatch):
    fast = [run_rounds(s, 2000, seed) for s in STRATEGIES]
    monkeypatch.setattr(sixstate, "_outcome_cumulants", dense_outcome_cumulants)
    dense = [run_rounds(s, 2000, seed) for s in STRATEGIES]
    assert fast == dense


# --------------------------------------------------------------------------
# per-round reference: the same documented block draws, one searchsorted per
# round on the dense tables

COLUMNS = ("basis_a", "basis_b", "outcome_a", "outcome_b", "flag_a", "flag_b")


def same_rounds(a, b):
    return all(np.array_equal(getattr(a, name), getattr(b, name)) for name in COLUMNS)


def reference_rounds(strategy, n, seed):
    rho = source_state(strategy)
    if isinstance(strategy, ZPremeasure):
        branches = flag_branches(rho)
    else:
        branches = [(1.0, None, rho)]
    tables = [dense_outcome_cumulants(b) for _, _, b in branches]
    rng = np.random.default_rng(seed)
    basis_a = rng.integers(3, size=n, dtype=np.int8)
    basis_b = rng.integers(3, size=n, dtype=np.int8)
    if len(branches) > 1:
        probs = np.array([p for p, _, _ in branches])
        cum_branch = np.cumsum(probs / probs.sum())
        cum_branch[-1] = 1.0
        u_branch = rng.random(n)
    u = rng.random(n)
    outcome_a, outcome_b, flag_a, flag_b = [], [], [], []
    for i in range(n):
        branch = 0
        if len(branches) > 1:
            branch = int(np.searchsorted(cum_branch, u_branch[i], side="right"))
        pair = (BASES[basis_a[i]], BASES[basis_b[i]])
        k = int(np.searchsorted(tables[branch][pair], u[i], side="right"))
        outcome_a.append(k >> 1)
        outcome_b.append(k & 1)
        flags = branches[branch][1]
        if flags is not None:
            flag_a.append(flags[0])
            flag_b.append(flags[1])
    flag_a, flag_b = (np.array(f, dtype=np.int8) if isinstance(strategy, ZPremeasure) else None
                      for f in (flag_a, flag_b))
    return Transcript(basis_a=basis_a, basis_b=basis_b,
                      outcome_a=np.array(outcome_a, dtype=np.int8),
                      outcome_b=np.array(outcome_b, dtype=np.int8),
                      seed=seed, strategy=strategy.describe(), flag_a=flag_a, flag_b=flag_b)


@pytest.mark.parametrize("n", [1, 2000])
@pytest.mark.parametrize("seed", [0, 5, 9])
@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.describe()["strategy"])
def test_run_rounds_matches_per_round_reference(strategy, seed, n):
    fast, slow = run_rounds(strategy, n, seed), reference_rounds(strategy, n, seed)
    assert same_rounds(fast, slow)
    assert fast == slow


def reference_sift(t, abort_threshold=0.0):
    sifted = {b: 0 for b in BASES}
    errors = {b: 0 for b in BASES}
    mismatches = None if t.flag_a is None else 0
    for i in range(t.n):
        if t.flag_a is not None and t.flag_a[i] != t.flag_b[i]:
            mismatches += 1
        if t.basis_a[i] != t.basis_b[i]:
            continue
        sifted[BASES[t.basis_a[i]]] += 1
        if t.outcome_a[i] != t.outcome_b[i]:
            errors[BASES[t.basis_a[i]]] += 1
    rates, verdict = sixstate._rates_and_verdict(sifted, errors, t.n, abort_threshold)
    kept = sum(sifted.values())
    return sixstate.QberReport(sifted=sifted, errors=errors, rates=rates, total_rounds=t.n,
                               sift_fraction=kept / t.n if t.n else 0.0,
                               abort_threshold=abort_threshold, verdict=verdict,
                               flag_mismatches=mismatches)


@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.describe()["strategy"])
def test_sift_matches_per_round_reference(strategy):
    t = run_rounds(strategy, 2000, seed=5)
    for threshold in (0.0, 0.5):
        assert sift(t, threshold) == reference_sift(t, threshold)


@pytest.mark.parametrize("strategy", [s for s in STRATEGIES if isinstance(s, CustomState)])
def test_custom_state_qber_matches_exact_error_probabilities(strategy):
    n = 100_000
    report = sift(run_rounds(strategy, n, seed=21))
    tables = dense_outcome_cumulants(source_state(strategy))
    for b in BASES:
        probs = np.diff(tables[(b, b)], prepend=0.0)
        p_err = probs[1] + probs[2]            # outcomes (0, 1) and (1, 0)
        sigma = np.sqrt(p_err * (1 - p_err) / report.sifted[b])
        assert abs(report.rates[b] - p_err) <= 5 * sigma, (b, report.rates[b], p_err)


def test_source_state_mismatched_flags():
    rho = source_state(MismatchedFlags(0, 1))
    # flags (0,1): population sits in the fA=0, fB=1 sector
    diag = np.real(np.diag(rho.matrix)).reshape(2, 2, 2, 2)
    assert diag[0, :, 1, :].sum() == pytest.approx(1.0)


def test_run_rounds_honest_reference_no_errors():
    t = run_rounds(Honest(SimParams(1.0, 0.0)), 1000, seed=1)
    report = sift(t)
    assert sum(report.errors.values()) == 0
    assert report.verdict == "protocol-consistent"


def test_run_rounds_mismatched_flags_y_flips():
    t = run_rounds(MismatchedFlags(0, 1), 1000, seed=2)
    report = sift(t)
    assert report.rates["Y"] == 1.0
    assert report.rates["X"] == 0.0
    assert report.rates["Z"] == 0.0
    assert report.verdict == "not-protocol-consistent"


def test_run_rounds_deterministic():
    a = run_rounds(Honest(SimParams(0.5, 0.5)), 300, seed=9)
    b = run_rounds(Honest(SimParams(0.5, 0.5)), 300, seed=9)
    assert same_rounds(a, b)
    c = run_rounds(Honest(SimParams(0.5, 0.5)), 300, seed=10)
    assert not same_rounds(a, c)


@pytest.mark.parametrize("strategy", [Honest(SimParams(0.5, 0.5)), ZPremeasure(SimParams(0.5, 0.5))],
                         ids=lambda s: s.describe()["strategy"])
@pytest.mark.parametrize("n", [1, 777])
def test_transcript_columns_are_int8_of_length_n(strategy, n):
    t = run_rounds(strategy, n, seed=3)
    assert t.n == n
    premeasured = isinstance(strategy, ZPremeasure)
    for name in COLUMNS:
        col = getattr(t, name)
        if name.startswith("flag") and not premeasured:
            assert col is None
            continue
        assert isinstance(col, np.ndarray) and col.dtype == np.int8 and col.shape == (n,)
    assert set(np.unique(np.concatenate([t.basis_a, t.basis_b]))) <= {0, 1, 2}
    assert set(np.unique(np.concatenate([t.outcome_a, t.outcome_b]))) <= {0, 1}


def test_run_rounds_rejects_bad_args():
    with pytest.raises(ValueError):
        run_rounds(Honest(SimParams(1.0, 0.0)), 0, seed=1)
    with pytest.raises(ValueError):
        MismatchedFlags(2, 0)


def test_honest_grid_all_bases_error_free():
    for p in family_grid():
        t = run_rounds(Honest(p), 2000, seed=5)
        report = sift(t)
        assert sum(report.errors.values()) == 0, p


def test_honest_exact_distributions_match_reference():
    # analytic check, no sampling: every basis pair's joint outcome
    # distribution equals the dense (a=1, c=0) reference distribution
    ref = dense_outcome_cumulants(source_state(Honest(SimParams(1.0, 0.0))))
    for p in family_grid():
        got = sixstate._outcome_cumulants(source_state(Honest(p)))
        for key in ref:
            np.testing.assert_allclose(got[key], ref[key], atol=1e-10)


def test_sift_all_equal_transcript():
    t = run_rounds(Honest(SimParams(1.0, 0.0)), 500, seed=3)
    report = sift(t)
    kept = sum(report.sifted.values())
    assert report.sift_fraction == pytest.approx(kept / 500)
    assert all(rate == 0.0 for rate in report.rates.values())


def test_sift_fraction_converges_to_one_third():
    t = run_rounds(Honest(SimParams(0.5, 0.0)), 30_000, seed=8)
    report = sift(t)
    sigma = np.sqrt((1 / 3) * (2 / 3) / 30_000)
    assert abs(report.sift_fraction - 1 / 3) <= 5 * sigma


def test_eve_flip_correction_restores_y():
    t = run_rounds(MismatchedFlags(0, 1), 3000, seed=4)
    report = sift(t)
    corrected = eve_flip_correction(report, (0, 1))
    assert corrected.rates["Y"] == 0.0
    assert corrected.verdict == "protocol-consistent"


def test_eve_flip_correction_no_flags_unchanged():
    t = run_rounds(Honest(SimParams(0.5, 0.0)), 1000, seed=6)
    report = sift(t)
    assert eve_flip_correction(report, (0, 0)) == report


def test_eve_flip_correction_double_flag_unchanged():
    # both parties conjugated: Y (x) Y sign toggles twice, so nothing to undo
    t = run_rounds(MismatchedFlags(1, 1), 2000, seed=7)
    report = sift(t)
    assert sum(report.errors.values()) == 0
    assert eve_flip_correction(report, (1, 1)) == report


def test_zpremeasure_flags_always_agree():
    t = run_rounds(ZPremeasure(SimParams(0.5, 0.5)), 5000, seed=11)
    mismatches = np.count_nonzero(t.flag_a != t.flag_b)
    assert mismatches == 0
    flags0 = np.count_nonzero(t.flag_a == 0)
    sigma = np.sqrt(0.25 / 5000)
    assert abs(flags0 / 5000 - 0.5) <= 5 * sigma


def test_zpremeasure_deterministic_flag_degenerates_to_honest():
    tz = run_rounds(ZPremeasure(SimParams(1.0, 0.0)), 500, seed=12)
    th = run_rounds(Honest(SimParams(1.0, 0.0)), 500, seed=12)
    for name in ("basis_a", "basis_b", "outcome_a", "outcome_b"):
        np.testing.assert_array_equal(getattr(tz, name), getattr(th, name))
    assert np.all((tz.flag_a == 0) & (tz.flag_b == 0))


def test_zpremeasure_conjugate_branch_error_free():
    t = run_rounds(ZPremeasure(SimParams(0.0, 0.0)), 2000, seed=13)
    assert np.all((t.flag_a == 1) & (t.flag_b == 1))
    assert sum(sift(t).errors.values()) == 0


def test_zpremeasure_analysis_matches_honest():
    cmp = zpremeasure_analysis(SimParams(0.5, 0.5), 30_000, seed=14)
    assert cmp.flag_mismatches == 0
    assert cmp.within_tolerance
    for b in BASES:
        assert cmp.rate_differences[b] == pytest.approx(0.0, abs=1e-12)


def test_analyze_empty_transcript():
    empty = np.zeros(0, dtype=np.int8)
    t = Transcript(basis_a=empty, basis_b=empty, outcome_a=empty, outcome_b=empty,
                   seed=0, strategy={"strategy": "honest"})
    report = sift(t)
    assert report.verdict == "insufficient data"
    assert report.total_rounds == 0


def test_analyze_threshold():
    t = run_rounds(MismatchedFlags(0, 1), 1000, seed=15)
    assert not sift(t).consistent
    assert sift(t, abort_threshold=1.0).consistent


def test_custom_state_strategy():
    # non-family source: plain EPR pairs on the data qubits with flags (0, 1);
    # behaves like MismatchedFlags and is caught the same way
    rho = source_state(MismatchedFlags(0, 1))
    t = run_rounds(CustomState(DensityMatrix([2, 2, 2, 2], rho.matrix)), 1000, seed=16)
    report = sift(t)
    assert report.rates["Y"] == 1.0


def test_expected_consistency_conventions():
    assert expected_consistent(Honest(SimParams(0.5, 0.0))) is True
    assert expected_consistent(Conjugate()) is True
    assert expected_consistent(ZPremeasure(SimParams(0.5, 0.0))) is True
    assert expected_consistent(MismatchedFlags(0, 1)) is False
    assert expected_consistent(MismatchedFlags(1, 1)) is True
    assert expected_consistent(CustomState(source_state(Conjugate()))) is None


def test_conjugate_strategy_is_zero_error():
    t = run_rounds(Conjugate(), 1500, seed=17)
    assert sum(sift(t).errors.values()) == 0


def test_transcript_strategy_descriptor():
    t = run_rounds(Honest(SimParams(0.25, 0.1)), 10, seed=18)
    assert t.strategy["strategy"] == "honest"
    assert t.strategy["a"] == 0.25
    assert t.seed == 18
