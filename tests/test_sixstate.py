import csv
import io
import itertools
import json
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conjsim import sixstate
from conjsim.family import SimParams
from conjsim.linalg import PAULIS, random_psd
from conjsim.selftest import family_experiment
from conjsim.serialize import qber_report_to_dict, transcript_to_csv, transcript_to_json
from conjsim.sixstate import (
    BASES,
    CELLS,
    SOURCE_DIMS,
    Conjugate,
    CustomState,
    Honest,
    MismatchedFlags,
    Transcript,
    ZPremeasure,
    expected_consistent,
    run_rounds,
    sift,
    source_state,
)
from conjsim.states import DensityMatrix, replace

from dense_reference import (dense_cell_law, dense_outcome_probs, embed_operator, feasible_members,
                             flag_branches, sixstate_devices, source_branches)


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
    ZPremeasure(SimParams(1.0)),
    ZPremeasure(SimParams(0.3, 0.25 * np.exp(0.7j))),     # unequal flag branches
    *(MismatchedFlags(fa, fb) for fa in (0, 1) for fb in (0, 1)),
    *(random_custom_state(seed, rank) for seed, rank in ((1, None), (2, 1), (3, 3))),
]


def source(strategy):
    """The strategy's source, and whether Eve premeasures its flags."""
    return source_state(strategy), isinstance(strategy, ZPremeasure)


def test_lifted_observables():
    # the extended test's X, Y and Z devices of the reference member are the 6-state devices
    exp = family_experiment(SimParams(1.0), "extended")
    for (party, basis), device in sixstate_devices().items():
        np.testing.assert_allclose(exp.observable(party, basis), device, rtol=0, atol=1e-14)


@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.describe()["strategy"])
def test_outcome_tables_match_dense_reference(strategy):
    for _, _, rho in source_branches(*source(strategy)):
        got, want = sixstate._outcome_probs(rho), dense_outcome_probs(rho)
        assert got.shape == want.shape == (3, 3, 4)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


# --------------------------------------------------------------------------
# per-round references: rounds drawn one at a time, the documented draw
# expanded a round at a time, and rounds read back from a written transcript,
# all as columns

KEYS = ("basis_a", "basis_b", "outcome_a", "outcome_b")


def as_columns(records):
    """Columns of round records {basis_a: 0..2, basis_b, outcome_a: bit, outcome_b[, flag_a,
    flag_b]}; flag_a and flag_b are None when the records carry no flags."""
    flags = ("flag_a", "flag_b") if "flag_a" in records[0] else ()
    columns = {key: np.array([r[key] for r in records]) for key in KEYS + flags}
    return SimpleNamespace(**{"n": len(records), "flag_a": None, "flag_b": None, **columns})


def cell_counts(rounds):
    """How many of ``rounds`` fall in each cell; rounds without flags count at flag 0."""
    flag = 0 if rounds.flag_a is None else rounds.flag_a
    cells = np.ravel_multi_index((flag, rounds.basis_a, rounds.basis_b,
                                  2 * rounds.outcome_a + rounds.outcome_b), CELLS)
    return np.bincount(cells, minlength=math.prod(CELLS)).reshape(CELLS)


def reference_rounds(strategy, n, seed):
    """n rounds drawn one at a time from ``default_rng(seed)``: two uniform bases, the flag
    branch, then the joint outcome, each the searchsorted of one uniform in the dense
    cumulants (clamped to the last entry when rounding leaves them below 1)."""
    branches = source_branches(*source(strategy))
    weights = np.cumsum([weight for weight, _, _ in branches])
    tables = [np.cumsum(dense_outcome_probs(rho), axis=-1) for _, _, rho in branches]
    rng = np.random.default_rng(seed)
    records = []
    for _ in range(n):
        a, b = rng.integers(3, size=2)
        branch = min(int(np.searchsorted(weights / weights[-1], rng.random(), "right")),
                     len(branches) - 1)
        k = min(int(np.searchsorted(tables[branch][a, b], rng.random(), "right")), 3)
        flag = branches[branch][1]
        records.append({"basis_a": a, "basis_b": b, "outcome_a": k >> 1, "outcome_b": k & 1,
                        **({"flag_a": flag, "flag_b": flag}
                           if isinstance(strategy, ZPremeasure) else {})})
    return as_columns(records)


def written_rounds(t, encode):
    """The rounds ``encode`` writes for ``t``, read back as columns."""
    out = io.StringIO()
    encode(t, out)
    text = out.getvalue()
    records = (json.loads(text)["rounds"] if encode is transcript_to_json
               else list(csv.DictReader(io.StringIO(text))))
    assert [int(r.pop("round")) for r in records] == list(range(t.n))
    return as_columns([{k: BASES.index(v) if k.startswith("basis") else int(v)
                        for k, v in r.items()} for r in records])


def documented_rounds(strategy, n, seed):
    """The documented draw on the dense references, a round at a time: the multinomial
    counts of the exact cell probabilities from ``default_rng(seed)``, each cell listed once
    per count in cell order, shuffled by ``default_rng([seed, 1])``, as columns."""
    counts = np.random.default_rng(seed).multinomial(n, dense_cell_law(*source(strategy)).ravel())
    cells = []
    for cell, count in enumerate(counts):
        cells += [cell] * int(count)
    order = np.array(cells)
    np.random.default_rng([seed, 1]).shuffle(order)
    records = []
    for cell in order:
        flag, a, b, k = (int(x) for x in np.unravel_index(cell, CELLS))
        records.append({"basis_a": a, "basis_b": b, "outcome_a": k >> 1, "outcome_b": k & 1,
                        **({"flag_a": flag, "flag_b": flag}
                           if isinstance(strategy, ZPremeasure) else {})})
    return as_columns(records)


def same_rounds(a, b):
    return a.n == b.n and all(
        (getattr(a, key) is None and getattr(b, key) is None)
        or np.array_equal(getattr(a, key), getattr(b, key)) for key in KEYS + ("flag_a", "flag_b"))


@pytest.mark.parametrize("n", [1, 2000])
@pytest.mark.parametrize("seed", [0, 5, 9])
@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.describe()["strategy"])
def test_run_rounds_matches_per_round_reference(strategy, seed, n):
    t = run_rounds(strategy, n, seed)
    assert same_rounds(written_rounds(t, transcript_to_json), documented_rounds(strategy, n, seed))


def reference_sift(t, abort_threshold=0.0):
    """The report document of ``t``'s rounds, counted and judged one round at a time."""
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
    rates = {b: errors[b] / sifted[b] if sifted[b] else 0.0 for b in BASES}
    if 0 in sifted.values():
        verdict = "insufficient data"
    elif max(rates.values()) <= abort_threshold:
        verdict = "protocol-consistent"
    else:
        verdict = "not-protocol-consistent"
    doc = {"sifted": sifted, "errors": errors, "rates": rates, "total_rounds": t.n,
           "sift_fraction": sum(sifted.values()) / t.n, "abort_threshold": abort_threshold,
           "verdict": verdict}
    if mismatches is not None:
        doc.update(flag_mismatches=mismatches, flag_agreements=t.n - mismatches)
    return doc


def within_bernstein(count, n, p, delta=1e-6):
    """Whether a Binomial(n, p) count lies within Bernstein's two-sided bound of n p, which
    a correct sampler leaves with probability at most delta."""
    log_term = math.log(2 / delta)
    slack = log_term / 3 + math.sqrt(log_term ** 2 / 9 + 2 * n * p * (1 - p) * log_term)
    return abs(count - n * p) <= slack


@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.describe()["strategy"])
def test_cell_frequencies_match_exact_probabilities(strategy):
    # run_rounds over 20 seeds of 500 rounds and reference_rounds over 20 seeds of 100: the
    # summed counts of each are multinomial, so each of the 72 cells is binomial.  A cell of
    # probability <= 1e-12 must stay empty (chance <= 1e-8); every other cell must lie within
    # Bernstein's bound at delta = 1e-6.  Over the 16 strategies x 2 samplers x 72 cells the
    # union bound puts the false-reject rate of the whole test at most 2304 x 1e-6 = 0.23 %.
    probs = dense_cell_law(*source(strategy))
    fast = sum(run_rounds(strategy, 500, seed).counts for seed in range(20))
    slow = sum(cell_counts(reference_rounds(strategy, 100, seed)) for seed in range(20))
    for counts, n in ((fast, 10_000), (slow, 2_000)):
        assert counts.sum() == n
        for cell, p in np.ndenumerate(probs):
            if p <= 1e-12:
                assert counts[cell] == 0, cell
            else:
                assert within_bernstein(counts[cell], n, p), (cell, counts[cell], n * p)


@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.describe()["strategy"])
def test_sift_matches_per_round_reference(strategy):
    t = run_rounds(strategy, 2000, seed=5)
    from_json = written_rounds(t, transcript_to_json)
    from_csv = written_rounds(t, transcript_to_csv)
    assert (from_json.flag_a is None) == (not t.premeasured) and from_csv.flag_a is None
    for threshold in (0.0, 0.5):
        report = sift(t, threshold)
        assert reference_sift(from_json, threshold) == qber_report_to_dict(report)
        assert (reference_sift(from_csv, threshold)
                == qber_report_to_dict(replace(report, premeasured=False)))


@pytest.mark.parametrize("n", [1, 2000])
@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.describe()["strategy"])
def test_written_rounds_are_a_permutation_of_the_counts(strategy, n):
    t = run_rounds(strategy, n, seed=9)
    assert cell_counts(written_rounds(t, transcript_to_json)).tolist() == t.counts.tolist()
    assert (cell_counts(written_rounds(t, transcript_to_csv)).sum(axis=0).tolist()
            == t.counts.sum(axis=0).tolist())
    cells = t.cells()
    assert cells.dtype == np.int8 and np.array_equal(cells, t.cells())
    assert np.array_equal(np.sort(cells), np.repeat(np.arange(72), t.counts.ravel()))


def test_written_round_order_is_uniform_over_orderings():
    # three rounds in three cells: each of the 6 orders has probability 1/6 per seed, so over
    # 6000 seeds each count lies within Bernstein's bound (false-reject rate <= 6e-6)
    counts = np.zeros(CELLS, dtype=np.int64)
    counts.flat[[3, 40, 71]] = 1
    strategy = ZPremeasure(SimParams(0.5))
    orders = [tuple(Transcript(counts, seed, strategy).cells()) for seed in range(6000)]
    tally = {order: orders.count(order) for order in set(orders)}
    assert sorted(tally) == sorted(itertools.permutations((3, 40, 71)))
    assert all(within_bernstein(c, 6000, 1 / 6) for c in tally.values()), tally


@pytest.mark.parametrize("strategy", [Honest(SimParams(0.3, 0.2)),
                                      ZPremeasure(SimParams(0.3, 0.2))],
                         ids=lambda s: s.describe()["strategy"])
def test_a_report_takes_no_memory_per_round(strategy):
    sift(run_rounds(strategy, 10, seed=1))          # load and warm what the first call builds
    tracemalloc.start()
    try:
        sift(run_rounds(strategy, 3_000_000, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("strategy", [s for s in STRATEGIES if isinstance(s, CustomState)])
def test_custom_state_qber_matches_exact_error_probabilities(strategy):
    n = 100_000
    report = sift(run_rounds(strategy, n, seed=21))
    tables = dense_outcome_probs(source_state(strategy))
    for i, b in enumerate(BASES):
        probs = tables[i, i]
        p_err = probs[1] + probs[2]            # outcomes (0, 1) and (1, 0)
        sigma = np.sqrt(p_err * (1 - p_err) / report.sifted[b])
        assert abs(report.rates[b] - p_err) <= 5 * sigma, (b, report.rates[b], p_err)


def test_source_state_mismatched_flags():
    rho = source_state(MismatchedFlags(0, 1))
    # flags (0,1): population sits in the fA=0, fB=1 sector
    diag = np.real(np.diag(rho.matrix)).reshape(2, 2, 2, 2)
    assert diag[0, :, 1, :].sum() == pytest.approx(1.0)


def test_flag_branches_refuse_a_cross_flag_population():
    # both mismatched sources, and a family source with 1e-6 of one mixed in: a cross-flag
    # population above tol (1e-9) but far below 1
    family = source_state(Honest(SimParams(0.3, 0.25 * np.exp(0.7j)))).matrix
    cross = source_state(MismatchedFlags(0, 1)).matrix
    for rho in (source_state(MismatchedFlags(0, 1)), source_state(MismatchedFlags(1, 0)),
                DensityMatrix(SOURCE_DIMS, (1 - 1e-6) * family + 1e-6 * cross)):
        with pytest.raises(ValueError, match="cross-flag population"):
            flag_branches(rho)


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
    assert a == b and np.array_equal(a.cells(), b.cells())
    c = run_rounds(Honest(SimParams(0.5, 0.5)), 300, seed=10)
    assert a != c and not np.array_equal(a.cells(), c.cells())


@pytest.mark.parametrize("strategy", [Honest(SimParams(0.5, 0.5)), ZPremeasure(SimParams(0.5, 0.5))],
                         ids=lambda s: s.describe()["strategy"])
@pytest.mark.parametrize("n", [1, 777])
def test_transcript_columns_are_int8_of_length_n(strategy, n):
    t = run_rounds(strategy, n, seed=3)
    assert t.n == n
    assert t.counts.shape == CELLS and t.counts.dtype == np.int64 and t.counts.min() >= 0
    assert t.premeasured == isinstance(strategy, ZPremeasure)
    if not t.premeasured:
        assert not t.counts[1].any()
    cells = t.cells()
    assert cells.shape == (n,) and 0 <= cells.min() and cells.max() < 72


def test_run_rounds_rejects_bad_args():
    with pytest.raises(ValueError):
        run_rounds(Honest(SimParams(1.0, 0.0)), 0, seed=1)
    with pytest.raises(ValueError):
        MismatchedFlags(2, 0)
    for flags in ((True, 0.0), (0.0, 1), (1, False), (0, 1.0), (np.bool_(True), 0)):
        with pytest.raises(ValueError, match="expected an integer"):
            MismatchedFlags(*flags)


def test_mismatched_flags_store_python_ints():
    strategy = MismatchedFlags(np.int64(1), np.int8(0))
    assert strategy == MismatchedFlags(1, 0)
    assert type(strategy.flag_a) is int and type(strategy.flag_b) is int
    assert strategy.describe() == {"strategy": "mismatched_flags", "flag_a": 1, "flag_b": 0}


def test_honest_grid_all_bases_error_free():
    for p in feasible_members():
        t = run_rounds(Honest(p), 2000, seed=5)
        report = sift(t)
        assert sum(report.errors.values()) == 0, p


def test_honest_exact_distributions_match_reference():
    # analytic check, no sampling: every basis pair's joint outcome
    # distribution equals the dense (a=1, c=0) reference distribution
    ref = dense_outcome_probs(source_state(Honest(SimParams(1.0, 0.0))))
    for p in feasible_members():
        got = sixstate._outcome_probs(source_state(Honest(p)))
        np.testing.assert_allclose(got, ref, atol=1e-10)


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


def test_zpremeasure_flags_always_agree():
    t = run_rounds(ZPremeasure(SimParams(0.5, 0.5)), 5000, seed=11)
    rounds = written_rounds(t, transcript_to_json)
    assert np.count_nonzero(rounds.flag_a != rounds.flag_b) == 0
    assert sift(t).flag_mismatches == 0
    flags0 = np.count_nonzero(rounds.flag_a == 0)
    assert flags0 == t.counts[0].sum()
    sigma = np.sqrt(0.25 / 5000)
    assert abs(flags0 / 5000 - 0.5) <= 5 * sigma


def test_zpremeasure_deterministic_flag_degenerates_to_honest():
    tz = run_rounds(ZPremeasure(SimParams(1.0, 0.0)), 500, seed=12)
    th = run_rounds(Honest(SimParams(1.0, 0.0)), 500, seed=12)
    np.testing.assert_array_equal(tz.counts, th.counts)
    np.testing.assert_array_equal(tz.cells(), th.cells())
    assert not tz.counts[1].any()


def test_zpremeasure_conjugate_branch_error_free():
    t = run_rounds(ZPremeasure(SimParams(0.0, 0.0)), 2000, seed=13)
    assert t.counts[1].sum() == 2000
    assert sum(sift(t).errors.values()) == 0


MEMBERS = [SimParams(0.5, 0.5), SimParams(0.3, 0.2 * np.exp(0.7j)), SimParams(0.25, 0.2j)]


@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.describe()["strategy"])
def test_cell_law_matches_dense_reference(strategy):
    np.testing.assert_allclose(sixstate._cell_law(strategy), dense_cell_law(*source(strategy)),
                               rtol=0, atol=1e-12)


def same_basis_qber(law):
    """Each basis's QBER of a [basis_a, basis_b, k] law: the weight of its same-basis cells
    whose bits differ (k = 1, 2) over the weight of its same-basis cells."""
    same = np.einsum("bbk->bk", law)
    return (same[:, 1] + same[:, 2]) / same.sum(axis=1)


def assert_premeasured_law_is_honest(p):
    """Eve's Z premeasurement of the flags, summed out, leaves the Honest(p) law: c drops out
    and the family keeps the reference's statistics, in each cell and each basis's QBER."""
    premeasured = sixstate._cell_law(ZPremeasure(p)).sum(axis=0)
    honest = sixstate._cell_law(Honest(p))[0]
    np.testing.assert_allclose(premeasured, honest, rtol=0, atol=1e-12, err_msg=str(p))
    np.testing.assert_allclose(same_basis_qber(premeasured), same_basis_qber(honest),
                               rtol=0, atol=1e-12, err_msg=str(p))


def test_premeasured_law_matches_honest_law():
    for p in MEMBERS:
        assert_premeasured_law_is_honest(p)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(a=st.floats(0.0, 1.0), share=st.floats(0.0, 1.0), phase=st.floats(-np.pi, np.pi))
def test_zpremeasure_law_equals_honest_law_on_feasible_members(a, share, phase):
    assert_premeasured_law_is_honest(
        SimParams(a, share * np.sqrt(a * (1 - a)) * np.exp(1j * phase)))


def one_round(cell):
    counts = np.zeros(CELLS, dtype=np.int64)
    counts[cell] = 1
    return counts


HONEST, PREMEASURED = Honest(SimParams(0.5)), ZPremeasure(SimParams(0.5))


@pytest.mark.parametrize("counts, strategy, message", [
    (np.ones((2, 3, 3, 2), dtype=np.int64), HONEST, "integers of shape"),
    (np.ones(CELLS), PREMEASURED, "integers of shape"),
    (np.ones(CELLS, dtype=bool), PREMEASURED, "integers of shape"),
    (2 * one_round((0, 0, 0, 0)) - one_round((0, 1, 1, 0)), HONEST, "non-negative"),
    (one_round((1, 0, 0, 0)), HONEST, "premeasures"),
], ids=["shape", "float", "bool", "negative", "flag1_unpremeasured"])
def test_a_transcript_refuses_counts_run_rounds_never_makes(counts, strategy, message):
    with pytest.raises(ValueError, match=message):
        Transcript(counts, 0, strategy)


def test_transcript_counts_are_frozen_copies():
    counts = np.ones(CELLS, dtype=np.int64)
    t = Transcript(counts, 0, PREMEASURED)
    counts[0, 0, 0, 0] = 5
    assert t.n == 72
    with pytest.raises(ValueError, match="read-only"):
        t.counts[0, 0, 0, 0] = 5
    with pytest.raises(ValueError, match="read-only"):
        run_rounds(Conjugate(), 10, seed=1).counts[0] = 0


def test_analyze_empty_transcript():
    # a transcript has at least one round: neither run_rounds nor a hand-built one is empty
    with pytest.raises(ValueError, match="at least one round"):
        Transcript(np.zeros(CELLS, dtype=np.int64), 0, HONEST)
    with pytest.raises(ValueError, match="at least one round"):
        run_rounds(HONEST, 0, seed=0)


@pytest.mark.parametrize("threshold", [0.0, 1.0])
def test_a_basis_without_a_sifted_round_is_insufficient_data(threshold):
    # one Y-Y round and one X-Z round: X and Z have nothing sifted, whatever the threshold
    counts = one_round((0, 1, 1, 0)) + one_round((0, 0, 2, 3))
    report = sift(Transcript(counts, 0, HONEST), threshold)
    assert report.sifted == {"X": 0, "Y": 1, "Z": 0}
    assert report.verdict == "insufficient data" and report.consistent is None
    assert report.rates == {"X": 0.0, "Y": 0.0, "Z": 0.0} and report.sift_fraction == 0.5


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


def test_a_z_rate_alone_above_the_threshold_aborts():
    # Bob's data flipped by X and by Y, each with p = 0.04: X and Y errors stay near
    # 0.04, while Z, which both flips disturb, reads about 0.08 and alone crosses 0.06
    rho = source_state(MismatchedFlags(0, 0)).matrix
    flips = [embed_operator(PAULIS[f], list(SOURCE_DIMS), [3]) for f in ("X", "Y")]
    noisy = 0.92 * rho + sum(0.04 * f @ rho @ f.conj().T for f in flips)
    report = sift(run_rounds(CustomState(DensityMatrix(SOURCE_DIMS, noisy)), 200_000, seed=1),
                  abort_threshold=0.06)
    assert max(report.rates["X"], report.rates["Y"]) < 0.045
    assert report.rates["Z"] == pytest.approx(0.08, abs=0.005)
    assert report.verdict == "not-protocol-consistent"


def test_expected_consistency_conventions():
    assert expected_consistent(Honest(SimParams(0.5, 0.0))) is True
    assert expected_consistent(Conjugate()) is True
    assert expected_consistent(ZPremeasure(SimParams(0.5, 0.0))) is True
    assert expected_consistent(MismatchedFlags(0, 1)) is False
    assert expected_consistent(MismatchedFlags(1, 1)) is True
    assert expected_consistent(CustomState(source_state(Conjugate()))) is True


def test_conjugate_strategy_is_zero_error():
    t = run_rounds(Conjugate(), 1500, seed=17)
    assert sum(sift(t).errors.values()) == 0


def test_transcript_strategy_descriptor():
    t = run_rounds(Honest(SimParams(0.25, 0.1)), 10, seed=18)
    assert t.strategy == Honest(SimParams(0.25, 0.1))
    assert t.seed == 18
