"""Monte-Carlo simulator for the entanglement-based 6-state protocol on family sources.

Both parties hold one data qubit of an EPR pair plus their local simulation
flag qubit.  Each round they pick a uniformly random basis among X, Y, Z and
measure the flag-conditioned observable.  These are the X, Y and Z devices of
the extended self-test (:func:`conjsim.selftest.family_experiment`), Bob's Y
included as -Y, which makes every same-basis pair perfectly correlated for
every feasible family member, so the honest QBER is exactly 0.  Each basis
pair's joint-outcome table is read off that experiment's correlation table
with the source state put in (:meth:`CorrelationTable.outcome_probs`).

A transcript is a set of columns, not a list of round objects: ``basis_a``,
``basis_b``, ``outcome_a`` and ``outcome_b`` are ``int8`` arrays of length n
(bases coded 0/1/2 as indices into :data:`BASES`, outcomes as bits with
+1 -> 0, -1 -> 1), plus ``flag_a``/``flag_b`` when Eve premeasures the flags.

All draws come from one ``default_rng(seed)`` stream, in whole blocks of n and
in this order: the ``basis_a`` column (``integers(3, size=n, dtype=int8)``),
the ``basis_b`` column (the same call), then, only when the flag collapse is
not deterministic, one uniform per round choosing the flag branch, then one
uniform per round choosing the joint outcome.  Each branch and each outcome is
the number of cumulants of its table, all but the last, that are <= its
uniform (:func:`conjsim.selftest._draw_outcomes`, which the sampled self-test
draws with too).  Transcripts are therefore a pure function of
(strategy, n, seed).
"""

from __future__ import annotations

import numpy as np

from .family import SimParams, multiparty_sim_state
from .selftest import _draw_outcomes, correlations, family_experiment, with_state
from .states import DensityMatrix, Record, StateVector, epr_pair, replace

BASES = ("X", "Y", "Z")
SOURCE_DIMS = (2, 2, 2, 2)            # flag_A, data_A, flag_B, data_B
FLAG_A, DATA_A, FLAG_B, DATA_B = range(4)
BRANCH_TOL = 1e-9                     # a flag branch of at most this weight is empty


class Honest(Record):
    """Eve prepares the agreed family member and otherwise stays out."""

    params: SimParams

    def describe(self) -> dict:
        return {"strategy": "honest", "a": self.params.a,
                "c_abs": abs(self.params.c), "c_phase": float(np.angle(self.params.c))}


class Conjugate(Record):
    """The fully conjugated member (a = 0, c = 0)."""

    def describe(self) -> dict:
        return {"strategy": "conjugate"}


class ZPremeasure(Record):
    """Eve measures both flag registers in Z before the protocol starts."""

    params: SimParams

    def describe(self) -> dict:
        return {"strategy": "zpremeasure", "a": self.params.a,
                "c_abs": abs(self.params.c), "c_phase": float(np.angle(self.params.c))}


class MismatchedFlags(Record):
    """Flags pinned to possibly different Z eigenvectors on the two sides."""

    flag_a: int
    flag_b: int

    def __post_init__(self):
        if self.flag_a not in (0, 1) or self.flag_b not in (0, 1):
            raise ValueError("flags must be bits")

    def describe(self) -> dict:
        return {"strategy": "mismatched_flags", "flag_a": self.flag_a, "flag_b": self.flag_b}


class CustomState(Record):
    """Arbitrary two-flag-two-data source, e.g. a non-family negative control."""

    state: DensityMatrix

    def __post_init__(self):
        if tuple(self.state.dims) != SOURCE_DIMS:
            raise ValueError(f"custom state must have dims {SOURCE_DIMS}")

    def describe(self) -> dict:
        return {"strategy": "custom_state"}


EveStrategy = Honest | Conjugate | ZPremeasure | MismatchedFlags | CustomState


def source_state(strategy: EveStrategy) -> DensityMatrix:
    if isinstance(strategy, (Honest, ZPremeasure)):
        return multiparty_sim_state(epr_pair(), 2, strategy.params)
    if isinstance(strategy, Conjugate):
        return multiparty_sim_state(epr_pair(), 2, SimParams(0.0, 0.0))
    if isinstance(strategy, MismatchedFlags):
        e_fa, e_fb = np.eye(2, dtype=complex)[[strategy.flag_a, strategy.flag_b]]
        # rows (flag_A, data_A), columns (flag_B, data_B)
        psi = np.kron(np.outer(e_fa, e_fb), epr_pair().amplitudes.reshape(2, 2))
        return StateVector(SOURCE_DIMS, psi).density()
    if isinstance(strategy, CustomState):
        return strategy.state
    raise TypeError(f"unknown strategy {strategy!r}")


def expected_consistent(strategy: EveStrategy) -> bool | None:
    """Documented expectation for the abort verdict; None when there is none."""
    if isinstance(strategy, MismatchedFlags):
        return strategy.flag_a == strategy.flag_b
    if isinstance(strategy, CustomState):
        return None
    return True


def _outcome_cumulants(rho: DensityMatrix) -> dict[tuple[str, str], np.ndarray]:
    """Cumulative joint-outcome distributions for all nine basis pairs.

    Outcome index k encodes (bit_a, bit_b) = (k >> 1, k & 1) with the
    +1 -> 0, -1 -> 1 convention.
    """
    table = correlations(with_state(family_experiment(SimParams(1.0), "extended"), rho))
    out = {}
    for ba in BASES:
        for bb in BASES:
            cum = np.cumsum(table.outcome_probs(ba, bb))
            cum[-1] = 1.0
            out[(ba, bb)] = cum
    return out


def _flag_branches(rho: DensityMatrix):
    """Z-collapse of both flags: [(probability, (z_a, z_b), post_state)].

    Family states only populate the logical flag states, so only the (0, 0)
    and (1, 1) branches can appear; a cross branch above BRANCH_TOL is an error.
    The flag projector P is diagonal, so P rho P is rho with the rows and
    columns of the other flag values zeroed.
    """
    digits = np.indices(SOURCE_DIMS).reshape(len(SOURCE_DIMS), -1)   # [subsystem, index]
    branches = []
    for za in (0, 1):
        for zb in (0, 1):
            on = (digits[FLAG_A] == za) & (digits[FLAG_B] == zb)
            kept = np.where(np.outer(on, on), rho.matrix, 0)
            p = float(np.trace(kept).real)
            if za != zb:
                if p > BRANCH_TOL:
                    raise ValueError(f"family source has cross-flag population {p}")
                continue
            if p <= BRANCH_TOL:
                continue
            post = kept / p
            branches.append((p, (za, zb), DensityMatrix(SOURCE_DIMS, post)))
    return branches


class Transcript(Record):
    """Per-round columns: ``int8`` arrays of length n, round i at index i.

    Bases are coded 0/1/2 as indices into :data:`BASES`; outcomes are bits
    (+1 -> 0, -1 -> 1).  ``flag_a``/``flag_b`` hold the premeasured flags when
    Eve premeasures and are None otherwise.
    """

    basis_a: np.ndarray
    basis_b: np.ndarray
    outcome_a: np.ndarray
    outcome_b: np.ndarray
    seed: int
    strategy: dict
    flag_a: np.ndarray | None = None
    flag_b: np.ndarray | None = None

    @property
    def n(self) -> int:
        return len(self.basis_a)

    def __eq__(self, other):
        if not isinstance(other, Transcript):
            return NotImplemented
        columns = ("basis_a", "basis_b", "outcome_a", "outcome_b", "flag_a", "flag_b")
        return (self.seed == other.seed and self.strategy == other.strategy
                and all(np.array_equal(getattr(self, c), getattr(other, c)) for c in columns))


def run_rounds(strategy: EveStrategy, n: int, seed: int) -> Transcript:
    """Simulate n protocol rounds; deterministic for a given (strategy, n, seed)."""
    if n < 1:
        raise ValueError("need at least one round")
    rho = source_state(strategy)
    if isinstance(strategy, ZPremeasure):
        branches = _flag_branches(rho)
        sources = [b for _, _, b in branches]
        probs = np.array([p for p, _, _ in branches])
        flags = np.array([f for _, f, _ in branches], dtype=np.int8)
    else:
        sources, probs, flags = [rho], np.array([1.0]), None
    tables = [_outcome_cumulants(s) for s in sources]
    cum = np.array([[t[(ba, bb)] for ba in BASES for bb in BASES] for t in tables])

    rng = np.random.default_rng(int(seed))
    basis_a = rng.integers(3, size=n, dtype=np.int8)
    basis_b = rng.integers(3, size=n, dtype=np.int8)
    branch = np.zeros(n, dtype=np.int8)
    if len(tables) > 1:
        branch = _draw_outcomes(np.cumsum(probs / probs.sum()), rng.random(n))
    k = _draw_outcomes(cum.reshape(-1, 4), rng.random(n), 9 * branch + 3 * basis_a + basis_b)
    return Transcript(basis_a=basis_a, basis_b=basis_b, outcome_a=k >> 1, outcome_b=k & 1,
                      seed=int(seed), strategy=strategy.describe(),
                      flag_a=None if flags is None else flags[:, 0].take(branch),
                      flag_b=None if flags is None else flags[:, 1].take(branch))


class QberReport(Record):
    """Per-basis sifted counts and error rates plus the abort verdict."""

    sifted: dict[str, int]
    errors: dict[str, int]
    rates: dict[str, float]
    total_rounds: int
    sift_fraction: float
    abort_threshold: float
    verdict: str
    flag_mismatches: int | None = None

    @property
    def consistent(self) -> bool:
        return self.verdict == "protocol-consistent"

    @property
    def flag_agreements(self) -> int | None:
        if self.flag_mismatches is None:
            return None
        return self.total_rounds - self.flag_mismatches


def _rates_and_verdict(sifted: dict[str, int], errors: dict[str, int], total_rounds: int,
                       abort_threshold: float) -> tuple[dict[str, float], str]:
    """Per-basis error rates and the abort verdict on them."""
    rates = {b: (errors[b] / sifted[b]) if sifted[b] else 0.0 for b in BASES}
    if total_rounds == 0:
        verdict = "insufficient data"
    elif all(rates[b] <= abort_threshold for b in BASES):
        verdict = "protocol-consistent"
    else:
        verdict = "not-protocol-consistent"
    return rates, verdict


def sift(t: Transcript, abort_threshold: float = 0.0) -> QberReport:
    """Keep same-basis rounds and compute per-basis error rates."""
    same = t.basis_a == t.basis_b
    sifted_counts = np.bincount(t.basis_a[same], minlength=3)
    error_counts = np.bincount(t.basis_a[same & (t.outcome_a != t.outcome_b)], minlength=3)
    sifted = {b: int(c) for b, c in zip(BASES, sifted_counts)}
    errors = {b: int(c) for b, c in zip(BASES, error_counts)}
    total = t.n
    kept = sum(sifted.values())
    rates, verdict = _rates_and_verdict(sifted, errors, total, abort_threshold)
    mismatches = None if t.flag_a is None else int(np.count_nonzero(t.flag_a != t.flag_b))
    return QberReport(sifted=sifted, errors=errors, rates=rates,
                      total_rounds=total, sift_fraction=kept / total if total else 0.0,
                      abort_threshold=abort_threshold, verdict=verdict,
                      flag_mismatches=mismatches)


def eve_flip_correction(report: QberReport, known_flags: tuple[int, int]) -> QberReport:
    """Undo Eve's Y-outcome flips in her reckoning of the error counts.

    A conjugated party's Y outcome is flipped; when exactly one side is
    flagged every sifted Y round toggles between error and agreement, and when
    both or neither are flagged nothing changes.
    """
    fa, fb = known_flags
    if fa == fb:
        return report
    errors = dict(report.errors)
    errors["Y"] = report.sifted["Y"] - report.errors["Y"]
    rates, verdict = _rates_and_verdict(report.sifted, errors, report.total_rounds,
                                        report.abort_threshold)
    return replace(report, errors=errors, rates=rates, verdict=verdict)


class PremeasureComparison(Record):
    zpremeasure: QberReport
    honest: QberReport
    rate_differences: dict[str, float]
    sigma_bounds: dict[str, float]
    within_tolerance: bool
    flag_mismatches: int


def zpremeasure_analysis(p: SimParams, n: int, seed: int,
                         nsigma: float = 5.0) -> PremeasureComparison:
    """Run ZPremeasure and Honest side by side on derived seeds and compare.

    Because the family source only populates the logical flag states, the
    premeasured flags always agree and the two error-rate profiles must
    coincide within binomial tolerance.
    """
    seed_z = np.random.SeedSequence([int(seed), 0]).generate_state(1)[0]
    seed_h = np.random.SeedSequence([int(seed), 1]).generate_state(1)[0]
    rz = sift(run_rounds(ZPremeasure(p), n, int(seed_z)))
    rh = sift(run_rounds(Honest(p), n, int(seed_h)))
    diffs, bounds = {}, {}
    ok = True
    for b in BASES:
        diffs[b] = abs(rz.rates[b] - rh.rates[b])
        var = 0.0
        for rep in (rz, rh):
            if rep.sifted[b]:
                r = rep.rates[b]
                var += r * (1 - r) / rep.sifted[b]
        bounds[b] = nsigma * np.sqrt(var)
        if diffs[b] > bounds[b]:
            ok = False
    return PremeasureComparison(zpremeasure=rz, honest=rh, rate_differences=diffs,
                                sigma_bounds=bounds, within_tolerance=ok,
                                flag_mismatches=rz.flag_mismatches or 0)
