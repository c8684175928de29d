"""Monte-Carlo simulator for the entanglement-based 6-state protocol on family sources.

Both parties hold one data qubit of an EPR pair plus their local simulation
flag qubit.  Each round they pick a uniformly random basis among X, Y, Z and
measure the flag-conditioned observable.  These are the X, Y and Z devices of
the extended self-test (:func:`conjsim.selftest.family_experiment`), Bob's Y
included as -Y, which makes every same-basis pair perfectly correlated for
every feasible family member, so the honest QBER is exactly 0.  Each basis
pair's joint-outcome table is read off that experiment's correlation table
with the source state put in (:meth:`CorrelationTable.outcome_probs`).

A transcript is its cell counts, not a list of rounds: ``counts[f, a, b, k]``
of shape :data:`CELLS` is how many rounds had premeasured flags (f, f), bases
``BASES[a]`` and ``BASES[b]``, and joint outcome k, whose bits are
(k >> 1, k & 1) with +1 -> 0, -1 -> 1.  The flag axis is used only when Eve
premeasures the flags; otherwise every round counts at f = 0.

All counts come from one ``default_rng(seed).multinomial(n, p)`` over the 72
cells, with p = ``_cell_law(strategy)`` = flag-branch weight x 1/9 x the
pair's outcome distribution, the one law that the sampler and the exact
premeasurement check read, so a transcript is a pure function of (strategy,
n, seed) and costs the same at any n.  A cell of p <= CELL_TOL is empty:
rounding leaves about 1e-16 in cells that are 0, and each nonzero cell draws
uniforms.  Rounds exist only when a transcript is written
(:meth:`Transcript.cells`): each cell index repeated by its count, shuffled
once by ``default_rng([seed, 1])``.  An i.i.d. sequence is uniform over the
orderings of its counts, so the written rounds keep the per-round law
exactly, and the report does not depend on whether they are written.
"""

from __future__ import annotations

import numpy as np

from .family import SimParams, multiparty_sim_state
from .linalg import ATOL, as_int
from .selftest import correlations, family_experiment, with_state
from .states import DensityMatrix, Record, StateVector, epr_pair, replace

BASES = ("X", "Y", "Z")
SOURCE_DIMS = (2, 2, 2, 2)            # flag_A, data_A, flag_B, data_B
FLAG_A, DATA_A, FLAG_B, DATA_B = range(4)
BRANCH_TOL = 1e-9                     # a flag branch of at most this weight is empty
CELL_TOL = 1e-14                      # a cell of at most this probability is empty
CELLS = (2, 3, 3, 4)                  # flag, basis_a, basis_b, joint outcome
# (flag, basis_a, basis_b, outcome_a, outcome_b) of each cell, in the order of counts.ravel()
CELL_LABELS = tuple((f, BASES[a], BASES[b], k >> 1, k & 1) for f, a, b, k in np.ndindex(CELLS))


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
        for field in ("flag_a", "flag_b"):
            flag = as_int(getattr(self, field), field)
            if flag not in (0, 1):
                raise ValueError("flags must be bits")
            object.__setattr__(self, field, flag)

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
        return multiparty_sim_state(epr_pair(), strategy.params)
    if isinstance(strategy, Conjugate):
        return multiparty_sim_state(epr_pair(), SimParams(0.0, 0.0))
    if isinstance(strategy, MismatchedFlags):
        e_fa, e_fb = np.eye(2, dtype=complex)[[strategy.flag_a, strategy.flag_b]]
        # rows (flag_A, data_A), columns (flag_B, data_B)
        psi = np.kron(np.outer(e_fa, e_fb), epr_pair().amplitudes.reshape(2, 2))
        return StateVector(SOURCE_DIMS, psi).density()
    if isinstance(strategy, CustomState):
        return strategy.state
    raise TypeError(f"unknown strategy {strategy!r}")


def expected_consistent(strategy: EveStrategy) -> bool:
    """Documented expectation for the abort verdict: a custom source is expected to pass."""
    if isinstance(strategy, MismatchedFlags):
        return strategy.flag_a == strategy.flag_b
    return True


def _outcome_probs(rho: DensityMatrix) -> np.ndarray:
    """Joint-outcome distributions of the nine basis pairs, indexed [basis_a, basis_b, k].

    Outcome index k encodes (bit_a, bit_b) = (k >> 1, k & 1) with the
    +1 -> 0, -1 -> 1 convention.
    """
    table = correlations(with_state(family_experiment(SimParams(1.0), "extended"), rho))
    return np.array([[table.outcome_probs(ba, bb) for bb in BASES] for ba in BASES])


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
    """n >= 1 rounds of ``strategy`` as cell counts: an integer array of shape :data:`CELLS`.

    The rounds carry the flags only when the strategy premeasures them (``premeasured``);
    otherwise every round counts at flag 0.  The counts are frozen.
    """

    counts: np.ndarray
    seed: int
    strategy: EveStrategy

    def __post_init__(self):
        counts = np.array(self.counts)
        if counts.shape != CELLS or not np.issubdtype(counts.dtype, np.integer):
            raise ValueError(f"counts must be integers of shape {CELLS}")
        if (counts < 0).any() or not counts.any():
            raise ValueError("counts must be non-negative with at least one round")
        if counts[1].any() and not self.premeasured:
            raise ValueError("flag-1 counts need a strategy that premeasures the flags")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @property
    def premeasured(self) -> bool:
        return isinstance(self.strategy, ZPremeasure)

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    def cells(self) -> np.ndarray:
        """Each round's index into ``counts.ravel()``, in round order.

        The indices repeated by their counts, shuffled once by ``default_rng([seed, 1])``.
        """
        cells = np.repeat(np.arange(self.counts.size, dtype=np.int8), self.counts.ravel())
        np.random.default_rng([self.seed, 1]).shuffle(cells)
        return cells


def _cell_law(strategy: EveStrategy) -> np.ndarray:
    """One round's normalized probability of each cell of :data:`CELLS`."""
    rho = source_state(strategy)
    p = np.zeros(CELLS)
    if isinstance(strategy, ZPremeasure):
        for weight, (flag, _), post in _flag_branches(rho):
            p[flag] = weight * _outcome_probs(post)
    else:
        p[0] = _outcome_probs(rho)
    p[p <= CELL_TOL] = 0.0
    return p / p.sum()


def run_rounds(strategy: EveStrategy, n: int, seed: int) -> Transcript:
    """Simulate n protocol rounds; deterministic for a given (strategy, n, seed)."""
    if not 1 <= n < 2 ** 63:                        # numpy's multinomial counts are int64
        raise ValueError(f"need at least one round and fewer than 2**63, got {n}")
    counts = np.random.default_rng(int(seed)).multinomial(n, _cell_law(strategy).ravel())
    return Transcript(counts.reshape(CELLS), int(seed), strategy)


class QberReport(Record):
    """Per-basis sifted and error counts; the rates and the abort verdict are read off them.

    The verdict is ``insufficient data`` when a basis has no sifted round, else whether
    every per-basis rate is at most ``abort_threshold``.  ``flag_mismatches`` (premeasured
    transcripts only) is 0 by construction, as :data:`CELLS` has one flag axis; the guard
    is :func:`_flag_branches` refusing a cross-flag population.
    """

    sifted: dict[str, int]
    errors: dict[str, int]
    total_rounds: int
    abort_threshold: float
    premeasured: bool

    @property
    def rates(self) -> dict[str, float]:
        return {b: (self.errors[b] / self.sifted[b]) if self.sifted[b] else 0.0 for b in BASES}

    @property
    def sift_fraction(self) -> float:
        return sum(self.sifted.values()) / self.total_rounds

    @property
    def verdict(self) -> str:
        if not all(self.sifted.values()):
            return "insufficient data"
        if all(rate <= self.abort_threshold for rate in self.rates.values()):
            return "protocol-consistent"
        return "not-protocol-consistent"

    @property
    def consistent(self) -> bool | None:
        """Whether the verdict passes; None on ``insufficient data``."""
        return self.verdict == "protocol-consistent" if all(self.sifted.values()) else None

    @property
    def flag_mismatches(self) -> int | None:
        return 0 if self.premeasured else None

    @property
    def flag_agreements(self) -> int | None:
        return self.total_rounds if self.premeasured else None


def _same_basis(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per basis, the total of the same-basis cells of ``cells`` and of those whose bits differ."""
    same = np.einsum("fbbk->bk", cells)         # [basis, k] of the rounds with one basis
    return same.sum(axis=1), same[:, 1] + same[:, 2]


def sift(t: Transcript, abort_threshold: float = 0.0) -> QberReport:
    """Keep same-basis rounds and count them and their errors per basis."""
    sifted, errors = ({b: int(c) for b, c in zip(BASES, col)} for col in _same_basis(t.counts))
    return QberReport(sifted, errors, t.n, abort_threshold, t.premeasured)


def eve_flip_correction(report: QberReport, known_flags: tuple[int, int]) -> QberReport:
    """Undo Eve's Y-outcome flips in her reckoning of the error counts.

    A conjugated party's Y outcome is flipped; when exactly one side is
    flagged every sifted Y round toggles between error and agreement, and when
    both or neither are flagged nothing changes.
    """
    fa, fb = known_flags
    if fa == fb:
        return report
    return replace(report, errors={**report.errors, "Y": report.sifted["Y"] - report.errors["Y"]})


class PremeasureComparison(Record):
    rate_differences: dict[str, float]       # |QBER difference| of each basis
    cell_difference: float                   # largest |difference| over the 36 cells

    @property
    def within_tolerance(self) -> bool:
        """Every difference is at most ``linalg.ATOL``; a NaN fails."""
        return all(d <= ATOL for d in (self.cell_difference, *self.rate_differences.values()))


def zpremeasure_analysis(p: SimParams) -> PremeasureComparison:
    """Compare the ZPremeasure(p) cell law, flags summed out, with the Honest(p) law exactly.

    The family source populates only the logical flag states, so the two must
    agree; ``within_tolerance`` judges each difference against ``linalg.ATOL``.
    """
    premeasured = _cell_law(ZPremeasure(p)).sum(axis=0, keepdims=True)
    honest = _cell_law(Honest(p))[:1]
    (kept_z, wrong_z), (kept_h, wrong_h) = _same_basis(premeasured), _same_basis(honest)
    diffs = {b: float(d) for b, d in zip(BASES, np.abs(wrong_z / kept_z - wrong_h / kept_h))}
    cell = float(np.abs(premeasured - honest).max())
    return PremeasureComparison(rate_differences=diffs, cell_difference=cell)
