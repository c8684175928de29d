"""EPR self-tests: statistics, anti-commutation, extraction, and equivalence verdicts.

Two test kinds are supported.  ``mayersyao`` certifies an EPR pair with the
settings X, Z and D = (X+Z)/sqrt(2) on both sides.  ``extended`` runs three
such tests together (X/Z/D, X/Y/E, Y/Z/F) with Bob's Y carrying a -1 phase so
that every same-setting pair is perfectly correlated; passing it certifies the
experiment up to a member of the conjugation simulation family.

The extraction per party is the swap circuit H(anc), controlled-Z_party,
H(anc), controlled-X_party on an ancilla in |0>, the party's physical
observables as the controlled blocks.  On that ancilla it is the isometry
V v = (I+Z)v/2 (x) |0> + X(I-Z)v/2 (x) |1>.  All support-restricted
quantities follow the convention that claims hold only on the support of
the state on the acting party's registers.

The self-test addresses parties, not registers.  A pure state is its
amplitude matrix Psi, of shape (d_A, d_B) with d_p the product of party p's
register dims, and an operator M acts as ``M Psi`` for party A and as
``Psi M^T`` for party B (:meth:`Experiment.act`).  A joint correlation is
``vdot(A Psi, Psi B^T)``.  Extraction returns ``V_A Psi V_B^T`` of shape
(2 d_A, 2 d_B), each party laid out as (d_p, 2).  No operator on the full
space is ever built.

The stages are public functions that :func:`run_selftest` calls in order:
the (sampled) correlations against the reference, state equalities, D-collapse,
anti-commutators, extraction, its fidelities, the Y normal form and the family
parameters.  Each stage function returns the map its rule judges, residuals
{entry: residual} named as the report names them, 0 being ideal (a fidelity f
enters as 1 - f), and ``linalg.worst_failing`` judges them all, naming a
failing stage by its worst entry.  No stage judges itself: the statistics
stage returns its deviations with their per-entry bounds, and the Y normal
form and the family stage return their estimate first and its checks second.
The report keeps each judged map under its stage's name, so it writes what the
rule read, and each map only there.  The extraction gate lives only in
run_selftest, on the residuals its earlier stages recorded.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from . import MAX_COUNT
from .linalg import (
    ATOL,
    PAULIS,
    as_dims,
    as_matrix,
    is_binary_observable,
    worst_failing,
)
from .states import (
    DensityMatrix,
    Record,
    StateVector,
    epr_pair,
    partial_trace,
    purify,
    replace,
)

if TYPE_CHECKING:
    from .family import SimParams

PARTIES = ("A", "B")

SUBTESTS = {
    "mayersyao": (("X", "Z", "D"),),
    "extended": (("X", "Z", "D"), ("X", "Y", "E"), ("Y", "Z", "F")),
}

# labels whose extracted action is compared against a fixed reference matrix;
# Y and the Y-mixing settings are certified through the normal-form check
# instead, because their extracted sign depends on the family member.
ACTION_LABELS = ("X", "Z", "D")

NSIGMA = 5.0        # a sampled estimate's tolerance, in null standard errors


def setting_labels(kind: str) -> tuple[str, ...]:
    if kind not in SUBTESTS:
        raise ValueError(f"unknown test kind {kind!r}")
    seen: list[str] = []
    for sub in SUBTESTS[kind]:
        for lab in sub:
            if lab not in seen:
                seen.append(lab)
    return tuple(seen)


def pair_schedule(kind: str, include_cross_pairs: bool = False):
    """Ordered setting pairs covered by the test; cross-sub-test pairs optional."""
    labels = setting_labels(kind)
    if include_cross_pairs:
        return tuple((la, lb) for la in labels for lb in labels)
    out: list[tuple[str, str]] = []
    for sub in SUBTESTS[kind]:
        for la in sub:
            for lb in sub:
                if (la, lb) not in out:
                    out.append((la, lb))
    return tuple(out)


def reference_observables(kind: str) -> dict[str, dict[str, np.ndarray]]:
    x, y, z = PAULIS["X"], PAULIS["Y"], PAULIS["Z"]
    alice = {
        "X": x, "Y": y, "Z": z,
        "D": (x + z) / np.sqrt(2),
        "E": (x + y) / np.sqrt(2),
        "F": (y + z) / np.sqrt(2),
    }
    bob = {
        "X": x, "Y": -y, "Z": z,
        "D": (x + z) / np.sqrt(2),
        "E": (x - y) / np.sqrt(2),
        "F": (z - y) / np.sqrt(2),
    }
    labels = setting_labels(kind)
    return {"A": {l: alice[l] for l in labels}, "B": {l: bob[l] for l in labels}}


class Experiment(Record):
    """A state plus per-party binary observables, with register bookkeeping.

    Party A owns the leading subsystems and party B the trailing ones.
    ``flag_registers`` records the global index of each party's simulation
    flag qubit for experiments constructed from the family (None otherwise);
    each index must name a qubit register in its own party's block.
    """

    kind: str
    state: StateVector | DensityMatrix
    observables: dict[str, dict[str, np.ndarray]]
    party_dims: dict[str, tuple[int, ...]]
    flag_registers: dict[str, int] | None = None

    def __post_init__(self):
        if self.kind not in SUBTESTS:
            raise ValueError(f"unknown test kind {self.kind!r}")
        pd = {p: as_dims(self.party_dims[p], f"party {p} dims") for p in PARTIES}
        object.__setattr__(self, "party_dims", pd)
        if pd["A"] + pd["B"] != tuple(self.state.dims):
            raise ValueError("party dims must partition the state dims, A block first")
        labels = setting_labels(self.kind)
        for p in PARTIES:
            got = tuple(self.observables[p])
            if set(got) != set(labels):
                raise ValueError(f"party {p} must define observables {labels}, got {got}")
            d = math.prod(pd[p])
            for lab, m in self.observables[p].items():
                m = as_matrix(m)
                if m.shape != (d, d):
                    raise ValueError(f"observable {lab}_{p} must act on party {p}'s registers")
                if not is_binary_observable(m):
                    raise ValueError(f"observable {lab}_{p} is not a binary observable")
        flags, n_a = self.flag_registers, len(pd["A"])
        if flags is not None and not (set(flags) == set(PARTIES) and all(
                0 <= flags[p] - first < len(pd[p]) and pd[p][flags[p] - first] == 2
                for p, first in (("A", 0), ("B", n_a)))):
            raise ValueError(f"flag_registers {flags} must name a qubit register of each party: "
                             f"A's among 0..{n_a - 1}, B's among {n_a}..{len(self.state.dims) - 1}")

    def act(self, party: str, m: np.ndarray, psi: np.ndarray) -> np.ndarray:
        """``M Psi`` for party A, ``Psi M^T`` (as ``(M Psi^T)^T``) for party B, C-ordered.

        ``psi`` is an amplitude matrix with A's index as rows and B's as
        columns: Psi (d_A, d_B) or the extracted Psi' (2 d_A, 2 d_B).  ``m`` may
        be a party's extraction isometry, taking Psi to its (d_p, 2) layout.
        """
        if party == "A":
            return m @ psi
        return np.ascontiguousarray((m @ psi.T).T)

    def observable(self, party: str, label: str) -> np.ndarray:
        return self.observables[party][label]


def reference_experiment(kind: str) -> Experiment:
    """The blueprint experiment: an EPR pair with the kind's reference settings."""
    return Experiment(
        kind=kind,
        state=epr_pair(),
        observables=reference_observables(kind),
        party_dims={"A": (2,), "B": (2,)},
    )


def family_experiment(p: SimParams, kind: str = "extended") -> Experiment:
    """The simulation-family member for the reference experiment of the given kind."""
    from .family import c_of, multiparty_sim_state

    ref = reference_observables(kind)
    return Experiment(
        kind=kind,
        state=multiparty_sim_state(epr_pair(), p),
        observables={pt: {l: c_of(m) for l, m in ref[pt].items()} for pt in PARTIES},
        party_dims={"A": (2, 2), "B": (2, 2)},
        flag_registers={"A": 0, "B": 2},
    )


def with_observable(exp: Experiment, party: str, label: str, m: np.ndarray) -> Experiment:
    """Copy of the experiment with one observable replaced (for negative controls)."""
    obs = {p: dict(exp.observables[p]) for p in PARTIES}
    obs[party][label] = as_matrix(m)
    return replace(exp, observables=obs)


def with_state(exp: Experiment, state: StateVector | DensityMatrix) -> Experiment:
    if tuple(state.dims) != tuple(exp.state.dims):
        raise ValueError("replacement state must keep the register layout")
    return replace(exp, state=state)


def _with_registers(exp: Experiment, party: str, dims: tuple[int, ...],
                    psi: np.ndarray) -> Experiment:
    """The experiment on amplitude matrix ``psi``, with registers ``dims`` appended to ``party``.

    The party's observables act as the identity on the new registers.
    """
    eye = np.eye(math.prod(dims), dtype=complex)
    obs = {p: dict(exp.observables[p]) for p in PARTIES}
    obs[party] = {lab: np.kron(m, eye) for lab, m in obs[party].items()}
    pd = dict(exp.party_dims)
    pd[party] = pd[party] + tuple(dims)
    flags = None
    if exp.flag_registers is not None:
        flags = dict(exp.flag_registers)
        if party == "A":
            flags["B"] += len(dims)
    return Experiment(kind=exp.kind, state=StateVector(pd["A"] + pd["B"], psi),
                      observables=obs, party_dims=pd, flag_registers=flags)


def attach_junk(exp: Experiment, party: str, junk: StateVector) -> Experiment:
    """Append ancilla registers in a fixed state to one party; observables ignore them."""
    if not isinstance(exp.state, StateVector):
        raise ValueError("attach_junk expects a pure experiment")
    # the junk vector is a column for A (new trailing row index), a row for B
    j = junk.amplitudes[:, None] if party == "A" else junk.amplitudes[None, :]
    return _with_registers(exp, party, junk.dims, np.kron(_psi(exp), j))


def purify_experiment(exp: Experiment) -> Experiment:
    """Pure-state version of the experiment; any auxiliary register joins party A."""
    if isinstance(exp.state, StateVector):
        return exp
    pure = purify(exp.state)
    if pure.dims == exp.state.dims:
        return replace(exp, state=pure)
    d_a, r = math.prod(exp.party_dims["A"]), pure.dims[-1]
    # (d_A, d_B, r) -> (d_A, r, d_B): the auxiliary register becomes A's last
    psi = pure.amplitudes.reshape(d_a, -1, r).swapaxes(1, 2).reshape(d_a * r, -1)
    return _with_registers(exp, "A", (r,), psi)


# ---------------------------------------------------------------------------
# correlation tables


class CorrelationTable(Record):
    """Marginals <M (x) I>, <I (x) M> and joints <M_A (x) M_B> over a schedule."""

    kind: str
    joints: dict[tuple[str, str], float]
    marginals: dict[tuple[str, str], float]        # keyed (party, label)
    n_per_pair: int | None = None

    def __post_init__(self):
        for v in list(self.joints.values()) + list(self.marginals.values()):
            if not abs(v) <= 1 + 1e-9:             # NaN is outside too
                raise ValueError(f"correlation value {v} outside [-1, 1]")

    @property
    def sampled(self) -> bool:
        return self.n_per_pair is not None

    def outcome_probs(self, la: str, lb: str) -> np.ndarray:
        """Joint outcome distribution of the pair (la, lb).

        For binary observables p(sa, sb) = (1 + sa<A> + sb<B> + sa sb<AB>)/4,
        returned in the order (+,+), (+,-), (-,+), (-,-).
        """
        ma, mb = self.marginals[("A", la)], self.marginals[("B", lb)]
        joint = self.joints[(la, lb)]
        probs = np.array([(1.0 + sa * ma + sb * mb + sa * sb * joint) / 4.0
                          for sa in (1, -1) for sb in (1, -1)])
        probs = np.clip(probs, 0.0, None)
        if abs(probs.sum() - 1.0) > 1e-9:
            raise ValueError(f"outcome probabilities sum to {probs.sum()}")
        return probs / probs.sum()


def _psi(exp: Experiment) -> np.ndarray:
    """The pure experiment's amplitude matrix Psi, of shape (d_A, d_B)."""
    return exp.state.amplitudes.reshape(math.prod(exp.party_dims["A"]), -1)


def _support(psi: np.ndarray, party: str) -> np.ndarray:
    """Projector onto the support on ``party`` of an amplitude matrix (rows A, columns B).

    It is spanned by the left singular vectors of Psi (A) or Psi^T (B) whose
    singular values exceed 1e-12 times the largest.
    """
    u, s, _ = np.linalg.svd(psi if party == "A" else psi.T, full_matrices=False)
    basis = u[:, s > 1e-12 * s[0]]
    return basis @ basis.conj().T


def _setting_vectors(exp: Experiment) -> dict[str, dict[str, np.ndarray]]:
    """``M_p Psi`` for every setting M of each pure-state party p, one application each."""
    psi = _psi(exp)
    return {p: {lab: exp.act(p, m, psi) for lab, m in exp.observables[p].items()}
            for p in PARTIES}


def correlations(exp: Experiment, include_cross_pairs: bool = False) -> CorrelationTable:
    """Exact correlation table of the experiment over its kind's schedule.

    Observables are Hermitian, so a joint is ``vdot(A Psi, Psi B^T)`` and a
    marginal ``vdot(Psi, M_p Psi)``; imaginary residues are refused.
    """
    exp = purify_experiment(exp)
    vecs = _setting_vectors(exp)

    def value(bra: np.ndarray, ket: np.ndarray) -> float:
        val = np.vdot(bra, ket)
        if abs(val.imag) > ATOL:
            raise ValueError(
                f"expectation has imaginary residue {val.imag}; operator not Hermitian?")
        return float(val.real)

    joints = {(la, lb): value(vecs["A"][la], vecs["B"][lb])
              for la, lb in pair_schedule(exp.kind, include_cross_pairs)}
    marginals = {(p, lab): value(_psi(exp), vecs[p][lab])
                 for p in PARTIES for lab in setting_labels(exp.kind)}
    return CorrelationTable(kind=exp.kind, joints=joints, marginals=marginals)


def sampled_correlations(exact: CorrelationTable, n_per_pair: int, seed: int) -> CorrelationTable:
    """Monte-Carlo table drawn from an exact table's outcome distributions.

    Entry i (joints, then marginals, in table order) is the mean (2k - n)/n of
    n = n_per_pair +/-1 products, with k ~ Binomial(n, p(+1)) drawn from
    ``SeedSequence([seed, i])``: p(++) + p(--) for a joint, (1 + m)/2 for a marginal m.
    """
    n = n_per_pair
    if not 1 <= n <= MAX_COUNT:
        raise ValueError(f"n_per_pair must be at least 1 and below 2**63, got {n}")
    plus = ([exact.outcome_probs(*key)[[0, 3]].sum() for key in exact.joints]
            + [(1.0 + m) / 2.0 for m in exact.marginals.values()])
    means = [(2 * int(np.random.default_rng([int(seed), i]).binomial(n, p)) - n) / n
             for i, p in enumerate(np.clip(plus, 0.0, 1.0))]
    return CorrelationTable(kind=exact.kind, joints=dict(zip(exact.joints, means)),
                            marginals=dict(zip(exact.marginals, means[len(exact.joints):])),
                            n_per_pair=n)


def check_against_reference(table: CorrelationTable, ref: CorrelationTable, tol: float = 1e-10
                            ) -> tuple[dict[str, float], dict[str, float]]:
    """The deviations {entry: |table - ref|} over the reference's entries, and their bounds.

    An exact table's bound is ``tol``.  A sampled entry's bound is NSIGMA null
    standard errors sqrt((1 - r^2) / n_per_pair) of its reference value r,
    with ``tol`` as a floor.  The caller judges the two maps with ``linalg.failing``.
    """
    deviations: dict[str, float] = {}
    bounds: dict[str, float] = {}
    for key, ref_val in list(ref.joints.items()) + list(ref.marginals.items()):
        is_joint = key in ref.joints
        source = table.joints if is_joint else table.marginals
        if key not in source:
            raise KeyError(f"table is missing schedule entry {key}")
        name = f"joint({key[0]},{key[1]})" if is_joint else f"marginal({key[0]},{key[1]})"
        deviations[name], bounds[name] = abs(source[key] - ref_val), tol
        if table.sampled:
            null_var = max(1.0 - ref_val * ref_val, 0.0) / table.n_per_pair
            bounds[name] = max(NSIGMA * float(np.sqrt(null_var)), tol)
    return deviations, bounds


# ---------------------------------------------------------------------------
# state equalities, collapse, anti-commutation


def check_state_equalities(exp: Experiment) -> dict[str, float]:
    """Residual norms of the state identities implied by perfect statistics, one per identity.

    ``transfer=L`` is ||L_A psi - L_B psi|| for each setting L; per sub-test
    (M, N, D), ``MND:transfer=MN`` is ||(MN)_A psi - (NM)_B psi|| (likewise
    ``NM``) and ``MND:orthogonality`` the largest overlap among {psi, M_A psi,
    N_A psi, M_A N_A psi}.  The caller applies its tolerance.  The stabilizer
    form ||psi - L_A L_B psi|| = ||L_A (L_A psi - L_B psi)|| and the split form
    ||(MN)_A psi - M_A N_B psi|| = ||M_A (N_A psi - N_B psi)|| are left out:
    for binary observables (unitary, L^2 = I) they equal transfer=L and
    transfer=N, up to the unitarity defect that Experiment admits (ATOL).
    """
    exp = purify_experiment(exp)
    psi = _psi(exp)
    ops = _setting_vectors(exp)
    out = {f"transfer={lab}": float(np.linalg.norm(ops["A"][lab] - ops["B"][lab]))
           for lab in setting_labels(exp.kind)}
    for sub in SUBTESTS[exp.kind]:
        m1, m2, _ = sub
        tag = "".join(sub)
        orders = ((m1, m2), (m2, m1))
        # (M N)_p|psi> for both orders of the sub-test's pair (M, N)
        prod = {p: {(a, b): exp.act(p, exp.observable(p, a), ops[p][b]) for a, b in orders}
                for p in PARTIES}
        for a, b in orders:
            out[f"{tag}:transfer={a}{b}"] = float(
                np.linalg.norm(prod["A"][(a, b)] - prod["B"][(b, a)]))
        vecs = [psi, ops["A"][m1], ops["A"][m2], prod["A"][(m1, m2)]]
        out[f"{tag}:orthogonality"] = float(max(
            abs(np.vdot(vecs[i], vecs[j])) for i in range(4) for j in range(i + 1, 4)))
    return out


def check_d_collapse(exp: Experiment) -> dict[str, float]:
    """Residuals of D_p|psi> = (M_p + N_p)/sqrt(2) |psi> for every sub-test and party.

    Acting on the state makes the check support-restricted automatically, so
    observables doctored outside the support still pass.
    """
    exp = purify_experiment(exp)
    psi = _psi(exp)
    out: dict[str, float] = {}
    for m1, m2, dl in SUBTESTS[exp.kind]:
        for p in PARTIES:
            diff = exp.observable(p, dl) - (exp.observable(p, m1)
                                            + exp.observable(p, m2)) / np.sqrt(2)
            out[f"{p}:{dl}"] = float(np.linalg.norm(exp.act(p, diff, psi)))
    return out


def anticommutator_residual(exp: Experiment) -> dict[str, float]:
    """Support residual of {M, N} for each party and sub-test (M, N, D), keyed "A:MN".

    It is the operator norm of P {M, N} P with P the projector onto the state's
    support on that party's registers, so an action outside the support is not
    seen.
    """
    exp = purify_experiment(exp)
    psi = _psi(exp)
    out: dict[str, float] = {}
    for party in PARTIES:
        proj = _support(psi, party)                 # one SVD of Psi per party
        for l1, l2, _ in SUBTESTS[exp.kind]:
            m, n = exp.observable(party, l1), exp.observable(party, l2)
            anti = m @ n + n @ m
            out[f"{party}:{l1}{l2}"] = float(np.linalg.norm(proj @ anti @ proj, ord=2))
    return out


# ---------------------------------------------------------------------------
# extraction isometry


class Extraction(Record):
    """The extraction isometries and the states they produce.

    ``state`` is Phi(|psi'>) over the party layout (d_A, 2, d_B, 2): each
    party's registers as one index followed by its ancilla qubit, so its
    amplitude matrix Psi' has shape (2 d_A, 2 d_B).  ``actions[(party, label)]``
    is Phi(M'|psi'>) over the same layout, for ACTION_LABELS (X, Z, D) only,
    and ``isometries[party]`` is the party's V, (2 d_p, d_p) with rows on its
    (d_p, 2) layout.  The stages after extraction each read it and return
    their residual map.
    """

    exp: Experiment                      # purified input experiment
    state: StateVector
    actions: dict[tuple[str, str], StateVector]
    isometries: dict[str, np.ndarray]


def _swap_isometry(exp: Experiment, party: str) -> np.ndarray:
    """The swap circuit on the party's ancilla in |0>: v -> (I+Z)v/2 (x) |0> + X(I-Z)v/2 (x) |1>.

    Its rows are on the party-major (d_p, 2) layout, the ancilla last.
    """
    x, z = exp.observable(party, "X"), exp.observable(party, "Z")
    eye = np.eye(len(z))
    return np.stack([(eye + z) / 2, x @ (eye - z) / 2], axis=1).reshape(2 * len(z), -1)


def extraction_isometry(exp: Experiment) -> Extraction:
    """``V_A Psi V_B^T`` and each action ``V_A (M Psi) V_B^T`` of the purified experiment.

    It certifies nothing by itself: :func:`run_selftest` gates it.
    """
    exp = purify_experiment(exp)
    psi = _psi(exp)
    d_a, d_b = psi.shape
    isometries = {p: _swap_isometry(exp, p) for p in PARTIES}

    def extract(phi: np.ndarray) -> StateVector:
        out = exp.act("B", isometries["B"], exp.act("A", isometries["A"], phi))
        return StateVector((d_a, 2, d_b, 2), out)

    actions = {(p, lab): extract(exp.act(p, exp.observable(p, lab), psi))
               for p in PARTIES for lab in ACTION_LABELS}
    return Extraction(exp=exp, state=extract(psi), actions=actions, isometries=isometries)


def extraction_state_fidelity(ext: Extraction) -> dict[str, float]:
    """{"ancillas": 1 - f}, f the fidelity of the reduced state on the two ancillas with the
    EPR pair."""
    rho = partial_trace(ext.state, [1, 3])         # the ancillas of the layout (d_A, 2, d_B, 2)
    phi = epr_pair().amplitudes
    return {"ancillas": 1 - float(np.real(phi.conj() @ rho.matrix @ phi))}


def extraction_action_fidelities(ext: Extraction) -> dict[str, float]:
    """{"M_P": 1 - f} for the sign-free settings M of each party P, with the fidelity
    f = |<Phi(M'psi')| I (x) M_ref |Phi(psi')>|."""
    ref = reference_observables(ext.exp.kind)
    psi = ext.state.amplitudes.reshape(2 * ext.state.dims[0], -1)
    out: dict[str, float] = {}
    for party in PARTIES:
        eye = np.eye(ext.isometries[party].shape[1])
        for lab in ACTION_LABELS:
            m_ref_state = ext.exp.act(party, np.kron(eye, ref[party][lab]), psi)
            val = np.vdot(ext.actions[(party, lab)].amplitudes, m_ref_state)
            out[f"{lab}_{party}"] = 1 - float(abs(val))
    return out


# ---------------------------------------------------------------------------
# Y normal form and family parameters


def _party_y_blocks(ext: Extraction, party: str) -> tuple[dict[str, float], float]:
    """The party's ``y_coefficients`` entries and the weight p0 of its sign's +1."""
    exp = ext.exp
    v = ext.isometries[party]
    layout = (v.shape[1], 2) * 2                   # (registers, ancilla) of rows, then of columns
    # U (Y (x) I) U^dag of the swap circuit U is V Y V^dag on range(V), which holds the support
    pushed = v @ exp.observable(party, "Y") @ v.conj().T
    psi = ext.state.amplitudes.reshape(2 * ext.state.dims[0], -1)
    proj = _support(psi, party)
    restricted = (proj @ pushed @ proj).reshape(layout)
    # restricted = sum_P M_P (x) P on the ancilla, so M_P = tr_anc((I (x) P) restricted) / 2
    blocks = {name: 0.5 * np.einsum("ac,rcsa->rs", p, restricted) for name, p in PAULIS.items()}
    rank = int(round(np.trace(proj).real))
    scale = np.sqrt(rank / 2.0)
    q = np.einsum("rasa->rs", proj.reshape(layout)) / 2.0       # tr_anc(proj) / 2
    factorization = float(np.abs(proj - np.kron(q, np.eye(2))).max())
    sign = blocks["Y"] if party == "A" else -blocks["Y"]
    deviation = max(
        float(np.linalg.norm(sign - sign.conj().T)) / scale,
        float(np.linalg.norm(sign @ sign - q)) / scale,
    )
    entries = {f"{party}:{k}": float(np.linalg.norm(blocks[k])) / scale for k in ("I", "X", "Z")}
    entries[f"{party}:normal_form"] = deviation
    entries[f"{party}:factorization"] = factorization
    plus = np.kron((q + sign) / 2.0, np.eye(2))
    return entries, float(np.real(np.vdot(psi, exp.act(party, plus, psi))))


def y_coefficient_check(ext: Extraction) -> tuple[dict[str, float], dict[str, float]]:
    """Each party's sign population p0, and the residuals of Y's normal form after extraction.

    Y is pushed through each party's extraction isometry, as V Y V^dag, and
    restricted to the support of the extracted state on the party's registers.
    Its I, X, Z blocks at the extracted qubit must vanish there (``P:I``, ``P:X``, ``P:Z``:
    Frobenius norms over the square root of half the support rank, so that a
    full-weight block reads 1), the support must factor as Q (x) I
    (``P:factorization``), and the Y block must be a sign operator on Q
    (``P:normal_form``; Bob's is read against his -Y reference convention).
    Each party's weight p0 of the sign's +1 is a family flag population, and
    the two parties' must agree (``population_mismatch``, |p0(A) - p0(B)|).
    """
    if ext.exp.kind != "extended":
        raise ValueError("self-test stage refused: y_coefficient_check "
                         "(requires an extended experiment)")
    populations: dict[str, float] = {}
    residuals: dict[str, float] = {}
    for party in PARTIES:
        entries, populations[party] = _party_y_blocks(ext, party)
        residuals.update(entries)
    residuals["population_mismatch"] = abs(populations["A"] - populations["B"])
    return populations, residuals


class FamilyParams(Record):
    """Estimated flag populations and cross-branch coherence of a passing experiment.

    The checks of the flag registers are not kept here: :func:`estimate_family_params`
    returns them beside the estimate.  The coherence needs no check: it is at
    most sqrt(p0 p1).
    """

    population_0: float
    population_1: float
    coherence: float | None
    source: str


def estimate_family_params(exp: Experiment, populations: dict[str, float],
                           tol: float = 1e-9) -> tuple[FamilyParams, dict[str, float]]:
    """Populations (|alpha|^2, |beta|^2) and coherence magnitude of the member, and their checks.

    ``populations`` are the parties' extracted sign populations p0 that
    :func:`y_coefficient_check` returns.  Experiments that kept their flag
    registers report the reduced flag state directly, with the residuals
    ``flag_leak`` (the reduced flag state outside {|00>, |11>}) and
    ``P:sign_population`` (|p0 - party P's extracted sign p0|) for each party.
    Otherwise the populations come from Alice's extracted Y sign operator,
    which is basis free and, in a passing y_coefficients stage, within ``tol``
    of Bob's; there is nothing further to check, and the coherence is only
    determined when one branch is empty (its population at most ``tol``).
    """
    if exp.flag_registers is not None:
        reduced = partial_trace(exp.state, [exp.flag_registers["A"],
                                            exp.flag_registers["B"]]).matrix
        leak = max(np.abs(reduced[1, :]).max(), np.abs(reduced[2, :]).max(),
                   np.abs(reduced[:, 1]).max(), np.abs(reduced[:, 2]).max())
        p0 = float(reduced[0, 0].real)
        p1 = float(reduced[3, 3].real)
        residuals = {"flag_leak": float(leak), **{f"{party}:sign_population": abs(p0 - pop)
                                                  for party, pop in populations.items()}}
        return FamilyParams(p0, p1, float(abs(reduced[0, 3])), "flag_registers"), residuals
    p0 = populations["A"]
    p1 = 1.0 - p0
    return FamilyParams(p0, p1, 0.0 if min(p0, p1) <= tol else None, "extracted_sign"), {}


# ---------------------------------------------------------------------------
# full pipeline


class EquivalenceReport(Record):
    """The verdict of :func:`run_selftest`: ``residuals[stage]`` holds each stage that ran, in
    run order, with exactly the entries its rule judged, the family stage's flag checks
    included; ``family_params`` is the estimate alone."""

    kind: str
    tol: float
    stats_tol: float
    failures: tuple[str, ...]
    refused_stage: str | None
    residuals: dict[str, dict[str, float]]
    family_params: FamilyParams | None

    @property
    def passed(self) -> bool:
        return not self.failures


def run_selftest(exp: Experiment, tol: float = 1e-9, stats_tol: float = 1e-10,
                 sampled_n: int | None = None, seed: int | None = None) -> EquivalenceReport:
    """Statistics -> equalities -> anti-commutation -> extraction -> equivalence.

    One call per stage, each judged by one rule.  Never raises on a failing
    check: each failing stage adds one name, ``stage[worst entry]``, and
    extraction is refused (recorded in ``refused_stage``) unless sub-test 1's
    exact statistics and its X/Z support anti-commutators hold.
    """
    failures: list[str] = []
    residuals: dict[str, dict[str, float]] = {}

    def holds(stage: str, entries: dict[str, float], bound=tol) -> bool:
        residuals[stage] = entries
        worst = worst_failing(entries, bound)
        if worst:
            failures.append(f"{stage}[{worst}]")
        return not worst

    if sampled_n is not None and seed is None:
        raise ValueError("sampled mode requires an explicit seed")
    exp_pure = purify_experiment(exp)

    exact = correlations(exp_pure)
    ref = correlations(reference_experiment(exp.kind))
    statistics = check_against_reference(exact, ref, stats_tol)
    exact_deviations = statistics[0]        # the extraction gate reads these also when sampled
    if sampled_n is not None:
        statistics = check_against_reference(
            sampled_correlations(exact, sampled_n, seed), ref, stats_tol)
    holds("statistics", *statistics)
    holds("state_equalities", check_state_equalities(exp_pure))
    holds("d_collapse", check_d_collapse(exp_pure))
    holds("anticommutator", anticommutator_residual(exp_pure))

    # the extraction gate: sub-test 1's exact deviations and X/Z support anti-commutators
    x, z, _ = sub1 = SUBTESTS[exp.kind][0]
    gate = {**{f"joint({la},{lb})": stats_tol for la in sub1 for lb in sub1},
            **{f"marginal({p},{lab})": stats_tol for p in PARTIES for lab in sub1},
            **{f"{p}:{x}{z}": tol for p in PARTIES}}
    judged = {**exact_deviations, **residuals["anticommutator"]}
    refused = not holds("extraction_refused", {name: judged[name] for name in gate}, gate)

    params = None
    if not refused:
        ext = extraction_isometry(exp_pure)
        holds("state_fidelity", extraction_state_fidelity(ext))
        holds("action_fidelity", extraction_action_fidelities(ext))
        if exp.kind == "extended":
            populations, y_residuals = y_coefficient_check(ext)
            holds("y_coefficients", y_residuals)
            params, flag_checks = estimate_family_params(exp_pure, populations, tol=tol)
            holds("family_params", flag_checks)

    return EquivalenceReport(
        kind=exp.kind, tol=tol, stats_tol=stats_tol, failures=tuple(failures),
        refused_stage="extraction" if refused else None,
        residuals=residuals, family_params=params)
