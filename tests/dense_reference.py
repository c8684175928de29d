"""Dense reference routines for the tests: every local operator as an explicit matrix.

The package addresses parties, not registers: a local operator acts on the
amplitude matrix Psi (d_A, d_B) as ``M Psi`` or ``Psi M^T``.  These routines
build the same objects independently, on register index lists:
``party_registers`` lists a party's registers, ``embed_operator`` and
``controlled_gate`` embed a matrix by permuting subsystems, ``party_circuit``
is the extraction circuit made from them, ``flag_branches`` collapses the
source's flags with two 16x16 projectors, and ``support_projector`` reads a
party's support from the Schmidt decomposition across a register cut.
``rotate_experiment`` conjugates a pure experiment by local unitaries;
``dense_rotate``, ``dense_attach_junk``, ``dense_purify`` (its own
eigendecomposition, in ``purify``'s conventions) and
``dense_multiparty_sim_state`` build the states of it and of the experiment
builders with full-space products and subsystem permutations.  ``expectation``
is tr(rho M) of a full-space operator, ``per_round_sampled_correlations`` draws
every round of a sampled table, ``per_pair_complex_to_json`` and
``per_pair_complex_from_json`` write and read a complex array one [re, im] pair
at a time, and ``dense_stabilizer_and_split`` computes the two state identities
that ``check_state_equalities`` leaves out.  ``per_trial_lifting_residuals`` is
the property suite's eight algebraic items one trial at a time, every lift a
``block_lift``.  ``sixstate_devices`` are the 6-state devices, block_lift(P, P*)
on (flag, data) with Bob's Y as -Y, ``dense_outcome_probs`` a source's outcome
tables, and ``dense_cell_law`` the law of one round, by ``flag_branches`` when
the flags are premeasured.

``dense_run_selftest`` is the self-test written out from the dense stages
``dense_correlations`` (cross pairs on request; a mixed state read as rho),
``dense_state_equalities``, ``dense_d_collapse``, ``dense_anticommutators``,
``dense_extract``, ``dense_state_fidelity``, ``dense_action_fidelities``,
``dense_y_coefficient_check`` (Pauli blocks and Q by an explicit trace over
the ancilla's basis vectors) and ``dense_family_params``, with its own
extraction gate.  ``rejudge`` re-derives a report's verdict from its
``residuals`` alone, and judges ``dense_run_selftest``'s; ``unjudged_names``
lists what a report names but does not hold.  No reference calls the code it
checks: from ``conjsim`` this module imports only records, constants, the
reference experiment and observables, the ``random_*`` generators and
``sampled_correlations``, the documented draw (a test in test_package checks).
"""
import itertools
import math
from typing import Sequence

import numpy as np

from conjsim.family import SimParams
from conjsim.linalg import (HADAMARD, PAULIS, random_complex_matrix, random_hermitian, random_psd,
                            random_unitary)
from conjsim.selftest import (ACTION_LABELS, PARTIES, SUBTESTS, CorrelationTable, Experiment,
                              Extraction, FamilyParams, reference_experiment,
                              reference_observables, sampled_correlations)
from conjsim.sixstate import BASES, CELLS, SOURCE_DIMS
from conjsim.states import NORM_TOL, DensityMatrix, StateVector


def as_matrix(m) -> np.ndarray:
    """``m`` as a 2-d complex array."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {arr.ndim}")
    return arr


def _check_order(dims, size, order, what):
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims) or math.prod(dims) != size:
        raise ValueError(f"{what}: dims {dims} do not match size {size}")
    order = list(order)
    if sorted(order) != list(range(len(dims))):
        raise ValueError(f"order {order} is not a permutation of {len(dims)} subsystems")
    return dims, order


def permute_subsystems_vector(vec, dims: Sequence[int], order: Sequence[int]) -> np.ndarray:
    """Reorder subsystems of a state vector; ``order[i]`` is the old index now at slot i."""
    vec = np.asarray(vec, dtype=complex).reshape(-1)
    dims, order = _check_order(dims, vec.size, order, "permute_subsystems_vector")
    return vec.reshape(dims).transpose(order).reshape(-1)


def permute_subsystems_matrix(mat, dims: Sequence[int], order: Sequence[int]) -> np.ndarray:
    """Reorder subsystems of an operator (rows and columns together)."""
    mat = as_matrix(mat)
    if mat.shape[0] != mat.shape[1]:
        raise ValueError("operator must be square")
    dims, order = _check_order(dims, mat.shape[0], order, "permute_subsystems_matrix")
    n = len(dims)
    t = mat.reshape(dims + dims).transpose(order + [n + o for o in order])
    return t.reshape(mat.shape)


def ancillas_last(state: StateVector) -> np.ndarray:
    """An extracted vector on (d_A, anc_A, d_B, anc_B), reordered to (d_A, d_B, anc_A, anc_B)."""
    return permute_subsystems_vector(state.amplitudes, state.dims, [0, 2, 1, 3])


def support_projector(state: StateVector, side, tol: float = 1e-12) -> np.ndarray:
    """Projector onto the span of the state's Schmidt vectors on the ``side`` registers.

    The registers of ``side`` are permuted to the front and the amplitudes cut
    there; singular values at or below ``tol`` times the largest are dropped.
    """
    side = [int(i) for i in side]
    rest = [i for i in range(len(state.dims)) if i not in side]
    d_side = math.prod(state.dims[i] for i in side)
    mat = permute_subsystems_vector(state.amplitudes, state.dims, side + rest).reshape(d_side, -1)
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    basis = u[:, s > tol * s[0]]
    return basis @ basis.conj().T


def dense_multiparty_sim_state(psi: StateVector, p: SimParams) -> DensityMatrix:
    """``multiparty_sim_state`` built on [flags..., data...] and permuted to party-major."""
    n_parties = len(psi.dims)
    d = 2 ** n_parties
    f0, f1, fc = (np.zeros((d, d), dtype=complex) for _ in range(3))
    f0[0, 0] = f1[-1, -1] = fc[0, -1] = 1.0            # |0...0><0...0|, |1...1><1...1|, cross
    v = psi.amplitudes
    ref, cross = np.outer(v, v.conj()), np.outer(v, v)
    mat = (p.a * np.kron(f0, ref) + (1 - p.a) * np.kron(f1, ref.conj())
           + p.c * np.kron(fc, cross) + np.conj(p.c) * np.kron(fc.conj().T, cross.conj()))
    order = [i for party in range(n_parties) for i in (party, n_parties + party)]
    dims = [2] * n_parties + list(psi.dims)
    return DensityMatrix([dims[o] for o in order], permute_subsystems_matrix(mat, dims, order))


def block_lift(upper, lower):
    """The block-diagonal matrix [[upper, 0], [0, lower]]."""
    m = as_matrix(upper)
    zero = np.zeros_like(m)
    return np.block([[m, zero], [zero, lower]])


def per_trial_lifting_residuals(trials: int, dim: int, seed: int) -> dict[str, float]:
    """The eight algebraic items of ``family.c_property_suite``, one trial at a time.

    It draws what the suite draws, in its order, and lifts each matrix by itself; the
    lift is ``block_lift``, so no code of the suite's lift is shared.
    """
    def c_of(m):
        return block_lift(m, m.conj())

    def both_ways(m, defect):
        # preservation in both directions: the lifted defect is exactly sqrt(2) times
        # the original (Frobenius), so this residual vanishes iff they agree.
        return abs(defect(c_of(m)) - np.sqrt(2) * defect(m))

    rng = np.random.default_rng(seed)
    res = {k: [] for k in (
        "multiplicative", "additive", "real_scalar", "eigenvector_lift",
        "hermiticity", "unitarity", "psd", "trace_doubling")}

    def bump(key, value):
        res[key].append(value)

    for _ in range(trials):
        m = random_complex_matrix(dim, rng)
        n = random_complex_matrix(dim, rng)
        bump("multiplicative", np.abs(c_of(m @ n) - c_of(m) @ c_of(n)).max())
        bump("additive", np.abs(c_of(m + n) - (c_of(m) + c_of(n))).max())
        s = float(rng.standard_normal())
        bump("real_scalar", np.abs(c_of(s * m) - s * c_of(m)).max())

        evals, evecs = np.linalg.eig(m)
        k = int(np.argmax(np.abs(evals)))
        lam, vec = evals[k], evecs[:, k]
        lifted0 = np.concatenate([vec, np.zeros_like(vec)])
        lifted1 = np.concatenate([np.zeros_like(vec), vec.conj()])
        bump("eigenvector_lift", np.linalg.norm(c_of(m) @ lifted0 - lam * lifted0))
        bump("eigenvector_lift", np.linalg.norm(c_of(m) @ lifted1 - np.conj(lam) * lifted1))

        herm = random_hermitian(dim, rng)
        bump("hermiticity", both_ways(m, lambda x: np.linalg.norm(x - x.conj().T)))
        bump("hermiticity", np.abs(c_of(herm) - c_of(herm).conj().T).max())

        u = random_unitary(dim, rng)
        bump("unitarity", both_ways(m, lambda x: np.linalg.norm(x @ x.conj().T - np.eye(len(x)))))
        bump("unitarity", np.abs(c_of(u) @ c_of(u).conj().T - np.eye(2 * dim)).max())

        psd = random_psd(dim, rng)
        bump("psd", abs(np.linalg.eigvalsh(c_of(psd)).min() - np.linalg.eigvalsh(psd).min()))
        bump("psd", abs(np.linalg.eigvalsh(c_of(herm)).min() - np.linalg.eigvalsh(herm).min()))

        bump("trace_doubling", abs(np.trace(c_of(herm)) - 2 * np.trace(herm)))

    return {k: float(np.max(v)) for k, v in res.items()}


def basis_state(dims, index) -> StateVector:
    """Computational basis state; ``index`` is one value per subsystem."""
    dims = tuple(int(d) for d in dims)
    amp = np.zeros(math.prod(dims), dtype=complex)
    flat = 0
    for d, i in zip(dims, index):
        if not 0 <= i < d:
            raise ValueError(f"basis index {i} out of range for dimension {d}")
        flat = flat * d + i
    amp[flat] = 1.0
    return StateVector(dims, amp)


def expectation(state, m) -> float:
    """tr(rho M) for a Hermitian full-space M; an imaginary residue above 1e-10 is refused."""
    m = as_matrix(m)
    if m.shape != (state.dim, state.dim):
        raise ValueError(f"operator shape {m.shape} does not match state dimension {state.dim}")
    if isinstance(state, StateVector):
        val = np.vdot(state.amplitudes, m @ state.amplitudes)
    else:
        val = np.trace(state.matrix @ m)
    if abs(val.imag) > 1e-10:
        raise ValueError(f"expectation has imaginary residue {val.imag}; operator not Hermitian?")
    return float(val.real)


def kron_all(*factors):
    out = np.array([[1.0]], dtype=complex)
    for f in factors:
        out = np.kron(out, as_matrix(f))
    return out


def party_registers(exp, party):
    """Global register indices of one party of an experiment: A's lead, B's follow."""
    n_a = len(exp.party_dims["A"])
    if party == "A":
        return list(range(n_a))
    return list(range(n_a, n_a + len(exp.party_dims["B"])))


def embed_operator(op, dims, targets):
    """Embed ``op`` acting on the ``targets`` subsystems (in that order), identity elsewhere."""
    op = as_matrix(op)
    dims = tuple(int(d) for d in dims)
    targets = list(targets)
    n = len(dims)
    if len(set(targets)) != len(targets) or any(t < 0 or t >= n for t in targets):
        raise ValueError(f"invalid target subsystems {targets} for {n} subsystems")
    d_t = math.prod(dims[t] for t in targets)
    if op.shape != (d_t, d_t):
        raise ValueError(f"operator shape {op.shape} does not match target dims")
    rest = [i for i in range(n) if i not in targets]
    d_r = math.prod(dims[i] for i in rest)
    big = np.kron(op, np.eye(d_r, dtype=complex))
    order = targets + rest          # subsystem order of `big`
    inverse = np.argsort(order)     # send it back to the natural order
    dims_big = [dims[i] for i in order]
    return permute_subsystems_matrix(big, dims_big, list(inverse))


def controlled_gate(op, dims, control, targets):
    """|0><0|_c (x) I + |1><1|_c (x) op, for a qubit control subsystem."""
    if dims[control] != 2:
        raise ValueError("control subsystem must be a qubit")
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    return (embed_operator(p0, dims, [control])
            + embed_operator(np.kron(p1, as_matrix(op)), dims, [control] + list(targets)))


def pauli_recompose(blocks, qubit, dims):
    """Inverse of ``linalg.pauli_decompose``: sum_P P_qubit (x) M_P."""
    dims = tuple(int(d) for d in dims)
    rest = [i for i in range(len(dims)) if i != qubit]
    out = np.zeros((math.prod(dims), math.prod(dims)), dtype=complex)
    for name, p in PAULIS.items():
        out += embed_operator(np.kron(p, as_matrix(blocks[name])), dims, [qubit] + rest)
    return out


def party_circuit(exp, party):
    """Swap-style extraction circuit on (party registers + trailing ancilla qubit)."""
    dims = list(exp.party_dims[party]) + [2]
    anc = len(dims) - 1
    targets = list(range(anc))
    u = np.eye(math.prod(dims), dtype=complex)
    had = embed_operator(HADAMARD, dims, [anc])
    u = had @ u
    u = controlled_gate(exp.observable(party, "Z"), dims, anc, targets) @ u
    u = had @ u
    u = controlled_gate(exp.observable(party, "X"), dims, anc, targets) @ u
    return u


def dense_stabilizer_and_split(exp):
    """The stabilizer and split norms of a pure experiment, from full-space matrices.

    ``stabilizer[L]`` is ||psi - L_A L_B psi|| for every setting L, and
    ``split[(M, N)]`` is ||(MN)_A psi - M_A N_B psi|| for every ordered pair
    of distinct settings.
    """
    psi = exp.state.amplitudes
    ops = {p: {lab: embed_operator(m, exp.state.dims, party_registers(exp, p))
               for lab, m in exp.observables[p].items()} for p in ("A", "B")}
    stabilizer = {lab: float(np.linalg.norm(psi - ops["A"][lab] @ ops["B"][lab] @ psi))
                  for lab in ops["A"]}
    split = {(m, n): float(np.linalg.norm(ops["A"][m] @ ops["A"][n] @ psi
                                          - ops["A"][m] @ ops["B"][n] @ psi))
             for m in ops["A"] for n in ops["A"] if m != n}
    return stabilizer, split


FLAG_A, FLAG_B = 0, 2          # the flag registers of a source of dims SOURCE_DIMS


def flag_branches(rho, tol=1e-9):
    """Z-collapse of both flags: [(probability, (z_a, z_b), post_state)].

    A branch of probability at most ``tol`` is left out, and a cross branch (z_a != z_b)
    above it is refused.
    """
    branches = []
    for za in (0, 1):
        for zb in (0, 1):
            pa = np.diag([1.0 - za, float(za)]).astype(complex)
            pb = np.diag([1.0 - zb, float(zb)]).astype(complex)
            proj = (embed_operator(pa, SOURCE_DIMS, [FLAG_A])
                    @ embed_operator(pb, SOURCE_DIMS, [FLAG_B]))
            p = float(np.trace(rho.matrix @ proj).real)
            if za != zb:
                if p > tol:
                    raise ValueError(f"family source has cross-flag population {p}")
                continue
            if p <= tol:
                continue
            post = proj @ rho.matrix @ proj / p
            branches.append((p, (za, zb), DensityMatrix(SOURCE_DIMS, post)))
    return branches


def sixstate_devices():
    """{(party, basis): its 6-state device block_lift(P, P*) on (flag, data)}; Bob's Y is -Y."""
    paulis = {(p, b): -PAULIS[b] if (p, b) == ("B", "Y") else PAULIS[b]
              for p in PARTIES for b in BASES}
    return {key: block_lift(m, m.conj()) for key, m in paulis.items()}


def dense_outcome_probs(rho):
    """[basis_a, basis_b, k] joint-outcome table of a source from 16x16 projectors."""
    blocks = {"A": [FLAG_A, FLAG_A + 1], "B": [FLAG_B, FLAG_B + 1]}     # (flag, data)
    halves = {key: [(np.eye(16) + s * embed_operator(device, SOURCE_DIMS, blocks[key[0]])) / 2
                    for s in (1, -1)] for key, device in sixstate_devices().items()}
    out = np.zeros((3, 3, 4))
    for (a, ba), (b, bb) in itertools.product(enumerate(BASES), repeat=2):
        probs = np.clip([np.trace(rho.matrix @ (pa @ pb)).real
                         for pa in halves[("A", ba)] for pb in halves[("B", bb)]], 0.0, None)
        assert abs(probs.sum() - 1.0) <= 1e-9
        out[a, b] = probs / probs.sum()
    return out


def source_branches(rho, premeasured):
    """[(weight, flag, state)]: ``flag_branches`` if Eve premeasures the flags, else rho at 0."""
    if premeasured:
        return [(p, flags[0], branch) for p, flags, branch in flag_branches(rho)]
    return [(1.0, 0, rho)]


def dense_cell_law(rho, premeasured):
    """[flag, basis_a, basis_b, k] law of one round: branch weight x 1/9 x outcome table."""
    branches = source_branches(rho, premeasured)
    total = sum(weight for weight, _, _ in branches)
    probs = np.zeros(CELLS)
    for weight, flag, branch in branches:
        probs[flag] = weight / total / 9 * dense_outcome_probs(branch)
    return probs


def rotate_experiment(exp, unitaries):
    """Conjugate a pure experiment's state and observables by local unitaries (one per party).

    The state is the party product U_A Psi U_B^T.  The rotation scrambles any designated
    flag registers, so that metadata is dropped.
    """
    if not isinstance(exp.state, StateVector):
        raise ValueError("rotate_experiment expects a pure experiment")
    units = {p: as_matrix(unitaries[p]) for p in PARTIES}
    psi = exp.state.amplitudes.reshape(math.prod(exp.party_dims["A"]), -1)
    psi = (units["B"] @ (units["A"] @ psi).T).T
    obs = {p: {l: units[p] @ m @ units[p].conj().T for l, m in exp.observables[p].items()}
           for p in PARTIES}
    return Experiment(kind=exp.kind, state=StateVector(exp.state.dims, psi), observables=obs,
                      party_dims=exp.party_dims)


def dense_rotate(exp, unitaries):
    """State vector of ``rotate_experiment``: U_A (x) U_B on the full space."""
    return np.kron(unitaries["A"], unitaries["B"]) @ exp.state.amplitudes


def _moved(dims, vec, order, flags):
    """Permute subsystems of ``vec``; flag registers follow their subsystem."""
    new_flags = None if flags is None else {p: order.index(f) for p, f in flags.items()}
    return (tuple(dims[o] for o in order), permute_subsystems_vector(vec, dims, order),
            new_flags)


def dense_attach_junk(exp, party, junk):
    """(dims, vector, flags) of ``attach_junk``: the junk appended last, then moved into place."""
    dims = list(exp.state.dims) + list(junk.dims)
    n, k = len(exp.state.dims), len(junk.dims)
    at = len(exp.party_dims["A"]) if party == "A" else n
    order = list(range(at)) + list(range(n, n + k)) + list(range(at, n))
    return _moved(dims, np.kron(exp.state.amplitudes, junk.amplitudes), order,
                  exp.flag_registers)


def dense_purify(exp):
    """(dims, vector, flags) of ``purify_experiment``: the auxiliary register moved to A's end.

    A mixed state is sum_k sqrt(w_k) |v_k>|k> over its eigenvalues w_k > NORM_TOL, rescaled to
    sum to 1 (|v_0> alone at rank 1); a pure experiment's state is kept as it is."""
    if isinstance(exp.state, StateVector):
        dims, vec = list(exp.state.dims), exp.state.amplitudes
    else:
        w, v = np.linalg.eigh(exp.state.matrix)
        keep = w > NORM_TOL
        weights = np.clip(w[keep], 0.0, None)
        cols = v[:, keep] * np.sqrt(weights / weights.sum())
        rank = cols.shape[1]
        dims, vec = list(exp.state.dims) + ([rank] if rank > 1 else []), cols.reshape(-1)
    n, n_a = len(exp.state.dims), len(exp.party_dims["A"])
    order = list(range(n_a)) + [n] + list(range(n_a, n)) if len(dims) > n else list(range(n))
    return _moved(dims, vec, order, exp.flag_registers)


def per_round_sampled_correlations(exact, n_per_pair: int, seed: int):
    """(joints, marginals, joint_stderr, marginal_stderr) of n_per_pair drawn rounds per entry.

    Entry i of the exact table (joints, then marginals, in table order) draws one
    uniform per round from ``SeedSequence([seed, i])`` and picks the round's
    outcome as the number of cumulants of the entry's outcome distribution, all
    but the last, that are <= it.  The entry is the mean of the rounds' +/-1
    products, and its stderr the products' sample standard deviation over
    sqrt(n_per_pair) (0 at n = 1).
    """
    joints, marginals, joint_stderr, marginal_stderr = {}, {}, {}, {}
    entries = ([(joints, joint_stderr, key, exact.outcome_probs(*key), (1, -1, -1, 1))
                for key in exact.joints]
               + [(marginals, marginal_stderr, key, np.array([1.0 + m, 1.0 - m]) / 2.0, (1, -1))
                  for key, m in exact.marginals.items()])
    for stream, (means, errs, key, probs, sign_of) in enumerate(entries):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), stream]))
        outcomes = np.searchsorted(np.cumsum(probs)[:-1], rng.random(n_per_pair), side="right")
        signs = np.array(sign_of, dtype=float)[outcomes]
        spread = signs.std(ddof=1) if n_per_pair > 1 else 0.0
        means[key], errs[key] = float(signs.mean()), float(spread / np.sqrt(n_per_pair))
    return joints, marginals, joint_stderr, marginal_stderr


def per_pair_complex_to_json(arr) -> list:
    """``arr`` as nested lists, one level per axis, of [float(re), float(im)] pairs."""
    arr = np.asarray(arr, dtype=complex)
    if arr.ndim == 0:
        z = complex(arr)
        return [float(z.real), float(z.imag)]
    return [per_pair_complex_to_json(item) for item in arr]


def per_pair_complex_from_json(data, rank: int) -> np.ndarray:
    """The complex array of ``rank`` axes that nested JSON arrays of [re, im] pairs write.

    Each pair is read on its own: a list of two parts, each a JSON number and no
    bool, passed to ``complex``.  Every level above the pairs must be a non-empty
    list, and numpy refuses a ragged nesting.  A refusal is a ValueError, or the
    OverflowError of ``complex`` on an integer past the float range.
    """
    def read(value, depth):
        if depth == rank:
            if not (isinstance(value, list) and len(value) == 2
                    and all(type(part) in (int, float) for part in value)):
                raise ValueError(f"expected a [re, im] pair of JSON numbers, got {value!r}")
            return complex(*value)
        if not (isinstance(value, list) and value):
            raise ValueError(f"expected a non-empty list, got {value!r}")
        return [read(item, depth + 1) for item in value]

    return np.array(read(data, 0), dtype=complex)


NSIGMA = 5.0                    # a sampled entry's bound, in null standard errors
# the self-test's stages in run order; a report cannot show it, since dumps sorts its keys
RUN_ORDER = ("statistics", "state_equalities", "d_collapse", "anticommutator",
             "extraction_refused", "state_fidelity", "action_fidelity", "y_coefficients",
             "family_params")


def _worst(residuals: dict, bounds: dict) -> str:
    """The failing entry of the largest residual (a NaN first), the smallest name among ties
    within a relative 1e-12; "" when every entry of ``bounds`` holds."""
    failing = {name: residuals[name] for name, bound in bounds.items()
               if not residuals[name] <= bound}
    nan = [name for name, value in failing.items() if math.isnan(value)]
    if nan or not failing:
        return min(nan, default="")
    worst = max(failing.values())
    return min(name for name, value in failing.items() if value >= worst * (1 - 1e-12))


def _read(value):
    """A JSON value with every null read as NaN."""
    if isinstance(value, dict):
        return {key: _read(item) for key, item in value.items()}
    return math.nan if value is None else value


def rejudge(report: dict) -> tuple[list[str], str | None]:
    """(failures, refused_stage) of a ``selftest`` report document, from its JSON alone.

    It reads ``residuals``, a null as NaN, with ``tol``, ``stats_tol`` and
    ``config.sampled``, and judges each stage in RUN_ORDER.  Every bound is
    ``tol`` but the table entries' (``joint(..)``, ``marginal(..)``) of the
    statistics and the extraction gate, which are ``stats_tol``.  A sampled
    run's statistics bounds are NSIGMA sqrt((1 - r^2) / n), floored at
    ``stats_tol``, with n from ``config.sampled`` and r from the extended
    reference table, which holds every kind's entries.
    """
    res = report["results"]
    tol, stats_tol = res["tol"], res["stats_tol"]
    residuals = _read(res["residuals"])
    bounds = {stage: {entry: stats_tol if entry.startswith(("joint(", "marginal(")) else tol
                      for entry in entries}
              for stage, entries in residuals.items()}
    sampled = report["config"].get("sampled")
    if sampled:
        [n] = [int(token[2:]) for token in sampled if token.startswith("n=")]
        ref = dense_correlations(reference_experiment("extended"))
        for entry, table in (("joint", ref.joints), ("marginal", ref.marginals)):
            for (a, b), r in table.items():
                name = f"{entry}({a},{b})"
                if name in bounds["statistics"]:
                    null_sd = math.sqrt(max(1 - r * r, 0.0) / n)
                    bounds["statistics"][name] = max(NSIGMA * null_sd, stats_tol)
    failures = [f"{stage}[{worst}]" for stage in RUN_ORDER if stage in residuals
                for worst in [_worst(residuals[stage], bounds[stage])] if worst]
    gate_failed = any(f.startswith("extraction_refused[") for f in failures)
    return failures, "extraction" if gate_failed else None


def unjudged_names(report: dict) -> list[str]:
    """The keys of a ``selftest`` report's ``residuals`` that name no stage, and the failures
    ``stage[entry]`` with no ``residuals[stage][entry]``: [] when the report writes what its
    rule judged."""
    res = report["results"]
    out = [stage for stage in res["residuals"] if stage not in RUN_ORDER]
    for failure in res["failures"]:
        stage, _, entry = failure.removesuffix("]").partition("[")
        if entry not in res["residuals"].get(stage, {}):
            out.append(failure)
    return out


# ---------------------------------------------------------------------------
# the dense self-test: every stage of a pure experiment from full-space matrices


def _labels(kind):
    """The settings of a test kind, sub-test by sub-test, each once."""
    return list(dict.fromkeys(lab for sub in SUBTESTS[kind] for lab in sub))


def _embed(exp, party, m):
    return embed_operator(m, exp.state.dims, party_registers(exp, party))


def dense_correlations(exp, include_cross_pairs=False):
    """The exact table over the sub-tests' pairs (every pair ``include_cross_pairs``), each
    entry tr(rho M) of embedded matrices; a mixed state is read as rho, not purified."""
    labels = _labels(exp.kind)
    ops = {p: {lab: _embed(exp, p, exp.observable(p, lab)) for lab in labels} for p in PARTIES}
    pairs = ([(la, lb) for la in labels for lb in labels] if include_cross_pairs else
             dict.fromkeys((la, lb) for sub in SUBTESTS[exp.kind] for la in sub for lb in sub))
    return CorrelationTable(
        kind=exp.kind,
        joints={(la, lb): expectation(exp.state, ops["A"][la] @ ops["B"][lb]) for la, lb in pairs},
        marginals={(p, lab): expectation(exp.state, ops[p][lab])
                   for p in PARTIES for lab in labels})


def dense_joint_outcome_probs(exp, la, lb):
    rho = exp.state.density().matrix
    eye = np.eye(exp.state.dim)
    pa = _embed(exp, "A", exp.observable("A", la))
    pb = _embed(exp, "B", exp.observable("B", lb))
    return np.array([np.trace(rho @ (eye + sa * pa) @ (eye + sb * pb)).real / 4
                     for sa in (1, -1) for sb in (1, -1)])


def dense_state_equalities(exp):
    psi = exp.state.amplitudes
    ops = {p: {l: _embed(exp, p, exp.observable(p, l)) for l in _labels(exp.kind)}
           for p in PARTIES}
    out = {f"transfer={lab}": np.linalg.norm(ops["A"][lab] @ psi - ops["B"][lab] @ psi)
           for lab in _labels(exp.kind)}
    for m1, m2, dl in SUBTESTS[exp.kind]:
        tag = m1 + m2 + dl
        prod = {p: {(a, b): _embed(exp, p, exp.observable(p, a) @ exp.observable(p, b))
                    for a, b in ((m1, m2), (m2, m1))} for p in PARTIES}
        for a, b in ((m1, m2), (m2, m1)):
            out[f"{tag}:transfer={a}{b}"] = np.linalg.norm(
                prod["A"][(a, b)] @ psi - prod["B"][(b, a)] @ psi)
        vecs = [psi, ops["A"][m1] @ psi, ops["A"][m2] @ psi, prod["A"][(m1, m2)] @ psi]
        out[f"{tag}:orthogonality"] = max(abs(np.vdot(vecs[i], vecs[j]))
                                          for i in range(4) for j in range(i + 1, 4))
    return {k: float(v) for k, v in out.items()}


def dense_d_collapse(exp):
    psi = exp.state.amplitudes
    return {f"{p}:{dl}": float(np.linalg.norm(_embed(
                exp, p, exp.observable(p, dl)
                - (exp.observable(p, m1) + exp.observable(p, m2)) / np.sqrt(2)) @ psi))
            for m1, m2, dl in SUBTESTS[exp.kind] for p in PARTIES}


def dense_anticommutators(exp):
    """||P {M, N} P|| for each party and sub-test (M, N, D), P the party's Schmidt support."""
    out = {}
    for p in PARTIES:
        proj = support_projector(exp.state, party_registers(exp, p))
        for m1, m2, _ in SUBTESTS[exp.kind]:
            m, n = exp.observable(p, m1), exp.observable(p, m2)
            out[f"{p}:{m1}{m2}"] = float(np.linalg.norm(proj @ (m @ n + n @ m) @ proj, ord=2))
    return out


def register_layout(exp):
    """The extracted register-level layout: dims, each party's register block and ancilla.

    Party-major: A's registers, A's ancilla, B's registers, B's ancilla.
    """
    n_a, n_b = len(exp.party_dims["A"]), len(exp.party_dims["B"])
    dims = exp.party_dims["A"] + (2,) + exp.party_dims["B"] + (2,)
    blocks = {"A": list(range(n_a)), "B": list(range(n_a + 1, n_a + 1 + n_b))}
    return dims, blocks, {"A": n_a, "B": n_a + 1 + n_b}


def register_vector(ext):
    """The extracted state on the register-level layout, by an explicit reshape."""
    dims = register_layout(ext.exp)[0]
    return StateVector(dims, ext.state.amplitudes.reshape(dims))


def dense_extract(exp):
    """The ungated extraction with both circuits embedded on the register-level layout, its
    states reshaped to the party layout (d_A, 2, d_B, 2)."""
    n_a, n_b = len(exp.party_dims["A"]), len(exp.party_dims["B"])
    d_a, d_b = (math.prod(exp.party_dims[p]) for p in PARTIES)
    dims, blocks, ancillas = register_layout(exp)
    vec = np.kron(exp.state.amplitudes, [1, 0, 0, 0])
    order = list(range(n_a)) + [n_a + n_b] + list(range(n_a, n_a + n_b)) + [n_a + n_b + 1]
    vec = permute_subsystems_vector(vec, list(exp.state.dims) + [2, 2], order)
    local_units = {p: party_circuit(exp, p) for p in PARTIES}
    u_a, u_b = (embed_operator(local_units[p], dims, blocks[p] + [ancillas[p]]) for p in PARTIES)

    def circuit(v):                    # matrix-vector products only
        return StateVector((d_a, 2, d_b, 2), u_b @ (u_a @ v))

    actions = {(p, lab): circuit(embed_operator(exp.observable(p, lab), dims, blocks[p]) @ vec)
               for p in PARTIES for lab in ACTION_LABELS}
    return Extraction(exp=exp, state=circuit(vec), actions=actions, local_units=local_units)


def dense_state_fidelity(ext):
    """{"ancillas": 1 - <Phi'| P |Phi'>}, P the EPR projector embedded on the two ancillas."""
    dims, _, ancillas = register_layout(ext.exp)
    phi = np.array([1, 0, 0, 1]) / np.sqrt(2)
    proj = embed_operator(np.outer(phi, phi.conj()), dims, [ancillas["A"], ancillas["B"]])
    return {"ancillas": 1 - expectation(register_vector(ext), proj)}


def dense_action_fidelities(ext):
    ref = reference_observables(ext.exp.kind)
    dims, _, ancillas = register_layout(ext.exp)
    state = register_vector(ext).amplitudes
    return {f"{lab}_{p}": 1 - float(abs(np.vdot(
                ext.actions[(p, lab)].amplitudes,
                embed_operator(ref[p][lab], dims, [ancillas[p]]) @ state)))
            for p in PARTIES for lab in ACTION_LABELS}


def _ancilla_trace(op, d):
    """The trace over the ancilla of an operator on (d, 2): sum_i (I (x) <i|) op (I (x) |i>)."""
    eye = np.eye(d)
    return sum(np.kron(eye, e[None, :]) @ op @ np.kron(eye, e[:, None]) for e in np.eye(2))


def dense_y_coefficient_check(ext):
    """(populations, residuals) of the Y normal form, each sign operator embedded in full.  The
    restricted Y is sum_P M_P (x) P_ancilla, so M_P = tr_ancilla((I (x) P) Y) / 2."""
    exp = ext.exp
    dims, registers, ancillas = register_layout(exp)
    state = register_vector(ext)
    populations, residuals = {}, {}
    for party in PARTIES:
        d = math.prod(exp.party_dims[party])
        u_local = ext.local_units[party]
        pushed = u_local @ np.kron(exp.observable(party, "Y"), np.eye(2)) @ u_local.conj().T
        side = registers[party] + [ancillas[party]]
        proj = support_projector(state, side)
        restricted = proj @ pushed @ proj
        blocks = {name: _ancilla_trace(np.kron(np.eye(d), p) @ restricted, d) / 2.0
                  for name, p in PAULIS.items()}
        scale = np.sqrt(round(np.trace(proj).real) / 2.0)
        q = _ancilla_trace(proj, d) / 2.0
        sign = blocks["Y"] if party == "A" else -blocks["Y"]
        residuals.update({f"{party}:{k}": float(np.linalg.norm(blocks[k])) / scale
                          for k in ("I", "X", "Z")})
        residuals[f"{party}:normal_form"] = max(
            float(np.linalg.norm(sign - sign.conj().T)) / scale,
            float(np.linalg.norm(sign @ sign - q)) / scale)
        residuals[f"{party}:factorization"] = float(np.abs(proj - np.kron(q, np.eye(2))).max())
        plus = embed_operator(np.kron((q + sign) / 2.0, np.eye(2)), dims, side)
        populations[party] = float(np.real(np.vdot(state.amplitudes, plus @ state.amplitudes)))
    residuals["population_mismatch"] = abs(populations["A"] - populations["B"])
    return populations, residuals


def dense_family_params(exp, populations, tol):
    """(FamilyParams, flag checks): a flagged experiment's reduced flag state, read off its
    amplitudes with both flags permuted to the front; else Alice's sign population."""
    if exp.flag_registers is None:
        p0 = populations["A"]
        coherence = 0.0 if min(p0, 1.0 - p0) <= tol else None
        return FamilyParams(p0, 1.0 - p0, coherence, "extracted_sign"), {}
    flags = [exp.flag_registers[p] for p in PARTIES]
    rest = [i for i in range(len(exp.state.dims)) if i not in flags]
    m = permute_subsystems_vector(exp.state.amplitudes, exp.state.dims, flags + rest)
    reduced = m.reshape(4, -1) @ m.reshape(4, -1).conj().T       # over |00>, |01>, |10>, |11>
    p0, p1 = float(reduced[0, 0].real), float(reduced[3, 3].real)
    checks = {"flag_leak": float(max(np.abs(reduced[[1, 2]]).max(),
                                     np.abs(reduced[:, [1, 2]]).max())),
              **{f"{p}:sign_population": abs(p0 - populations[p]) for p in PARTIES}}
    return FamilyParams(p0, p1, float(abs(reduced[0, 3])), "flag_registers"), checks


def dense_run_selftest(exp, tol=1e-9, stats_tol=1e-10, sampled_n=None, seed=None):
    """The self-test of ``exp`` from the dense stages, judged by ``rejudge``.

    It returns ``failures``, ``refused_stage``, ``residuals`` (each stage's map, in run
    order), ``populations`` (each party's sign population, {} when no Y stage ran) and
    ``family_params`` (the family estimate or None).  The experiment is purified once by
    ``dense_purify``, the auxiliary register joining A.  The extraction gate is the
    paper's sub-test 1: the exact deviations of the joints and marginals of (X, Z, D),
    and the X/Z support anti-commutators of both parties.
    """
    dims, vec, flags = dense_purify(exp)
    eye = np.eye(len(vec) // exp.state.dim)           # the auxiliary register, if any
    n_b = len(exp.party_dims["B"])
    observables = {"A": {l: np.kron(m, eye) for l, m in exp.observables["A"].items()},
                   "B": exp.observables["B"]}
    pure = Experiment(kind=exp.kind, state=StateVector(dims, vec), observables=observables,
                      party_dims={"A": dims[:len(dims) - n_b], "B": exp.party_dims["B"]},
                      flag_registers=flags)
    exact, ref = dense_correlations(pure), dense_correlations(reference_experiment(exp.kind))

    def deviations(table):
        return {**{f"joint({a},{b})": abs(table.joints[(a, b)] - r)
                   for (a, b), r in ref.joints.items()},
                **{f"marginal({p},{l})": abs(table.marginals[(p, l)] - r)
                   for (p, l), r in ref.marginals.items()}}

    drawn = exact if sampled_n is None else sampled_correlations(exact, sampled_n, seed)
    anti, exact_deviations = dense_anticommutators(pure), deviations(exact)
    gate = ([f"joint({a},{b})" for a in "XZD" for b in "XZD"]
            + [f"marginal({p},{lab})" for p in PARTIES for lab in "XZD"])
    residuals = {"statistics": deviations(drawn),
                 "state_equalities": dense_state_equalities(pure),
                 "d_collapse": dense_d_collapse(pure),
                 "anticommutator": anti,
                 "extraction_refused": {**{name: exact_deviations[name] for name in gate},
                                        "A:XZ": anti["A:XZ"], "B:XZ": anti["B:XZ"]}}
    document = {"config": {"sampled": None if sampled_n is None else [f"n={sampled_n}"]},
                "results": {"tol": tol, "stats_tol": stats_tol, "residuals": residuals}}
    populations, params = {}, None
    if rejudge(document)[1] is None:
        ext = dense_extract(pure)
        residuals["state_fidelity"] = dense_state_fidelity(ext)
        residuals["action_fidelity"] = dense_action_fidelities(ext)
        if exp.kind == "extended":
            populations, residuals["y_coefficients"] = dense_y_coefficient_check(ext)
            params, residuals["family_params"] = dense_family_params(pure, populations, tol)
    failures, refused_stage = rejudge(document)
    return {"failures": failures, "refused_stage": refused_stage, "residuals": residuals,
            "populations": populations, "family_params": params}
