"""Dense reference routines for the tests: every local operator as an explicit matrix.

The package addresses parties, not registers: a local operator acts on the
amplitude matrix Psi (d_A, d_B) as the party product ``M Psi`` or
``Psi M^T``, and its few party-local matrices and product states are built
with ``np.kron``.  These routines build the same objects independently, on
register index lists: ``party_registers`` lists a party's registers,
``embed_operator`` and ``controlled_gate`` embed a matrix by permuting
subsystems, ``party_circuit`` is the extraction circuit made from them, and
``flag_branches`` collapses the source's flags with two 16x16 projectors.
``dense_rotate``, ``dense_attach_junk`` and ``dense_purify`` build the
experiment builders' state vectors with a full-space product or a subsystem
permutation.  ``support_projector`` reads a party's support from the Schmidt
decomposition across a register cut, and ``dense_multiparty_sim_state`` builds
a family member flag-major with ``np.kron`` and then interleaves the flags.
``basis_state`` builds a computational basis state from one index per
register, and ``expectation`` is tr(rho M) of a full-space operator, the slow
reference for the per-party correlation kernel ``conjsim.selftest.correlations``.
"""

import math
from typing import Sequence

import numpy as np

from conjsim.family import SimParams
from conjsim.linalg import HADAMARD, PAULIS, as_matrix
from conjsim.sixstate import FLAG_A, FLAG_B, SOURCE_DIMS
from conjsim.states import DensityMatrix, StateVector, purify


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


def dense_multiparty_sim_state(psi: StateVector, n_parties: int, p: SimParams) -> DensityMatrix:
    """``multiparty_sim_state`` built on [flags..., data...] and permuted to party-major."""
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


def flag_branches(rho, tol=1e-9):
    """Z-collapse of both flags: [(probability, (z_a, z_b), post_state)]."""
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
    """(dims, vector, flags) of ``purify_experiment``: the auxiliary register moved to A's end."""
    pure = purify(exp.state)
    n, n_a = len(exp.state.dims), len(exp.party_dims["A"])
    order = list(range(n_a)) + [n] + list(range(n_a, n)) if len(pure.dims) > n else list(range(n))
    return _moved(list(pure.dims), pure.amplitudes, order, exp.flag_registers)
