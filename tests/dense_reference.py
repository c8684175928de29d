"""Dense reference routines for the tests: every local operator as an explicit matrix.

The package applies local operators through ``linalg.apply_operator`` and
builds its few party-local matrices with ``np.kron``.  These routines build
the same objects independently: ``embed_operator`` and ``controlled_gate``
embed a matrix by permuting subsystems, ``party_circuit`` is the extraction
circuit made from them, and ``flag_branches`` collapses the source's flags
with two 16x16 projectors.
"""

import math

import numpy as np

from conjsim.linalg import HADAMARD, PAULIS, as_matrix, permute_subsystems_matrix
from conjsim.sixstate import FLAG_A, FLAG_B, SOURCE_DIMS
from conjsim.states import DensityMatrix


def kron_all(*factors):
    out = np.array([[1.0]], dtype=complex)
    for f in factors:
        out = np.kron(out, as_matrix(f))
    return out


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
