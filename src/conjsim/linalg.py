"""Dense complex linear algebra helpers shared by every other module.

Conventions used across the package:

- Subsystems are ordered party-major (all of Alice's registers before all of
  Bob's).  Basis indices are big-endian: the first subsystem is the most
  significant factor of a flattened index.
- ``np.kron(A, B)`` puts A's indices major, so the left factor belongs to the
  lower party index.
- The default algebraic tolerance is 1e-10.
- A bipartite pure state is handled as its amplitude matrix Psi of shape
  (d_A, d_B), with d_p the product of party p's register dims.  A local
  operator acts as a party product: A's operator M as ``M Psi`` and B's as
  ``Psi M^T`` (``conjsim.selftest.Experiment.act``), and a product state of
  the parties' registers is built with ``np.kron`` on Psi.  No operator on
  the full space is ever built: the routines here that take ``dims`` only
  trace out or Pauli-split the subsystems of the operator they get.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

ATOL = 1e-10

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

PAULIS = {"I": I2, "X": X, "Y": Y, "Z": Z}


def as_matrix(m) -> np.ndarray:
    """Coerce input to a 2-d complex ndarray."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {arr.ndim}")
    return arr


def as_int(value, what: str) -> int:
    """``value`` as a Python int; a bool, a float or any other non-integer is a ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what}: expected an integer, got {value!r}")
    return int(value)


def as_dims(dims: Sequence[int], what: str) -> tuple[int, ...]:
    """Subsystem dimensions as Python ints, each an integer of at least 1."""
    dims = tuple(as_int(d, what) for d in dims)
    if any(d < 1 for d in dims):
        raise ValueError(f"{what}: dimensions must be positive, got {dims}")
    return dims


def hermitian_defect(m) -> float:
    """max |M - M^dag|; inf for a non-square matrix."""
    m = as_matrix(m)
    return float(np.abs(m - m.conj().T).max()) if m.shape[0] == m.shape[1] else math.inf


def unitary_defect(m) -> float:
    """max |M M^dag - I|; inf for a non-square matrix."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        return math.inf
    return float(np.abs(m @ m.conj().T - np.eye(len(m))).max())


def psd_defect(m) -> float:
    """The larger of the Hermitian defect and minus the least eigenvalue of the Hermitian part."""
    m = as_matrix(m)
    defect = hermitian_defect(m)      # inf or NaN leaves no Hermitian part to diagonalize
    return max(defect, -float(np.linalg.eigvalsh((m + m.conj().T) / 2).min())) \
        if math.isfinite(defect) else defect


DEFECTS = {"hermitian": hermitian_defect, "unitary": unitary_defect, "psd": psd_defect}


def is_hermitian(m, tol: float = ATOL) -> bool:
    return hermitian_defect(m) <= tol


def is_unitary(m, tol: float = ATOL) -> bool:
    return unitary_defect(m) <= tol


def is_psd(m, tol: float = ATOL) -> bool:
    return psd_defect(m) <= tol


def is_binary_observable(m, tol: float = ATOL) -> bool:
    """Hermitian and unitary: eigenvalues are exactly +/-1."""
    return is_hermitian(m, tol) and is_unitary(m, tol)


def _check_dims(dims: Sequence[int], size: int, what: str) -> tuple[int, ...]:
    dims = as_dims(dims, what)
    if math.prod(dims) != size:
        raise ValueError(f"{what}: dims {dims} do not match size {size}")
    return dims


def op_partial_trace(mat: np.ndarray, dims: Sequence[int],
                     keep: Sequence[int]) -> np.ndarray:
    """Partial trace of an operator, keeping the listed subsystems (order preserved)."""
    mat = as_matrix(mat)
    dims = _check_dims(dims, mat.shape[0], "op_partial_trace")
    n = len(dims)
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= n for k in keep):
        raise ValueError(f"invalid subsystem index in keep={keep}")
    rest = [i for i in range(n) if i not in keep]
    order = keep + rest
    t = mat.reshape(dims + dims).transpose(order + [n + o for o in order])
    d_k = math.prod(dims[i] for i in keep)
    d_r = math.prod(dims[i] for i in rest)
    t = t.reshape(d_k, d_r, d_k, d_r)
    return np.einsum("arbr->ab", t)


def herm_expm(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i h t) for Hermitian h, via spectral decomposition."""
    h = as_matrix(h)
    if not is_hermitian(h):
        raise ValueError("herm_expm requires a Hermitian matrix")
    w, v = np.linalg.eigh((h + h.conj().T) / 2)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def pauli_decompose(mat: np.ndarray, qubit: int,
                    dims: Sequence[int]) -> dict[str, np.ndarray]:
    """Split an operator as sum_P P_qubit (x) M_P over the single-qubit Paulis.

    The blocks M_P act on the remaining subsystems (original order preserved) and
    are recovered by the trace inner product on the qubit factor.
    """
    mat = as_matrix(mat)
    dims = _check_dims(dims, mat.shape[0], "pauli_decompose")
    if dims[qubit] != 2:
        raise ValueError(f"subsystem {qubit} has dimension {dims[qubit]}, not a qubit")
    n = len(dims)
    rest = [i for i in range(n) if i != qubit]
    order = [qubit] + rest
    t = mat.reshape(dims + dims).transpose(order + [n + o for o in order])
    d_r = math.prod(dims[i] for i in rest)
    t = t.reshape(2, d_r, 2, d_r)
    return {name: 0.5 * np.einsum("ac,cras->rs", p, t) for name, p in PAULIS.items()}


def random_complex_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Gaussian complex matrix scaled to O(1) spectral norm."""
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return m / np.sqrt(2 * dim)


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    m = random_complex_matrix(dim, rng)
    return (m + m.conj().T) / 2


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix."""
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_psd(dim: int, rng: np.random.Generator) -> np.ndarray:
    m = random_complex_matrix(dim, rng)
    return m @ m.conj().T
