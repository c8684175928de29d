"""Dense complex linear algebra helpers shared by every other module.

Conventions used across the package:

- Subsystems are ordered party-major (all of Alice's registers before all of
  Bob's).  Basis indices are big-endian: the first subsystem is the most
  significant factor of a flattened index.
- ``np.kron(A, B)`` puts A's indices major, so the left factor belongs to the
  lower party index.
- The algebraic tolerance ``ATOL`` is 1e-10; each ``is_*`` predicate holds when
  its defect is at most ``ATOL``.  :func:`failing` is the one verdict rule of
  every check in the package: an entry of a residual map holds when its
  ``residual <= bound``.
- A bipartite pure state is handled as its amplitude matrix Psi of shape
  (d_A, d_B), with d_p the product of party p's register dims.  A local
  operator acts as a party product: A's operator M as ``M Psi`` and B's as
  ``Psi M^T`` (``conjsim.selftest.Experiment.act``), and a product state of
  the parties' registers is built with ``np.kron`` on Psi.  No operator on
  the full space is ever built.
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


def failing(residuals: dict[str, float], bound: float | dict[str, float]) -> dict[str, float]:
    """The verdict rule: the entries of ``residuals`` that fail their bound, in bound order.

    ``bound`` is one bound for every entry, or a dict of per-entry bounds that
    also picks the entries judged.  An entry holds when ``residual <= bound``,
    so a NaN residual or bound fails.
    """
    bounds = bound if isinstance(bound, dict) else dict.fromkeys(residuals, bound)
    return {name: residuals[name] for name, b in bounds.items() if not residuals[name] <= b}


def worst_failing(residuals: dict[str, float], bound: float | dict[str, float]) -> str:
    """The worst entry that :func:`failing` returns, or "" when all hold.

    A NaN entry ranks first.  Otherwise the name is the smallest failing entry
    name within a relative 1e-12 of the largest failing residual, so entries
    that are equal in exact arithmetic do not let rounding pick it, and a
    report, whose keys ``dumps`` sorts, shows the order that does.
    """
    failed = failing(residuals, bound)
    if not failed:
        return ""
    worst = max(failed.values(), key=lambda v: (np.isnan(v), v))
    return min(name for name, v in failed.items() if np.isnan(v) or v >= worst * (1 - 1e-12))


def is_hermitian(m) -> bool:
    return hermitian_defect(m) <= ATOL


def is_unitary(m) -> bool:
    return unitary_defect(m) <= ATOL


def is_psd(m) -> bool:
    return psd_defect(m) <= ATOL


def is_binary_observable(m) -> bool:
    """Hermitian and unitary: eigenvalues are exactly +/-1."""
    return is_hermitian(m) and is_unitary(m)


def herm_expm(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i h t) for Hermitian h, via spectral decomposition."""
    h = as_matrix(h)
    if not is_hermitian(h):
        raise ValueError("herm_expm requires a Hermitian matrix")
    w, v = np.linalg.eigh((h + h.conj().T) / 2)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


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
