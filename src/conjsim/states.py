"""Quantum states over ordered subsystem lists, with partial traces and purification.

All values are immutable after construction, which checks them to NORM_TOL,
and every operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import as_matrix, op_partial_trace

NORM_TOL = 1e-12


@dataclass(frozen=True)
class StateVector:
    """Pure state over an ordered list of subsystem dimensions."""

    dims: tuple[int, ...]
    amplitudes: np.ndarray = field(repr=False)

    def __init__(self, dims, amplitudes):
        dims = tuple(int(d) for d in dims)
        amp = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if int(np.prod(dims)) != amp.size:
            raise ValueError(f"dims {dims} do not match amplitude length {amp.size}")
        norm = np.linalg.norm(amp)
        if not abs(norm - 1.0) <= NORM_TOL:         # a NaN norm fails too
            raise ValueError(f"state vector norm {norm} deviates from 1 beyond {NORM_TOL}")
        amp = amp.copy()
        amp.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", amp)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def density(self) -> "DensityMatrix":
        return DensityMatrix(self.dims, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """Mixed state over an ordered list of subsystem dimensions."""

    dims: tuple[int, ...]
    matrix: np.ndarray = field(repr=False)

    def __init__(self, dims, matrix):
        dims = tuple(int(d) for d in dims)
        mat = as_matrix(matrix)
        d = int(np.prod(dims))
        if mat.shape != (d, d):
            raise ValueError(f"dims {dims} do not match matrix shape {mat.shape}")
        if not np.isfinite(mat).all():
            raise ValueError("density matrix has non-finite entries")
        if np.abs(mat - mat.conj().T).max() > NORM_TOL:
            raise ValueError("density matrix is not Hermitian within tolerance")
        tr = np.trace(mat).real
        if abs(tr - 1.0) > NORM_TOL:
            raise ValueError(f"density matrix trace {tr} deviates from 1 beyond {NORM_TOL}")
        if np.linalg.eigvalsh((mat + mat.conj().T) / 2).min() < -NORM_TOL:
            raise ValueError("density matrix has negative eigenvalues beyond tolerance")
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def density(self) -> "DensityMatrix":
        return self


def epr_pair() -> StateVector:
    """The two-qubit maximally entangled state (|00> + |11>)/sqrt(2)."""
    amp = np.zeros(4, dtype=complex)
    amp[0] = amp[3] = 1 / np.sqrt(2)
    return StateVector((2, 2), amp)


def partial_trace(state: DensityMatrix | StateVector, keep) -> DensityMatrix:
    """Reduced state on the kept subsystems (order preserved; repeated indices count once).

    A pure state is reduced from its amplitudes: with M the amplitude tensor
    reshaped to (kept, traced out), the result is M M^dagger.
    """
    n = len(state.dims)
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= n for k in keep):
        raise ValueError(f"invalid subsystem index in keep={keep} for {n} subsystems")
    if isinstance(state, DensityMatrix):
        reduced = op_partial_trace(state.matrix, state.dims, keep)
    else:
        rest = [i for i in range(n) if i not in keep]
        m = state.amplitudes.reshape(state.dims).transpose(keep + rest)
        m = m.reshape(int(np.prod([state.dims[k] for k in keep])), -1)
        reduced = m @ m.conj().T
    return DensityMatrix([state.dims[k] for k in keep], reduced)


def purify(dm: DensityMatrix) -> StateVector:
    """Purification with the auxiliary register appended as the last subsystem.

    Eigenvalues at or below NORM_TOL are dropped and the kept ones rescaled to
    sum to 1, so the result is a unit vector even when the dropped weight is
    as large as the trace tolerance.  Rank-1 inputs come back as a plain
    state vector (no auxiliary subsystem).
    """
    w, v = np.linalg.eigh(dm.matrix)
    keep = w > NORM_TOL
    rank = int(keep.sum())
    if rank == 0:
        raise ValueError("cannot purify a zero matrix")
    weights = np.clip(w[keep], 0.0, None)
    cols = v[:, keep] * np.sqrt(weights / weights.sum())
    if rank == 1:
        return StateVector(dm.dims, cols[:, 0])
    return StateVector(dm.dims + (rank,), cols.reshape(dm.dim * rank))
