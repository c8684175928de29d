"""Quantum states over ordered subsystem lists, with partial traces and purification.

All values are immutable after construction, which checks them to NORM_TOL,
and every operation is a pure function.

:class:`Record` is the base of every value class in the package.  A subclass
declares its fields as class annotations, with optional class-level defaults;
the fields are bound by position or keyword, then ``__post_init__`` (if
defined) validates them.  Records refuse assignment and deletion, compare and
hash by their field tuple, and :func:`replace` rebuilds one through its
``__init__``, so validation runs again.  No code is generated per class.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import as_dims, as_matrix, op_partial_trace

NORM_TOL = 1e-12


class Record:
    """Immutable value whose fields are its class annotations, base classes' first."""

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = tuple(vars(cls).get("__annotations__", ()))     # a subclass extends its base's
        cls._fields = tuple(dict.fromkeys(cls._fields + own))
        cls._defaults = {f: getattr(cls, f) for f in cls._fields if hasattr(cls, f)}

    def __init__(self, *args, **kwargs):
        name, fields = type(self).__name__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name} takes {len(fields)} arguments but {len(args)} were given")
        values = {**self._defaults, **dict(zip(fields, args))}
        for key, value in kwargs.items():
            if key not in fields or fields.index(key) < len(args):
                raise TypeError(f"{name} got an unexpected or repeated argument {key!r}")
            values[key] = value
        for field in fields:
            if field not in values:
                raise TypeError(f"{name} is missing the argument {field!r}")
            object.__setattr__(self, field, values[field])
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, field) for field in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        items = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({items})"


def replace(record: Record, **changes) -> Record:
    """A copy of ``record`` with ``changes``, built and validated by its class's ``__init__``."""
    return type(record)(**{**dict(zip(record._fields, record._values())), **changes})


class StateVector(Record):
    """Pure state over an ordered list of subsystem dimensions."""

    dims: tuple[int, ...]
    amplitudes: np.ndarray

    def __init__(self, dims, amplitudes):
        dims = as_dims(dims, "state dims")
        amp = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if math.prod(dims) != amp.size:
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


class DensityMatrix(Record):
    """Mixed state over an ordered list of subsystem dimensions."""

    dims: tuple[int, ...]
    matrix: np.ndarray

    def __init__(self, dims, matrix):
        dims = as_dims(dims, "state dims")
        mat = as_matrix(matrix)
        d = math.prod(dims)
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
        m = m.reshape(math.prod(state.dims[k] for k in keep), -1)
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
