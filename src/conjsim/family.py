"""The conjugation-based family of simulations of a reference experiment.

A family member mixes a reference experiment with its entrywise complex
conjugate, controlled on an added flag qubit.  The member is parametrized by
the flag population ``a`` and the cross-branch coherence ``c`` subject to
|c| <= sqrt(a(1-a)).  Statistics of any feasible member are identical to the
reference, which is what makes the family a simulation.  :func:`c_property_suite`
checks the lifting C(.) and returns residuals and bounds for ``linalg.failing``.
"""

from __future__ import annotations

import cmath

import numpy as np

from . import MAX_PROPERTY_DIM
from .linalg import (
    ATOL,
    DEFECTS,
    HADAMARD,
    PAULIS,
    as_matrix,
    herm_expm,
    is_hermitian,
    is_psd,
    is_unitary,
    random_complex_matrix,
    random_hermitian,
    random_psd,
    random_unitary,
)
from .states import DensityMatrix, Record, StateVector

FEAS_TOL = 1e-12
HAMILTONIAN_BOUND = 1e-8     # residual bound of exp(-iH't) = C(exp(-iHt)); expm is not exact
BLOCK_TRIALS = 64     # trials per lifted stack; 0.26 MB at dim 8, so peak RSS is flat in trials


class SimParams(Record):
    """Flag population ``a`` and coherence ``c`` of one family member."""

    a: float
    c: complex = 0.0

    def __post_init__(self):
        if not 0.0 <= self.a <= 1.0:
            raise ValueError(f"a must lie in [0, 1], got {self.a}")
        bound = np.sqrt(self.a * (1.0 - self.a))
        if not abs(self.c) <= bound + FEAS_TOL:        # also refuses a NaN coherence
            raise ValueError(f"|c| = {abs(self.c)} exceeds sqrt(a(1-a)) = {bound}")

    @classmethod
    def from_polar(cls, a: float, c_abs: float, c_phase: float = 0.0) -> "SimParams":
        return cls(a, c_abs * cmath.exp(1j * c_phase))


class Povm(Record):
    """Positive elements summing to the identity."""

    elements: tuple[np.ndarray, ...]

    def __post_init__(self):
        mats = tuple(as_matrix(e) for e in self.elements)
        if not mats:
            raise ValueError("POVM needs at least one element")
        d = mats[0].shape[0]
        total = np.zeros((d, d), dtype=complex)
        for e in mats:
            if e.shape != (d, d):
                raise ValueError("POVM elements must share one dimension")
            if not is_psd(e):
                raise ValueError("POVM element is not positive semidefinite")
            total += e
        if np.abs(total - np.eye(d)).max() > ATOL:
            raise ValueError("POVM elements do not sum to the identity")
        object.__setattr__(self, "elements", mats)

    def probabilities(self, state: StateVector | DensityMatrix) -> np.ndarray:
        rho = state.density().matrix
        return np.array([np.trace(rho @ e).real for e in self.elements])


class KrausMap(Record):
    """Trace-preserving completely positive map in Kraus form."""

    operators: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(as_matrix(k) for k in self.operators)
        if not ops:
            raise ValueError("Kraus map needs at least one operator")
        d = ops[0].shape[1]
        total = np.zeros((d, d), dtype=complex)
        for k in ops:
            total += k.conj().T @ k
        if np.abs(total - np.eye(d)).max() > ATOL:
            raise ValueError("Kraus operators are not trace preserving")
        object.__setattr__(self, "operators", ops)

    def apply(self, state: StateVector | DensityMatrix) -> DensityMatrix:
        rho = state.density()
        out = sum(k @ rho.matrix @ k.conj().T for k in self.operators)
        return DensityMatrix(rho.dims, out)


def c_of(m: np.ndarray) -> np.ndarray:
    """Lift |0><0| (x) M + |1><1| (x) M* = I (x) Re(M) + iZ (x) Im(M), or each M of a stack."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError("c_of requires a square matrix or a stack of them")
    return _flag_diag(m, m.conj())


def _flag_diag(upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """|0><0| (x) upper + |1><1| (x) lower for square blocks, or stacks of them, of one shape."""
    d = upper.shape[-1]
    out = np.zeros(upper.shape[:-2] + (2 * d, 2 * d), dtype=complex)
    out[..., :d, :d] = upper
    out[..., d:, d:] = lower
    return out


def sim_povm(povm: Povm) -> Povm:
    """Lift every element; statistics on family members equal the reference statistics."""
    return Povm([c_of(e) for e in povm.elements])


def sim_unitary_evolve(rho_sim: DensityMatrix, u: np.ndarray) -> DensityMatrix:
    """Evolve a family member by C(U); tracks U applied to the reference state."""
    u = as_matrix(u)
    if not is_unitary(u):
        raise ValueError("sim_unitary_evolve requires a unitary")
    cu = c_of(u)
    return DensityMatrix(rho_sim.dims, cu @ rho_sim.matrix @ cu.conj().T)


def sim_kraus(kmap: KrausMap) -> KrausMap:
    """Lift each Kraus operator; the lifted map is again trace preserving."""
    return KrausMap([c_of(k) for k in kmap.operators])


def sim_hamiltonian(h: np.ndarray) -> np.ndarray:
    """|0><0| (x) H - |1><1| (x) H*; generates C(exp(-iHt)) under herm_expm."""
    h = as_matrix(h)
    if not is_hermitian(h):
        raise ValueError("sim_hamiltonian requires a Hermitian matrix")
    return _flag_diag(h, -h.conj())


def multiparty_sim_state(psi: StateVector, p: SimParams) -> DensityMatrix:
    """Family member with one flag qubit prepended to each party's register, a subsystem of psi.

    The flag registers only populate the logical states |0...0> and |1...1>;
    all cross-flag populations vanish, so locally premeasured flags always agree.
    With one party this is the single-flag member: projecting the flag onto
    |0>/|1> leaves the reference/conjugate state.  The block of flags (z, z') is
    written where every row flag equals z and every column flag equals z'.
    """
    n_parties = len(psi.dims)
    v = psi.amplitudes
    ref = np.outer(v, v.conj())
    cross = np.outer(v, v)
    a, c = p.a, p.c
    blocks = {(0, 0): a * ref, (1, 1): (1 - a) * ref.conj(),
              (0, 1): c * cross, (1, 0): np.conj(c) * cross.conj()}
    out_dims = [d for dim in psi.dims for d in (2, dim)]
    mat = np.zeros(out_dims * 2, dtype=complex)      # rows (f_1, d_1, ..., f_n, d_n), then columns
    for (z, zc), block in blocks.items():
        # added onto +0, so a zero entry of a block is +0 whatever its sign
        mat[(z, slice(None)) * n_parties + (zc, slice(None)) * n_parties] += \
            block.reshape(psi.dims * 2)
    return DensityMatrix(out_dims, mat.reshape(v.size * 2 ** n_parties, -1))


# App-B basis change on the flag qubit: Hadamard then diag(1, -i), normalized.
REAL_BASIS_CHANGE = np.diag([1.0, -1.0j]).astype(complex) @ HADAMARD
REAL_SIM_TOL = 1e-9      # how far an input of to_real_simulation may be from the required form


def to_real_simulation(value):
    """App-B basis change R (x) I on the leading flag qubit, R = ``REAL_BASIS_CHANGE``.

    A state must be the pure a=c=1/2 member up to a global phase; it becomes the real
    |0> Re(psi) + |1> Im(psi), largest entry positive.  Any other value must be a lift
    C(M); it becomes the real I (x) Re(M) + XZ (x) Im(M).  Other inputs are refused.
    """
    if isinstance(value, (StateVector, DensityMatrix)):
        if value.dims[0] != 2:
            raise ValueError("state has no leading flag qubit")
        if isinstance(value, DensityMatrix):
            w, vecs = np.linalg.eigh(value.matrix)
            if w[:-1].max(initial=0.0) > REAL_SIM_TOL:
                raise ValueError("state is not pure; not an a=c=1/2 member")
            vec = vecs[:, -1]
        else:
            vec = value.amplitudes
        out = (REAL_BASIS_CHANGE @ vec.reshape(2, -1)).ravel()
        big = out[np.argmax(np.abs(out))]
        out *= abs(big) / big
        if np.abs(out.imag).max() > REAL_SIM_TOL:
            raise ValueError("state does not come out real; not an a=c=1/2 member")
        return StateVector(value.dims, out.real)
    mat = as_matrix(value)
    d = mat.shape[0] // 2
    if mat.shape != (2 * d, 2 * d) or np.abs(mat - c_of(mat[:d, :d])).max() > REAL_SIM_TOL:
        raise ValueError("operator is not of the C(M) block form")
    r = np.kron(REAL_BASIS_CHANGE, np.eye(d))
    return (r @ mat @ r.conj().T).real


def c_property_suite(trials: int, dim: int, seed: int, tol: float = ATOL,
                     fixtures=()) -> tuple[dict[str, float], dict[str, float]]:
    """Check the C(.) lifting: eight algebraic properties, the Hamiltonian identity,
    statistics preservation, and each claim of each (label, matrix, claims) fixture.

    Returns ``(residuals, bounds)`` keyed by item name.  Preservation items are checked
    in both directions through exact norm relations, e.g. ||C(M) - C(M)^dag||_F =
    sqrt(2) ||M - M^dag||_F.  A fixture claim's residual is the larger DEFECTS measure
    of M and C(M); a fixture item named twice is a ValueError.  The bounds are
    HAMILTONIAN_BOUND, ATOL for fixtures, ``tol`` for the rest.  The eight properties run
    over stacks of at most BLOCK_TRIALS trials, drawn trial by trial from ``default_rng(seed)``.
    """
    if trials < 1:
        raise ValueError(f"property suite needs trials >= 1, got {trials}")
    if not 1 <= dim <= MAX_PROPERTY_DIM:
        raise ValueError(f"property suite supports dim in 1..{MAX_PROPERTY_DIM}, got {dim}")
    rng = np.random.default_rng(seed)
    blocks = [_lifting_block(min(BLOCK_TRIALS, trials - start), dim, rng)
              for start in range(0, trials, BLOCK_TRIALS)]
    residuals = {k: _worst([block[k] for block in blocks]) for k in blocks[0]}
    bounds = dict.fromkeys(residuals, tol)

    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    hams = [random_hermitian(int(rng.integers(2, 5)), rng) for _ in range(trials // 10 + 1)]
    residuals["hamiltonian_identity"] = _worst(
        [_hamiltonian_identity_residual(h, (0.1, 1.0, np.pi)) for h in hams])
    residuals["statistics_preservation"] = _statistics_preservation_residual()
    bounds.update(hamiltonian_identity=HAMILTONIAN_BOUND, statistics_preservation=tol)
    for label, m, claims in fixtures:
        m = as_matrix(m)
        lifts = (m, c_of(m)) if m.shape[0] == m.shape[1] else (m,)
        for claim in claims:
            name = f"fixture[{label}:{claim}]"
            if name in residuals:
                raise ValueError(f"property item {name} given twice")
            residuals[name], bounds[name] = _worst([DEFECTS[claim](x) for x in lifts]), ATOL
    return residuals, bounds


def _worst(residuals) -> float:
    """The largest residual; NaN if any is NaN."""
    return float(np.max(residuals))


def _lifting_block(count: int, dim: int, rng: np.random.Generator) -> dict[str, float]:
    """The eight algebraic items' worst residuals over ``count`` trials, each drawn as
    (M, N, s, H, U, P) in turn; the trials are stacked, and each stack is lifted once."""
    m, n, s, herm, u, psd = (np.array(stack) for stack in zip(*[
        (random_complex_matrix(dim, rng), random_complex_matrix(dim, rng), rng.standard_normal(),
         random_hermitian(dim, rng), random_unitary(dim, rng), random_psd(dim, rng))
        for _ in range(count)]))
    cm, cn, ch, cu = c_of(m), c_of(n), c_of(herm), c_of(u)
    s, eye, rows = s[:, None, None], np.eye(2 * dim), np.arange(count)

    def dagger(x):
        return x.conj().swapaxes(1, 2)

    evals, evecs = np.linalg.eig(m)
    k = np.argmax(np.abs(evals), axis=1)
    v = np.zeros_like(m)
    v[:, :, 0] = evecs[rows, :, k]
    lifted = c_of(v)[:, :, [0, dim]]          # the columns (v, 0) and (0, v*) of C([v 0 ... 0])
    lam = np.stack([evals[rows, k], evals[rows, k].conj()], axis=1)[:, None]
    # hermiticity and unitarity are preserved both ways: the lifted defect is exactly
    # sqrt(2) times the original (Frobenius), so the first residual vanishes iff they agree.
    return {
        "multiplicative": _worst(np.abs(c_of(m @ n) - cm @ cn)),
        "additive": _worst(np.abs(c_of(m + n) - (cm + cn))),
        "real_scalar": _worst(np.abs(c_of(s * m) - s * cm)),
        "eigenvector_lift": _worst(np.linalg.norm(cm @ lifted - lam * lifted, axis=1)),
        "hermiticity": _worst([np.abs(np.linalg.norm(cm - dagger(cm), axis=(1, 2))
                                      - np.sqrt(2) * np.linalg.norm(m - dagger(m), axis=(1, 2))),
                               np.abs(ch - dagger(ch)).max(axis=(1, 2))]),
        "unitarity": _worst([np.abs(np.linalg.norm(cm @ dagger(cm) - eye, axis=(1, 2)) - np.sqrt(2)
                                    * np.linalg.norm(m @ dagger(m) - np.eye(dim), axis=(1, 2))),
                             np.abs(cu @ dagger(cu) - eye).max(axis=(1, 2))]),
        "psd": _worst([np.abs(np.linalg.eigvalsh(c_of(psd))[:, 0] - np.linalg.eigvalsh(psd)[:, 0]),
                       np.abs(np.linalg.eigvalsh(ch)[:, 0] - np.linalg.eigvalsh(herm)[:, 0])]),
        "trace_doubling": _worst(np.abs(np.einsum("kii->k", ch) - 2 * np.einsum("kii->k", herm))),
    }


def _hamiltonian_identity_residual(h: np.ndarray, times) -> float:
    """max_t || exp(-i H' t) - C(exp(-i H t)) ||_F over the given time grid."""
    hp = sim_hamiltonian(h)
    return _worst([np.linalg.norm(herm_expm(hp, t) - c_of(herm_expm(h, t))) for t in times])


def _statistics_preservation_residual() -> float:
    """Outcome probabilities of lifted POVMs on family members vs the reference."""
    plus = StateVector([2], np.array([1, 1]) / np.sqrt(2))
    imag = StateVector([2], np.array([1, 1j]) / np.sqrt(2))
    residuals = []
    for a in (0.0, 0.25, 0.5, 1.0):
        cmax = np.sqrt(a * (1 - a))
        for c in {0.0, cmax, cmax * 1j}:
            for psi, axis in ((plus, "X"), (imag, "Y"), (imag, "Z")):
                povm = Povm([(PAULIS["I"] + sign * PAULIS[axis]) / 2 for sign in (1, -1)])
                sim = sim_povm(povm).probabilities(multiparty_sim_state(psi, SimParams(a, c)))
                residuals.append(np.abs(povm.probabilities(psi) - sim).max())
    return _worst(residuals)
