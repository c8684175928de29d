"""The conjugation-based family of simulations of a reference experiment.

A family member mixes a reference experiment with its entrywise complex
conjugate, controlled on an added flag qubit.  The member is parametrized by
the flag population ``a`` and the cross-branch coherence ``c`` subject to
|c| <= sqrt(a(1-a)).  Statistics of any feasible member are identical to the
reference, which is what makes the family a simulation.
"""

from __future__ import annotations

import cmath

import numpy as np

from .linalg import (
    ATOL,
    HADAMARD,
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

    def __init__(self, elements):
        mats = tuple(as_matrix(e) for e in elements)
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

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    def probabilities(self, state: StateVector | DensityMatrix) -> np.ndarray:
        rho = state.density().matrix
        return np.array([np.trace(rho @ e).real for e in self.elements])


class KrausMap(Record):
    """Trace-preserving completely positive map in Kraus form."""

    operators: tuple[np.ndarray, ...]

    def __init__(self, operators):
        ops = tuple(as_matrix(k) for k in operators)
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
    """Lift |0><0| (x) M + |1><1| (x) M*; equals I (x) Re(M) + iZ (x) Im(M)."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError("c_of requires a square matrix")
    return _flag_diag(m, m.conj())


def _flag_diag(upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """|0><0| (x) upper + |1><1| (x) lower for square blocks of one shape."""
    d = upper.shape[0]
    out = np.zeros((2 * d, 2 * d), dtype=complex)
    out[:d, :d] = upper
    out[d:, d:] = lower
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


def multiparty_sim_state(psi: StateVector, n_parties: int, p: SimParams) -> DensityMatrix:
    """Family member with one flag qubit per party, prepended to each party's register.

    The flag registers only populate the logical states |0...0> and |1...1>;
    all cross-flag populations vanish, so locally premeasured flags always agree.
    With one party this is the single-flag member: projecting the flag onto
    |0>/|1> leaves the reference/conjugate state.  The block of flags (z, z') is
    written where every row flag equals z and every column flag equals z'.
    """
    if len(psi.dims) != n_parties:
        raise ValueError(f"state has {len(psi.dims)} subsystems, expected one per party")
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


def _split_flag_blocks(mat: np.ndarray):
    d = mat.shape[0]
    if d % 2:
        raise ValueError("operator has no leading flag qubit")
    h = d // 2
    return mat[:h, :h], mat[:h, h:], mat[h:, :h], mat[h:, h:]


def to_real_simulation(value, which: str):
    """Basis change on the flag qubit taking the family picture to the real simulation.

    ``which='state'`` expects the pure a=c=1/2 member and returns the vector
    |0> Re(psi) + |1> Im(psi); ``which='operator'`` expects a C(.)-lifted
    operator and returns I (x) Re(M) + XZ (x) Im(M).  Outputs are real within
    1e-12 by construction; inputs not of the required form are rejected.
    """
    if which == "state":
        if isinstance(value, DensityMatrix):
            w, vecs = np.linalg.eigh(value.matrix)
            if w[:-1].max(initial=0.0) > REAL_SIM_TOL:
                raise ValueError("state branch requires the pure a=c=1/2 family member")
            vec = vecs[:, -1]
            dims = value.dims
        elif isinstance(value, StateVector):
            vec = value.amplitudes.copy()
            dims = value.dims
        else:
            raise TypeError("expected StateVector or DensityMatrix")
        half = vec.size // 2
        top, bottom = vec[:half], vec[half:]
        if abs(np.linalg.norm(top) ** 2 - 0.5) > REAL_SIM_TOL:
            raise ValueError("flag populations are not (1/2, 1/2); not an a=c=1/2 member")
        # the branch structure bottom = conj(top) holds only up to a global
        # phase e^{i phi}; recover it from sum_i top_i bottom_i and rotate it out
        s = np.sum(top * bottom)
        if abs(abs(s) - 0.5) > REAL_SIM_TOL:
            raise ValueError("flag branches are not conjugate; not an a=c=1/2 member")
        rot = np.exp(-0.5j * np.angle(s))
        top, bottom = rot * top, rot * bottom
        if np.abs(bottom - top.conj()).max() > REAL_SIM_TOL:
            raise ValueError("flag branches are not conjugate; not an a=c=1/2 member")
        out = np.concatenate([np.sqrt(2) * top.real, np.sqrt(2) * top.imag])
        if abs(np.linalg.norm(out) - 1.0) > REAL_SIM_TOL:
            raise ValueError("transformed state is not normalized")
        if out[np.argmax(np.abs(out))] < 0:     # canonical overall sign
            out = -out
        return StateVector(dims, out)
    if which == "operator":
        mat = as_matrix(value)
        top_l, top_r, bot_l, bot_r = _split_flag_blocks(mat)
        if (np.abs(top_r).max() > REAL_SIM_TOL or np.abs(bot_l).max() > REAL_SIM_TOL
                or np.abs(bot_r - top_l.conj()).max() > REAL_SIM_TOL):
            raise ValueError("operator is not of the C(M) block form")
        m = top_l
        xz = np.array([[0, -1], [1, 0]], dtype=complex)
        out = np.kron(np.eye(2), m.real) + np.kron(xz, m.imag)
        return out.real.astype(float) if np.abs(out.imag).max() <= 1e-12 else out
    raise ValueError(f"which must be 'state' or 'operator', got {which!r}")


class PropertyCheck(Record):
    name: str
    max_residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tol


class PropertyReport(Record):
    trials: int
    dim: int
    seed: int
    checks: tuple[PropertyCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def c_property_suite(trials: int, dim: int, seed: int, tol: float = ATOL) -> PropertyReport:
    """Exercise the eight algebraic properties of the C(.) lifting on random matrices.

    Preservation items are checked in both directions through exact norm
    relations, e.g. ||C(M) - C(M)^dag||_F = sqrt(2) ||M - M^dag||_F, so a
    non-Hermitian input failing to lift to a non-Hermitian output would show
    up as a nonzero residual.
    """
    if dim > 8:
        raise ValueError("property suite supports dim <= 8")
    rng = np.random.default_rng(seed)
    res = {k: 0.0 for k in (
        "multiplicative", "additive", "real_scalar", "eigenvector_lift",
        "hermiticity", "unitarity", "psd", "trace_doubling")}

    def bump(key, value):
        res[key] = max(res[key], float(value))

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
        bump("hermiticity", _both_ways(m, lambda x: np.linalg.norm(x - x.conj().T)))
        bump("hermiticity", np.abs(c_of(herm) - c_of(herm).conj().T).max())

        u = random_unitary(dim, rng)
        bump("unitarity", _both_ways(m, lambda x: np.linalg.norm(x @ x.conj().T - np.eye(len(x)))))
        bump("unitarity", np.abs(c_of(u) @ c_of(u).conj().T - np.eye(2 * dim)).max())

        psd = random_psd(dim, rng)
        bump("psd", abs(np.linalg.eigvalsh(c_of(psd)).min() - np.linalg.eigvalsh(psd).min()))
        bump("psd", abs(np.linalg.eigvalsh(c_of(herm)).min() - np.linalg.eigvalsh(herm).min()))

        bump("trace_doubling", abs(np.trace(c_of(herm)) - 2 * np.trace(herm)))

    checks = tuple(PropertyCheck(k, v, tol) for k, v in res.items())
    return PropertyReport(trials=trials, dim=dim, seed=seed, checks=checks)


def _both_ways(m: np.ndarray, defect) -> float:
    # preservation in both directions: the lifted defect is exactly sqrt(2) times
    # the original (Frobenius), so this residual vanishes iff they agree.
    return abs(defect(c_of(m)) - np.sqrt(2) * defect(m))


def hamiltonian_identity_residual(h: np.ndarray, times) -> float:
    """max_t || exp(-i H' t) - C(exp(-i H t)) ||_F over the given time grid."""
    hp = sim_hamiltonian(h)
    worst = 0.0
    for t in times:
        worst = max(worst, float(np.linalg.norm(herm_expm(hp, t) - c_of(herm_expm(h, t)))))
    return worst
