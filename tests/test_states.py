import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conjsim.family import SimParams, multiparty_sim_state
from conjsim.linalg import X, Y, Z, op_partial_trace
from conjsim.selftest import _support
from conjsim.states import DensityMatrix, StateVector, epr_pair, partial_trace, purify

from dense_reference import basis_state, expectation


seeds = st.integers(min_value=0, max_value=2**32 - 1)


def random_pure(dims, rng) -> StateVector:
    d = int(np.prod(dims))
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return StateVector(dims, v / np.linalg.norm(v))


def test_state_vector_validation():
    with pytest.raises(ValueError):
        StateVector([2], [1.0, 1.0])        # not normalized
    with pytest.raises(ValueError):
        StateVector([2, 2], [1.0, 0.0])     # wrong length
    with pytest.raises(ValueError, match="norm nan"):
        StateVector([2], [np.nan, 0.0])


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix([2], np.array([[0.5, 0.5], [0.4, 0.5]]))   # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix([2], np.diag([0.9, 0.9]))                  # trace != 1
    with pytest.raises(ValueError):
        DensityMatrix([2], np.diag([1.5, -0.5]))                 # negative eigenvalue
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix([2], np.array([[1.0, bad], [bad, 0.0]]))


@pytest.mark.parametrize("dims", [[2.9, 2], [2.0, 2], [True, 4], [np.float64(2), 2], [-1, -4],
                                  [-2, -2]])
def test_dims_must_be_integers_of_at_least_one(dims):
    e0 = np.eye(4)[0]
    with pytest.raises(ValueError, match="state dims"):
        StateVector(dims, e0)
    with pytest.raises(ValueError, match="state dims"):
        DensityMatrix(dims, np.outer(e0, e0))


@pytest.mark.parametrize("dims", [[2 ** 62 + 1, 4], [4, 2 ** 62 + 1], [2, 2, 2 ** 62 + 1]])
def test_dims_whose_product_wraps_in_int64_are_refused(dims):
    # 4 (2**62 + 1) is 4 mod 2**64: a product that wraps in int64 matches four amplitudes
    e0 = np.eye(4)[0]
    with pytest.raises(ValueError, match="do not match amplitude length 4"):
        StateVector(dims, e0)
    with pytest.raises(ValueError, match=r"do not match matrix shape \(4, 4\)"):
        DensityMatrix(dims, np.outer(e0, e0))


def test_numpy_integer_dims_are_stored_as_ints():
    e0 = np.eye(4)[0]
    for state in (StateVector(np.array([2, 2]), e0), DensityMatrix([np.int64(2), 2], np.diag(e0))):
        assert state.dims == (2, 2) and all(type(d) is int for d in state.dims)


def test_expectation_epr_values():
    phi = epr_pair()
    assert expectation(phi, np.kron(X, X)) == pytest.approx(1.0, abs=1e-12)
    assert expectation(phi, np.kron(X, Z)) == pytest.approx(0.0, abs=1e-12)
    assert expectation(phi, np.kron(Y, Y)) == pytest.approx(-1.0, abs=1e-12)
    assert expectation(phi, np.kron(Z, Z)) == pytest.approx(1.0, abs=1e-12)


def test_expectation_rejects_non_hermitian_residue():
    plus = StateVector([2], np.array([1, 1]) / np.sqrt(2))
    with pytest.raises(ValueError):
        expectation(plus, np.array([[0, 1j], [0, 0]]))
    with pytest.raises(ValueError):
        expectation(epr_pair(), np.eye(2))   # dimension mismatch


def test_partial_trace_epr_is_maximally_mixed():
    for keep in ([0], [1]):
        rho = partial_trace(epr_pair(), keep)
        np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-14)


def test_partial_trace_keep_all_is_identity_operation():
    rho = epr_pair().density()
    np.testing.assert_allclose(partial_trace(rho, [0, 1]).matrix, rho.matrix)


def test_partial_trace_of_product_factors():
    rng = np.random.default_rng(7)
    a = random_pure([2], rng).density()
    b = random_pure([3], rng).density()
    joint = DensityMatrix([2, 3], np.kron(a.matrix, b.matrix))
    np.testing.assert_allclose(partial_trace(joint, [0]).matrix, a.matrix, atol=1e-12)


def test_partial_trace_of_reference_branch_sim_state():
    psi = random_pure([2], np.random.default_rng(11))
    rho = multiparty_sim_state(psi, 1, SimParams(1.0, 0.0))
    reduced = partial_trace(rho, [1])
    np.testing.assert_allclose(reduced.matrix,
                               np.outer(psi.amplitudes, psi.amplitudes.conj()), atol=1e-12)


def test_partial_trace_flag_of_epr_sim_state():
    phi = StateVector([4], epr_pair().amplitudes)          # the pair as one register
    rho = multiparty_sim_state(phi, 1, SimParams(1.0, 0.0))     # dims (flag, 4)
    reduced = partial_trace(rho, [1])
    np.testing.assert_allclose(reduced.matrix,
                               np.outer(phi.amplitudes, phi.amplitudes.conj()), atol=1e-12)


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_partial_trace_of_pure_state_matches_density_route(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    dims = [int(d) for d in rng.integers(1, 4, size=n)]
    keep = [int(k) for k in rng.integers(0, n, size=int(rng.integers(0, n + 2)))]  # repeats too
    psi = random_pure(dims, rng)
    fast = partial_trace(psi, keep)
    dense = op_partial_trace(psi.density().matrix, dims, keep)
    assert fast.dims == tuple(dims[k] for k in sorted(set(keep)))
    np.testing.assert_allclose(fast.matrix, dense, rtol=0, atol=1e-14)


def test_partial_trace_invalid_index():
    with pytest.raises(ValueError):
        partial_trace(epr_pair(), [2])


@pytest.mark.parametrize("pure", [True, False], ids=["state_vector", "density_matrix"])
def test_partial_trace_checks_keep_once_for_both_kinds(pure):
    rng = np.random.default_rng(3)
    psi = random_pure([2, 3, 2], rng)
    state = psi if pure else psi.density()
    for keep in ([3], [-1], [0, 5], [-4, 1]):
        with pytest.raises(ValueError, match=r"invalid subsystem index .* for 3 subsystems"):
            partial_trace(state, keep)
    merged = partial_trace(state, [2, 0, 2, 0])
    assert merged.dims == (2, 2)
    np.testing.assert_array_equal(merged.matrix, partial_trace(state, [0, 2]).matrix)


# The party support of a pure state is read from its amplitude matrix Psi (d_A, d_B).


def test_support_projector_full_rank_and_product():
    for party in ("A", "B"):
        np.testing.assert_allclose(_support(epr_pair().amplitudes.reshape(2, 2), party),
                                   np.eye(2), atol=1e-12)
        np.testing.assert_allclose(
            _support(basis_state([2, 2], [0, 0]).amplitudes.reshape(2, 2), party),
            np.diag([1.0, 0.0]), atol=1e-12)


def test_support_projector_excludes_empty_flag_branch():
    # reference-branch family member: the flag-1 sector never appears, so the
    # support on A's registers (flag_A, data_A) holds only flag-0 vectors
    rho = multiparty_sim_state(epr_pair(), 2, SimParams(1.0, 0.0))
    psi = purify(rho)
    assert psi.dims == (2, 2, 2, 2)
    proj = _support(psi.amplitudes.reshape(4, 4), "A")
    # projector on (flag_A, data_A): flag-1 block must vanish
    np.testing.assert_allclose(proj[2:, 2:], np.zeros((2, 2)), atol=1e-12)
    np.testing.assert_allclose(proj[:2, :2], np.eye(2), atol=1e-12)


@given(seeds)
@settings(max_examples=50, deadline=None)
def test_support_projector_properties(seed):
    rng = np.random.default_rng(seed)
    psi = random_pure([3, 2], rng).amplitudes.reshape(3, 2)
    for party, killed in (("A", lambda p: (np.eye(3) - p) @ psi),
                          ("B", lambda p: psi @ (np.eye(2) - p).T)):
        p = _support(psi, party)
        np.testing.assert_allclose(p @ p, p, atol=1e-10)
        np.testing.assert_allclose(p, p.conj().T, atol=1e-10)
        assert np.linalg.norm(killed(p)) <= 1e-9
    assert round(np.trace(_support(psi, "A")).real) == 2     # rank of a generic 3 x 2 Psi


def test_purify_roundtrip():
    rng = np.random.default_rng(5)
    mix = 0.25 * random_pure([2, 2], rng).density().matrix \
        + 0.75 * random_pure([2, 2], rng).density().matrix
    dm = DensityMatrix([2, 2], mix)
    pure = purify(dm)
    assert pure.dims[:2] == (2, 2)
    back = partial_trace(pure, [0, 1])
    np.testing.assert_allclose(back.matrix, dm.matrix, atol=1e-10)


def test_purify_rank_one_returns_vector_without_aux():
    psi = epr_pair()
    pure = purify(psi.density())
    assert pure.dims == psi.dims
    overlap = abs(np.vdot(pure.amplitudes, psi.amplitudes))
    assert overlap == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("small", [1e-12, 5e-13])
def test_purify_renormalises_the_kept_weight(small):
    # the dropped eigenvalue is as large as the trace tolerance, so without
    # renormalising the reduced state of the purification fails its trace check
    dm = DensityMatrix([2, 2], np.diag([0.5, 0.5 - small, small, 0.0]))
    pure = purify(dm)
    assert pure.dims == (2, 2, 2)
    assert np.linalg.norm(pure.amplitudes) == pytest.approx(1.0, abs=1e-15)
    reduced = partial_trace(pure, [0, 1])
    assert np.trace(reduced.matrix).real == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(reduced.matrix, dm.matrix, atol=2 * small)


def test_product_state_dims():
    s = StateVector((2, 2, 2), np.kron(basis_state([2], [1]).amplitudes, epr_pair().amplitudes))
    assert s.dims == (2, 2, 2)
    assert expectation(s, np.kron(Z, np.eye(4))) == pytest.approx(-1.0)
