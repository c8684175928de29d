import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conjsim.linalg import (
    HADAMARD,
    X,
    Y,
    Z,
    herm_expm,
    is_binary_observable,
    is_hermitian,
    is_psd,
    is_unitary,
    op_partial_trace,
    pauli_decompose,
    random_complex_matrix,
    random_hermitian,
    random_unitary,
)

from dense_reference import (
    controlled_gate,
    embed_operator,
    kron_all,
    pauli_recompose,
    permute_subsystems_matrix,
    permute_subsystems_vector,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


# The dense oracles build their full-space operators with kron_all, so its Kronecker
# identities and index convention (the left factor's indices major) are checked here.


def test_tensor_identity():
    np.testing.assert_allclose(kron_all(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_entry_formula_on_paulis():
    # independent oracle: place (X)_ij (Z)_kl at (2i+k, 2j+l)
    expected = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    expected[2 * i + k, 2 * j + l] = X[i, j] * Z[k, l]
    np.testing.assert_allclose(kron_all(X, Z), expected)


def test_tensor_zz_stabilizes_epr():
    phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    np.testing.assert_allclose(kron_all(Z, Z) @ phi, phi, atol=1e-14)


@given(seeds)
@settings(max_examples=50, deadline=None)
def test_tensor_mixed_product(seed):
    rng = np.random.default_rng(seed)
    a, b, c, d = (random_complex_matrix(3, rng) for _ in range(4))
    np.testing.assert_allclose(kron_all(a, b) @ kron_all(c, d), kron_all(a @ c, b @ d), atol=1e-10)


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_tensor_associative(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (random_complex_matrix(2, rng) for _ in range(3))
    np.testing.assert_allclose(kron_all(kron_all(a, b), c), kron_all(a, kron_all(b, c)), atol=1e-12)


def test_predicates():
    assert is_hermitian(Z) and is_unitary(Z) and is_binary_observable(Z)
    assert not is_hermitian(np.array([[0, 1], [0, 0]]))
    assert is_psd(np.diag([0.0, 1.0])) and not is_psd(np.diag([-1.0, 1.0]))
    assert is_unitary(HADAMARD) and not is_unitary(np.diag([1.0, 2.0]))


def test_herm_expm_trivial_and_diagonal():
    np.testing.assert_allclose(herm_expm(np.zeros((3, 3)), 2.7), np.eye(3), atol=1e-14)
    np.testing.assert_allclose(herm_expm(Z, np.pi), -np.eye(2), atol=1e-12)


def test_herm_expm_y_quarter_turn():
    # hand oracle: exp(-i Y pi/2) = cos(pi/2) I - i sin(pi/2) Y = -iY
    np.testing.assert_allclose(herm_expm(Y, np.pi / 2),
                               np.array([[0, -1], [1, 0]]), atol=1e-12)


def test_herm_expm_rejects_non_hermitian():
    with pytest.raises(ValueError):
        herm_expm(np.array([[0, 1], [0, 0]]), 1.0)


@given(seeds, st.integers(min_value=2, max_value=8))
@settings(max_examples=50, deadline=None)
def test_herm_expm_inverse(seed, dim):
    rng = np.random.default_rng(seed)
    h = random_hermitian(dim, rng)
    t = float(rng.uniform(0.1, 3.0))
    np.testing.assert_allclose(herm_expm(h, t) @ herm_expm(h, -t), np.eye(dim), atol=1e-9)
    assert is_unitary(herm_expm(h, t), tol=1e-10)


def test_embed_and_permute_consistency():
    rng = np.random.default_rng(0)
    m = random_complex_matrix(2, rng)
    dims = [2, 3, 2]
    # embedding on the last subsystem equals I (x) I (x) m
    np.testing.assert_allclose(embed_operator(m, dims, [2]),
                               kron_all(np.eye(2), np.eye(3), m), atol=1e-14)
    # permuting a vector twice with inverse orders is the identity
    v = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    w = permute_subsystems_vector(v, dims, [2, 0, 1])
    back = permute_subsystems_vector(w, [2, 2, 3], [1, 2, 0])
    np.testing.assert_allclose(back, v)


def test_embed_operator_order_matters():
    # embedding CNOT-style blocks with swapped targets transposes the roles
    cz = controlled_gate(Z, [2, 2], 0, [1])
    np.testing.assert_allclose(cz, np.diag([1, 1, 1, -1]).astype(complex))
    cz_rev = controlled_gate(Z, [2, 2], 1, [0])
    np.testing.assert_allclose(cz_rev, np.diag([1, 1, 1, -1]).astype(complex))


def test_permute_subsystems_matrix_roundtrip():
    rng = np.random.default_rng(1)
    m = random_complex_matrix(12, rng)
    p = permute_subsystems_matrix(m, [2, 3, 2], [1, 2, 0])
    back = permute_subsystems_matrix(p, [3, 2, 2], [2, 0, 1])
    np.testing.assert_allclose(back, m)


def test_op_partial_trace_factors():
    rng = np.random.default_rng(2)
    a = random_complex_matrix(2, rng)
    b = random_complex_matrix(3, rng)
    np.testing.assert_allclose(op_partial_trace(np.kron(a, b), [2, 3], [0]),
                               a * np.trace(b), atol=1e-12)
    np.testing.assert_allclose(op_partial_trace(np.kron(a, b), [2, 3], [1]),
                               b * np.trace(a), atol=1e-12)


def test_pauli_decompose_single_qubit():
    blocks = pauli_decompose(X, 0, [2])
    np.testing.assert_allclose(blocks["X"], [[1.0]], atol=1e-14)
    for name in ("I", "Y", "Z"):
        np.testing.assert_allclose(blocks[name], [[0.0]], atol=1e-14)


def test_pauli_decompose_linearity():
    rng = np.random.default_rng(3)
    a = random_complex_matrix(3, rng)
    b = random_complex_matrix(3, rng)
    m = np.kron(X, a) + np.kron(Z, b)
    blocks = pauli_decompose(m, 0, [2, 3])
    np.testing.assert_allclose(blocks["X"], a, atol=1e-12)
    np.testing.assert_allclose(blocks["Z"], b, atol=1e-12)
    np.testing.assert_allclose(blocks["I"], np.zeros((3, 3)), atol=1e-12)
    np.testing.assert_allclose(blocks["Y"], np.zeros((3, 3)), atol=1e-12)


def test_pauli_decompose_lifted_y():
    # C(Y) = Z (x) Y: flag-qubit decomposition holds only the Z component,
    # data-qubit decomposition holds Z as the Y component
    from conjsim.family import c_of

    lifted = c_of(Y)
    at_flag = pauli_decompose(lifted, 0, [2, 2])
    np.testing.assert_allclose(at_flag["I"], np.zeros((2, 2)), atol=1e-14)
    np.testing.assert_allclose(at_flag["Z"], Y, atol=1e-14)
    at_data = pauli_decompose(lifted, 1, [2, 2])
    np.testing.assert_allclose(at_data["Y"], Z, atol=1e-14)
    np.testing.assert_allclose(at_data["X"], np.zeros((2, 2)), atol=1e-14)


@given(seeds, st.integers(min_value=0, max_value=2))
@settings(max_examples=50, deadline=None)
def test_pauli_decompose_reconstructs(seed, qubit):
    rng = np.random.default_rng(seed)
    dims = [2, 2, 3]
    m = random_complex_matrix(12, rng)
    blocks = pauli_decompose(m, qubit, dims) if dims[qubit] == 2 else None
    if blocks is None:
        return
    np.testing.assert_allclose(pauli_recompose(blocks, qubit, dims), m, atol=1e-10)


def test_pauli_decompose_rejects_non_qubit():
    with pytest.raises(ValueError):
        pauli_decompose(np.eye(6), 1, [2, 3])


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_random_unitary_is_unitary(seed):
    rng = np.random.default_rng(seed)
    assert is_unitary(random_unitary(5, rng), tol=1e-10)
