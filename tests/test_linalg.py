import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conjsim.linalg import (
    ATOL,
    HADAMARD,
    X,
    Y,
    Z,
    failing,
    herm_expm,
    hermitian_defect,
    is_binary_observable,
    is_hermitian,
    is_psd,
    is_unitary,
    psd_defect,
    random_complex_matrix,
    random_hermitian,
    random_unitary,
    unitary_defect,
    worst_failing,
)

from dense_reference import (
    controlled_gate,
    embed_operator,
    kron_all,
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


def test_predicates_are_defects_within_tol():
    skew = np.array([[0, 3e-10], [0, 0]])
    assert hermitian_defect(skew) == 3e-10
    assert is_hermitian(np.array([[0, ATOL], [0, 0]])) and not is_hermitian(skew)
    assert unitary_defect(np.diag([1.0, 2.0])) == 3.0
    assert psd_defect(np.diag([-0.5, 1.0])) == 0.5 and psd_defect(np.diag([0.0, 1.0])) == 0.0
    assert psd_defect(np.array([[1.0, 2.0], [0.0, 1.0]])) == 2.0     # the Hermitian defect
    wide = np.ones((1, 2))
    assert hermitian_defect(wide) == unitary_defect(wide) == psd_defect(wide) == np.inf
    assert not (is_hermitian(wide) or is_unitary(wide) or is_psd(wide))
    assert np.isnan(psd_defect(np.array([[np.nan]]))) and not is_psd(np.array([[np.nan]]))


def test_the_verdict_rule():
    residuals = {"a": 1.0, "b": 2.0, "c": np.nan, "d": 0.5}
    assert failing(residuals, 1.0) == {"b": 2.0, "c": residuals["c"]}
    # a dict of bounds picks the entries judged, in its order; a NaN bound fails
    assert failing(residuals, {"d": np.nan, "b": 2.0, "a": np.nextafter(1.0, 0)}) == \
        {"d": 0.5, "a": 1.0}
    assert failing({}, 0.0) == {} and worst_failing({"a": 0.0}, 0.0) == ""
    assert worst_failing(residuals, 0.0) == "c"                       # a NaN ranks first
    assert worst_failing({"y": 1.0, "x": 1.0 - 1e-13, "w": 0.9}, 0.0) == "x"   # ties by name


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
    assert unitary_defect(herm_expm(h, t)) <= 1e-10


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


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_random_unitary_is_unitary(seed):
    rng = np.random.default_rng(seed)
    assert unitary_defect(random_unitary(5, rng)) <= 1e-10
