import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conjsim import family
from conjsim.family import (
    HAMILTONIAN_BOUND,
    KrausMap,
    Povm,
    SimParams,
    _hamiltonian_identity_residual,
    c_of,
    c_property_suite,
    multiparty_sim_state,
    sim_hamiltonian,
    sim_kraus,
    sim_povm,
    sim_unitary_evolve,
    to_real_simulation,
)
from conjsim.linalg import (
    ATOL,
    HADAMARD,
    X,
    Y,
    Z,
    as_matrix,
    failing,
    herm_expm,
    is_hermitian,
)
from conjsim.selftest import family_experiment, with_observable
from conjsim.states import StateVector, epr_pair, partial_trace

from dense_reference import (
    basis_state,
    block_lift,
    dense_multiparty_sim_state,
    embed_operator,
    expectation,
    feasible_members,
    per_trial_lifting_residuals,
    permute_subsystems_matrix,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)

PLUS = StateVector([2], np.array([1, 1]) / np.sqrt(2))
IMAG = StateVector([2], np.array([1, 1j]) / np.sqrt(2))


def test_sim_params_feasibility():
    SimParams(0.5, 0.5)
    SimParams(0.5, 0.5j)
    with pytest.raises(ValueError):
        SimParams(0.5, 0.51)
    with pytest.raises(ValueError):
        SimParams(1.0, 0.1)
    with pytest.raises(ValueError):
        SimParams(-0.1, 0.0)
    with pytest.raises(ValueError):
        SimParams(1.1, 0.0)


def test_sim_params_from_polar():
    p = SimParams.from_polar(0.5, 0.5, np.pi / 2)
    assert p.c == pytest.approx(0.5j)


def test_sim_state_reference_branch():
    psi = IMAG
    rho = multiparty_sim_state(psi, SimParams(1.0, 0.0))
    expected = np.kron(np.diag([1.0, 0.0]), np.outer(psi.amplitudes, psi.amplitudes.conj()))
    np.testing.assert_allclose(rho.matrix, expected, atol=1e-14)


def test_sim_state_conjugate_branch():
    psi = IMAG
    rho = multiparty_sim_state(psi, SimParams(0.0, 0.0))
    conj = np.outer(psi.amplitudes.conj(), psi.amplitudes)
    expected = np.kron(np.diag([0.0, 1.0]), conj)
    np.testing.assert_allclose(rho.matrix, expected, atol=1e-14)


def test_sim_state_pure_superposition():
    psi = IMAG
    rho = multiparty_sim_state(psi, SimParams(0.5, 0.5))
    vec = np.concatenate([psi.amplitudes, psi.amplitudes.conj()]) / np.sqrt(2)
    np.testing.assert_allclose(rho.matrix, np.outer(vec, vec.conj()), atol=1e-14)


def test_sim_state_flag_projections():
    psi = IMAG
    rho = multiparty_sim_state(psi, SimParams(0.3, 0.2j)).matrix
    np.testing.assert_allclose(rho[:2, :2] / 0.3,
                               np.outer(psi.amplitudes, psi.amplitudes.conj()), atol=1e-12)
    np.testing.assert_allclose(rho[2:, 2:] / 0.7,
                               np.outer(psi.amplitudes.conj(), psi.amplitudes), atol=1e-12)


def test_sim_state_rejects_infeasible():
    with pytest.raises(ValueError):
        multiparty_sim_state(PLUS, SimParams(0.5, 0.6))


def test_sim_povm_identity():
    lifted = sim_povm(Povm([np.eye(2)]))
    np.testing.assert_allclose(lifted.elements[0], np.eye(4))


def test_sim_povm_x_basis_on_plus():
    povm = Povm([(np.eye(2) + X) / 2, (np.eye(2) - X) / 2])
    for p in feasible_members():
        probs = sim_povm(povm).probabilities(multiparty_sim_state(PLUS, p))
        np.testing.assert_allclose(probs, [1.0, 0.0], atol=1e-12)


def test_sim_povm_y_basis_on_conjugate_branch():
    povm = Povm([(np.eye(2) + Y) / 2, (np.eye(2) - Y) / 2])
    probs = sim_povm(povm).probabilities(multiparty_sim_state(IMAG, SimParams(0.0, 0.0)))
    np.testing.assert_allclose(probs, [1.0, 0.0], atol=1e-12)


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_statistics_preservation_random_states(seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    psi = StateVector([3], v / np.linalg.norm(v))
    u = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    povm = Povm([np.outer(u[:, k], u[:, k].conj()) for k in range(3)])
    a = float(rng.uniform(0, 1))
    c = rng.uniform(0, np.sqrt(a * (1 - a))) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    probs = sim_povm(povm).probabilities(multiparty_sim_state(psi, SimParams(a, c)))
    np.testing.assert_allclose(probs, povm.probabilities(psi), atol=1e-10)


def test_c_of_examples():
    np.testing.assert_allclose(c_of(np.eye(2)), np.eye(4))
    np.testing.assert_allclose(c_of(Y), np.block([[Y, np.zeros((2, 2))],
                                                  [np.zeros((2, 2)), -Y]]), atol=1e-14)
    assert np.trace(c_of(np.diag([1.0, 2.0]))) == pytest.approx(6.0)


def test_c_of_real_imaginary_form():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    iz = 1j * np.kron(Z, np.eye(3))
    expected = np.kron(np.eye(2), m.real) + iz @ np.kron(np.eye(2), m.imag)
    np.testing.assert_allclose(c_of(m), expected, atol=1e-12)


def same_bits(got, want):
    """Equal values and equal zero signs in both the real and the imaginary parts."""
    return (got.shape == want.shape and np.array_equal(got, want)
            and all(np.array_equal(np.signbit(part(got)), np.signbit(part(want)))
                    for part in (np.real, np.imag)))


@pytest.mark.parametrize("dim", range(1, 9))
def test_flag_lifts_match_block_oracle(dim):
    rng = np.random.default_rng(dim)
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m.real[0, :] = -0.0                      # signed zeros must come through unchanged
    m.imag[:, -1] = -0.0
    assert same_bits(c_of(m), block_lift(m, m.conj()))
    h = m + m.conj().T
    for herm in (h, h.real, np.zeros((dim, dim)), -np.eye(dim)):
        assert same_bits(sim_hamiltonian(herm), block_lift(herm, -as_matrix(herm).conj()))
    stack = np.stack([m, h, -m])                 # a stack lifts matrix by matrix
    assert same_bits(c_of(stack[None]), np.stack([[block_lift(x, x.conj()) for x in stack]]))
    for bad in (np.ones((dim, dim + 1)), np.ones((3, dim, dim + 1)), np.ones(dim)):
        with pytest.raises(ValueError, match="square"):
            c_of(bad)


def test_c_property_suite_clean():
    residuals, bounds = c_property_suite(100, 4, seed=7)
    assert failing(residuals, bounds) == {} and list(bounds) == list(residuals)
    for name, residual in residuals.items():
        assert residual <= 1e-10, name


def test_c_property_suite_eigenvector_lift_explicit():
    rng = np.random.default_rng(12)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    evals, evecs = np.linalg.eig(m)
    v, lam = evecs[:, 0], evals[0]
    up = np.concatenate([v, np.zeros(4)])
    down = np.concatenate([np.zeros(4), v.conj()])
    np.testing.assert_allclose(c_of(m) @ up, lam * up, atol=1e-10)
    np.testing.assert_allclose(c_of(m) @ down, np.conj(lam) * down, atol=1e-10)


def test_c_of_hermiticity_contrapositive():
    m = np.array([[0, 1], [0, 0]], dtype=complex)
    assert not is_hermitian(m)
    assert not is_hermitian(c_of(m))


def test_property_verdict_is_residual_within_bound():
    assert failing({"x": 1.0}, 1.0) == {} and failing({"x": 1.5}, 1.0) == {"x": 1.5}
    assert list(failing({"x": float("nan")}, 1.0)) == ["x"]
    residuals, bounds = c_property_suite(2, 2, seed=0, fixtures=[("nan", [[np.nan]],
                                                                  ["hermitian"])])
    assert np.isnan(residuals["fixture[nan:hermitian]"])
    assert list(failing(residuals, bounds)) == ["fixture[nan:hermitian]"]


def test_hamiltonian_identity_is_held_to_its_own_bound(monkeypatch):
    tol = 1e-10
    for residual, passed in ((10 * tol, True), (HAMILTONIAN_BOUND, True),
                             (2 * HAMILTONIAN_BOUND, False)):
        monkeypatch.setattr(family, "_hamiltonian_identity_residual", lambda h, t: residual)
        residuals, bounds = c_property_suite(2, 2, seed=0, tol=tol)
        assert list(residuals)[8] == "hamiltonian_identity"
        assert residuals["hamiltonian_identity"] == residual
        assert bounds["hamiltonian_identity"] == HAMILTONIAN_BOUND
        assert ("hamiltonian_identity" not in failing(residuals, bounds)) == passed


def test_fixture_residual_is_the_real_defect():
    fixtures = [("below", [[0, 0.5 * ATOL], [0, 0]], ["hermitian"]),
                ("above", [[0, 1.5 * ATOL], [0, 0]], ["hermitian"]),
                ("stretch", np.diag([1.0, 2.0]), ["unitary", "psd"]),
                ("wide", np.ones((1, 2)), ["psd"])]
    residuals, bounds = c_property_suite(2, 2, seed=0, fixtures=fixtures)
    failed = failing(residuals, bounds)
    assert [(name, residuals[name], bounds[name], name not in failed)
            for name in list(residuals)[10:]] == [
        ("fixture[below:hermitian]", 0.5 * ATOL, ATOL, True),
        ("fixture[above:hermitian]", 1.5 * ATOL, ATOL, False),
        ("fixture[stretch:unitary]", 3.0, ATOL, False),
        ("fixture[stretch:psd]", 0.0, ATOL, True),
        ("fixture[wide:psd]", np.inf, ATOL, False)]


def test_c_property_suite_rejects_large_dim():
    with pytest.raises(ValueError, match="dim "):
        c_property_suite(10, 9, seed=0)


@pytest.mark.parametrize("trials, dim, name", [(0, 4, "trials"), (-2, 4, "trials"),
                                               (1, 0, "dim"), (1, -1, "dim")])
def test_c_property_suite_refuses_an_empty_or_oversized_suite(trials, dim, name):
    # at the parent, (0, 4) passed on its [0.0] seeds and the rest failed inside numpy
    with pytest.raises(ValueError, match=f"{name} "):
        c_property_suite(trials, dim, seed=1)


def test_c_property_suite_refuses_a_repeated_item_name():
    fixtures = [("?", np.eye(2), ["hermitian"]), ("?", np.eye(2), ["unitary", "hermitian"])]
    with pytest.raises(ValueError, match=r"fixture\[\?:hermitian\] given twice"):
        c_property_suite(1, 2, seed=0, fixtures=fixtures)
    residuals, _ = c_property_suite(1, 2, seed=0, fixtures=[("?", np.eye(2), ["hermitian"]),
                                                            ("!", np.eye(2), ["hermitian"])])
    assert list(residuals)[10:] == ["fixture[?:hermitian]", "fixture[!:hermitian]"]


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(1, 200), st.integers(1, 8), seeds, st.booleans())
@example(64, 3, 0, False)          # an exact multiple of the block
@example(65, 8, 1, True)           # and one trial past it
@example(129, 5, 2, False)
def test_stacked_suite_matches_the_per_trial_reference(trials, dim, seed, stretch):
    fixtures = [("stretch", np.diag([1.0, 2.0]), ["unitary", "psd"])] if stretch else []
    blocks = []
    lifting_block = family._lifting_block

    def spy(count, *args):
        block = lifting_block(count, *args)
        blocks.append((count, block))
        return block

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(family, "_lifting_block", spy)
        residuals, bounds = c_property_suite(trials, dim, seed, fixtures=fixtures)
    reference = per_trial_lifting_residuals(trials, dim, seed)
    # block k holds trials [64k, min(64k + 64, trials)), so the blocks hold every trial once
    windows = [slice(start, min(start + 64, trials)) for start in range(0, trials, 64)]
    assert [count for count, _ in blocks] == [w.stop - w.start for w in windows]
    for window, (_, block) in zip(windows, blocks):
        assert list(block) == list(reference)
        for name, per_trial in reference.items():
            assert abs(block[name] - per_trial[window].max()) <= 1e-14, (window, name)
    worst = {name: float(per_trial.max()) for name, per_trial in reference.items()}
    assert list(residuals)[:8] == list(worst)
    for name, value in worst.items():
        assert abs(residuals[name] - value) <= 1e-14, name
    assert list(failing(residuals, bounds)) == list(failing({**residuals, **worst}, bounds))
    assert ("fixture[stretch:unitary]" in failing(residuals, bounds)) == stretch


def test_the_suite_lifts_at_most_64_trials_at_once(monkeypatch):
    # at dim 8 a lifted stack of 64 trials is 0.26 MB: props --dim 8 --trials 3000 peaks at
    # 40 MB, and at 75 MB with 1024 trials per block
    stacks = []

    def spy(m):
        stacks.extend(np.shape(m)[:-2])
        return c_of(m)

    monkeypatch.setattr(family, "c_of", spy)
    assert failing(*c_property_suite(200, 8, seed=0)) == {}
    assert set(stacks) == {64, 8}          # three full blocks and the last 8 trials


def test_sim_unitary_evolve_identity():
    rho = multiparty_sim_state(PLUS, SimParams(0.5, 0.25))
    out = sim_unitary_evolve(rho, np.eye(2))
    np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-14)


def test_sim_unitary_evolve_hadamard_matches_sim_of_evolved():
    zero = basis_state([2], [0])
    plus = StateVector(zero.dims, HADAMARD @ zero.amplitudes)
    for p in (SimParams(1.0, 0.0), SimParams(0.5, 0.5), SimParams(0.25, 0.1j)):
        evolved = sim_unitary_evolve(multiparty_sim_state(zero, p), HADAMARD)
        np.testing.assert_allclose(evolved.matrix,
                                   multiparty_sim_state(plus, p).matrix, atol=1e-10)


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_sim_unitary_evolution_commutes_with_family(seed):
    from conjsim.linalg import random_unitary

    rng = np.random.default_rng(seed)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    psi = StateVector([3], v / np.linalg.norm(v))
    u = random_unitary(3, rng)
    a = float(rng.uniform(0, 1))
    c = rng.uniform(0, np.sqrt(a * (1 - a))) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    p = SimParams(a, c)
    evolved = StateVector(psi.dims, u @ psi.amplitudes)
    np.testing.assert_allclose(sim_unitary_evolve(multiparty_sim_state(psi, p), u).matrix,
                               multiparty_sim_state(evolved, p).matrix, atol=1e-10)


def test_sim_unitary_evolve_phase_gate_conjugate_branch():
    s_gate = np.diag([1.0, 1.0j])
    zero = basis_state([2], [0])
    out = sim_unitary_evolve(multiparty_sim_state(zero, SimParams(0.0, 0.0)), s_gate)
    # flag-1 branch carries S*|0>* = |0>
    branch = out.matrix[2:, 2:]
    np.testing.assert_allclose(branch, np.diag([1.0, 0.0]), atol=1e-12)


def test_sim_unitary_rejects_non_unitary():
    with pytest.raises(ValueError):
        sim_unitary_evolve(multiparty_sim_state(PLUS, SimParams(1.0, 0.0)), np.diag([1.0, 2.0]))


def test_sim_kraus_identity_channel():
    lifted = sim_kraus(KrausMap([np.eye(2)]))
    np.testing.assert_allclose(lifted.operators[0], np.eye(4))


def test_sim_kraus_dephasing_branches():
    dephase = KrausMap([np.sqrt(0.5) * np.eye(2), np.sqrt(0.5) * Z])
    psi = IMAG
    for p in (SimParams(1.0, 0.0), SimParams(0.0, 0.0), SimParams(0.5, 0.5)):
        out = sim_kraus(dephase).apply(multiparty_sim_state(psi, p)).matrix
        ref_out = dephase.apply(psi).matrix
        a = p.a
        if a > 0:
            np.testing.assert_allclose(out[:2, :2] / a, ref_out, atol=1e-10)
        if a < 1:
            np.testing.assert_allclose(out[2:, 2:] / (1 - a), ref_out.conj(), atol=1e-10)


def test_sim_kraus_amplitude_damping_trace_preserving():
    gamma = 0.3
    damp = KrausMap([np.array([[1, 0], [0, np.sqrt(1 - gamma)]]),
                     np.array([[0, np.sqrt(gamma)], [0, 0]])])
    lifted = sim_kraus(damp)
    total = sum(k.conj().T @ k for k in lifted.operators)
    np.testing.assert_allclose(total, np.eye(4), atol=1e-10)


def test_sim_kraus_rejects_non_trace_preserving():
    with pytest.raises(ValueError):
        KrausMap([np.eye(2) * 0.5])


def test_sim_hamiltonian_examples():
    np.testing.assert_allclose(sim_hamiltonian(np.zeros((2, 2))), np.zeros((4, 4)))
    np.testing.assert_allclose(sim_hamiltonian(Z), np.diag([1.0, -1.0, -1.0, 1.0]), atol=1e-14)
    with pytest.raises(ValueError):
        sim_hamiltonian(np.array([[0, 1], [0, 0]]))


def test_sim_hamiltonian_y_quarter_turn():
    lhs = herm_expm(sim_hamiltonian(Y), np.pi / 2)
    rhs = c_of(herm_expm(Y, np.pi / 2))
    np.testing.assert_allclose(lhs, rhs, atol=1e-8)
    np.testing.assert_allclose(rhs, c_of(np.array([[0, -1], [1, 0]])), atol=1e-8)


@given(seeds, st.integers(min_value=2, max_value=4))
@settings(max_examples=40, deadline=None)
def test_hamiltonian_identity_random(seed, dim):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (h + h.conj().T) / 2
    assert _hamiltonian_identity_residual(h, (0.1, 1.0, np.pi)) <= 1e-8


def test_multiparty_reference_branch():
    rho = multiparty_sim_state(epr_pair(), SimParams(1.0, 0.0))
    # party-major layout [fA, dA, fB, dB]: reorder to [fA, fB, dA, dB] to compare
    plain = permute_subsystems_matrix(rho.matrix, [2, 2, 2, 2], [0, 2, 1, 3])
    flags = np.zeros((4, 4)); flags[0, 0] = 1.0
    phi = epr_pair().amplitudes
    np.testing.assert_allclose(plain, np.kron(flags, np.outer(phi, phi.conj())), atol=1e-14)


@given(seeds, st.integers(min_value=1, max_value=3))
@settings(max_examples=60, deadline=None)
def test_multiparty_sim_state_matches_kron_oracle(seed, n):
    rng = np.random.default_rng(seed)
    dims = [int(d) for d in rng.integers(1, 4, size=n)]
    v = rng.standard_normal(int(np.prod(dims))).astype(complex)
    if rng.random() < 0.5:                    # complex amplitudes; otherwise real ones
        v += 1j * rng.standard_normal(v.size)
    v[rng.random(v.size) < 0.3] = 0.0
    v[0] += 1.0
    psi = StateVector(dims, v / np.linalg.norm(v))
    a = float(rng.choice([0.0, 0.5, 1.0, rng.uniform()]))
    bound = np.sqrt(a * (1 - a))
    c = bound * complex(rng.choice([0.0, 1.0, -1.0, 1j, np.exp(1j * rng.uniform(-3, 3))]))
    got = multiparty_sim_state(psi, SimParams(a, c))
    want = dense_multiparty_sim_state(psi, SimParams(a, c))
    assert got.dims == want.dims
    assert same_bits(got.matrix, want.matrix)


def test_multiparty_flag_support():
    rho = multiparty_sim_state(epr_pair(), SimParams(0.5, 0.5))
    flags = partial_trace(rho, [0, 2]).matrix
    # populated only on |00> and |11>
    for idx in (1, 2):
        np.testing.assert_allclose(flags[idx, :], np.zeros(4), atol=1e-12)
        np.testing.assert_allclose(flags[:, idx], np.zeros(4), atol=1e-12)
    assert flags[0, 0].real == pytest.approx(0.5)
    assert flags[3, 3].real == pytest.approx(0.5)
    assert abs(flags[0, 3]) == pytest.approx(0.5)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(a=st.floats(0.0, 1.0), share=st.floats(0.0, 1.0), phase=st.floats(-np.pi, np.pi))
def test_a_member_is_the_reference_conjugate_mix_once_its_flags_are_read(a, share, phase):
    # the construction sixstate's ZPremeasure law rests on: no population, and no coherence,
    # where the two flags differ, and the flag blocks (0, 0) and (1, 1) are exactly a times
    # the reference source and 1 - a times the conjugate source
    p = SimParams(a, share * np.sqrt(a * (1 - a)) * np.exp(1j * phase))
    shape = (2, 2, 2, 2) * 2                     # rows (fA, dA, fB, dB), then columns
    rho, ref, conj = (multiparty_sim_state(epr_pair(), q).matrix.reshape(shape)
                      for q in (p, SimParams(1.0), SimParams(0.0)))
    for f, g in ((0, 1), (1, 0)):
        assert not rho[f, :, g].any() and not rho[:, :, :, :, f, :, g].any()
    for f, weight, source in ((0, p.a, ref), (1, 1 - p.a, conj)):
        at = (f, slice(None)) * 4
        assert np.array_equal(rho[at], weight * source[at])


def test_multiparty_flags_agree_under_z():
    dims = [2, 2, 2, 2]
    zz_same = (embed_operator(Z, dims, [0]) @ embed_operator(Z, dims, [2]))
    for p in feasible_members():
        rho = multiparty_sim_state(epr_pair(), p)
        assert expectation(rho, zz_same) == pytest.approx(1.0, abs=1e-12)


def test_multiparty_observable_examples():
    np.testing.assert_allclose(c_of(Z), np.kron(np.eye(2), Z), atol=1e-14)
    lifted_y = c_of(Y)
    np.testing.assert_allclose(lifted_y[:2, :2], Y, atol=1e-14)
    np.testing.assert_allclose(lifted_y[2:, 2:], -Y, atol=1e-14)
    # a lifted non-binary observable is refused where experiments are built
    with pytest.raises(ValueError, match="not a binary observable"):
        with_observable(family_experiment(SimParams(0.5, 0.5)), "A", "X",
                        c_of(np.diag([1.0, 2.0])))


def test_multiparty_lifted_y_correlation():
    dims = [2, 2, 2, 2]
    ya = embed_operator(c_of(Y), dims, [0, 1])
    yb = embed_operator(c_of(-Y), dims, [2, 3])
    for p in feasible_members():
        rho = multiparty_sim_state(epr_pair(), p)
        assert expectation(rho, ya @ yb) == pytest.approx(1.0, abs=1e-10)


def test_multiparty_statistics_preservation():
    dims = [2, 2, 2, 2]
    ref = epr_pair()
    for ma, mb in [(X, X), (Z, Z), (Y, -Y), (X, Z)]:
        ref_val = expectation(ref, np.kron(ma, mb))
        op = (embed_operator(c_of(ma), dims, [0, 1])
              @ embed_operator(c_of(mb), dims, [2, 3]))
        for p in feasible_members():
            rho = multiparty_sim_state(epr_pair(), p)
            assert expectation(rho, op) == pytest.approx(ref_val, abs=1e-10)


def test_to_real_simulation_real_state():
    zero = basis_state([2], [0])
    out = to_real_simulation(multiparty_sim_state(zero, SimParams(0.5, 0.5)))
    np.testing.assert_allclose(out.amplitudes, [1, 0, 0, 0], atol=1e-12)


def test_to_real_simulation_imag_state_components():
    out = to_real_simulation(multiparty_sim_state(IMAG, SimParams(0.5, 0.5)))
    expected = np.array([1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)])
    np.testing.assert_allclose(np.abs(out.amplitudes), expected, atol=1e-12)
    assert np.abs(out.amplitudes.imag).max() <= 1e-12


def test_to_real_simulation_operator_y():
    out = to_real_simulation(c_of(Y))
    xz = np.array([[0, -1], [1, 0]])
    np.testing.assert_allclose(out, np.kron(xz, Y.imag), atol=1e-12)
    assert np.abs(np.asarray(out, dtype=complex).imag).max() <= 1e-12


def test_to_real_simulation_rejects_wrong_forms():
    with pytest.raises(ValueError):
        to_real_simulation(multiparty_sim_state(IMAG, SimParams(1.0, 0.0)))
    m = np.array([[1, 2j], [0, -1]])
    for op in (np.kron(X, np.eye(2)), np.kron(np.eye(2), m), np.kron(Z, m.real),
               c_of(m) + 1e-6 * np.kron(X, np.eye(2)), np.eye(3), np.ones((4, 2))):
        with pytest.raises(ValueError):
            to_real_simulation(op)


def test_to_real_simulation_refuses_members_without_a_leading_flag_qubit():
    v = np.array([1, 1j, 0.5]) / np.linalg.norm([1, 1j, 0.5])
    member = np.concatenate([v, v.conj()]) / np.sqrt(2)
    to_real_simulation(StateVector([2, 3], member))
    for dims in ([3, 2], [6]):
        with pytest.raises(ValueError, match="no leading flag qubit"):
            to_real_simulation(StateVector(dims, member))


def test_to_real_simulation_accepts_exactly_the_half_half_members():
    psi = StateVector([2], np.array([0.6, 0.8j]))
    for p in feasible_members():
        rho = multiparty_sim_state(psi, p)
        if p.a == 0.5 and abs(p.c) == pytest.approx(0.5):
            to_real_simulation(rho)
        else:
            with pytest.raises(ValueError):
                to_real_simulation(rho)


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_to_real_simulation_matches_explicit_basis_change(seed):
    # independent route, by hand: the member (|0> psi + |1> psi*)/sqrt(2) in any
    # global phase goes to sqrt(2) Re(top) + sqrt(2) Im(top) with top = psi/sqrt(2),
    # largest entry positive, and C(M) goes to I (x) Re(M) + XZ (x) Im(M)
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 6))
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    top = v / np.linalg.norm(v) / np.sqrt(2)
    member = np.exp(2j * np.pi * rng.random()) * np.concatenate([top, top.conj()])
    want = np.sqrt(2) * np.concatenate([top.real, top.imag])
    want *= np.sign(want[np.argmax(np.abs(want))])
    for value in (StateVector([2, d], member), StateVector([2, d], member).density()):
        got = to_real_simulation(value)
        assert got.dims == (2, d)
        np.testing.assert_allclose(got.amplitudes, want, rtol=0, atol=1e-12)
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    xz = np.array([[0, -1], [1, 0]])
    got = to_real_simulation(c_of(m))
    assert got.dtype == float
    np.testing.assert_allclose(got, np.kron(np.eye(2), m.real) + np.kron(xz, m.imag),
                               rtol=0, atol=1e-12)


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_to_real_simulation_realness_random(seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    psi = StateVector([3], v / np.linalg.norm(v))
    out = to_real_simulation(multiparty_sim_state(psi, SimParams(0.5, 0.5)))
    assert np.abs(out.amplitudes.imag).max() <= 1e-12
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    out_op = np.asarray(to_real_simulation(c_of(m)), dtype=complex)
    assert np.abs(out_op.imag).max() <= 1e-12
