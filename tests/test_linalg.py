"""Unit tests for the dense one- and two-qubit linear algebra layer."""

import numpy as np
import pytest

from obsclone.linalg import (
    PAULIS,
    SIGMA0,
    SIGMA1,
    SIGMA2,
    SIGMA3,
    QubitState,
    as_matrix,
    dagger,
    frob,
    is_unitary,
    matrix_from_nested,
    matrix_to_nested,
    pauli_rotation,
    tensor,
)
from support import expm_oracle, ptrace_loop, random_state, random_unitary


def test_pauli_matrices_square_to_identity():
    for s in PAULIS:
        assert np.allclose(s @ s, SIGMA0, atol=1e-15)


def test_pauli_multiplication_cycle():
    assert np.allclose(SIGMA1 @ SIGMA2, 1j * SIGMA3)
    assert np.allclose(SIGMA2 @ SIGMA3, 1j * SIGMA1)
    assert np.allclose(SIGMA3 @ SIGMA1, 1j * SIGMA2)


def test_pauli_constants_are_read_only():
    with pytest.raises(ValueError):
        SIGMA1[0, 0] = 5.0


def test_as_matrix_rejects_non_square():
    with pytest.raises(ValueError):
        as_matrix(np.zeros((2, 3)))


def test_as_matrix_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        as_matrix(np.eye(2), dim=4)


def test_as_matrix_rejects_non_finite_entries():
    with pytest.raises(ValueError):
        as_matrix([[np.nan, 0.0], [0.0, 1.0]])


def test_as_matrix_accepts_nested_lists():
    m = as_matrix([[1, 2], [3, 4]])
    assert m.dtype == complex
    assert m.shape == (2, 2)


def test_frob_matches_numpy(rng):
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert frob(m) == pytest.approx(np.linalg.norm(m))


def test_is_unitary(rng):
    u = random_unitary(rng, 4)
    assert is_unitary(u)
    assert not is_unitary(u + 1e-6)


def test_dagger_is_conjugate_transpose(rng):
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert np.array_equal(dagger(m), m.conj().T)


def test_tensor_matches_kron(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert np.allclose(tensor(a, b), np.kron(a, b), atol=1e-15)


def test_tensor_rejects_wrong_sizes():
    with pytest.raises(ValueError):
        tensor(np.eye(4), np.eye(2))


class TestQubitState:
    def test_ket0(self):
        rho = QubitState.ket0().density
        assert np.allclose(rho, [[1, 0], [0, 0]])

    def test_bloch_density_round_trip(self, rng):
        s = random_state(rng)
        back = [np.trace(s.density @ p).real for p in (SIGMA1, SIGMA2, SIGMA3)]
        assert np.allclose(back, s.bloch, atol=1e-14)

    def test_density_has_unit_trace_and_is_hermitian(self, rng):
        rho = random_state(rng).density
        assert np.trace(rho).real == pytest.approx(1.0)
        assert np.allclose(rho, dagger(rho))

    def test_rejects_bloch_outside_unit_ball(self):
        with pytest.raises(ValueError):
            QubitState(np.array([0.8, 0.8, 0.8]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_huge_bloch_before_its_norm_overflows(self):
        with pytest.raises(ValueError, match="unit ball"):
            QubitState(np.array([1e308, 1e308, 0.0]))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            QubitState(np.array([0.1, 0.2]))

    def test_bloch_is_read_only(self):
        s = QubitState.ket0()
        with pytest.raises(ValueError):
            s.bloch[0] = 1.0


# ptrace_loop in tests/support.py is the suite's only partial trace: every
# reduced state the tests compare against goes through it.
def test_partial_trace_of_product_state(rng):
    s1 = random_state(rng)
    s2 = random_state(rng)
    joint = np.kron(s1.density, s2.density)
    assert np.allclose(ptrace_loop(joint, 1), s1.density, atol=1e-13)
    assert np.allclose(ptrace_loop(joint, 2), s2.density, atol=1e-13)


def test_partial_trace_of_bell_state_is_maximally_mixed():
    v = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    joint = np.outer(v, v.conj())
    assert np.allclose(ptrace_loop(joint, 1), SIGMA0 / 2.0, atol=1e-14)
    assert np.allclose(ptrace_loop(joint, 2), SIGMA0 / 2.0, atol=1e-14)


def test_partial_trace_is_linear_under_convex_mixing(rng):
    for _ in range(10):
        u = random_unitary(rng, 4)
        a = u @ np.kron(random_state(rng).density, random_state(rng).density) @ dagger(u)
        v = random_unitary(rng, 4)
        b = v @ np.kron(random_state(rng).density, random_state(rng).density) @ dagger(v)
        w = rng.uniform(0.0, 1.0)
        mixed = w * a + (1.0 - w) * b
        for sub in (1, 2):
            expected = w * ptrace_loop(a, sub) + (1.0 - w) * ptrace_loop(b, sub)
            assert np.allclose(ptrace_loop(mixed, sub), expected, atol=1e-13)


def test_pauli_rotation_matches_expm(rng):
    v = rng.uniform(-2.0, 2.0, 3)
    h = v[0] * SIGMA1 + v[1] * SIGMA2 + v[2] * SIGMA3
    assert np.allclose(pauli_rotation(v), expm_oracle(h), atol=1e-13)


def test_pauli_rotation_of_zero_is_identity():
    assert np.array_equal(pauli_rotation([0.0, 0.0, 0.0]), SIGMA0)


def test_pauli_rotation_rejects_bad_input():
    with pytest.raises(ValueError):
        pauli_rotation([1.0, 2.0])
    with pytest.raises(ValueError):
        pauli_rotation([np.inf, 0.0, 0.0])


def test_matrix_nested_round_trip(rng):
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    back = matrix_from_nested(matrix_to_nested(m))
    assert np.array_equal(back, m)
