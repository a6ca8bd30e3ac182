"""Unit tests for the dense one- and two-qubit linear algebra layer."""

import math

import numpy as np
import pytest

from obsclone.linalg import (
    PAULIS,
    SIGMA0,
    SIGMA1,
    SIGMA2,
    SIGMA3,
    UNITARY_TOL,
    QubitState,
    as_matrix,
    dagger,
    is_unitary,
    matrix_from_nested,
    matrix_to_nested,
    pauli_rotation,
    tensor,
    unitary,
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


def test_unitary_accepts_exactly_what_is_unitary_accepts(rng):
    """Unitaries perturbed at scales around UNITARY_TOL: unitary(m, 4, name) returns m when is_unitary(m) holds and
    raises otherwise."""
    verdicts = set()
    for scale in np.geomspace(1e-3, 1e3, 61) * UNITARY_TOL:
        m = random_unitary(rng, 4) + scale * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))) / 8.0
        accepted = bool(is_unitary(m))
        if accepted:
            assert np.array_equal(unitary(m, 4, "m"), m)
        else:
            with pytest.raises(ValueError, match="^m must be unitary"):
                unitary(m, 4, "m")
        verdicts.add(accepted)
    assert verdicts == {True, False}


def test_is_unitary(rng):
    u = random_unitary(rng, 4)
    assert is_unitary(u)
    assert not is_unitary(u + 1e-6)


def test_is_unitary_gives_one_verdict_per_stacked_matrix(rng):
    us = np.array([random_unitary(rng, 4) for _ in range(6)])
    us[2] += 1e-6
    assert is_unitary(us).tolist() == [True, True, False, True, True, True]
    assert is_unitary(us.reshape(2, 3, 4, 4)).shape == (2, 3)
    for bad in (np.zeros((2, 3, 4)), np.zeros(4), np.full((2, 4, 4), np.nan)):
        with pytest.raises(ValueError):
            is_unitary(bad)


def test_dagger_is_conjugate_transpose(rng):
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert np.array_equal(dagger(m), m.conj().T)


def test_tensor_matches_kron_bit_for_bit(rng):
    """Signed zeros, and entries near 1e±300 whose products overflow or underflow, included."""
    for scale_a, scale_b in [(1.0, 1.0), (1e300, 1e300), (1e-300, 1e-300), (1e300, 1e-300), (1e-300, 1.0)]:
        a = scale_a * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        b = scale_b * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        a[0, 1], b[1, 0], b[1, 1] = complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            got, want = tensor(a, b), np.kron(a, b)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


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

    def test_density_is_built_once_and_read_only(self, rng):
        s = random_state(rng)
        rho = s.density
        assert s.density is rho
        assert not rho.flags.writeable
        with pytest.raises(ValueError):
            rho[0, 0] = 1.0
        b = s.bloch
        assert np.array_equal(rho, 0.5 * (SIGMA0 + b[0] * SIGMA1 + b[1] * SIGMA2 + b[2] * SIGMA3))

    def test_density_has_unit_trace_and_is_hermitian(self, rng):
        rho = random_state(rng).density
        assert np.trace(rho).real == pytest.approx(1.0)
        assert np.allclose(rho, dagger(rho))

    def test_a_vector_just_past_the_sphere_is_stored_on_it(self, rng):
        """Past the sphere by at most 1e-12 a vector is divided by its norm; inside it, its bits are kept."""
        assert QubitState(np.array([1.0000000000009, 0.0, 0.0])).bloch.tolist() == [1.0, 0.0, 0.0]
        for _ in range(20):
            v = rng.normal(size=3)
            v *= (1.0 + rng.uniform(0.0, 1e-12)) / np.linalg.norm(v)
            norm = np.linalg.norm(v)
            if norm <= 1.0 + 1e-12:
                assert np.array_equal(QubitState(v).bloch, v / max(norm, 1.0))
            inside = random_state(rng).bloch.copy()
            assert np.array_equal(QubitState(inside).bloch, inside)

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


def test_matrix_nested_round_trip_is_bit_exact(rng):
    """Signed zeros in the real and the imaginary parts survive both ways."""
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m[0, 0], m[1, 2], m[3, 1] = complex(-0.0, -0.0), complex(-0.0, 0.5), complex(0.5, -0.0)
    nested = matrix_to_nested(m)
    assert [math.copysign(1.0, x) for x in nested[0][0] + nested[1][2][:1] + nested[3][1][1:]] == [-1.0] * 4
    assert nested == [[[z.real, z.imag] for z in row] for row in m.tolist()]
    back = matrix_from_nested(nested)
    assert back.dtype == complex and back.shape == (4, 4)
    assert back.tobytes() == m.tobytes()
