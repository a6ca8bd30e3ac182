"""Shared random draws and reference oracles for the test suite.

Everything here is deliberately independent of the library internals:
exponentials go through scipy's Pade implementation, unitaries through
QR, so closed-form code paths in the package are checked against a
different algorithm rather than against themselves.
"""

import numpy as np
from scipy.linalg import expm

from obsclone.classes import ClassKind
from obsclone.linalg import QubitState, pauli_rotation
from obsclone.pauli import Observable


def random_bloch(rng, radius=1.0):
    """Uniform draw from the Bloch ball of the given radius."""
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return radius * rng.uniform() ** (1.0 / 3.0) * v


def random_state(rng, radius=1.0):
    return QubitState(random_bloch(rng, radius))


def random_observable(rng, min_axis=0.0, scale=1.0):
    """Observable with uniform coefficients in [-scale, scale].

    min_axis rejects draws whose traceless part is too short for
    axis-dependent constructions.
    """
    while True:
        c = rng.uniform(-scale, scale, 4)
        if np.linalg.norm(c[1:]) > min_axis:
            return Observable(c)


def criterion_5_classes():
    """(label, kind, generators) of each search of acceptance criterion 5, in order: ten one-param
    classes and ten commuting pairs drawn from one stream seeded 505, then sigma1/sigma2 ("x-nc")
    and the Pauli basis ("general")."""
    rng = np.random.default_rng(505)
    for i in range(10):
        yield f"one-param-{i}", ClassKind.ONE_PARAM, (random_observable(rng, min_axis=0.1),)
    for i in range(10):
        a = random_observable(rng, min_axis=0.1)
        axis = a.bloch / np.linalg.norm(a.bloch)
        b0, b3 = float(rng.uniform(0.3, 1.5)), float(rng.uniform(-1.5, -0.3))
        yield f"commuting-{i}", ClassKind.TWO_PARAM_COMMUTING, (a, Observable(np.concatenate([[b0], b3 * axis])))
    yield "x-nc", ClassKind.TWO_PARAM_NONCOMMUTING, (Observable(np.eye(4)[1]), Observable(np.eye(4)[2]))
    yield "general", ClassKind.GENERAL, tuple(Observable(r) for r in np.eye(4))


def random_su2(rng):
    return pauli_rotation(rng.uniform(-np.pi, np.pi, 3))


def random_unitary(rng, dim):
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def expm_oracle(h):
    """Reference exp(i h) through scipy (Pade, nothing closed form)."""
    return expm(1j * np.asarray(h, dtype=complex))


def dense_output(machine, state):
    """Joint output U (rho (x) probe) U† of a machine, as a dense 4x4 matrix."""
    u = machine.unitary
    return u @ np.kron(state.density, machine.probe.density) @ u.conj().T


def ptrace_loop(m, keep):
    """Partial trace written as explicit index sums, for cross-checking."""
    t = np.asarray(m, dtype=complex).reshape(2, 2, 2, 2)
    out = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                if keep == 1:
                    out[i, j] += t[i, k, j, k]
                else:
                    out[i, j] += t[k, i, k, j]
    return out


def universal_pair_oracle(rho):
    """Two-clone joint state of the optimal symmetric cloner, built from the
    symmetric-subspace projector rather than from the Bloch shrink rule."""
    swap = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    psym = 0.5 * (np.eye(4) + swap)
    pair = psym @ np.kron(rho, np.eye(2) / 2.0) @ psym
    return pair * (4.0 / 3.0)


def buzek_hillery_pair(rho):
    """Two-clone joint state of the Buzek-Hillery cloner, from its isometry and a loop trace over the ancilla.

    The isometry maps |0> to sqrt(2/3)|000> + sqrt(1/6)(|011> + |101>) and |1>
    to sqrt(2/3)|111> + sqrt(1/6)(|100> + |010>), the ancilla last.
    """
    v = np.zeros((8, 2), dtype=complex)
    v[[0b000, 0b011, 0b101], 0] = np.sqrt([2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0])
    v[[0b111, 0b100, 0b010], 1] = np.sqrt([2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0])
    t = (v @ np.asarray(rho, dtype=complex) @ v.conj().T).reshape(4, 2, 4, 2)
    out = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        for j in range(4):
            for k in range(2):
                out[i, j] += t[i, k, j, k]
    return out
