"""Shared random draws and reference oracles for the test suite.

Everything here is deliberately independent of the library internals:
exponentials go through scipy's Pade implementation, unitaries through
QR, so closed-form code paths in the package are checked against a
different algorithm rather than against themselves.
"""

import numpy as np
from scipy.linalg import expm

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
