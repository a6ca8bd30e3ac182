"""Dense complex linear algebra for one- and two-qubit operators.

Matrices are plain numpy arrays, row major, with the signal qubit always
the left tensor factor. Norms are Frobenius throughout. State values are
small frozen wrappers so downstream code never mutates them by accident.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

SIGMA0 = np.eye(2, dtype=complex)
SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (SIGMA0, SIGMA1, SIGMA2, SIGMA3)
for _s in PAULIS:
    _s.setflags(write=False)

UNITARY_TOL = 1e-12


def as_matrix(m, dim: int | None = None) -> np.ndarray:
    """Coerce to a square complex ndarray, validating shape and finiteness."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if dim is not None and a.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} matrix, got {a.shape[0]}x{a.shape[1]}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def frob(m: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(m))


def is_unitary(m: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    m = as_matrix(m)
    # Huge entries overflow the product; the non-finite norm compares false.
    with np.errstate(over="ignore", invalid="ignore"):
        return frob(dagger(m) @ m - np.eye(m.shape[0])) < tol


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two single-qubit operators, signal on the left."""
    return np.kron(as_matrix(a, 2), as_matrix(b, 2))


@dataclass(frozen=True, eq=False)
class QubitState:
    """Single-qubit density matrix stored as its Bloch vector s, rho = (I + s.sigma)/2."""

    bloch: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.bloch, dtype=float).copy()
        if b.shape != (3,):
            raise ValueError("Bloch vector must have exactly three components")
        if not np.isfinite(b).all():
            raise ValueError("Bloch vector must be finite")
        # The entry test comes first: it refuses huge vectors before their norm can overflow.
        if np.abs(b).max() > 1.0 + 1e-12 or np.linalg.norm(b) > 1.0 + 1e-12:
            raise ValueError("Bloch vector must lie inside the unit ball")
        b.setflags(write=False)
        object.__setattr__(self, "bloch", b)

    @classmethod
    def ket0(cls) -> "QubitState":
        """The |0><0| state, Bloch vector (0, 0, 1)."""
        return cls(np.array([0.0, 0.0, 1.0]))

    @property
    def density(self) -> np.ndarray:
        b = self.bloch
        return 0.5 * (SIGMA0 + b[0] * SIGMA1 + b[1] * SIGMA2 + b[2] * SIGMA3)


def pauli_rotation(v) -> np.ndarray:
    """exp(i * v . sigma) for a real 3-vector v (axis-angle form)."""
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError("rotation parameter must be a real 3-vector")
    if not np.isfinite(v).all():
        raise ValueError("rotation parameter must be finite")
    angle = float(np.linalg.norm(v))
    if angle == 0.0:
        return SIGMA0.copy()
    n = v / angle
    return np.cos(angle) * SIGMA0 + 1j * np.sin(angle) * (
        n[0] * SIGMA1 + n[1] * SIGMA2 + n[2] * SIGMA3
    )


def matrix_to_nested(m: np.ndarray) -> list:
    """Row-major nested lists with complex entries as [re, im] pairs."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def _is_real(v) -> bool:
    # bool is an int subclass; a huge JSON integer would overflow float().
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def reals_from_json(data, name: str, n: int) -> list[float]:
    """n floats from a decoded JSON list; a bad entry raises ValueError naming name[i]."""
    if not isinstance(data, list) or len(data) != n:
        raise ValueError(f"{name} must be a list of {n} real numbers")
    for i, v in enumerate(data):
        if not _is_real(v):
            raise ValueError(f"{name}[{i}] must be a finite real number")
    return [float(v) for v in data]


def matrix_from_nested(data, name: str = "matrix") -> np.ndarray:
    """Inverse of matrix_to_nested; a malformed entry raises ValueError naming name[i][j]."""
    if not isinstance(data, list) or not data or not all(isinstance(r, list) and len(r) == len(data) for r in data):
        raise ValueError(f"{name} must be a square list of rows of [re, im] pairs")
    for i, row in enumerate(data):
        for j, z in enumerate(row):
            if not (isinstance(z, list) and len(z) == 2 and _is_real(z[0]) and _is_real(z[1])):
                raise ValueError(f"{name}[{i}][{j}] must be a [re, im] pair of finite real numbers")
    pairs = np.array(data, dtype=float)
    return as_matrix(pairs[..., 0] + 1j * pairs[..., 1])
