"""Dense complex linear algebra for one- and two-qubit operators.

Matrices are plain numpy arrays, row major, with the signal qubit always
the left tensor factor. Norms are Frobenius throughout. State values are
small frozen wrappers so downstream code never mutates them by accident.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

SIGMA0 = np.eye(2, dtype=complex)
SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (SIGMA0, SIGMA1, SIGMA2, SIGMA3)
for _s in PAULIS:
    _s.setflags(write=False)

UNITARY_TOL = 1e-12


def _complex_entries(m) -> np.ndarray:
    """m as a complex array, once every entry is a finite int, float or complex number (no bool, str or object)."""
    a = np.asarray(m)
    # A list that mixes bools with numbers converts to a numeric array, so its own entries are read.
    mixed = not isinstance(m, np.ndarray) and any(isinstance(v, (bool, np.bool_)) for v in np.array(m, object).flat)
    if mixed or a.dtype.kind not in "iufc" or not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite int, float or complex numbers")
    return a.astype(complex, copy=False)


def as_matrix(m, dim: int | None = None) -> np.ndarray:
    """A square complex ndarray of finite int, float or complex entries, checked for shape."""
    a = _complex_entries(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if dim is not None and a.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} matrix, got {a.shape[0]}x{a.shape[1]}")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack (..., d, d)."""
    return np.swapaxes(m.conj(), -1, -2)


def is_unitary(m):
    """Whether ||m† m - I||_F < UNITARY_TOL; a stack (..., d, d) gets one verdict per matrix."""
    m = _complex_entries(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    # Huge entries overflow the product; the non-finite norm compares false.
    with np.errstate(over="ignore", invalid="ignore"):
        return np.linalg.norm(dagger(m) @ m - np.eye(m.shape[-1]), axis=(-2, -1)) < UNITARY_TOL


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two single-qubit operators, signal on the left."""
    return np.kron(as_matrix(a, 2), as_matrix(b, 2))


@dataclass(frozen=True, eq=False)
class QubitState:
    """Single-qubit density matrix stored as its Bloch vector s, rho = (I + s.sigma)/2."""

    bloch: np.ndarray

    def __post_init__(self):
        b = np.array(reals(self.bloch, "bloch", 3))
        # The entry test comes first: it refuses huge vectors before their norm can overflow.
        if np.abs(b).max() > 1.0 + 1e-12 or np.linalg.norm(b) > 1.0 + 1e-12:
            raise ValueError("Bloch vector must lie inside the unit ball")
        b.setflags(write=False)
        object.__setattr__(self, "bloch", b)

    @classmethod
    def ket0(cls) -> "QubitState":
        """The |0><0| state, Bloch vector (0, 0, 1)."""
        return cls(np.array([0.0, 0.0, 1.0]))

    @cached_property
    def density(self) -> np.ndarray:
        """(I + s.sigma)/2, built on first access and read-only."""
        b = self.bloch
        rho = 0.5 * (SIGMA0 + b[0] * SIGMA1 + b[1] * SIGMA2 + b[2] * SIGMA3)
        rho.setflags(write=False)
        return rho


def pauli_rotation(v) -> np.ndarray:
    """exp(i * v . sigma) for a real 3-vector v (axis-angle form)."""
    v = np.array(reals(v, "v", 3))
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


def is_real(v) -> bool:
    """Whether v is a finite Python or numpy int or float; bool is an int subclass but not a real here."""
    real = isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)
    # A numpy scalar compares as the Python number it holds: a float32 cast of the float64 maximum would overflow.
    return real and abs(v.item() if isinstance(v, np.generic) else v) <= sys.float_info.max


def real(v, name: str) -> float:
    """v as a float when is_real(v); otherwise a ValueError naming name."""
    if not is_real(v):
        raise ValueError(f"{name} must be a finite real number")
    return float(v)


def reals(data, name: str, n: int) -> tuple[float, ...]:
    """n floats from a list, tuple or 1-D array of reals; a bad entry raises ValueError naming name[i]."""
    if not (isinstance(data, (list, tuple)) or isinstance(data, np.ndarray) and data.ndim == 1) or len(data) != n:
        raise ValueError(f"{name} must be a list of {n} real numbers")
    values = data.tolist() if isinstance(data, np.ndarray) else data
    return tuple(real(v, f"{name}[{i}]") for i, v in enumerate(values))


def integer(v, name: str, low: int) -> int:
    """v as an int when it is a Python or numpy int (not bool) of at least low; else a ValueError naming name."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < low:
        raise ValueError(f"{name} must be an integer of at least {low}")
    return int(v)


def unit_scaled(c) -> tuple[list[float], int]:
    """(c / 2**e, e), e the binary exponent of the largest |entry|: exact, so no entry overflows or underflows."""
    e = math.frexp(max(map(abs, c)))[1]
    return [math.ldexp(v, -e) for v in c], e


def matrix_from_nested(data, name: str = "matrix") -> np.ndarray:
    """Inverse of matrix_to_nested; a malformed entry raises ValueError naming name[i][j]."""
    if not isinstance(data, list) or not data or not all(isinstance(r, list) and len(r) == len(data) for r in data):
        raise ValueError(f"{name} must be a square list of rows of [re, im] pairs")
    for i, row in enumerate(data):
        for j, z in enumerate(row):
            if not (isinstance(z, list) and len(z) == 2 and is_real(z[0]) and is_real(z[1])):
                raise ValueError(f"{name}[{i}][{j}] must be a [re, im] pair of finite real numbers")
    pairs = np.array(data, dtype=float)
    return as_matrix(pairs[..., 0] + 1j * pairs[..., 1])
