"""Qubit observables as real coefficient vectors over the Pauli basis.

An observable X = a0*I + a1*sigma1 + a2*sigma2 + a3*sigma3 is stored as
the 4-vector (a0, a1, a2, a3). Two observables commute exactly when their
Bloch parts are parallel, which keeps every algebraic test here closed
form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import PAULIS, as_matrix, dagger, frob, is_unitary, reals_from_json


class DegenerateSpectrumError(ValueError):
    """The observable has a single eigenvalue, so outcome statistics are trivial."""


@dataclass(frozen=True, eq=False)
class Observable:
    """Hermitian 2x2 operator as Pauli coefficients (a0, a1, a2, a3)."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float).copy()
        if c.shape != (4,):
            raise ValueError("an observable needs exactly four Pauli coefficients")
        if not np.isfinite(c).all():
            raise ValueError("Pauli coefficients must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def bloch(self) -> np.ndarray:
        """Traceless part (a1, a2, a3)."""
        return self.coeffs[1:]

    @property
    def matrix(self) -> np.ndarray:
        return sum(a * s for a, s in zip(self.coeffs, PAULIS))

    def eigenvalues(self) -> tuple[float, float]:
        """(lambda0, lambda1) = a0 -+ |bloch|, in nondecreasing order."""
        r = float(np.linalg.norm(self.bloch))
        a0 = float(self.coeffs[0])
        return a0 - r, a0 + r


def decompose(m) -> Observable:
    """Pauli coefficients a_k = Tr[m sigma_k] / 2 of a Hermitian matrix."""
    m = as_matrix(m, 2)
    if frob(m - dagger(m)) > 1e-10:
        raise ValueError("only Hermitian matrices decompose into real Pauli coefficients")
    return Observable(np.array([0.5 * np.trace(m @ s).real for s in PAULIS]))


def commutes(a: Observable, b: Observable, tol: float = 1e-10) -> bool:
    """True when [A, B] = 0, i.e. the Bloch parts are parallel."""
    return float(np.linalg.norm(np.cross(a.bloch, b.bloch))) < tol


def conjugate(x: Observable, w) -> Observable:
    """Observable W† X W for a single-qubit unitary W."""
    w = as_matrix(w, 2)
    if not is_unitary(w):
        raise ValueError("w must be unitary")
    return decompose(dagger(w) @ x.matrix @ w)


@dataclass(frozen=True)
class TwoOutcomeStatistics:
    """Outcome distribution of a projective qubit measurement."""

    lambda0: float
    lambda1: float
    p0: float
    p1: float

    def __post_init__(self):
        if not all(np.isfinite([self.lambda0, self.lambda1, self.p0, self.p1])):
            raise ValueError("statistics must be finite")
        if self.lambda1 < self.lambda0:
            raise ValueError("eigenvalues must be ordered lambda0 <= lambda1")
        if abs(self.p0 + self.p1 - 1.0) > 1e-12:
            raise ValueError("outcome probabilities must sum to one")
        if min(self.p0, self.p1) < -1e-12 or max(self.p0, self.p1) > 1.0 + 1e-12:
            raise ValueError("outcome probabilities must lie in [0, 1]")


def statistics_from_mean(x: Observable, mean: float) -> TwoOutcomeStatistics:
    """Reconstruct the two-outcome distribution from a mean value.

    For a two-outcome observable the mean fixes the statistics:
    p1 = (mean - lambda0) / (lambda1 - lambda0).
    """
    lam0, lam1 = x.eigenvalues()
    gap = lam1 - lam0
    if gap <= 2e-12:
        raise DegenerateSpectrumError("observable spectrum is degenerate; the mean carries no information")
    mean = float(mean)
    if mean < lam0 - 1e-12 or mean > lam1 + 1e-12:
        raise ValueError(f"mean {mean} lies outside the spectrum [{lam0}, {lam1}]")
    p1 = float(np.clip((mean - lam0) / gap, 0.0, 1.0))
    return TwoOutcomeStatistics(lam0, lam1, 1.0 - p1, p1)


def observable_to_list(x: Observable) -> list[float]:
    return [float(c) for c in x.coeffs]


def observable_from_list(data, name: str = "observable") -> Observable:
    return Observable(reals_from_json(data, name, 4))
