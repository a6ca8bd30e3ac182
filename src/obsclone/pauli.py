"""Qubit observables as real coefficient vectors over the Pauli basis.

An observable X = a0*I + a1*sigma1 + a2*sigma2 + a3*sigma3 is stored as
the 4-vector (a0, a1, a2, a3). Two observables commute exactly when their
Bloch parts are parallel, which keeps every algebraic test here closed
form.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass

import numpy as np

from .linalg import PAULIS, real, reals, unit_scaled

# Largest |a x b| of the Bloch parts, scaled as in commutes, at which two observables commute.
COMMUTE_TOL = 1e-10


class DegenerateSpectrumError(ValueError):
    """The observable has a single eigenvalue, so outcome statistics are trivial."""


@dataclass(frozen=True, eq=False)
class Observable:
    """Hermitian 2x2 operator as Pauli coefficients (a0, a1, a2, a3).

    name labels the coefficients in the error that malformed ones raise, as in reals."""

    coeffs: np.ndarray
    name: InitVar[str] = "coeffs"

    def __post_init__(self, name):
        c = np.array(reals(self.coeffs, name, 4))
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
        r = math.hypot(*self.coeffs[1:].tolist())
        a0 = float(self.coeffs[0])
        return a0 - r, a0 + r


def commutes(a: Observable, b: Observable) -> bool:
    """True when [A, B] = 0, i.e. the Bloch parts are parallel, relative to the observables' size."""
    (_, a1, a2, a3), _ = unit_scaled(a.coeffs.tolist())
    (_, b1, b2, b3), _ = unit_scaled(b.coeffs.tolist())
    return math.hypot(a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1) < COMMUTE_TOL


@dataclass(frozen=True)
class TwoOutcomeStatistics:
    """Outcome distribution of a projective qubit measurement."""

    lambda0: float
    lambda1: float
    p0: float
    p1: float

    def __post_init__(self):
        for name in ("lambda0", "lambda1", "p0", "p1"):
            object.__setattr__(self, name, real(getattr(self, name), name))
        if self.lambda1 < self.lambda0:
            raise ValueError("eigenvalues must be ordered lambda0 <= lambda1")
        if abs(self.p0 + self.p1 - 1.0) > 1e-12:
            raise ValueError("outcome probabilities must sum to one")
        if min(self.p0, self.p1) < -1e-12 or max(self.p0, self.p1) > 1.0 + 1e-12:
            raise ValueError("outcome probabilities must lie in [0, 1]")


def statistics_from_mean(x: Observable, mean: float) -> TwoOutcomeStatistics:
    """Reconstruct the two-outcome distribution from a mean value.

    For a two-outcome observable the mean fixes the statistics:
    p1 = (mean - lambda0) / (lambda1 - lambda0). Both tolerances are
    relative to the larger |eigenvalue|.
    """
    mean = real(mean, "mean")
    lam0, lam1 = x.eigenvalues()
    size = max(abs(lam0), abs(lam1))
    if not math.isfinite(size):
        raise ValueError("observable eigenvalues exceed the float range")
    gap = lam1 - lam0
    if gap <= 2e-12 * size:
        raise DegenerateSpectrumError("observable spectrum is degenerate; the mean carries no information")
    if mean < lam0 - 1e-12 * size or mean > lam1 + 1e-12 * size:
        raise ValueError(f"mean {mean} lies outside the spectrum [{lam0}, {lam1}]")
    p1 = float(np.clip((mean - lam0) / gap, 0.0, 1.0))
    return TwoOutcomeStatistics(lam0, lam1, 1.0 - p1, p1)

