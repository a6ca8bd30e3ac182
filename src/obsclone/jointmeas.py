"""Joint-measurement noise accounting for approximate cloning.

Measuring one generator on each clone and rescaling by the gains gives
unbiased estimates of both means at once. The price is extra variance:
the product of the two measured variances obeys a floor strictly above
the intrinsic uncertainty product, attained when the gains are balanced
against the intrinsic spreads.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .classes import ClassKind, ObservableClass
from .linalg import QubitState
from .machines import CloningMachine, transfer_matrices
from .pauli import Observable

UNIVERSAL_SHRINK = 2.0 / 3.0

# Optimum commonly quoted for joint measurement via universal cloning.
# The unbiased-estimator convention used here gives 81/16 instead of 9/2
# on sigma3 eigenstates; compare reports carry both, asserting neither.
REFERENCE_UNIVERSAL_PRODUCT = 4.5


@dataclass(frozen=True)
class UncertaintyReport:
    """Intrinsic and measured variances for one joint-measurement run.

    A report on a stack of machines (uncertainty_products) holds arrays of
    one shape, one entry per machine, in the fields that depend on the
    machine: delta_m1, delta_m2, product and theta. The other four depend
    on the state alone. The checks hold entry by entry.
    """

    delta_i1: float
    delta_i2: float
    delta_m1: float
    delta_m2: float
    product: float
    lower_bound: float
    theta: float
    optimal_theta: float

    def __post_init__(self):
        per_state = np.array([self.delta_i1, self.delta_i2, self.lower_bound, self.optimal_theta])
        per_machine = np.array([self.delta_m1, self.delta_m2, self.product, self.theta])
        if not (np.isfinite(per_state).all() and np.isfinite(per_machine).all()):
            raise ValueError("report entries must be finite")
        if per_state[:2].min() < -1e-12 or per_state[:2].max() > 1.0 + 1e-12:
            raise ValueError("intrinsic variances of unit Pauli observables lie in [0, 1]")
        dm1, dm2, product, _ = per_machine
        if (np.abs(product - dm1 * dm2) > 1e-12).any():
            raise ValueError("product must equal delta_m1 * delta_m2")
        if (product < self.lower_bound - 1e-10).any():
            raise ValueError("measured product violates the joint-measurement bound")


def _variance(x: Observable, r):
    """Tr[rho X^2] - Tr[rho X]^2 at Bloch vectors r (last axis), from X^2 = (a0^2 + |a|^2) I + 2 a0 a.sigma.

    a.r is written out term by term, so each row's arithmetic is the same whatever the stack.
    """
    a0, a1, a2, a3 = x.coeffs.tolist()
    ar = a1 * r[..., 0] + a2 * r[..., 1] + a3 * r[..., 2]
    mean = a0 + ar
    second = a0 * a0 + float(x.bloch @ x.bloch) + 2.0 * a0 * ar
    return second - mean * mean


def intrinsic_variance(state: QubitState, x: Observable) -> float:
    """Tr[rho X^2] - Tr[rho X]^2 on the bare input state."""
    return float(_variance(x, state.bloch))


def _estimator_variance(r_branch: np.ndarray, gain, state: QubitState, x: Observable):
    # The branch's reduced Bloch vector is R[1:, 0] + R[1:, 1:] s; r_branch may be a stack (..., 4, 4).
    return gain * gain * _variance(x, r_branch[..., 1:, 0] + r_branch[..., 1:, 1:] @ state.bloch)


def _check_unit_traceless(x: Observable) -> None:
    if abs(x.coeffs[0]) > 1e-12 or abs(np.linalg.norm(x.bloch) - 1.0) > 1e-12:
        raise ValueError("generators must be unit-norm traceless observables")


def uncertainty_products(
    unitaries: np.ndarray, gains: np.ndarray, probe: QubitState, cls: ObservableClass, state: QubitState
) -> UncertaintyReport:
    """Joint-measurement noise reports of a stack of machines that share probe and class.

    unitaries (..., 4, 4) must be unitary (they are not checked) and gains
    has shape (..., 2). The variances, the product and theta are arrays over
    the stack; the intrinsic variances, the bound and the balancing angle
    depend on the state alone. Each entry equals uncertainty_product on that
    machine bit for bit.
    """
    if cls.kind is not ClassKind.TWO_PARAM_NONCOMMUTING:
        raise ValueError("uncertainty products need a two-param-noncommuting class")
    g1, g2 = cls.generators
    _check_unit_traceless(g1)
    _check_unit_traceless(g2)
    r = transfer_matrices(unitaries, probe)
    dm1 = _estimator_variance(r[..., 0, :, :], gains[..., 0], state, g1)
    dm2 = _estimator_variance(r[..., 1, :, :], gains[..., 1], state, g2)
    return _report(intrinsic_variance(state, g1), intrinsic_variance(state, g2), dm1, dm2, gains[..., 0], gains[..., 1])


def uncertainty_product(m: CloningMachine, state: QubitState) -> UncertaintyReport:
    """Joint-measurement noise report for a noncommuting-pair machine.

    Generator 1 is measured on branch 1, generator 2 on branch 2. The
    lower bound (sqrt(di1*di2) + 1)^2 is attained when tan(theta)^4
    equals di1/di2, so the report also carries the balancing angle.
    This is uncertainty_products on a stack of one machine.
    """
    if m.gains is None:
        raise ValueError("uncertainty products are defined for machines with gains")
    return uncertainty_products(m.unitary, np.array(m.gains), m.probe, m.observables, state)


def _report(di1, di2, dm1, dm2, g1, g2) -> UncertaintyReport:
    """Report with the bound (sqrt(di1*di2) + 1)^2 and the balancing angle tan(theta)^4 = di1/di2."""
    di1c, di2c = max(di1, 0.0), max(di2, 0.0)
    with np.errstate(divide="ignore"):
        ratio = np.divide(di1c, di2c)
    return UncertaintyReport(
        delta_i1=di1,
        delta_i2=di2,
        delta_m1=dm1,
        delta_m2=dm2,
        product=dm1 * dm2,
        lower_bound=float((np.sqrt(di1c * di2c) + 1.0) ** 2),
        theta=np.arctan2(g1, g2),
        optimal_theta=float(np.arctan(ratio**0.25)),
    )


def universal_clone_state(state: QubitState) -> QubitState:
    """Each output clone of the optimal universal cloner: Bloch vector shrunk by 2/3."""
    return QubitState(UNIVERSAL_SHRINK * state.bloch)


def universal_clone_product(state: QubitState) -> UncertaintyReport:
    """Joint-measurement noise when the clones come from the universal machine.

    Both branches carry the input shrunk by 2/3, so the unbiased gain is
    3/2 per branch and each measured variance is 9/4 - s_h^2. On sigma3
    eigenstates the product is 81/16, above the optimum 4 reachable with
    machines tailored to the sigma1/sigma2 pair.
    """
    s = state.bloch
    g = 1.0 / UNIVERSAL_SHRINK
    di1 = 1.0 - s[0] ** 2
    di2 = 1.0 - s[1] ** 2
    dm1 = g * g - s[0] ** 2
    dm2 = g * g - s[1] ** 2
    return _report(di1, di2, dm1, dm2, g, g)


def uncertainty_to_dict(r: UncertaintyReport) -> dict:
    return {f.name: getattr(r, f.name) for f in fields(r)}
