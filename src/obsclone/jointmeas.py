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
from .machines import SIGMA_XY, CloningMachine
from .pauli import Observable

# Transfer matrices R_b of the optimal universal cloner (Buzek and Hillery, Phys. Rev. A 54,
# 1844 (1996)): both branches keep the identity and shrink the Bloch vector by 2/3, so the
# gains 3/2 make each branch's estimators unbiased.
UNIVERSAL_TRANSFERS = np.array([np.diag([1.0, 2.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0])] * 2)
UNIVERSAL_TRANSFERS.setflags(write=False)
UNIVERSAL_GAINS = np.array([1.5, 1.5])
UNIVERSAL_GAINS.setflags(write=False)

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
    """Tr[rho X^2] - Tr[rho X]^2 = |a|^2 - (a.r)^2 at Bloch vectors r (last axis).

    The identity part a0 cancels in algebra but not in floats, so it does not enter.
    a.r is written out term by term, so each row's arithmetic is the same whatever the stack.
    """
    _, a1, a2, a3 = x.coeffs.tolist()
    ar = a1 * r[..., 0] + a2 * r[..., 1] + a3 * r[..., 2]
    return float(x.bloch @ x.bloch) - ar * ar


def intrinsic_variance(state: QubitState, x: Observable) -> float:
    """Tr[rho X^2] - Tr[rho X]^2 on the bare input state (a QubitState or its Bloch vector)."""
    state = state if isinstance(state, QubitState) else QubitState(state)
    return float(_variance(x, state.bloch))


def uncertainty_products(
    transfers: np.ndarray, gains: np.ndarray, cls: ObservableClass, state: QubitState
) -> UncertaintyReport:
    """Joint-measurement noise reports of a stack of machines that share a class, from their transfer matrices.

    transfers (..., 2, 4, 4) holds each machine's R_b, as CloningMachine.transfers
    holds them (they are not checked), and gains has shape (..., 2). The
    variances, the product and theta are arrays over the stack; the intrinsic
    variances, the bound and the balancing angle depend on the state alone, a
    QubitState or its Bloch vector. Each entry equals uncertainty_product on
    that machine bit for bit.
    """
    if cls.kind is not ClassKind.TWO_PARAM_NONCOMMUTING:
        raise ValueError("uncertainty products need a two-param-noncommuting class")
    state = state if isinstance(state, QubitState) else QubitState(state)
    di, dm = [], []
    for b, x in enumerate(cls.generators):
        # |a|^2 is what _variance subtracts from, so each intrinsic variance is at most 1 + 1e-12 at every state.
        if abs(x.coeffs[0]) > 1e-12 or abs(float(x.bloch @ x.bloch) - 1.0) > 1e-12:
            raise ValueError("generators must be unit-norm traceless observables")
        r = transfers[..., b, 1:, :]  # branch b's reduced Bloch vectors are R_b[1:, 0] + R_b[1:, 1:] s
        di.append(intrinsic_variance(state, x))
        dm.append(gains[..., b] * gains[..., b] * _variance(x, r[..., 0] + r[..., 1:] @ state.bloch))
    (di1, di2), (dm1, dm2) = di, dm
    return UncertaintyReport(
        delta_i1=di1,
        delta_i2=di2,
        delta_m1=dm1,
        delta_m2=dm2,
        product=dm1 * dm2,
        lower_bound=float((np.sqrt(max(di1, 0.0) * max(di2, 0.0)) + 1.0) ** 2),
        theta=np.arctan2(gains[..., 0], gains[..., 1]),
        optimal_theta=balancing_angle(di1, di2),
    )


def balancing_angle(di1: float, di2: float) -> float:
    """The angle theta in [0, pi/2] with tan(theta)^4 = di1/di2, at which gains (1/cos, 1/sin) attain the bound.

    di1 and di2 are the intrinsic variances of the measured pair; a rounding below 0 counts as 0.
    """
    with np.errstate(divide="ignore"):
        ratio = np.divide(max(di1, 0.0), max(di2, 0.0))
    return float(np.arctan(ratio**0.25))


def uncertainty_product(m: CloningMachine, state: QubitState) -> UncertaintyReport:
    """Joint-measurement noise report for a noncommuting-pair machine.

    Generator 1 is measured on branch 1, generator 2 on branch 2. The
    lower bound (sqrt(di1*di2) + 1)^2 is attained when tan(theta)^4
    equals di1/di2, so the report also carries the balancing angle.
    This is uncertainty_products on a stack of one machine, m.transfers.
    """
    if m.gains is None:
        raise ValueError("uncertainty products are defined for machines with gains")
    return uncertainty_products(m.transfers, np.array(m.gains), m.observables, state)


def universal_clone_product(state: QubitState) -> UncertaintyReport:
    """Joint-measurement noise of sigma1 and sigma2 when the clones come from the universal machine.

    This is uncertainty_products on UNIVERSAL_TRANSFERS: each measured
    variance is 9/4 - s_h^2, so on sigma3 eigenstates the product is 81/16,
    above the optimum 4 reachable with machines tailored to the pair.
    """
    return uncertainty_products(UNIVERSAL_TRANSFERS, UNIVERSAL_GAINS, SIGMA_XY, state)


def uncertainty_to_dict(r: UncertaintyReport) -> dict:
    """The report's fields as Python floats, or as lists of them over a stack of machines."""
    return {f.name: np.asarray(getattr(r, f.name)).tolist() for f in fields(r)}
