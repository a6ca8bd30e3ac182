"""Cloning machines for classes of qubit observables.

A machine is a two-qubit unitary plus a probe state plus the class it is
supposed to clone, optionally with per-branch gains when the copies come
out rescaled instead of exact. Verification works in the Heisenberg
picture: an observable is cloned on a branch exactly when pulling the
branch observable back through the interaction and tracing out the probe
returns the original operator, which by linearity of the trace is
equivalent to matching means on every input state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classes import ClassKind, ObservableClass, class_from_dict, class_to_dict
from .linalg import (
    PAULIS,
    SIGMA0,
    SIGMA1,
    SIGMA2,
    SIGMA3,
    UNITARY_TOL,
    QubitState,
    as_matrix,
    dagger,
    integer,
    is_unitary,
    matrix_from_nested,
    matrix_to_nested,
    pauli_rotation,
    real,
    reals,
    tensor,
    unit_scaled,
)
from .pauli import Observable

# Controlled-NOT with the signal (left factor) as control. Acting on
# |psi> (x) |0> it copies the sigma3 statistics of the signal onto the probe.
CNOT = np.array(
    [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ],
    dtype=complex,
)
CNOT.setflags(write=False)

# Unitary that exchanges sigma1 and sigma2 under conjugation.
PAULI_FLIP = (1j / np.sqrt(2.0)) * (SIGMA1 + SIGMA2)
PAULI_FLIP.setflags(write=False)

_COUPLINGS = (tensor(SIGMA1, SIGMA1), tensor(SIGMA2, SIGMA2), tensor(SIGMA3, SIGMA3))
_EYE4 = np.eye(4, dtype=complex)
_FLIP_ON_PROBE = tensor(SIGMA0, PAULI_FLIP)

# M[b, j]: sigma_j read on output branch b + 1 (sigma_j (x) I, then I (x) sigma_j).
_BRANCH_OPS = np.array([[tensor(s, SIGMA0) for s in PAULIS], [tensor(SIGMA0, s) for s in PAULIS]])
_PAULI_STACK = np.array(PAULIS)
# The eight M side by side, columns ordered (b, j, column of M): U† times this is
# every U† M at once, in one product of a 4 x 4 by a 4 x 32 matrix.
_BRANCH_ROW = _BRANCH_OPS.transpose(2, 0, 1, 3).reshape(4, 32)

# Probe |0> of the built-in machines, and the {sigma1, sigma2} class of the t and phase-covariant machines.
KET0 = QubitState.ket0()
SIGMA_XY = ObservableClass(ClassKind.TWO_PARAM_NONCOMMUTING, (Observable(np.eye(4)[1]), Observable(np.eye(4)[2])))

SINGULAR_ANGLE_TOL = 1e-6
# Default largest defect at which verify_exact and verify_approximate pass, and obsclone verify's --tol.
VERIFY_TOL = 1e-10

# Copying residuals stay below a quarter of the float range (see overflowing_generator),
# so rounding cannot carry a computed defect to inf.
RESIDUAL_LIMIT = 2.0**1022
_LOSSLESS_SQUARES = 2.0**-900
OVERFLOW_MESSAGE = "a copying residual could exceed the float range"


class SingularAngleError(ValueError):
    """The requested angle makes a gain unbounded."""


@dataclass(frozen=True, eq=False)
class CloningMachine:
    """Interaction unitary, probe preparation, target class, optional gains."""

    unitary: np.ndarray
    probe: QubitState
    observables: ObservableClass
    gains: tuple[float, float] | None = None

    def __post_init__(self):
        u = as_matrix(self.unitary, 4).copy()
        if not is_unitary(u):
            raise ValueError(f"machine unitary must be unitary to {UNITARY_TOL:g}")
        u.setflags(write=False)
        object.__setattr__(self, "unitary", u)
        if not isinstance(self.probe, QubitState):
            object.__setattr__(self, "probe", QubitState(self.probe))
        if self.gains is not None:
            g = reals(self.gains, "gains", 2)
            if 0.0 in g:
                raise ValueError("gains must be nonzero")
            object.__setattr__(self, "gains", g)
        i = overflowing_generator(self.observables, max(map(abs, self.gains or (1.0,))))
        if i is not None:
            where = "" if self.gains is None else f" under gains {list(self.gains)}"
            raise ValueError(f"generators[{i}]{where}: {OVERFLOW_MESSAGE}")


def overflowing_generator(cls: ObservableClass, gain: float, bloch_only: bool = False) -> int | None:
    """Index of the first generator whose copying residual under gains up to |gain| could reach RESIDUAL_LIMIT.

    The lift of a traceless A = a.sigma is r0 I + w.sigma with |r0| + |w| <= |a|,
    because each branch's dual channel is unital and positive. The residual
    r0 I + (g w - a).sigma therefore has Frobenius norm at most
    sqrt(2) (max(|g|, 1) + 1) |a|, whatever the machine. By default the bound
    takes the whole coefficient vector in place of a: the computed lift of the
    identity part carries rounding that the gain amplifies. The lift's sums,
    at most twice that norm, then stay in range too. bloch_only bounds a
    alone, for a computation that never lifts the identity part (the search
    objective). None when every generator stays below the limit.
    """
    factor = math.sqrt(2.0) * (max(abs(gain), 1.0) + 1.0)
    for i, g in enumerate(cls.generators):
        coeffs = g.coeffs[1:] if bloch_only else g.coeffs
        if not factor * math.hypot(*coeffs.tolist()) < RESIDUAL_LIMIT:
            return i
    return None


@dataclass(frozen=True)
class VerificationReport:
    """Per-generator, per-branch Frobenius defects of the cloning conditions."""

    per_generator_defects: tuple[tuple[float, float], ...]
    max_defect: float
    gains_used: tuple[float, float]
    passed: bool
    tolerance: float

    def __post_init__(self):
        worst = max(max(pair) for pair in self.per_generator_defects)
        if abs(worst - self.max_defect) > 1e-15:
            raise ValueError("max_defect must equal the largest per-generator defect")
        if self.passed != (self.max_defect < self.tolerance):
            raise ValueError("passed flag is inconsistent with max_defect and tolerance")


def transfer_matrices(u: np.ndarray, probe: QubitState) -> np.ndarray:
    """Real Pauli transfer matrices of both output branches; unvalidated, u must be unitary.

    R[b, j, k] = tr[(sigma_k (x) rho_probe) U† M U] / 2 with M = sigma_j (x) I on branch 1
    (b = 0) and I (x) sigma_j on branch 2, so the lift of X on branch b + 1 is X.coeffs @ R[b].
    A stack of unitaries (..., 4, 4) gives R of shape (..., 2, 4, 4). Every matrix goes
    through the same products and sums whatever the stack, so stacked and single
    calls agree bit for bit.
    """
    batch = u.shape[:-2]
    left = np.swapaxes((dagger(u) @ _BRANCH_ROW).reshape(batch + (4, 8, 4)), -3, -2)
    k = (left.reshape(batch + (32, 4)) @ u).reshape(batch + (2, 4, 2, 2, 2, 2))
    return 0.5 * np.einsum("kxy,pq,...bjyqxp->...bjk", _PAULI_STACK, probe.density, k).real


def heisenberg_lift(u, probe: QubitState, x: Observable, branch: int) -> Observable:
    """Pull a branch observable back to the input side of the interaction.

    The returned L satisfies tr[rho L] = tr[U (rho (x) probe) U† M] for
    every signal state rho, where M is X (x) I on branch 1 and I (x) X on
    branch 2. The machine clones X on that branch exactly when L = X.
    """
    u = as_matrix(u, 4)
    if not is_unitary(u):
        raise ValueError("u must be unitary")
    if integer(branch, "branch", 1) > 2:
        raise ValueError("branch must be 1 or 2")
    return Observable(x.coeffs @ transfer_matrices(u, probe)[branch - 1])


def _defects(lifts: np.ndarray, targets: np.ndarray, gains) -> np.ndarray:
    """Frobenius residuals of lifts L against targets X (coefficient arrays, Pauli index last).

    A gain, broadcast per row, scales only the traceless part of L: every machine
    copies the identity exactly. Rows are squared as they are when every sum of squares
    is finite and, unless its row is zero, at least 2**-900, so no square that counts lost
    bits; otherwise each row is first divided by the power of two of its largest entry.
    The division is exact, so both ways give the same bits, and no square overflows.
    """
    r0 = lifts[..., 0] - targets[..., 0]
    rb = np.asarray(gains, dtype=float)[..., None] * lifts[..., 1:] - targets[..., 1:]
    with np.errstate(over="ignore"):
        squares = 2.0 * (r0 * r0 + (rb * rb).sum(axis=-1))
    values, low = squares.ravel().tolist(), squares < _LOSSLESS_SQUARES
    exact = min(values) >= _LOSSLESS_SQUARES or not np.count_nonzero(r0[low]) + np.count_nonzero(rb[low])
    if exact and math.isfinite(sum(values)):
        return np.sqrt(squares)
    _, e = np.frexp(np.maximum(np.abs(r0), np.abs(rb).max(axis=-1)))
    r0, rb = np.ldexp(r0, -e), np.ldexp(rb, -e[..., None])
    return np.ldexp(np.sqrt(2.0 * (r0 * r0 + np.sum(rb * rb, axis=-1))), e)


def _copying_defects(u: np.ndarray, probe: QubitState, gens: np.ndarray, gains) -> np.ndarray:
    """D[b, i]: residual of generator row i on branch b + 1, its lift scaled by gains[b]; unvalidated."""
    lifts = gens @ transfer_matrices(u, probe)
    return _defects(lifts, gens, np.asarray(gains, dtype=float)[:, None])


def _verify(m: CloningMachine, gains: tuple[float, float], tol: float) -> VerificationReport:
    gens = np.array([g.coeffs for g in m.observables.generators])
    per_branch = _copying_defects(m.unitary, m.probe, gens, gains)
    defects = tuple(zip(*per_branch.tolist()))
    worst = max(max(pair) for pair in defects)
    return VerificationReport(defects, worst, gains, worst < tol, float(tol))


def verify_exact(m: CloningMachine, tol: float = VERIFY_TOL) -> VerificationReport:
    """Check that every generator is cloned without rescaling on both branches."""
    return _verify(m, (1.0, 1.0), tol)


def verify_approximate(m: CloningMachine, tol: float = VERIFY_TOL) -> VerificationReport:
    """Check the gain-rescaled copying conditions g_b * lift = generator."""
    if m.gains is None:
        raise ValueError("machine has no gains; use verify_exact for exact machines")
    return _verify(m, m.gains, tol)


def cnot_machine() -> CloningMachine:
    """Exact cloner for the sigma3 line: C-NOT with probe |0><0|."""
    cls = ObservableClass(ClassKind.ONE_PARAM, (Observable(np.array([0.0, 0.0, 0.0, 1.0])),))
    return CloningMachine(CNOT, KET0, cls)


def _scaled_bloch(a: Observable) -> np.ndarray:
    """Bloch part of a divided by the power of two of its largest entry (unit_scaled).

    The division is exact, so norms and directions taken from the result
    match the unscaled ones bit for bit, yet cannot overflow or underflow.
    """
    b, _ = unit_scaled(a.bloch.tolist())
    if not any(b):
        raise ValueError("observable has no Bloch axis (traceless part vanishes)")
    return np.array(b)


def axis_rotation(a: Observable) -> np.ndarray:
    """Single-qubit W with W† sigma3 W pointing along the Bloch axis of a.

    Built as exp(i phi n.sigma) with phi half the polar angle of the axis
    and n = (-a2, a1, 0) normalized; conjugation rotates by twice phi,
    carrying sigma3 onto the unit axis. On-axis observables need no
    rotation (a3 > 0) or a half-turn about sigma1 (a3 < 0).
    """
    b = _scaled_bloch(a)
    r = float(np.linalg.norm(b))
    planar = float(np.hypot(b[0], b[1]))
    if planar <= 1e-15 * r:
        if b[2] > 0:
            return SIGMA0.copy()
        return pauli_rotation([np.pi / 2.0, 0.0, 0.0])
    phi = 0.5 * np.arccos(np.clip(b[2] / r, -1.0, 1.0))
    axis = np.array([-b[1], b[0], 0.0]) / planar
    return pauli_rotation(phi * axis)


def _transport(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(W† (x) W†) U (W (x) I): the interaction U carried into the frame of W."""
    return tensor(dagger(w), dagger(w)) @ u @ tensor(w, SIGMA0)


def one_param_machine(a: Observable) -> CloningMachine:
    """Exact cloner for the one-parameter class spanned by a.

    The C-NOT machine is transported so its copying axis lines up with
    the Bloch axis of a; identity components ride along for free.
    """
    w = axis_rotation(a)
    cls = ObservableClass(ClassKind.ONE_PARAM, (a,))
    return CloningMachine(_transport(CNOT, w), KET0, cls)


def commuting_machine(a: Observable, b0: float, b3: float) -> CloningMachine:
    """Exact cloner for a two-parameter commuting class containing a.

    The second generator is b0*I + b3*A_hat with A_hat the unit Bloch
    axis of a: the rotated-frame image of b0*I + b3*sigma3, which is the
    general commutant of a up to the (b0, b3) freedom. Works for any a
    with a nonzero traceless part, including a3 = 0. (b0, b3) must not be
    proportional to (a0, |bloch(a)|) or the span collapses to one parameter.
    """
    b0, b3 = real(b0, "b0"), real(b3, "b3")
    w = axis_rotation(a)
    b = _scaled_bloch(a)
    axis = b / np.linalg.norm(b)
    partner = Observable(np.array([b0, b3 * axis[0], b3 * axis[1], b3 * axis[2]]))
    cls = ObservableClass(ClassKind.TWO_PARAM_COMMUTING, (a, partner))
    return CloningMachine(_transport(CNOT, w), KET0, cls)


def entangling_kernel(t1, t2, t3) -> np.ndarray:
    """exp[(i/2)(t1 s1(x)s1 + t2 s2(x)s2 + t3 s3(x)s3)], over the broadcast shape of the angles.

    The three generators commute and square to the identity, so the
    exponential is the product of cos(t/2) I + i sin(t/2) G over them.
    Arrays of angles give a stack (..., 4, 4) whose matrices equal the
    single-angle ones bit for bit.
    """
    out = _EYE4
    for t, g in zip((t1, t2, t3), _COUPLINGS):
        half = 0.5 * np.asarray(t, dtype=float)[..., None, None]
        out = out @ (np.cos(half) * _EYE4 + 1j * np.sin(half) * g)
    return out


def _gain_angles(thetas):
    """cos and sin of each angle, and the mask of singular angles where a gain 1/cos or 1/sin is unbounded."""
    c, s = np.cos(thetas), np.sin(thetas)
    return c, s, np.minimum(np.abs(c), np.abs(s)) <= SINGULAR_ANGLE_TOL


def _refuse_singular(theta: float, singular) -> None:
    if singular:
        raise SingularAngleError(f"singular angle theta={theta}: a gain becomes unbounded")


def t_machines(thetas) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unitaries (..., 4, 4) and gains (..., 2) of t_machine over an array of finite angles; unvalidated.

    The third array masks the singular angles; their rows are not machines,
    and their gains may be huge or infinite. Every other row equals
    t_machine(theta)'s unitary and gains bit for bit. The machines share
    the probe KET0 and the class SIGMA_XY.
    """
    thetas = np.asarray(thetas, dtype=float)
    c, s, singular = _gain_angles(thetas)
    u = _FLIP_ON_PROBE @ entangling_kernel(thetas, -thetas, 0.0)
    with np.errstate(divide="ignore", over="ignore"):
        gains = 1.0 / np.stack([c, s], axis=-1)
    return u, gains, singular


def t_machine(theta: float) -> CloningMachine:
    """Approximate cloner for the noncommuting pair {sigma1, sigma2}.

    An entangling kernel exp[i theta/2 (s1 s1 - s2 s2)] followed by the
    sigma1/sigma2 exchange on the probe branch. Branch 1 returns sigma1
    and sigma2 shrunk by cos(theta); branch 2 by sin(theta); the gains
    (1/cos, 1/sin) undo the shrink in the mean. This is t_machines on a
    single angle.
    """
    theta = real(theta, "theta")
    u, gains, singular = t_machines(theta)
    _refuse_singular(theta, singular)
    return CloningMachine(u, KET0, SIGMA_XY, tuple(gains.tolist()))


def nccm_residual(t1: float, t2: float, t3: float, g1: float, g2: float) -> float:
    """Total residual of the gain-scaled copying system for {sigma1, sigma2}.

    The machine is entangling_kernel(2 t1, 2 t2, 2 t3) followed by the
    sigma1/sigma2 exchange on the probe, i.e. the t_machine family with the
    angles entering without the 1/2 prefactor, and branch b reads both
    generators under gain g_b. (theta/2, -theta/2, 0, 1/cos theta,
    1/sin theta) zeroes all four residuals.
    """
    t1, t2, t3, g1, g2 = map(real, (t1, t2, t3, g1, g2), ("t1", "t2", "t3", "g1", "g2"))
    u = _FLIP_ON_PROBE @ entangling_kernel(2.0 * t1, 2.0 * t2, 2.0 * t3)
    sigma12 = np.eye(4)[1:3]
    return float(_copying_defects(u, KET0, sigma12, (g1, g2)).sum())


def covariant_transport(m: CloningMachine, w) -> CloningMachine:
    """Conjugate a machine by a single-qubit unitary without changing defects.

    V = (W† (x) W†) U (W (x) I) clones the conjugated class W† X W with
    the same probe, gains, and per-condition residual norms as the
    original machine. Branch 1 of W (x) I lifts X to W† X W whatever the
    probe, so one transfer-matrix call conjugates the whole class.
    """
    w = as_matrix(w, 2)
    if not is_unitary(w):
        raise ValueError(f"transport unitary must be unitary to {UNITARY_TOL:g}")
    frame = transfer_matrices(tensor(w, SIGMA0), KET0)[0]
    gens = tuple(Observable(g.coeffs @ frame) for g in m.observables.generators)
    cls = ObservableClass(m.observables.kind, gens)
    return CloningMachine(_transport(m.unitary, w), m.probe, cls, m.gains)


def phase_covariant_machine(theta: float) -> CloningMachine:
    """Excitation-preserving cloner for {sigma1, sigma2}.

    The unitary rotates the one-excitation subspace {|10>, |01>} by theta
    and leaves |00> and |11> alone, so equatorial means are shared
    between the branches with the same (1/cos, 1/sin) gains as t_machine.
    """
    theta = real(theta, "theta")
    c, s, singular = _gain_angles(theta)
    _refuse_singular(theta, singular)
    u = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, c, s, 0.0],
            [0.0, -s, c, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ],
        dtype=complex,
    )
    return CloningMachine(u, KET0, SIGMA_XY, (1.0 / c, 1.0 / s))


def machine_to_dict(m: CloningMachine) -> dict:
    return {
        "unitary": matrix_to_nested(m.unitary),
        "probe_bloch": [float(x) for x in m.probe.bloch],
        "class": class_to_dict(m.observables),
        "gains": None if m.gains is None else [float(g) for g in m.gains],
    }


def machine_from_dict(data) -> CloningMachine:
    if not isinstance(data, dict):
        raise ValueError("malformed machine document: expected a JSON object")
    missing = [key for key in ("unitary", "probe_bloch", "class") if key not in data]
    if missing:
        raise ValueError(f"malformed machine document: missing {', '.join(missing)}")
    u = matrix_from_nested(data["unitary"], "unitary")
    probe = QubitState(reals(data["probe_bloch"], "probe_bloch", 3))
    return CloningMachine(u, probe, class_from_dict(data["class"]), data.get("gains"))


def report_to_dict(r: VerificationReport) -> dict:
    return {
        "per_generator_defects": [[float(d) for d in pair] for pair in r.per_generator_defects],
        "max_defect": float(r.max_defect),
        "gains_used": [float(g) for g in r.gains_used],
        "passed": bool(r.passed),
        "tolerance": float(r.tolerance),
    }
