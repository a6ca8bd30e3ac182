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

from dataclasses import dataclass

import numpy as np

from .classes import ClassKind, ObservableClass, class_from_dict, class_to_dict
from .linalg import (
    SIGMA0,
    SIGMA1,
    SIGMA2,
    SIGMA3,
    QubitState,
    TwoQubitState,
    as_matrix,
    dagger,
    is_unitary,
    matrix_from_nested,
    matrix_to_nested,
    pauli_exponential,
    pauli_rotation,
    ptrace,
    tensor,
)
from .pauli import Observable, conjugate, decompose

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

SINGULAR_ANGLE_TOL = 1e-6


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
        if not is_unitary(u, 1e-12):
            raise ValueError("machine unitary must be unitary to 1e-12")
        u.setflags(write=False)
        object.__setattr__(self, "unitary", u)
        if not isinstance(self.probe, QubitState):
            object.__setattr__(self, "probe", QubitState(self.probe))
        if self.gains is not None:
            g = tuple(float(x) for x in self.gains)
            if len(g) != 2 or not all(np.isfinite(g)) or any(x == 0.0 for x in g):
                raise ValueError("gains must be two finite nonzero reals")
            object.__setattr__(self, "gains", g)


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


def heisenberg_lift(u, probe: QubitState, x: Observable, branch: int) -> Observable:
    """Pull a branch observable back to the input side of the interaction.

    The returned L satisfies tr[rho L] = tr[U (rho (x) probe) U† M] for
    every signal state rho, where M is X (x) I on branch 1 and I (x) X on
    branch 2. The machine clones X on that branch exactly when L = X.
    """
    u = as_matrix(u, 4)
    if not is_unitary(u, 1e-12):
        raise ValueError("u must be unitary")
    if branch not in (1, 2):
        raise ValueError("branch must be 1 or 2")
    m = tensor(x.matrix, SIGMA0) if branch == 1 else tensor(SIGMA0, x.matrix)
    k = dagger(u) @ m @ u
    return decompose(ptrace(tensor(SIGMA0, probe.density) @ k, keep=1))


def lift_defect(lift: Observable, generator: Observable, gain: float = 1.0) -> float:
    """Frobenius residual of one copying condition.

    The gain rescales only the traceless part of the lifted observable;
    identity components must match unscaled, since every machine copies
    the identity exactly. With gain 1 this is just ||lift - generator||_F.
    """
    r0 = lift.coeffs[0] - generator.coeffs[0]
    rb = gain * lift.bloch - generator.bloch
    return float(np.sqrt(2.0 * (r0 * r0 + rb @ rb)))


def _verify(m: CloningMachine, gains: tuple[float, float], tol: float) -> VerificationReport:
    defects = []
    for g in m.observables.generators:
        pair = tuple(
            lift_defect(heisenberg_lift(m.unitary, m.probe, g, b), g, gains[b - 1])
            for b in (1, 2)
        )
        defects.append(pair)
    worst = max(max(pair) for pair in defects)
    return VerificationReport(tuple(defects), worst, gains, worst < tol, float(tol))


def verify_exact(m: CloningMachine, tol: float = 1e-10) -> VerificationReport:
    """Check that every generator is cloned without rescaling on both branches."""
    return _verify(m, (1.0, 1.0), tol)


def verify_approximate(m: CloningMachine, tol: float = 1e-10) -> VerificationReport:
    """Check the gain-rescaled copying conditions g_b * lift = generator."""
    if m.gains is None:
        raise ValueError("machine has no gains; use verify_exact for exact machines")
    return _verify(m, m.gains, tol)


def output_state(m: CloningMachine, state: QubitState) -> TwoQubitState:
    """Joint output U (rho (x) probe) U† for a signal input."""
    joint = tensor(state.density, m.probe.density)
    return TwoQubitState(m.unitary @ joint @ dagger(m.unitary))


def cnot_machine() -> CloningMachine:
    """Exact cloner for the sigma3 line: C-NOT with probe |0><0|."""
    cls = ObservableClass(ClassKind.ONE_PARAM, (Observable(np.array([0.0, 0.0, 0.0, 1.0])),))
    return CloningMachine(CNOT, QubitState.ket0(), cls)


def axis_rotation(a: Observable) -> np.ndarray:
    """Single-qubit W with W† sigma3 W pointing along the Bloch axis of a.

    Built as exp(i phi n.sigma) with phi half the polar angle of the axis
    and n = (-a2, a1, 0) normalized; conjugation rotates by twice phi,
    carrying sigma3 onto the unit axis. On-axis observables need no
    rotation (a3 > 0) or a half-turn about sigma1 (a3 < 0).
    """
    b = a.bloch
    r = float(np.linalg.norm(b))
    if r <= 1e-12:
        raise ValueError("observable has no Bloch axis (traceless part vanishes)")
    planar = float(np.hypot(b[0], b[1]))
    if planar <= 1e-15 * r:
        if b[2] > 0:
            return SIGMA0.copy()
        return pauli_rotation([np.pi / 2.0, 0.0, 0.0])
    phi = 0.5 * np.arccos(np.clip(b[2] / r, -1.0, 1.0))
    axis = np.array([-b[1], b[0], 0.0]) / planar
    return pauli_rotation(phi * axis)


def _dressed_cnot(w: np.ndarray) -> np.ndarray:
    return tensor(dagger(w), dagger(w)) @ CNOT @ tensor(w, SIGMA0)


def one_param_machine(a: Observable) -> CloningMachine:
    """Exact cloner for the one-parameter class spanned by a.

    The C-NOT machine is transported so its copying axis lines up with
    the Bloch axis of a; identity components ride along for free.
    """
    w = axis_rotation(a)
    cls = ObservableClass(ClassKind.ONE_PARAM, (a,))
    return CloningMachine(_dressed_cnot(w), QubitState.ket0(), cls)


def commuting_machine(a: Observable, b0: float, b3: float) -> CloningMachine:
    """Exact cloner for a two-parameter commuting class containing a.

    The second generator is b0*I + b3*A_hat with A_hat the unit Bloch
    axis of a: the rotated-frame image of b0*I + b3*sigma3, which is the
    general commutant of a up to the (b0, b3) freedom. Works for any a
    with a nonzero traceless part, including a3 = 0 where the closed-form
    commuting partner is unavailable. (b0, b3) must not be proportional
    to (a0, |bloch(a)|) or the span collapses to one parameter.
    """
    w = axis_rotation(a)
    axis = a.bloch / np.linalg.norm(a.bloch)
    partner = Observable(np.array([float(b0), b3 * axis[0], b3 * axis[1], b3 * axis[2]]))
    cls = ObservableClass(ClassKind.TWO_PARAM_COMMUTING, (a, partner))
    return CloningMachine(_dressed_cnot(w), QubitState.ket0(), cls)


def entangling_kernel(t1: float, t2: float, t3: float) -> np.ndarray:
    """exp[(i/2)(t1 s1(x)s1 + t2 s2(x)s2 + t3 s3(x)s3)].

    The three generators commute and square to the identity, so the
    exponential factors into closed forms.
    """
    return pauli_exponential(
        [
            (t1 / 2.0, tensor(SIGMA1, SIGMA1)),
            (t2 / 2.0, tensor(SIGMA2, SIGMA2)),
            (t3 / 2.0, tensor(SIGMA3, SIGMA3)),
        ]
    )


def _noncommuting_class() -> ObservableClass:
    return ObservableClass(
        ClassKind.TWO_PARAM_NONCOMMUTING,
        (
            Observable(np.array([0.0, 1.0, 0.0, 0.0])),
            Observable(np.array([0.0, 0.0, 1.0, 0.0])),
        ),
    )


def _gain_angles(theta: float) -> tuple[float, float]:
    theta = float(theta)
    c, s = np.cos(theta), np.sin(theta)
    if min(abs(c), abs(s)) <= SINGULAR_ANGLE_TOL:
        raise SingularAngleError(f"singular angle theta={theta}: a gain becomes unbounded")
    return c, s


def t_machine(theta: float) -> CloningMachine:
    """Approximate cloner for the noncommuting pair {sigma1, sigma2}.

    An entangling kernel exp[i theta/2 (s1 s1 - s2 s2)] followed by the
    sigma1/sigma2 exchange on the probe branch. Branch 1 returns sigma1
    and sigma2 shrunk by cos(theta); branch 2 by sin(theta); the gains
    (1/cos, 1/sin) undo the shrink in the mean.
    """
    c, s = _gain_angles(theta)
    u = tensor(SIGMA0, PAULI_FLIP) @ entangling_kernel(theta, -theta, 0.0)
    return CloningMachine(u, QubitState.ket0(), _noncommuting_class(), (1.0 / c, 1.0 / s))


def nccm_residual(t1: float, t2: float, t3: float, g1: float, g2: float) -> float:
    """Total residual of the gain-scaled copying system for {sigma1, sigma2}.

    The kernel here is exp[i (t1 s1s1 + t2 s2s2 + t3 s3s3)], i.e. the
    angles enter without the 1/2 prefactor of entangling_kernel, and the
    probe branch reads each copy through the sigma1/sigma2 exchange: its
    two conditions pair the lift of sigma2 with sigma1 and vice versa.
    With that convention (theta/2, -theta/2, 0, 1/cos theta, 1/sin theta)
    zeroes all four residuals.
    """
    ue = pauli_exponential(
        [
            (float(t1), tensor(SIGMA1, SIGMA1)),
            (float(t2), tensor(SIGMA2, SIGMA2)),
            (float(t3), tensor(SIGMA3, SIGMA3)),
        ]
    )
    probe = QubitState.ket0()
    s1 = Observable(np.array([0.0, 1.0, 0.0, 0.0]))
    s2 = Observable(np.array([0.0, 0.0, 1.0, 0.0]))
    g1 = float(g1)
    g2 = float(g2)
    return (
        lift_defect(heisenberg_lift(ue, probe, s1, 1), s1, g1)
        + lift_defect(heisenberg_lift(ue, probe, s2, 1), s2, g1)
        + lift_defect(heisenberg_lift(ue, probe, s2, 2), s1, g2)
        + lift_defect(heisenberg_lift(ue, probe, s1, 2), s2, g2)
    )


def covariant_transport(m: CloningMachine, w) -> CloningMachine:
    """Conjugate a machine by a single-qubit unitary without changing defects.

    V = (W† (x) W†) U (W (x) I) clones the conjugated class W† X W with
    the same probe, gains, and per-condition residual norms as the
    original machine.
    """
    w = as_matrix(w, 2)
    if not is_unitary(w, 1e-12):
        raise ValueError("transport unitary must be unitary to 1e-12")
    v = tensor(dagger(w), dagger(w)) @ m.unitary @ tensor(w, SIGMA0)
    gens = tuple(conjugate(g, w) for g in m.observables.generators)
    cls = ObservableClass(m.observables.kind, gens)
    return CloningMachine(v, m.probe, cls, m.gains)


def phase_covariant_machine(theta: float) -> CloningMachine:
    """Excitation-preserving cloner for {sigma1, sigma2}.

    The unitary rotates the one-excitation subspace {|10>, |01>} by theta
    and leaves |00> and |11> alone, so equatorial means are shared
    between the branches with the same (1/cos, 1/sin) gains as t_machine.
    """
    c, s = _gain_angles(theta)
    u = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, c, s, 0.0],
            [0.0, -s, c, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ],
        dtype=complex,
    )
    return CloningMachine(u, QubitState.ket0(), _noncommuting_class(), (1.0 / c, 1.0 / s))


def machine_to_dict(m: CloningMachine) -> dict:
    return {
        "unitary": matrix_to_nested(m.unitary),
        "probe_bloch": [float(x) for x in m.probe.bloch],
        "class": class_to_dict(m.observables),
        "gains": None if m.gains is None else [float(g) for g in m.gains],
    }


def machine_from_dict(data) -> CloningMachine:
    try:
        u = matrix_from_nested(data["unitary"])
        probe = QubitState(np.asarray(data["probe_bloch"], dtype=float))
        cls = class_from_dict(data["class"])
        gains = data.get("gains")
        if gains is not None:
            if not isinstance(gains, list):
                raise TypeError("gains must be a list of two reals or null")
            gains = tuple(float(g) for g in gains)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed machine document: {exc}") from exc
    return CloningMachine(u, probe, cls, gains)


def report_to_dict(r: VerificationReport) -> dict:
    return {
        "per_generator_defects": [[float(d) for d in pair] for pair in r.per_generator_defects],
        "max_defect": float(r.max_defect),
        "gains_used": [float(g) for g in r.gains_used],
        "passed": bool(r.passed),
        "tolerance": float(r.tolerance),
    }
