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
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from .classes import ClassKind, ObservableClass, class_from_dict, class_to_dict
from .linalg import (
    PAULIS,
    SIGMA0,
    SIGMA1,
    SIGMA2,
    SIGMA3,
    QubitState,
    dagger,
    integer,
    is_positive_real,
    json_fields,
    kron2,
    matrix_from_nested,
    matrix_to_nested,
    pauli_rotation,
    real,
    reals,
    tensor,
    unit_scaled,
    unitary,
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
# The eight M side by side, columns ordered (b, j, column of M): W† times this is
# every W† M at once, in one product of a 2r x 4 by a 4 x 32 matrix.
_BRANCH_ROW = _BRANCH_OPS.transpose(2, 0, 1, 3).reshape(4, 32)
# Column k: sigma_k / 2 flattened in (re, im) pairs. A Hermitian 2 x 2 X so flattened times it is tr[sigma_k X] / 2.
_PAULI_READ = 0.5 * np.array(PAULIS).view(float).reshape(4, 8).T

# Probe |0> of the built-in machines, and the {sigma1, sigma2} class of the t and phase-covariant machines.
KET0 = QubitState.ket0()
SIGMA_XY = ObservableClass(ClassKind.TWO_PARAM_NONCOMMUTING, (Observable(np.eye(4)[1]), Observable(np.eye(4)[2])))

SINGULAR_ANGLE_TOL = 1e-6
# Default largest defect at which verify_exact and verify_approximate pass, and obsclone verify's --tol.
VERIFY_TOL = 1e-10

# Copying residuals stay below a quarter of the float range (see overflowing_generator),
# so rounding cannot carry a computed defect to inf.
RESIDUAL_LIMIT = 2.0**1022
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
        u = unitary(self.unitary, 4, "machine unitary").copy()
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

    @cached_property
    def transfers(self) -> np.ndarray:
        """R (2 x 4 x 4) of (unitary, probe), the machine's one currency; built on first read, read-only."""
        r = transfer_matrices(self.unitary, self.probe)
        r.setflags(write=False)
        return r


def overflowing_generator(cls: ObservableClass, gain: float) -> int | None:
    """Index of the first generator whose copying residual under gains up to |gain| could reach RESIDUAL_LIMIT.

    Only traceless parts enter a residual (see _defects). The lift of a traceless A = a.sigma is
    r0 I + w.sigma with |r0| + |w| <= |a|, because each branch's dual channel is unital and positive.
    The residual r0 I + (g w - a).sigma therefore has Frobenius norm at most
    sqrt(2) (max(|g|, 1) + 1) |a|, whatever the machine, and the lift's sums, at most twice that
    norm, stay in range too. A generator with no traceless part has no residual, whatever the gain.
    None when every generator stays below the limit.
    """
    factor = math.sqrt(2.0) * (max(abs(gain), 1.0) + 1.0)
    for i, g in enumerate(cls.generators):
        if g.bloch.any() and not factor * math.hypot(*g.bloch.tolist()) < RESIDUAL_LIMIT:
            return i
    return None


@dataclass(frozen=True)
class VerificationReport:
    """Per-generator, per-branch Frobenius defects of the cloning conditions, and the class's verdict.

    Every machine copies the identity, so a defect is that of the generator's traceless part alone.
    The verdict is the span's, not its listed basis's: span_defect is the largest over branches of the
    Frobenius norm of the residual map on the span of the traceless parts, taken on the class's
    orthonormal basis, the same for every orthonormal basis and every scale of the class. It is at
    least the defect of any member relative to its Frobenius norm, and at most sqrt(d) times the
    largest such, d = len(basis); a class with no traceless part has span_defect 0. The machine passes
    when span_defect is below tolerance. max_defect and passed are derived, not passed in.
    """

    per_generator_defects: tuple[tuple[float, float], ...]
    max_defect: float = field(init=False)
    gains_used: tuple[float, float]
    passed: bool = field(init=False)
    tolerance: float
    span_defect: float

    def __post_init__(self):
        object.__setattr__(self, "max_defect", max(max(pair) for pair in self.per_generator_defects))
        object.__setattr__(self, "passed", self.span_defect < self.tolerance)


def transfer_matrices(u: np.ndarray, probe: QubitState) -> np.ndarray:
    """Real Pauli transfer matrices of both output branches; unvalidated, u must be unitary.

    R[b, j, k] = tr[(sigma_k (x) rho_probe) U† M U] / 2 with M = sigma_j (x) I on branch 1
    (b = 0) and I (x) sigma_j on branch 2, so the lift of X on branch b + 1 is X.coeffs @ R[b].
    With W = U E, E = probe.kraus_columns (4 x 2r; r = 1 for a pure probe, 2 for a mixed one), R[b, j, k]
    is sum_m tr[sigma_k W_m† M W_m] / 2, the W_m† M W_m being the even and the odd rows and columns of
    W† M W. A stack of unitaries (..., 4, 4) gives R of shape (..., 2, 4, 4). A product whose other
    operand the stack shares (E, the branch row, the Pauli read-out) runs as one 2-D product over the
    flattened stack; only the product by W is batched. Every matrix goes through the same products
    and sums whatever the stack, so stacked and single calls agree bit for bit.
    """
    batch, e = u.shape[:-2], probe.kraus_columns
    cols = e.shape[1]
    w = (u.reshape(-1, 4) @ e).reshape(batch + (4, cols))
    left = np.swapaxes((dagger(w).reshape(-1, 4) @ _BRANCH_ROW).reshape(batch + (cols, 8, 4)), -3, -2)
    x = (left.reshape(batch + (8 * cols, 4)) @ w).reshape(batch + (8, cols, cols))
    x = x[..., ::2, ::2] + x[..., 1::2, 1::2] if cols == 4 else x
    return (x.reshape(-1, 4).view(float) @ _PAULI_READ).reshape(batch + (2, 4, 4))


def heisenberg_lift(u, probe: QubitState, x: Observable, branch: int) -> Observable:
    """Pull a branch observable back to the input side of the interaction.

    The returned L satisfies tr[rho L] = tr[U (rho (x) probe) U† M] for
    every signal state rho, where M is X (x) I on branch 1 and I (x) X on
    branch 2. The machine clones X on that branch exactly when L = X.
    """
    u = unitary(u, 4, "u")
    probe = probe if isinstance(probe, QubitState) else QubitState(probe)
    if integer(branch, "branch", 1) > 2:
        raise ValueError("branch must be 1 or 2")
    return Observable(x.coeffs @ transfer_matrices(u, probe)[branch - 1])


def _defects(lifts: np.ndarray, targets: np.ndarray, gains) -> np.ndarray:
    """Frobenius residuals of lifts L against targets X (coefficient arrays, Pauli index last).

    _verify passes traceless X, so L's identity entry is the bias r0 of the lift. A gain, broadcast
    per row, scales only the traceless part of L. Each residual row is divided by the power of two of
    its largest entry before it is squared, and its root is scaled back. The division
    is exact, so defects scale exactly with the class; no square overflows, and one
    that underflows lies far below the rounding of its row's sum.
    """
    r0 = lifts[..., 0] - targets[..., 0]
    rb = np.asarray(gains, dtype=float)[..., None] * lifts[..., 1:] - targets[..., 1:]
    _, e = np.frexp(np.maximum(np.abs(r0), np.abs(rb).max(axis=-1)))
    r0, rb = np.ldexp(r0, -e), np.ldexp(rb, -e[..., None])
    return np.ldexp(np.sqrt(2.0 * (r0 * r0 + np.sum(rb * rb, axis=-1))), e)


def _verify(m: CloningMachine, gains: tuple[float, float], tol: float) -> VerificationReport:
    # SearchConfig's rule, and +inf too, to read the defects of a report that need not pass.
    if not (is_positive_real(tol) or isinstance(tol, (float, np.floating)) and tol == math.inf):
        raise ValueError("tol must be a positive real or inf")
    tol = float(tol)
    # Every machine copies the identity, so only traceless parts are lifted, the generators' and then the
    # basis members': the identity's lift never enters. A member's defect is its relative one times sqrt(2).
    cls = m.observables
    g = len(cls.generators)
    rows = np.zeros((g + len(cls.basis), 4))
    rows[:g, 1:] = [x.bloch for x in cls.generators]
    rows[g:, 1:] = cls.basis
    per_branch = _defects(rows @ m.transfers, rows, np.array(gains)[:, None])
    span = max(math.hypot(*branch) for branch in per_branch[:, g:].tolist()) / math.sqrt(2.0)
    return VerificationReport(tuple(zip(*per_branch[:, :g].tolist())), gains, tol, span)


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
    """(W† (x) W†) U (W (x) I): the interaction U carried into the frame of W, a checked 2x2 unitary."""
    wd = dagger(w)
    return kron2(wd, wd) @ u @ kron2(w, SIGMA0)


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
    single-angle ones bit for bit. The product starts from the first
    factor, and a third angle that is a scalar zero (the t-family's) leaves
    its identity factor out; either way every bit, signed zeros included,
    is that of the full product I f1 f2 f3. A zero first angle keeps its
    factor: leaving it out can flip the sign of a zero entry.
    """
    angles = (t1, t2) if np.ndim(t3) == 0 and t3 == 0 else (t1, t2, t3)
    halves = (0.5 * np.asarray(t, dtype=float)[..., None, None] for t in angles)
    return reduce(np.matmul, (np.cos(h) * _EYE4 + 1j * np.sin(h) * g for h, g in zip(halves, _COUPLINGS)))


def _gain_angles(thetas):
    """cos and sin of each angle, and the mask of singular angles where a gain 1/cos or 1/sin is unbounded."""
    c, s = np.cos(thetas), np.sin(thetas)
    return c, s, np.minimum(np.abs(c), np.abs(s)) <= SINGULAR_ANGLE_TOL


def _regular_angle(theta) -> tuple[float, float, float]:
    """theta as a float with its cos and sin, once it is real and neither gain 1/cos nor 1/sin is unbounded there."""
    theta = real(theta, "theta")
    c, s, singular = _gain_angles(theta)
    if singular:
        raise SingularAngleError(f"singular angle theta={theta}: a gain becomes unbounded")
    return theta, c, s


def _t_unitary(thetas) -> np.ndarray:
    """Unitaries (..., 4, 4) of the t-machines at finite angles; unitary by construction at every one."""
    return _FLIP_ON_PROBE @ entangling_kernel(thetas, -thetas, 0.0)


def t_machines(thetas) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Transfer matrices (..., 2, 4, 4), gains (..., 2) and singular mask of t_machine over finite angles; unvalidated.

    Singular rows are not machines, and their gains may be huge or infinite. Every other row equals
    t_machine(theta)'s transfers and gains bit for bit; the machines share the probe KET0 and the class SIGMA_XY.
    """
    thetas = np.asarray(thetas, dtype=float)
    c, s, singular = _gain_angles(thetas)
    with np.errstate(divide="ignore", over="ignore"):
        gains = 1.0 / np.stack([c, s], axis=-1)
    return transfer_matrices(_t_unitary(thetas), KET0), gains, singular


def t_machine(theta: float) -> CloningMachine:
    """Approximate cloner for the noncommuting pair {sigma1, sigma2}.

    An entangling kernel exp[i theta/2 (s1 s1 - s2 s2)] followed by the
    sigma1/sigma2 exchange on the probe branch. Branch 1 returns sigma1
    and sigma2 shrunk by cos(theta); branch 2 by sin(theta); the gains
    (1/cos, 1/sin) undo the shrink in the mean. t_machines gives the
    transfers and gains of a grid of these machines.
    """
    theta, c, s = _regular_angle(theta)
    return CloningMachine(_t_unitary(theta), KET0, SIGMA_XY, (1.0 / c, 1.0 / s))


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
    return float(_defects(sigma12 @ transfer_matrices(u, KET0), sigma12, np.array([[g1], [g2]])).sum())


def covariant_transport(m: CloningMachine, w) -> CloningMachine:
    """Conjugate a machine by a single-qubit unitary without changing defects.

    V = (W† (x) W†) U (W (x) I) clones the conjugated class W† X W with
    the same probe, gains, and per-condition residual norms as the
    original machine. Branch 1 of W (x) I lifts X to W† X W whatever the
    probe, so one transfer-matrix call conjugates the whole class.
    """
    w = unitary(w, 2, "transport unitary")
    frame = transfer_matrices(tensor(w, SIGMA0), KET0)[0]
    gens = tuple(Observable(g.coeffs @ frame) for g in m.observables.generators)
    cls = ObservableClass(m.observables.kind, gens)
    return CloningMachine(_transport(m.unitary, w), m.probe, cls, m.gains)


def _phase_covariant_unitary(thetas) -> np.ndarray:
    """Unitaries (..., 4, 4) of the phase-covariant machines at finite angles: a rotation by theta of {|10>, |01>}."""
    c, s = np.cos(thetas), np.sin(thetas)
    u = np.zeros(np.shape(c) + (4, 4), dtype=complex)
    u[..., 0, 0] = u[..., 3, 3] = 1.0
    u[..., 1, 1] = u[..., 2, 2] = c
    u[..., 1, 2], u[..., 2, 1] = s, -s
    return u


def phase_covariant_machine(theta: float) -> CloningMachine:
    """Excitation-preserving cloner for {sigma1, sigma2}.

    The unitary rotates the one-excitation subspace {|10>, |01>} by theta
    and leaves |00> and |11> alone, so equatorial means are shared
    between the branches with the same (1/cos, 1/sin) gains as t_machine.
    """
    theta, c, s = _regular_angle(theta)
    return CloningMachine(_phase_covariant_unitary(theta), KET0, SIGMA_XY, (1.0 / c, 1.0 / s))


def tailored_machines(theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Transfer matrices (2, 2, 4, 4) and gains (2, 2) of t_machine(theta), then phase_covariant_machine(theta).

    One kernel call on the two unitaries; each entry equals that machine's transfers and gains bit for bit.
    """
    theta, c, s = _regular_angle(theta)
    u = np.stack((_t_unitary(theta), _phase_covariant_unitary(theta)))
    return transfer_matrices(u, KET0), np.array([(1.0 / c, 1.0 / s)] * 2)


def machine_to_dict(m: CloningMachine) -> dict:
    return {
        "unitary": matrix_to_nested(m.unitary),
        "probe_bloch": [float(x) for x in m.probe.bloch],
        "class": class_to_dict(m.observables),
        "gains": None if m.gains is None else [float(g) for g in m.gains],
    }


def machine_from_dict(data) -> CloningMachine:
    u, probe, cls = json_fields(data, "machine document", ("unitary", "probe_bloch", "class"))
    u = matrix_from_nested(u, "unitary")
    probe = QubitState(probe, "probe_bloch")
    return CloningMachine(u, probe, class_from_dict(cls), data.get("gains"))


def report_to_dict(r: VerificationReport) -> dict:
    return {
        "per_generator_defects": [[float(d) for d in pair] for pair in r.per_generator_defects],
        "max_defect": float(r.max_defect),
        "gains_used": [float(g) for g in r.gains_used],
        "passed": bool(r.passed),
        "tolerance": float(r.tolerance),
    }
