"""Tests for machine construction, Heisenberg-picture verification, and transport."""

import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from obsclone.classes import ClassKind, ObservableClass
from obsclone.linalg import (
    PAULIS,
    SIGMA0,
    SIGMA1,
    SIGMA2,
    SIGMA3,
    QubitState,
    dagger,
    is_unitary,
    tensor,
)
from obsclone.machines import (
    CNOT,
    PAULI_FLIP,
    CloningMachine,
    SingularAngleError,
    VerificationReport,
    _defects,
    _t_unitary,
    axis_rotation,
    cnot_machine,
    commuting_machine,
    covariant_transport,
    entangling_kernel,
    heisenberg_lift,
    machine_from_dict,
    machine_to_dict,
    nccm_residual,
    one_param_machine,
    phase_covariant_machine,
    report_to_dict,
    t_machine,
    t_machines,
    tailored_machines,
    transfer_matrices,
    verify_approximate,
    verify_exact,
)
from obsclone.pauli import Observable, commutes
from support import (
    dense_output,
    expm_oracle,
    ptrace_loop,
    random_observable,
    random_state,
    random_su2,
    random_unitary,
)

S1 = Observable(np.array([0.0, 1.0, 0.0, 0.0]))
S2 = Observable(np.array([0.0, 0.0, 1.0, 0.0]))
S3 = Observable(np.array([0.0, 0.0, 0.0, 1.0]))


def test_cnot_matrix_is_the_signal_controlled_flip():
    expected = np.array(
        [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
            [0, 0, 1, 0],
        ],
        dtype=complex,
    )
    assert np.array_equal(CNOT, expected)


def test_pauli_flip_exchanges_sigma1_and_sigma2():
    assert np.allclose(dagger(PAULI_FLIP) @ SIGMA1 @ PAULI_FLIP, SIGMA2, atol=1e-15)
    assert np.allclose(dagger(PAULI_FLIP) @ SIGMA2 @ PAULI_FLIP, SIGMA1, atol=1e-15)


def _edge_blochs(rng):
    """Bloch vectors for both rank paths of the kernel: pure ones on random axes and at both poles,
    the maximally mixed state, and radii 1 - 2**-40 (rank 2) and 1 + 5e-13 (past the sphere, rank 1)."""

    def axis():
        v = rng.normal(size=3)
        return v / np.linalg.norm(v)

    blochs = [axis() for _ in range(3)] + [np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0]), np.zeros(3)]
    return blochs + [(1.0 - 2.0**-40) * axis(), (1.0 + 5e-13) * axis()]


def test_kraus_columns_factor_the_probe(rng):
    """E E† = I (x) rho to 1e-12, with rho built from the Bloch vector as given, for the edge and
    interior probes. The poles and the vector past the sphere take one column pair, the maximally
    mixed state, radius 1 - 2**-40 and the interior states two, and |0> selects columns 0 and 2 exactly."""
    blochs = _edge_blochs(rng) + [random_state(rng).bloch for _ in range(10)]
    for b in blochs:
        e = QubitState(b).kraus_columns
        rho = 0.5 * (SIGMA0 + b[0] * SIGMA1 + b[1] * SIGMA2 + b[2] * SIGMA3)
        assert np.allclose(e @ dagger(e), np.kron(SIGMA0, rho), rtol=0.0, atol=1e-12)
        assert not e.flags.writeable
    columns = [QubitState(b).kraus_columns.shape[1] for b in blochs]
    assert columns[3:] == [2, 2, 4, 4, 2] + [4] * 10
    assert np.array_equal(QubitState.ket0().kraus_columns, np.eye(4)[:, [0, 2]])


def test_transfer_matrices_match_an_independent_oracle(rng):
    """R[b, j, k] = tr[sigma_k L] / 2, with L the probe-traced lift of sigma_j on
    branch b + 1 computed from dense Kronecker products and a loop partial trace.
    The probes are interior mixed states and the edge probes of both rank paths."""
    eye = np.eye(2)
    probes = [random_state(rng) for _ in range(25)] + [QubitState(b) for b in _edge_blochs(rng)]
    for probe in probes:
        u = random_unitary(rng, 4)
        expected = np.empty((2, 4, 4))
        for b in range(2):
            for j, sj in enumerate(PAULIS):
                m = np.kron(sj, eye) if b == 0 else np.kron(eye, sj)
                k = u.conj().T @ m @ u
                lift = ptrace_loop(np.kron(eye, probe.density) @ k, keep=1)
                expected[b, j] = [0.5 * np.trace(sk @ lift).real for sk in PAULIS]
        assert np.allclose(transfer_matrices(u, probe), expected, rtol=0.0, atol=1e-12)


def test_stacked_transfer_matrices_equal_single_calls_bit_for_bit(rng):
    """A stack of Haar unitaries with a mixed probe gives, matrix by matrix, the
    bytes of one call per unitary, and both agree with the loop partial trace. So do
    stacks of seven, and 2 x 3 grids, with each edge probe of both rank paths and a
    pure probe 9e-13 past the sphere. Bytes, because array_equal cannot see a signed zero."""
    eye = np.eye(2)
    edges = [QubitState(b) for b in _edge_blochs(rng)] + [QubitState([1.0000000000009, 0.0, 0.0])]
    cases = [(n, random_state(rng, radius=0.9)) for n in (1, 2, 7, 33)] + [(7, probe) for probe in edges]
    for n, probe in cases:
        us = np.array([random_unitary(rng, 4) for _ in range(n)])
        stacked = transfer_matrices(us, probe)
        assert stacked.shape == (n, 2, 4, 4)
        for u, r in zip(us, stacked):
            assert r.tobytes() == transfer_matrices(u, probe).tobytes()
        u = us[-1]
        for b in range(2):
            for j, sj in enumerate(PAULIS):
                m = np.kron(sj, eye) if b == 0 else np.kron(eye, sj)
                lift = ptrace_loop(np.kron(eye, probe.density) @ u.conj().T @ m @ u, keep=1)
                want = [0.5 * np.trace(sk @ lift).real for sk in PAULIS]
                assert np.allclose(stacked[-1, b, j], want, rtol=0.0, atol=1e-12)
    for probe in [random_state(rng)] + edges:
        grid = np.array([random_unitary(rng, 4) for _ in range(6)]).reshape(2, 3, 4, 4)
        stacked = transfer_matrices(grid, probe)
        assert stacked.shape == (2, 3, 2, 4, 4)
        singles = np.array([transfer_matrices(u, probe) for u in grid.reshape(6, 4, 4)])
        assert stacked.tobytes() == singles.tobytes()


def _reference_kernel(t1, t2, t3):
    """entangling_kernel as it was first written: I f1 f2 f3, every factor multiplied, the identity first."""
    couplings = (tensor(SIGMA1, SIGMA1), tensor(SIGMA2, SIGMA2), tensor(SIGMA3, SIGMA3))
    out = np.eye(4, dtype=complex)
    for t, g in zip((t1, t2, t3), couplings):
        half = 0.5 * np.asarray(t, dtype=float)[..., None, None]
        out = out @ (np.cos(half) * np.eye(4, dtype=complex) + 1j * np.sin(half) * g)
    return out


def _reference_t_unitary(theta):
    """t_machine's unitary as the flip on the probe times the full product of the three kernel factors."""
    return tensor(SIGMA0, PAULI_FLIP) @ _reference_kernel(theta, -theta, 0.0)


def test_t_machines_rows_are_t_machine_bit_for_bit(rng):
    thetas = np.concatenate([rng.uniform(-4.0, 4.0, 40), [0.0, np.pi / 2, -np.pi, 1e-7, 0.3]])
    transfers, gains, singular = t_machines(thetas)
    assert transfers.shape == (45, 2, 4, 4) and gains.shape == (45, 2) and singular.shape == (45,)
    assert singular.tolist()[-5:] == [True, True, True, True, False]
    for theta, ri, gi, skip in zip(thetas, transfers, gains, singular):
        if skip:
            with pytest.raises(SingularAngleError):
                t_machine(theta)
            continue
        m = t_machine(theta)
        assert m.transfers.tobytes() == ri.tobytes()
        assert m.unitary.tobytes() == _reference_t_unitary(float(theta)).tobytes()
        assert m.gains == tuple(gi.tolist()) == (1.0 / np.cos(theta), 1.0 / np.sin(theta))


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(-5e-324)
@example(sys.float_info.max)
@example(-sys.float_info.max)
@example(np.pi / 2)
@example(np.pi)
@example(-np.pi / 2)
@settings(max_examples=300, deadline=None)
def test_t_family_unitaries_are_unitary_at_every_finite_angle(theta):
    """The t-family unitary is unitary by construction, so nothing that prices t-machines checks it again:
    at every finite angle, singular ones included, it passes is_unitary."""
    assert is_unitary(_t_unitary(theta))


def test_transfers_are_the_kernel_on_the_machines_unitary_and_probe(rng):
    """m.transfers is transfer_matrices(m.unitary, m.probe) bit for bit, on Haar unitaries with pure,
    pole, maximally mixed and near-sphere probes. It is read-only, a second read returns the same
    object, and building a machine and writing its document never computes it."""
    cls = ObservableClass(ClassKind.ONE_PARAM, (S3,))
    for b in _edge_blochs(rng):
        m = CloningMachine(random_unitary(rng, 4), QubitState(b), cls)
        machine_to_dict(m)
        assert "transfers" not in vars(m)
        r = m.transfers
        assert r.tobytes() == transfer_matrices(m.unitary, m.probe).tobytes()
        assert r.shape == (2, 4, 4) and not r.flags.writeable
        assert m.transfers is r
        with pytest.raises(ValueError):
            r[0, 0, 0] = 2.0


ANGLE = st.floats(allow_nan=False, allow_infinity=False)


@given(ANGLE, ANGLE, ANGLE)
@example(0.0, 0.0, 0.0)
@example(-0.0, -0.0, -0.0)
@example(0.0, 1e308, 0.0)
@example(-0.0, 5e-324, -0.0)
@example(5e-324, -5e-324, 0.0)
@example(1e308, -1e308, 0.0)
@example(-1e308, 0.0, -0.0)
@example(np.pi / 2, -np.pi / 2, 0.0)
@example(0.7, -0.7, 5e-324)
@settings(max_examples=300, deadline=None)
def test_entangling_kernel_is_the_full_three_factor_product_bit_for_bit(t1, t2, t3):
    """Starting from the first factor, and leaving out the factor of a scalar zero third angle, keeps
    every byte of I f1 f2 f3, signed zeros included: on scalar angles, on stacks with a scalar or a
    stacked third angle, and on the t-family's (theta, -theta, 0) stacks."""
    assert entangling_kernel(t1, t2, t3).tobytes() == _reference_kernel(t1, t2, t3).tobytes()
    a, b = np.array([t1, t2, t3, -t1]), np.array([[t2], [t3], [-t1]])
    for third in (t3, 0.0, -0.0, np.full(4, t3), np.zeros(4)):
        assert entangling_kernel(a, b, third).tobytes() == _reference_kernel(a, b, third).tobytes()
    assert entangling_kernel(a, -a, 0.0).tobytes() == _reference_kernel(a, -a, 0.0).tobytes()


def test_entangling_kernel_broadcasts_bit_for_bit(rng):
    t = rng.uniform(-6.0, 6.0, (5, 3))
    stacked = entangling_kernel(t[:, 0], t[:, 1], 0.25)
    assert stacked.shape == (5, 4, 4)
    for row, k in zip(t, stacked):
        assert np.array_equal(k, entangling_kernel(float(row[0]), float(row[1]), 0.25))
    grid = entangling_kernel(t[:, :1], t[None, :, 1], t[:, 2:])
    assert grid.shape == (5, 5, 4, 4)
    assert np.array_equal(grid[1, 3], entangling_kernel(float(t[1, 0]), float(t[3, 1]), float(t[1, 2])))


class TestHeisenbergLift:
    def test_cnot_lifts(self):
        probe = QubitState.ket0()
        assert np.allclose(heisenberg_lift(CNOT, probe, S3, 1).coeffs, S3.coeffs, atol=1e-14)
        assert np.allclose(heisenberg_lift(CNOT, probe, S3, 2).coeffs, S3.coeffs, atol=1e-14)
        assert np.allclose(heisenberg_lift(CNOT, probe, S1, 1).coeffs, 0.0, atol=1e-14)

    def test_duality_with_schroedinger_picture(self, rng):
        """tr[rho L] must equal the mean of the branch observable on the output."""
        for _ in range(25):
            u = random_unitary(rng, 4)
            probe = random_state(rng)
            state = random_state(rng)
            x = random_observable(rng)
            branch = int(rng.integers(1, 3))
            lift = heisenberg_lift(u, probe, x, branch)
            joint = u @ tensor(state.density, probe.density) @ dagger(u)
            m = tensor(x.matrix, SIGMA0) if branch == 1 else tensor(SIGMA0, x.matrix)
            lhs = np.trace(state.density @ lift.matrix).real
            rhs = np.trace(joint @ m).real
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_lift_is_linear_in_the_observable(self, rng):
        u = random_unitary(rng, 4)
        probe = random_state(rng)
        a = random_observable(rng)
        b = random_observable(rng)
        both = Observable(0.3 * a.coeffs - 1.7 * b.coeffs)
        la = heisenberg_lift(u, probe, a, 1).coeffs
        lb = heisenberg_lift(u, probe, b, 1).coeffs
        lab = heisenberg_lift(u, probe, both, 1).coeffs
        assert np.allclose(lab, 0.3 * la - 1.7 * lb, atol=1e-12)

    def test_rejects_bad_branch_and_non_unitary(self):
        with pytest.raises(ValueError):
            heisenberg_lift(CNOT, QubitState.ket0(), S3, 3)
        with pytest.raises(ValueError, match="^u must be unitary to 1e-12"):
            heisenberg_lift(np.eye(4) * 2.0, QubitState.ket0(), S3, 1)

    def test_reads_the_probe_as_the_machine_does(self, rng):
        """A Bloch list is a probe, as it is to CloningMachine: the lift equals the one with its QubitState."""
        for _ in range(5):
            u, b, x = random_unitary(rng, 4), random_state(rng).bloch.tolist(), random_observable(rng)
            for branch in (1, 2):
                want = heisenberg_lift(u, QubitState(b), x, branch).coeffs
                assert heisenberg_lift(u, b, x, branch).coeffs.tobytes() == want.tobytes()


def test_defects_match_dense_frobenius_norms(rng):
    """Each verification defect is ||tr(L)/2 I + g_b (L - tr(L)/2 I) - X||_F, with the
    branch lift L read off dense joint outputs: only the traceless part is scaled."""
    basis = [QubitState(np.zeros(3))] + [QubitState(e) for e in np.eye(3)]
    for _ in range(10):
        u, probe = random_unitary(rng, 4), random_state(rng, radius=0.8)
        gens = (random_observable(rng, min_axis=0.1), random_observable(rng, min_axis=0.1))
        gains = tuple(rng.uniform(0.5, 3.0, 2))
        m = CloningMachine(u, probe, ObservableClass(ClassKind.TWO_PARAM_NONCOMMUTING, gens), gains)
        got = verify_approximate(m, tol=np.inf).per_generator_defects
        for i, x in enumerate(gens):
            for b in (1, 2):
                # tr[rho L] at rho = I/2 and at the three Bloch poles fixes L's coefficients.
                means = [np.trace(ptrace_loop(dense_output(m, s), keep=b) @ x.matrix).real for s in basis]
                lift = Observable(np.array([means[0]] + [v - means[0] for v in means[1:]])).matrix
                half = 0.5 * np.trace(lift) * SIGMA0
                want = np.linalg.norm(half + gains[b - 1] * (lift - half) - x.matrix)
                assert got[i][b - 1] == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_cloning_machine_validation():
    cls = ObservableClass(ClassKind.ONE_PARAM, (S3,))
    with pytest.raises(ValueError):
        CloningMachine(np.eye(4) * 1.5, QubitState.ket0(), cls)
    with pytest.raises(ValueError):
        CloningMachine(CNOT, QubitState.ket0(), cls, gains=(1.0, 0.0))
    with pytest.raises(ValueError):
        CloningMachine(CNOT, QubitState.ket0(), cls, gains=(1.0, np.inf))


@pytest.mark.parametrize("bad", ["1", True, 10**400, float("nan")], ids=["string", "bool", "huge-int", "nan"])
def test_cloning_machine_names_the_bad_gain(bad):
    cls = ObservableClass(ClassKind.ONE_PARAM, (S3,))
    with pytest.raises(ValueError, match=r"gains\[1\] must be a finite real number"):
        CloningMachine(CNOT, QubitState.ket0(), cls, gains=(1.0, bad))


def test_cloning_machine_reads_numpy_and_python_gains():
    cls = ObservableClass(ClassKind.ONE_PARAM, (S3,))
    for gains in ((np.float64(1.5), np.int64(2)), [3, 2], np.array([1.5, 2.0])):
        m = CloningMachine(CNOT, QubitState.ket0(), cls, gains=gains)
        assert m.gains == tuple(float(g) for g in gains) and all(type(g) is float for g in m.gains)
    with pytest.raises(ValueError, match="gains must be nonzero"):
        CloningMachine(CNOT, QubitState.ket0(), cls, gains=(1, -0.0))
    with pytest.raises(ValueError, match="gains must be a list of 2 real numbers"):
        CloningMachine(CNOT, QubitState.ket0(), cls, gains=(1.0, 2.0, 3.0))


@pytest.mark.parametrize("k", [-1000, -500, 500, 1000])
def test_defects_scale_exactly_with_a_power_of_two(rng, k):
    """Scaling the class by 2**k scales every defect by exactly 2**k, also where
    squared residuals would leave the float range."""
    for _ in range(5):
        a, b = random_observable(rng), random_observable(rng)
        cls = ObservableClass(ClassKind.TWO_PARAM_NONCOMMUTING, (a, b))
        big = ObservableClass(ClassKind.TWO_PARAM_NONCOMMUTING, tuple(Observable(np.ldexp(g.coeffs, k)) for g in (a, b)))
        u, probe, gains = random_unitary(rng, 4), random_state(rng), tuple(rng.uniform(0.5, 3.0, 2))
        for verify in (verify_exact, verify_approximate):
            want = verify(CloningMachine(u, probe, cls, gains), tol=np.inf).per_generator_defects
            got = verify(CloningMachine(u, probe, big, gains), tol=np.inf).per_generator_defects
            assert np.array_equal(got, np.ldexp(want, k))


def always_scaled_defects(lifts, targets, gains):
    """_defects with every residual row divided by the power of two of its largest entry before it is squared."""
    r0 = lifts[..., 0] - targets[..., 0]
    rb = gains[..., None] * lifts[..., 1:] - targets[..., 1:]
    _, e = np.frexp(np.maximum(np.abs(r0), np.abs(rb).max(axis=-1)))
    r0, rb = np.ldexp(r0, -e), np.ldexp(rb, -e[..., None])
    return np.ldexp(np.sqrt(2.0 * (r0 * r0 + np.sum(rb * rb, axis=-1))), e)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("k", [-600, -538, -452, -451, -450, -449, -300, 0, 300, 510, 511, 512, 900])
def test_defects_equal_the_always_scaled_formula_at_every_scale(rng, k):
    """Residual rows whose largest entry is about 2**k, with smaller entries down
    to 2**(k - 600), beside a row of zeros and an ordinary row: where plain
    squares would overflow, underflow or stay in range, _defects equals the
    always-scaled formula bit for bit, without a RuntimeWarning."""
    for _ in range(50):
        residual = np.ldexp(rng.uniform(-1.0, 1.0, (2, 3, 4)), k - rng.integers(0, 600, (2, 3, 4)))
        residual[..., rng.integers(4)] = np.ldexp(rng.uniform(0.5, 1.0, (2, 3)), k)
        residual[0, rng.integers(3)] = 0.0
        residual[1, rng.integers(3)] = rng.normal(size=4)
        lifts, targets, gains = np.zeros((2, 3, 4)), -residual, rng.uniform(0.5, 3.0, (2, 1))
        assert np.array_equal(_defects(lifts, targets, gains), always_scaled_defects(lifts, targets, gains))


def test_residuals_beyond_the_float_range_are_refused():
    """Huge gains or generators that could push a residual past the float range
    are refused when the machine is built, naming the generator and the gains.
    Only traceless parts count: the identity part is never lifted, so a huge
    one under huge gains builds and verifies with finite defects, and a
    generator with no traceless part has no residual under any gain."""
    cls = ObservableClass(ClassKind.ONE_PARAM, (S3,))
    with pytest.raises(ValueError, match=r"generators\[0\] under gains \[1\.0, 1e\+308\]"):
        CloningMachine(CNOT, QubitState.ket0(), cls, gains=(1.0, 1e308))
    big = ObservableClass(ClassKind.ONE_PARAM, (Observable(np.array([0.0, 1e308, 1e308, 0.0])),))
    with pytest.raises(ValueError, match=r"generators\[0\]: a copying residual"):
        CloningMachine(CNOT, QubitState.ket0(), big)
    heavy = ObservableClass(ClassKind.ONE_PARAM, (Observable(np.array([1e300, 0.0, 0.0, 1e-10])),))
    machine = CloningMachine(t_machine(0.7).unitary, QubitState.ket0(), heavy, gains=(1e308, 1e308))
    assert math.isfinite(verify_approximate(machine, tol=np.inf).max_defect)
    identity = ObservableClass(ClassKind.ONE_PARAM, (Observable(np.array([3.0, 0.0, 0.0, 0.0])),))
    assert verify_approximate(CloningMachine(CNOT, QubitState.ket0(), identity, gains=(1.5e308, 1.0))).max_defect == 0.0
    report = verify_approximate(CloningMachine(CNOT, QubitState.ket0(), cls, gains=(1.0, 1e300)), tol=np.inf)
    assert report.max_defect == pytest.approx(np.sqrt(2.0) * 1e300, rel=1e-12)


def test_verification_report_consistency_is_enforced():
    """max_defect is the largest defect, and the verdict follows the relative
    defect, not the absolute one."""
    assert VerificationReport(((0.0, 0.5),), (1.0, 1.0), 1e-10, 1e-11).passed
    assert not VerificationReport(((0.0, 2.0**-60),), (1.0, 1.0), 1e-10, 0.5).passed
    # max_defect is the largest defect exactly, at any scale, on either branch of any generator.
    for worst in (2.0**-60, 0.5, 1e200):
        defects = ((worst / 4, 0.0), (math.nextafter(worst, 0.0), worst), (0.0, worst / 2))
        assert VerificationReport(defects, (1.0, 1.0), 1e-10, 1e-11).max_defect == worst


def test_verify_compares_each_defect_with_its_generators_norm():
    """A wrong machine, CNOT on {sigma1, 4 sigma3}, loses sigma1 on both
    branches, a defect of sqrt(2), its norm, and clones 4 sigma3. Their
    relative defects are 1 and 0, so the verdict turns at tol = 1, and
    scaling the class by 2**k moves max_defect but not the verdict."""
    for k in (-1000, 0, 1000):
        cls = ObservableClass(ClassKind.TWO_PARAM_NONCOMMUTING, (Observable(np.ldexp([0, 1, 0, 0], k)), Observable(np.ldexp([0, 0, 0, 4], k))))
        machine = CloningMachine(CNOT, QubitState.ket0(), cls)
        report = verify_exact(machine, tol=1.0)
        assert report.max_defect == math.ldexp(math.sqrt(2.0), k)
        assert (report.span_defect, report.passed) == (1.0, False)
        assert verify_exact(machine, tol=np.nextafter(1.0, 2.0)).passed


@pytest.mark.parametrize("k", [0, 25, 50, 100, 1000])
def test_an_identity_part_never_enters_a_verdict(k):
    """CNOT loses sigma1 on both branches, so it fails span{2**k I + sigma1} with
    relative defect 1 however large the identity part, while the axis machine of
    2**k I + (0.1, 0.7, -0.4).sigma passes: neither the identity's lift nor its
    rounding enters a defect."""
    cls = ObservableClass(ClassKind.ONE_PARAM, (Observable([2.0**k, 1.0, 0.0, 0.0]),))
    report = verify_exact(CloningMachine(CNOT, QubitState.ket0(), cls))
    assert report.per_generator_defects == ((math.sqrt(2.0), math.sqrt(2.0)),)
    assert (report.span_defect, report.passed) == (1.0, False)
    assert verify_exact(one_param_machine(Observable([2.0**k, 0.1, 0.7, -0.4]))).passed


def test_a_generator_with_no_traceless_part_has_no_defect():
    """Every machine copies the identity: its defect is exactly 0, with no rounding of a
    lift, and it has no basis member, so the Pauli basis under CNOT fails on sigma1 and
    sigma2 alone, each lost whole: the residual map on the span has Frobenius norm sqrt(2).
    A class of identity multiples passes with span_defect 0."""
    pauli = ObservableClass(ClassKind.GENERAL, tuple(Observable(r) for r in np.eye(4)))
    report = verify_exact(CloningMachine(CNOT, QubitState.ket0(), pauli))
    assert report.per_generator_defects[0] == (0.0, 0.0)
    assert report.span_defect == pytest.approx(math.sqrt(2.0), rel=1e-15)
    identity = ObservableClass(ClassKind.ONE_PARAM, (Observable([3.0, 0.0, 0.0, 0.0]),))
    report = verify_approximate(CloningMachine(t_machine(0.7).unitary, QubitState.ket0(), identity, gains=(2.0, -5.0)))
    assert report.per_generator_defects == ((0.0, 0.0),)
    assert (report.span_defect, report.passed) == (0.0, True)


def test_a_relative_defect_near_the_largest_gain_stays_finite():
    """The span defect of a generator with a tiny traceless part under a gain near 1e308
    is taken on its unit basis member, so it, about the gain, is a float and not an
    OverflowError."""
    c = math.ldexp(0.99, -34)
    cls = ObservableClass(ClassKind.ONE_PARAM, (Observable([0.0, c, c, c]),))
    report = verify_approximate(CloningMachine(np.eye(4), QubitState.ket0(), cls, gains=(1e308, 1e308)), tol=np.inf)
    assert report.span_defect == pytest.approx(1e308, rel=1e-12)


def test_a_sigma1_cloner_fails_a_near_parallel_noncommuting_pair():
    """span{sigma1, sigma1 + 1e-8 sigma2} is the sigma1/sigma2 plane, and a sigma1 cloner
    loses sigma2 whole: span_defect 1, so it fails at tol 1e-6, though neither generator
    loses more than 1e-8 of its norm (judged per generator, it passed at 1e-8)."""
    cls = ObservableClass(ClassKind.TWO_PARAM_NONCOMMUTING, (Observable([0.0, 1.0, 0.0, 0.0]), Observable([0.0, 1.0, 1e-8, 0.0])))
    report = verify_exact(CloningMachine(one_param_machine(S1).unitary, QubitState.ket0(), cls), tol=1e-6)
    assert report.max_defect < 2e-8
    assert report.span_defect == pytest.approx(1.0, abs=1e-12)
    assert not report.passed


def dense_residual(m, gains, branch, a):
    """g_b (lift of a.sigma) - a.sigma on branch b as Pauli coefficients, with the lift by an index-sum partial trace."""
    x = sum(c * s for c, s in zip(a, (SIGMA1, SIGMA2, SIGMA3)))
    eye = np.eye(2)
    op = np.kron(x, eye) if branch == 1 else np.kron(eye, x)
    lift = ptrace_loop(np.kron(eye, m.probe.density) @ dagger(m.unitary) @ op @ m.unitary, keep=1)
    coeffs = np.array([np.trace(lift @ s).real / 2.0 for s in PAULIS])
    return np.concatenate([coeffs[:1], gains[branch - 1] * coeffs[1:] - a])


def qr_span_defect(m, gains):
    """Test-only oracle of span_defect: the largest over branches of the Frobenius norm of a -> residual(a) on the
    span of the generators' Bloch parts, taken on the orthonormal basis that numpy's QR gives, as d x 3 rows."""
    blochs = np.array([g.bloch for g in m.observables.generators if g.bloch.any()]).reshape(-1, 3)
    q, r = np.linalg.qr(blochs.T)
    rank = int(np.sum(np.abs(np.diagonal(r)) > 1e-10 * np.abs(r).max(initial=0.0)))
    basis = q[:, :rank].T
    norms = [math.sqrt(sum(np.sum(dense_residual(m, gains, b, a) ** 2) for a in basis)) for b in (1, 2)]
    return max(norms), basis


def unit_members(basis, rng):
    """Unit vectors of the span of the basis rows: both signs of a line, 720 on a plane's circle, 4000 on the sphere."""
    d = len(basis)
    if d < 2:
        return np.concatenate([basis, -basis])
    if d == 2:
        t = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
        return np.outer(np.cos(t), basis[0]) + np.outer(np.sin(t), basis[1])
    v = rng.normal(size=(4000, 3))
    return v / np.linalg.norm(v, axis=1)[:, None]


def span_test_classes(rng):
    """Classes whose spans of Bloch parts have 0, 1, 2 and 3 dimensions, with identity parts."""
    a = random_observable(rng, min_axis=0.1)
    yield ObservableClass(ClassKind.ONE_PARAM, (Observable([1.5, 0.0, 0.0, 0.0]),))
    yield ObservableClass(ClassKind.ONE_PARAM, (a,))
    yield commuting_machine(a, 0.7, -1.3).observables
    yield ObservableClass(ClassKind.TWO_PARAM_NONCOMMUTING, (a, random_observable(rng, min_axis=0.1)))
    yield ObservableClass(ClassKind.GENERAL, tuple(Observable(r) for r in np.eye(4)))
    yield ObservableClass(ClassKind.GENERAL, tuple(random_observable(rng, min_axis=0.1) for _ in range(4)))


def test_span_defect_is_the_frobenius_norm_of_the_residual_map_on_the_span(rng):
    """span_defect equals the QR oracle to 1e-12, on machines with random unitaries, probes
    and gains. It bounds from above the relative defect |residual(a)| of every unit member a
    of the span (its residual map's operator norm) and lies within sqrt(d) of the largest."""
    for _ in range(5):
        for cls in span_test_classes(rng):
            gains = tuple(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 3.0, 2))
            m = CloningMachine(random_unitary(rng, 4), random_state(rng), cls, gains)
            span = verify_approximate(m, tol=1.0).span_defect
            want, basis = qr_span_defect(m, gains)
            assert len(basis) == len(cls.basis)
            assert abs(span - want) <= 1e-12 * max(want, 1.0)
            # The residual is linear in a: its columns on sigma1, sigma2, sigma3 give every member's.
            maps = [np.array([dense_residual(m, gains, b, e) for e in np.eye(3)]) for b in (1, 2)]
            sweep = max(np.linalg.norm(unit_members(basis, rng) @ r, axis=1).max(initial=0.0) for r in maps)
            assert sweep <= span * (1.0 + 1e-12)
            assert span <= math.sqrt(len(basis)) * sweep * (1.0 + 1e-2)


def test_t_machine_at_a_quarter_turn_has_the_pair_floor_as_its_span_defect():
    """Read without its gains, t(pi/4) shrinks sigma1 and sigma2 by 1/sqrt(2) on each branch, so each
    unit member misses by 1 - 1/sqrt(2) and the span defect is sqrt(2) (1 - 1/sqrt(2)) = sqrt(2) - 1."""
    assert verify_exact(t_machine(math.pi / 4)).span_defect == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-15)


def test_covariant_transport_keeps_the_span_defect(rng):
    """Conjugating a machine and its class by a qubit unitary rotates the span, so the span defect stays."""
    for _ in range(20):
        cls = ObservableClass(ClassKind.TWO_PARAM_NONCOMMUTING, (random_observable(rng, 0.1), random_observable(rng, 0.1)))
        m = CloningMachine(random_unitary(rng, 4), random_state(rng), cls, tuple(rng.uniform(0.5, 3.0, 2)))
        moved = covariant_transport(m, random_su2(rng))
        want = verify_approximate(m, tol=1.0).span_defect
        assert verify_approximate(moved, tol=1.0).span_defect == pytest.approx(want, rel=1e-12)


@given(st.integers(0, 2**32 - 1), st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4))
@settings(max_examples=40, deadline=None)
def test_span_defect_does_not_change_under_a_mixing_of_a_pairs_generators(seed, mixing):
    """An invertible mixing of a noncommuting pair's generators lists another basis of the
    same class, so every machine, under any gains, gets the same span_defect to 1e-12."""
    (a, b), (c, d) = mixing[:2], mixing[2:]
    assume(abs(a * d - b * c) >= 0.1)
    rng = np.random.default_rng(seed)
    g1, g2 = random_observable(rng, min_axis=0.1), random_observable(rng, min_axis=0.1)
    assume(np.linalg.norm(np.cross(g1.bloch, g2.bloch)) >= 1e-2 * np.linalg.norm(g1.bloch) * np.linalg.norm(g2.bloch))
    cls = ObservableClass(ClassKind.TWO_PARAM_NONCOMMUTING, (g1, g2))
    mixed = ObservableClass(cls.kind, (Observable(a * g1.coeffs + b * g2.coeffs), Observable(c * g1.coeffs + d * g2.coeffs)))
    u, probe = random_unitary(rng, 4), random_state(rng)
    gains = tuple(rng.uniform(0.5, 3.0, 2))
    spans = [verify_approximate(CloningMachine(u, probe, k, gains), tol=1.0).span_defect for k in (cls, mixed)]
    assert abs(spans[0] - spans[1]) <= 1e-12 * max(spans[0], 1.0)


@pytest.mark.parametrize("tol", [True, "1e-10", -1.0, 0.0, math.nan, -math.inf, [1e-10], None])
@pytest.mark.parametrize("verify", [verify_exact, verify_approximate])
def test_verify_refuses_a_tolerance_that_is_not_a_positive_real(verify, tol):
    with pytest.raises(ValueError, match=r"^tol must be a positive real or inf$"):
        verify(t_machine(0.7), tol=tol)


@pytest.mark.parametrize("tol", [1, 0.5, np.float32(0.5), np.int64(1), 5e-324, math.inf, np.float64(np.inf)])
@pytest.mark.parametrize("verify", [verify_exact, verify_approximate])
def test_verify_stores_a_positive_real_or_inf_tolerance_as_a_float(verify, tol):
    report = verify(t_machine(0.7), tol=tol)
    assert type(report.tolerance) is float and report.tolerance == float(tol)
    assert report.passed is (report.span_defect < float(tol))


def test_cnot_machine_verifies_exactly():
    report = verify_exact(cnot_machine(), tol=1e-10)
    assert report.passed
    assert report.max_defect < 1e-14
    assert report.gains_used == (1.0, 1.0)
    assert len(report.per_generator_defects) == 1


def test_cnot_unitary_cannot_clone_the_transverse_pair():
    wrong = CloningMachine(
        CNOT,
        QubitState.ket0(),
        ObservableClass(ClassKind.TWO_PARAM_NONCOMMUTING, (S1, S2)),
    )
    report = verify_exact(wrong, tol=1e-10)
    assert not report.passed
    # The lift maps sigma_1 to zero, so the defect is a full Frobenius norm.
    assert report.max_defect >= 1.0


def test_one_param_machine_clones_random_observables(rng):
    for _ in range(30):
        a = random_observable(rng, min_axis=0.05)
        machine = one_param_machine(a)
        assert machine.observables.kind is ClassKind.ONE_PARAM
        assert np.array_equal(machine.probe.bloch, [0.0, 0.0, 1.0])
        assert verify_exact(machine, tol=1e-10).passed


def test_commuting_machine_clones_both_generators(rng):
    for _ in range(30):
        a = random_observable(rng, min_axis=0.05)
        b0 = float(rng.uniform(0.5, 2.0))
        b3 = float(rng.uniform(-2.0, -0.5))
        machine = commuting_machine(a, b0, b3)
        assert machine.observables.kind is ClassKind.TWO_PARAM_COMMUTING
        partner = machine.observables.generators[1]
        assert commutes(a, partner)
        assert verify_exact(machine, tol=1e-10).passed


def test_commuting_machine_partner_reproduces_any_commuting_observable(rng):
    # Whatever commutes with A is c0 I + c1 A, so its identity part and its
    # signed length along A's Bloch axis pin it down, also when a3 = 0.
    planar = [Observable(np.array([*rng.uniform(-1.0, 1.0, 3), 0.0])) for _ in range(5)]
    for a in [random_observable(rng, min_axis=0.3) for _ in range(25)] + planar + [S1, S2]:
        c0 = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.0)
        other = Observable(c0 * np.eye(4)[0] + rng.uniform(-2.0, 2.0) * a.coeffs)
        assert commutes(a, other)
        b3 = float(other.bloch @ a.bloch) / np.linalg.norm(a.bloch)
        partner = commuting_machine(a, other.coeffs[0], b3).observables.generators[1]
        assert np.allclose(partner.coeffs, other.coeffs, atol=1e-12)


def test_commuting_machine_on_the_bloch_axis_keeps_the_cnot_unitary():
    machine = commuting_machine(S3, 1.0, 1.0)
    assert np.allclose(machine.unitary, CNOT, atol=1e-14)
    coeffs = np.stack([g.coeffs for g in machine.observables.generators])
    assert np.allclose(coeffs, [[0, 0, 0, 1], [1, 0, 0, 1]], atol=1e-12)
    assert verify_exact(machine, tol=1e-12).passed


def test_commuting_machine_rejects_collapsed_span():
    a = Observable(np.array([0.3, 0.0, 0.0, 0.4]))
    with pytest.raises(ValueError):
        commuting_machine(a, 0.6, 0.8)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("b0, b3", [(np.nan, 1.0), (1.0, np.inf), (0.5, -np.inf)])
def test_commuting_machine_rejects_non_finite_partners(b0, b3):
    name = "b3" if np.isfinite(b0) else "b0"
    with pytest.raises(ValueError, match=f"{name} must be a finite real number"):
        commuting_machine(S3, b0, b3)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("k", [-600, 600])
def test_axis_machines_ignore_a_power_of_two_scale(rng, k):
    """Huge axes are not bent onto a pole by overflow, tiny ones are not
    refused as axis-free: the scaled observable gives the same unitary."""
    for i in range(20):
        a = random_observable(rng, min_axis=0.01)
        if i % 5 == 0:
            a = Observable(a.coeffs * [1, 0, 0, 1])
        scaled = Observable(np.ldexp(a.coeffs, k))
        assert np.array_equal(one_param_machine(scaled).unitary, one_param_machine(a).unitary)
        assert np.array_equal(commuting_machine(scaled, 0.7, -1.2).unitary, commuting_machine(a, 0.7, -1.2).unitary)


class TestAxisRotation:
    def test_carries_sigma3_onto_the_bloch_axis(self, rng):
        for _ in range(40):
            a = random_observable(rng, min_axis=0.01)
            w = axis_rotation(a)
            axis = a.bloch / np.linalg.norm(a.bloch)
            target = axis[0] * SIGMA1 + axis[1] * SIGMA2 + axis[2] * SIGMA3
            assert np.allclose(dagger(w) @ SIGMA3 @ w, target, atol=1e-12)

    def test_handles_negative_axis_observables(self, rng):
        a = Observable(np.array([0.0, 0.1, 0.1, -5.0]))
        w = axis_rotation(a)
        axis = a.bloch / np.linalg.norm(a.bloch)
        target = axis[0] * SIGMA1 + axis[1] * SIGMA2 + axis[2] * SIGMA3
        assert np.allclose(dagger(w) @ SIGMA3 @ w, target, atol=1e-12)

    def test_equatorial_axis_rotates_by_a_quarter_turn(self):
        w = axis_rotation(S1)
        expected = np.cos(np.pi / 4) * SIGMA0 + 1j * np.sin(np.pi / 4) * SIGMA2
        assert np.allclose(w, expected, atol=1e-15)
        assert np.allclose(dagger(w) @ SIGMA3 @ w, SIGMA1, atol=1e-15)

    def test_aligned_axis_needs_no_rotation(self):
        assert np.array_equal(axis_rotation(Observable(np.array([0.2, 0, 0, 3.0]))), SIGMA0)

    def test_anti_aligned_axis_gets_a_half_turn(self):
        w = axis_rotation(Observable(np.array([0.0, 0, 0, -1.0])))
        assert np.allclose(w, 1j * SIGMA1, atol=1e-15)
        assert np.allclose(dagger(w) @ SIGMA3 @ w, -SIGMA3, atol=1e-15)

    def test_rejects_observable_without_axis(self):
        with pytest.raises(ValueError):
            axis_rotation(Observable(np.array([1.0, 0, 0, 0])))


def test_entangling_kernel_matches_expm(rng):
    for _ in range(20):
        t1, t2, t3 = rng.uniform(-3.0, 3.0, 3)
        h = 0.5 * (
            t1 * tensor(SIGMA1, SIGMA1)
            + t2 * tensor(SIGMA2, SIGMA2)
            + t3 * tensor(SIGMA3, SIGMA3)
        )
        assert np.allclose(entangling_kernel(t1, t2, t3), expm_oracle(h), atol=1e-13)


def test_entangling_kernel_at_zero_is_identity():
    assert np.allclose(entangling_kernel(0.0, 0.0, 0.0), np.eye(4), atol=1e-15)


class TestTMachine:
    @pytest.mark.parametrize("theta", [np.pi / 6, np.pi / 4, np.pi / 3, 1.0, 0.2])
    def test_verifies_with_reciprocal_gains(self, theta):
        machine = t_machine(theta)
        assert machine.gains == pytest.approx((1.0 / np.cos(theta), 1.0 / np.sin(theta)))
        report = verify_approximate(machine, tol=1e-10)
        assert report.passed

    def test_lift_values_are_the_shrunk_generators(self):
        theta = 0.8
        machine = t_machine(theta)
        l11 = heisenberg_lift(machine.unitary, machine.probe, S1, 1)
        l22 = heisenberg_lift(machine.unitary, machine.probe, S2, 2)
        assert np.allclose(l11.coeffs, [0, np.cos(theta), 0, 0], atol=1e-13)
        assert np.allclose(l22.coeffs, [0, 0, np.sin(theta), 0], atol=1e-13)

    def test_means_rescale_on_real_states(self, rng):
        theta = 0.6
        machine = t_machine(theta)
        for _ in range(10):
            state = random_state(rng)
            joint = dense_output(machine, state)
            mean1 = np.trace(joint @ tensor(S1.matrix, SIGMA0)).real
            assert mean1 == pytest.approx(np.cos(theta) * state.bloch[0], abs=1e-12)
            mean2 = np.trace(joint @ tensor(SIGMA0, S2.matrix)).real
            assert mean2 == pytest.approx(np.sin(theta) * state.bloch[1], abs=1e-12)

    def test_fails_exact_verification(self):
        report = verify_exact(t_machine(np.pi / 4), tol=1e-10)
        assert not report.passed
        assert report.max_defect > 0.1

    @pytest.mark.parametrize("theta", [0.0, np.pi / 2, 1e-9, np.pi])
    def test_singular_angles_are_rejected(self, theta):
        with pytest.raises(SingularAngleError):
            t_machine(theta)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("build", [t_machine, phase_covariant_machine])
    @pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf])
    def test_non_finite_angles_are_rejected(self, build, theta):
        with pytest.raises(ValueError, match="theta must be a finite real"):
            build(theta)


def test_verify_approximate_needs_gains():
    with pytest.raises(ValueError):
        verify_approximate(cnot_machine())


class TestNccmResidual:
    def test_stated_solution_zeroes_the_system(self):
        for theta in np.linspace(0.1, np.pi / 2 - 0.1, 20):
            r = nccm_residual(
                theta / 2.0, -theta / 2.0, 0.0, 1.0 / np.cos(theta), 1.0 / np.sin(theta)
            )
            assert r < 1e-10

    def test_identity_kernel_leaves_both_probe_conditions_unmet(self):
        assert nccm_residual(0.0, 0.0, 0.0, 1.0, 1.0) == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-12)

    def test_residual_is_positive_off_solution(self):
        assert nccm_residual(0.3, 0.3, 0.1, 1.2, 1.2) > 0.1

    def test_matches_an_independent_oracle(self, rng):
        """Sum of the four Frobenius residuals, from scipy's expm of the couplings,
        the sigma1/sigma2 exchange on the probe and loop partial traces."""
        couplings = [np.kron(s, s) for s in (SIGMA1, SIGMA2, SIGMA3)]
        flip = expm_oracle(0.5 * np.pi * (SIGMA1 + SIGMA2) / np.sqrt(2.0))
        eye = np.eye(2)
        probe = QubitState.ket0().density
        for _ in range(200):
            t = rng.uniform(-np.pi, np.pi, 3)
            gains = rng.uniform(0.5, 3.0, 2)
            u = np.kron(eye, flip) @ expm_oracle(sum(tk * c for tk, c in zip(t, couplings)))
            total = 0.0
            for b, g in enumerate(gains):
                for x in (SIGMA1, SIGMA2):
                    m = np.kron(x, eye) if b == 0 else np.kron(eye, x)
                    lift = ptrace_loop(np.kron(eye, probe) @ u.conj().T @ m @ u, keep=1)
                    r0 = 0.5 * np.trace(lift) * eye
                    total += np.linalg.norm(r0 + g * (lift - r0) - x)
            assert nccm_residual(*t, *gains) == pytest.approx(total, rel=0.0, abs=1e-12)

    def test_residual_is_continuous_in_the_angles(self, rng):
        for _ in range(10):
            args = np.concatenate([rng.uniform(-1.5, 1.5, 3), rng.uniform(1.0, 3.0, 2)])
            base = nccm_residual(*args)
            for k in range(3):
                bumped = args.copy()
                bumped[k] += 1e-6
                assert abs(nccm_residual(*bumped) - base) < 1e-4


def test_phase_covariant_machine_matrix_structure():
    theta = 0.5
    c, s = np.cos(theta), np.sin(theta)
    expected = np.array(
        [
            [1, 0, 0, 0],
            [0, c, s, 0],
            [0, -s, c, 0],
            [0, 0, 0, 1],
        ],
        dtype=complex,
    )
    assert np.allclose(phase_covariant_machine(theta).unitary, expected, atol=1e-15)


def test_tailored_machines_are_the_t_and_phase_covariant_machines_bit_for_bit(rng):
    """tailored_machines(theta) stacks t_machine(theta)'s and phase_covariant_machine(theta)'s
    transfers and gains, with the same bits, and refuses the same singular angles; the
    phase-covariant unitary keeps the bytes of its written-out matrix."""
    for theta in (0.0, np.pi / 2, -np.pi):
        for build in (tailored_machines, t_machine, phase_covariant_machine):
            with pytest.raises(SingularAngleError):
                build(theta)
    for theta in rng.uniform(-4.0, 4.0, 40).tolist() + [1e-3, np.pi / 2 - 1e-3, 0.3]:
        transfers, gains = tailored_machines(theta)
        assert transfers.shape == (2, 2, 4, 4) and gains.shape == (2, 2)
        for r, g, m in zip(transfers, gains, (t_machine(theta), phase_covariant_machine(theta))):
            assert r.tobytes() == m.transfers.tobytes()
            assert tuple(g.tolist()) == m.gains
        c, s = np.cos(theta), np.sin(theta)
        written = np.array([[1, 0, 0, 0], [0, c, s, 0], [0, -s, c, 0], [0, 0, 0, 1]], dtype=complex)
        assert phase_covariant_machine(theta).unitary.tobytes() == written.tobytes()


@pytest.mark.parametrize("theta", [np.pi / 6, np.pi / 4, 1.0])
def test_phase_covariant_machine_verifies_like_t_machine(theta):
    pc = phase_covariant_machine(theta)
    tm = t_machine(theta)
    assert pc.gains == tm.gains
    assert verify_approximate(pc, tol=1e-10).passed
    for gen in (S1, S2):
        for branch in (1, 2):
            lp = heisenberg_lift(pc.unitary, pc.probe, gen, branch)
            lt = heisenberg_lift(tm.unitary, tm.probe, gen, branch)
            assert np.allclose(lp.coeffs, lt.coeffs, atol=1e-13)


def test_phase_covariant_machine_fixes_the_pole_and_shrinks_the_equator():
    machine = phase_covariant_machine(np.pi / 4)
    ket0 = QubitState.ket0()
    pole = dense_output(machine, ket0)
    assert np.allclose(ptrace_loop(pole, 1), ket0.density, atol=1e-14)
    assert np.allclose(ptrace_loop(pole, 2), ket0.density, atol=1e-14)

    plus = dense_output(machine, QubitState(np.array([1.0, 0.0, 0.0])))
    mean = np.trace(plus @ tensor(SIGMA1, SIGMA0)).real
    assert mean == pytest.approx(np.cos(np.pi / 4), abs=1e-14)


class TestCovariantTransport:
    def test_identity_transport_changes_nothing(self):
        machine = cnot_machine()
        moved = covariant_transport(machine, SIGMA0)
        assert np.allclose(moved.unitary, machine.unitary, atol=1e-15)
        assert np.array_equal(moved.probe.bloch, machine.probe.bloch)
        gens = [g.coeffs for g in moved.observables.generators]
        assert np.allclose(gens, [g.coeffs for g in machine.observables.generators], atol=1e-15)

    def test_exact_machines_keep_zero_defect(self, rng):
        machine = one_param_machine(random_observable(rng, min_axis=0.1))
        for _ in range(10):
            moved = covariant_transport(machine, random_su2(rng))
            assert verify_exact(moved, tol=1e-10).passed

    def test_defects_are_invariant_for_any_machine(self, rng):
        cls = ObservableClass(ClassKind.TWO_PARAM_NONCOMMUTING, (S1, S2))
        machine = CloningMachine(random_unitary(rng, 4), random_state(rng), cls)
        base = verify_exact(machine, tol=np.inf).max_defect
        for _ in range(10):
            moved = covariant_transport(machine, random_su2(rng))
            assert verify_exact(moved, tol=np.inf).max_defect == pytest.approx(base, abs=1e-10)

    def test_gains_probe_and_kind_ride_along(self, rng):
        machine = t_machine(0.7)
        moved = covariant_transport(machine, random_su2(rng))
        assert moved.gains == machine.gains
        assert np.array_equal(moved.probe.bloch, machine.probe.bloch)
        assert moved.observables.kind is machine.observables.kind
        assert verify_approximate(moved, tol=1e-10).passed

    def test_transported_class_is_the_dense_conjugate(self, rng):
        cls = ObservableClass(ClassKind.GENERAL, tuple(random_observable(rng) for _ in range(4)))
        machine = CloningMachine(random_unitary(rng, 4), random_state(rng), cls)
        for _ in range(20):
            w = random_unitary(rng, 2)
            moved = covariant_transport(machine, w).observables.generators
            for g, h in zip(cls.generators, moved):
                dense = w.conj().T @ g.matrix @ w
                want = [0.5 * np.trace(s @ dense).real for s in PAULIS]
                assert np.abs(h.coeffs - want).max() <= 1e-14
                assert np.allclose(h.eigenvalues(), g.eigenvalues(), atol=1e-14)

    def test_transport_by_sigma1_flips_two_axes(self):
        x = Observable(np.array([0.7, 0.2, -0.4, 0.9]))
        machine = CloningMachine(CNOT, QubitState.ket0(), ObservableClass(ClassKind.ONE_PARAM, (x,)))
        (y,) = covariant_transport(machine, SIGMA1).observables.generators
        assert np.allclose(y.coeffs, [0.7, 0.2, 0.4, -0.9], atol=1e-14)

    def test_rejects_non_unitary_transport(self):
        with pytest.raises(ValueError):
            covariant_transport(cnot_machine(), np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_cnot_dephases_the_signal_in_the_transverse_plane():
    plus = QubitState(np.array([1.0, 0.0, 0.0]))
    joint = dense_output(cnot_machine(), plus)
    assert np.allclose(ptrace_loop(joint, 1), SIGMA0 / 2.0, atol=1e-14)


def test_passing_machines_pass_on_every_member_of_the_span(rng):
    for machine in (commuting_machine(random_observable(rng, min_axis=0.1), 0.9, -1.3),
                    one_param_machine(random_observable(rng, min_axis=0.1))):
        gen_defect = verify_exact(machine, tol=1e-10).max_defect
        rows = np.stack([g.coeffs for g in machine.observables.generators])
        for w in rng.uniform(-1.0, 1.0, size=(100, len(rows))):
            member = Observable(w @ rows)
            for branch in (1, 2):
                lifted = heisenberg_lift(machine.unitary, machine.probe, member, branch)
                defect = np.linalg.norm(lifted.matrix - member.matrix)
                assert defect < max(10.0 * gen_defect, 1e-12)


def test_defect_of_probe_mixture_never_beats_both_endpoints(rng):
    """Each defect is a norm of an expression affine in the probe, so it is
    convex along any probe segment: interior probes cannot exceed the
    worse endpoint."""
    cls = ObservableClass(ClassKind.ONE_PARAM, (S3,))
    for u in (CNOT, random_unitary(rng, 4)):
        ends = []
        for z in (1.0, -1.0):
            m = CloningMachine(u, QubitState(np.array([0.0, 0.0, z])), cls)
            ends.append(verify_exact(m, tol=np.inf).max_defect)
        for lam in np.linspace(0.0, 1.0, 9):
            z = lam * 1.0 + (1.0 - lam) * -1.0
            m = CloningMachine(u, QubitState(np.array([0.0, 0.0, z])), cls)
            mid = verify_exact(m, tol=np.inf).max_defect
            assert mid <= max(ends) + 1e-10


def test_machine_dict_round_trip():
    machine = t_machine(1.1)
    data = machine_to_dict(machine)
    back = machine_from_dict(data)
    assert np.allclose(back.unitary, machine.unitary, atol=1e-15)
    assert np.array_equal(back.probe.bloch, machine.probe.bloch)
    assert back.gains == machine.gains
    assert back.observables.kind is machine.observables.kind


def test_machine_dict_round_trip_without_gains():
    machine = cnot_machine()
    back = machine_from_dict(machine_to_dict(machine))
    assert back.gains is None
    assert np.allclose(back.unitary, machine.unitary, atol=1e-15)


def test_machine_from_dict_rejects_malformed_documents():
    with pytest.raises(ValueError):
        machine_from_dict({"unitary": [[1.0]]})
    with pytest.raises(ValueError):
        machine_from_dict(None)


def test_report_to_dict_fields():
    report = verify_exact(cnot_machine(), tol=1e-10)
    data = report_to_dict(report)
    assert data["passed"] is True
    assert data["tolerance"] == 1e-10
    assert data["gains_used"] == [1.0, 1.0]
    assert len(data["per_generator_defects"]) == 1
