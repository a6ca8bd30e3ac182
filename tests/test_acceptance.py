"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with -s (or read the -v test lines) to see the per-criterion verdicts.
Criteria use fixed seeds so reruns are bit-for-bit reproducible.
"""

import contextlib

import numpy as np

from obsclone.classes import ClassKind, ObservableClass
from obsclone.jointmeas import (
    REFERENCE_UNIVERSAL_PRODUCT,
    intrinsic_variance,
    uncertainty_product,
    universal_clone_product,
    universal_clone_state,
)
from obsclone.linalg import SIGMA0, SIGMA1, SIGMA2, QubitState, dagger, tensor
from obsclone.machines import (
    CloningMachine,
    cnot_machine,
    commuting_machine,
    covariant_transport,
    heisenberg_lift,
    nccm_residual,
    one_param_machine,
    phase_covariant_machine,
    t_machine,
    verify_approximate,
    verify_exact,
)
from obsclone.pauli import Observable, statistics_from_mean
from obsclone.search import X_NC_DEFECT_FLOOR, SearchConfig, search_machine
from support import dense_output, ptrace_loop, random_observable, random_state, random_su2, random_unitary

S1 = Observable(np.array([0.0, 1.0, 0.0, 0.0]))
S2 = Observable(np.array([0.0, 0.0, 1.0, 0.0]))
X_NC = ObservableClass(ClassKind.TWO_PARAM_NONCOMMUTING, (S1, S2))


@contextlib.contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {label}")
        raise
    print(f"[PASS] criterion {number}: {label}")


def test_criterion_1_exact_machine_suite():
    with criterion(1, "exact machines verify at tol 1e-10"):
        assert verify_exact(cnot_machine(), tol=1e-10).passed

        rng = np.random.default_rng(101)
        for _ in range(100):
            a = random_observable(rng, min_axis=1e-3)
            assert verify_exact(one_param_machine(a), tol=1e-10).passed

        rng = np.random.default_rng(102)
        for _ in range(50):
            a = random_observable(rng, min_axis=1e-3)
            b0 = float(rng.uniform(0.2, 2.0))
            b3 = float(rng.uniform(-2.0, -0.2))
            assert verify_exact(commuting_machine(a, b0, b3), tol=1e-10).passed


def test_criterion_2_approximate_gains():
    with criterion(2, "gain-rescaled machines verify at tol 1e-10"):
        for theta in (np.pi / 6, np.pi / 4, np.pi / 3, 1.0):
            expected = (1.0 / np.cos(theta), 1.0 / np.sin(theta))
            for build in (t_machine, phase_covariant_machine):
                machine = build(theta)
                report = verify_approximate(machine, tol=1e-10)
                assert report.passed
                assert np.allclose(report.gains_used, expected, atol=1e-14)


def test_criterion_3_gain_system_solution():
    with criterion(3, "the stated angle/gain assignment zeroes the copying system"):
        for theta in np.linspace(0.1, np.pi / 2 - 0.1, 20):
            residual = nccm_residual(
                theta / 2.0, -theta / 2.0, 0.0, 1.0 / np.cos(theta), 1.0 / np.sin(theta)
            )
            assert residual < 1e-10


def test_criterion_4_uncertainty_bound():
    with criterion(4, "measured product floors at 4 and obeys the general bound"):
        thetas = np.pi / 4 + (np.arange(200) - 100) * 0.006
        machines = [t_machine(t) for t in thetas]

        for z in (1.0, -1.0):
            pole = QubitState(np.array([0.0, 0.0, z]))
            products = [uncertainty_product(m, pole).product for m in machines]
            assert abs(min(products) - 4.0) < 1e-6

        rng = np.random.default_rng(404)
        states = [random_state(rng, radius=0.95) for _ in range(100)]
        for state in states:
            for m in machines:
                report = uncertainty_product(m, state)
                assert report.product >= report.lower_bound - 1e-10
            di1 = intrinsic_variance(state, S1)
            di2 = intrinsic_variance(state, S2)
            balanced = float(np.arctan((di1 / di2) ** 0.25))
            report = uncertainty_product(t_machine(balanced), state)
            assert abs(report.product - report.lower_bound) < 1e-8


def test_criterion_5_no_cloning_certificates():
    with criterion(5, "search separates clonable classes from the certified floors"):
        config = SearchConfig(restarts=50, seed=0)
        rng = np.random.default_rng(505)

        for _ in range(10):
            a = random_observable(rng, min_axis=0.1)
            cls = ObservableClass(ClassKind.ONE_PARAM, (a,))
            result = search_machine(cls, "exact", config)
            assert result.converged, f"one-param search stuck at {result.best_defect}"

        for _ in range(10):
            a = random_observable(rng, min_axis=0.1)
            axis = a.bloch / np.linalg.norm(a.bloch)
            b0 = float(rng.uniform(0.3, 1.5))
            b3 = float(rng.uniform(-1.5, -0.3))
            partner = Observable(np.concatenate([[b0], b3 * axis]))
            cls = ObservableClass(ClassKind.TWO_PARAM_COMMUTING, (a, partner))
            result = search_machine(cls, "exact", config)
            assert result.converged, f"commuting search stuck at {result.best_defect}"

        blocked = search_machine(X_NC, "exact", config)
        assert not blocked.converged
        assert blocked.best_defect >= X_NC_DEFECT_FLOOR - 1e-12

        general = ObservableClass(ClassKind.GENERAL, tuple(Observable(r) for r in np.eye(4)))
        result = search_machine(general, "exact", config)
        assert not result.converged


def test_criterion_6_state_cloning_comparison():
    with criterion(6, "shrink factors 1/sqrt(2) and 2/3, universal product above 4"):
        machine = t_machine(np.pi / 4)
        shrink = 1.0 / np.sqrt(2.0)
        rng = np.random.default_rng(606)
        for _ in range(50):
            state = random_state(rng)
            joint = dense_output(machine, state)
            for branch in (1, 2):
                clone = ptrace_loop(joint, branch)
                assert abs(np.trace(clone @ SIGMA1).real - shrink * state.bloch[0]) < 1e-12
                assert abs(np.trace(clone @ SIGMA2).real - shrink * state.bloch[1]) < 1e-12

            universal = universal_clone_state(state)
            assert np.all(np.abs(universal.bloch - (2.0 / 3.0) * state.bloch) < 1e-12)

        for z in (1.0, -1.0):
            report = universal_clone_product(QubitState(np.array([0.0, 0.0, z])))
            assert report.product > 4.0
            # The commonly quoted optimum is carried alongside, not enforced.
            assert REFERENCE_UNIVERSAL_PRODUCT == 4.5


def test_criterion_7_structural_properties():
    with criterion(7, "covariance, Heisenberg duality, and Born reconstruction"):
        rng = np.random.default_rng(707)
        for _ in range(50):
            cls = ObservableClass(ClassKind.TWO_PARAM_NONCOMMUTING, (S1, S2))
            machine = CloningMachine(random_unitary(rng, 4), random_state(rng), cls)
            base = verify_exact(machine, tol=np.inf).max_defect
            moved = covariant_transport(machine, random_su2(rng))
            assert abs(verify_exact(moved, tol=np.inf).max_defect - base) < 1e-10

        rng = np.random.default_rng(708)
        for _ in range(200):
            u = random_unitary(rng, 4)
            probe = random_state(rng)
            state = random_state(rng)
            x = random_observable(rng)
            branch = int(rng.integers(1, 3))
            lift = heisenberg_lift(u, probe, x, branch)
            joint = u @ tensor(state.density, probe.density) @ dagger(u)
            m = tensor(x.matrix, SIGMA0) if branch == 1 else tensor(SIGMA0, x.matrix)
            lhs = float(np.trace(state.density @ lift.matrix).real)
            rhs = float(np.trace(joint @ m).real)
            assert abs(lhs - rhs) < 1e-12

        rng = np.random.default_rng(709)
        for _ in range(100):
            x = random_observable(rng, min_axis=0.05)
            state = random_state(rng)
            mean = float(np.trace(state.density @ x.matrix).real)
            stats = statistics_from_mean(x, mean)
            lam, vecs = np.linalg.eigh(x.matrix)
            for k, p in ((0, stats.p0), (1, stats.p1)):
                born = float(np.real(vecs[:, k].conj() @ state.density @ vecs[:, k]))
                assert abs(p - born) < 1e-10
