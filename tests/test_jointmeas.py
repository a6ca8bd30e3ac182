"""Tests for joint-measurement variance accounting on cloned outputs."""

import numpy as np
import pytest

from obsclone.classes import ClassKind, ObservableClass
from obsclone.jointmeas import (
    REFERENCE_UNIVERSAL_PRODUCT,
    UNIVERSAL_SHRINK,
    UncertaintyReport,
    intrinsic_variance,
    uncertainty_product,
    uncertainty_products,
    uncertainty_to_dict,
    universal_clone_product,
    universal_clone_state,
)
from obsclone.linalg import QubitState, SIGMA0, tensor
from obsclone.machines import KET0, SIGMA_XY, CloningMachine, covariant_transport, t_machine, t_machines
from obsclone.pauli import Observable
from support import dense_output, ptrace_loop, random_observable, random_state, random_unitary

S1 = Observable(np.array([0.0, 1.0, 0.0, 0.0]))
S2 = Observable(np.array([0.0, 0.0, 1.0, 0.0]))


def test_intrinsic_variance_known_values():
    s3 = Observable(np.array([0.0, 0.0, 0.0, 1.0]))
    assert intrinsic_variance(KET0, s3) == pytest.approx(0.0, abs=1e-14)
    assert intrinsic_variance(KET0, S1) == pytest.approx(1.0, abs=1e-14)
    mixed = QubitState(np.zeros(3))
    doubled = Observable(np.array([0.0, 2.0, 0.0, 0.0]))
    assert intrinsic_variance(mixed, doubled) == pytest.approx(4.0, abs=1e-14)


def test_intrinsic_variance_closed_form_for_unit_traceless(rng):
    for _ in range(20):
        state = random_state(rng)
        assert intrinsic_variance(state, S1) == pytest.approx(
            1.0 - state.bloch[0] ** 2, abs=1e-13
        )


def test_measured_variances_match_joint_picture(rng):
    """Each branch's estimator variance recomputed on the full two-qubit output,
    with no partial trace anywhere."""
    machine = t_machine(0.7)
    for _ in range(10):
        state = random_state(rng)
        joint = dense_output(machine, state)
        report = uncertainty_product(machine, state)
        for gen, branch, got in ((S1, 1, report.delta_m1), (S2, 2, report.delta_m2)):
            g = machine.gains[branch - 1]
            m = g * (tensor(gen.matrix, SIGMA0) if branch == 1 else tensor(SIGMA0, gen.matrix))
            expected = np.trace(joint @ m @ m).real - np.trace(joint @ m).real ** 2
            assert got == pytest.approx(expected, abs=1e-12)


def test_measured_variances_match_joint_picture_on_haar_machines(rng):
    """Haar unitaries, mixed probes, signed gains and a Haar-rotated pair, against
    dense evolution of the joint state. With both Bloch radii at most 1/2 no branch
    mean exceeds 1/2 in size, so gains of size 2 or more clear the bound."""
    eye = np.eye(2)
    for _ in range(20):
        cls = covariant_transport(t_machine(0.4), random_unitary(rng, 2)).observables
        u, probe, state = random_unitary(rng, 4), random_state(rng, radius=0.5), random_state(rng, radius=0.5)
        gains = tuple(rng.uniform(2.0, 3.0, 2) * rng.choice([-1.0, 1.0], 2))
        report = uncertainty_product(CloningMachine(u, probe, cls, gains), state)
        joint = u @ np.kron(state.density, probe.density) @ u.conj().T
        for b, x, got in ((0, cls.generators[0], report.delta_m1), (1, cls.generators[1], report.delta_m2)):
            m = gains[b] * (np.kron(x.matrix, eye) if b == 0 else np.kron(eye, x.matrix))
            expected = np.trace(joint @ m @ m).real - np.trace(joint @ m).real ** 2
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_intrinsic_variance_matches_dense_trace_for_any_observable(rng):
    """Observables that are neither unit nor traceless, against Tr[rho X^2] - Tr[rho X]^2."""
    for _ in range(20):
        state = random_state(rng)
        x = random_observable(rng, scale=2.0)
        xm, rho = x.matrix, state.density
        assert intrinsic_variance(state, x) == pytest.approx(
            np.trace(rho @ xm @ xm).real - np.trace(rho @ xm).real ** 2, abs=1e-12
        )


def test_uncertainty_product_balanced_point_attains_four():
    report = uncertainty_product(t_machine(np.pi / 4), KET0)
    assert report.delta_i1 == pytest.approx(1.0, abs=1e-13)
    assert report.delta_i2 == pytest.approx(1.0, abs=1e-13)
    assert report.delta_m1 == pytest.approx(2.0, abs=1e-12)
    assert report.delta_m2 == pytest.approx(2.0, abs=1e-12)
    assert report.product == pytest.approx(4.0, abs=1e-12)
    assert report.lower_bound == pytest.approx(4.0, abs=1e-13)
    assert report.theta == pytest.approx(np.pi / 4, abs=1e-13)
    assert report.optimal_theta == pytest.approx(np.pi / 4, abs=1e-13)


def test_uncertainty_product_at_an_unbalanced_angle():
    report = uncertainty_product(t_machine(np.pi / 3), KET0)
    assert report.delta_m1 == pytest.approx(4.0, abs=1e-12)
    assert report.delta_m2 == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert report.product == pytest.approx(16.0 / 3.0, abs=1e-12)
    assert report.product > report.lower_bound


def test_uncertainty_product_respects_the_bound_everywhere(rng):
    for _ in range(6):
        state = random_state(rng, radius=0.95)
        for theta in np.linspace(0.15, np.pi / 2 - 0.15, 25):
            report = uncertainty_product(t_machine(theta), state)
            assert report.product >= report.lower_bound - 1e-10


def test_uncertainty_product_bound_is_tight_at_the_balancing_angle(rng):
    for _ in range(10):
        state = random_state(rng, radius=0.9)
        probe_report = uncertainty_product(t_machine(0.5), state)
        best = uncertainty_product(t_machine(probe_report.optimal_theta), state)
        assert best.product == pytest.approx(best.lower_bound, abs=1e-8)


def test_balancing_angle_is_the_scan_minimum(rng):
    state = random_state(rng, radius=0.8)
    report = uncertainty_product(t_machine(0.9), state)
    grid = np.linspace(0.1, np.pi / 2 - 0.1, 400)
    products = [uncertainty_product(t_machine(t), state).product for t in grid]
    at_optimum = uncertainty_product(t_machine(report.optimal_theta), state).product
    assert at_optimum <= min(products) + 1e-9


def test_uncertainty_product_validates_machine_and_class():
    from obsclone.machines import cnot_machine

    with pytest.raises(ValueError):
        uncertainty_product(cnot_machine(), KET0)
    wide = ObservableClass(
        ClassKind.TWO_PARAM_NONCOMMUTING,
        (Observable(np.array([0.0, 2.0, 0.0, 0.0])), S2),
    )
    machine = t_machine(0.5)
    from obsclone.machines import CloningMachine

    bad = CloningMachine(machine.unitary, machine.probe, wide, machine.gains)
    with pytest.raises(ValueError):
        uncertainty_product(bad, KET0)


def test_uncertainty_report_validation():
    with pytest.raises(ValueError):
        UncertaintyReport(1.0, 1.0, 2.0, 2.0, 5.0, 4.0, 0.7, 0.7)
    with pytest.raises(ValueError):
        UncertaintyReport(1.0, 1.0, 1.0, 1.0, 1.0, 4.0, 0.7, 0.7)
    with pytest.raises(ValueError):
        UncertaintyReport(3.0, 1.0, 2.0, 2.0, 4.0, 4.0, 0.7, 0.7)


def test_batch_report_checks_run_entry_by_entry():
    ok = np.array([2.0, 2.0, 2.0])
    UncertaintyReport(1.0, 1.0, ok, ok, ok * ok, 4.0, ok, 0.7)
    with pytest.raises(ValueError, match="finite"):
        UncertaintyReport(1.0, 1.0, ok, np.array([2.0, np.inf, 2.0]), ok * ok, 4.0, ok, 0.7)
    with pytest.raises(ValueError, match="finite"):
        UncertaintyReport(1.0, 1.0, ok, ok, ok * ok, 4.0, np.array([0.7, 0.7, np.nan]), 0.7)
    with pytest.raises(ValueError, match="delta_m1"):
        UncertaintyReport(1.0, 1.0, ok, ok, np.array([4.0, 4.5, 4.0]), 4.0, ok, 0.7)
    with pytest.raises(ValueError, match="bound"):
        low = np.array([2.0, 1.0, 2.0])
        UncertaintyReport(1.0, 1.0, ok, low, ok * low, 4.0, ok, 0.7)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        UncertaintyReport(1.0, -1e-11, ok, ok, ok * ok, 4.0, ok, 0.7)


def test_stacked_reports_equal_single_machine_reports_bit_for_bit(rng):
    """uncertainty_products on a stack gives each machine's uncertainty_product
    exactly, for t-machines and for Haar unitaries on a rotated class with a mixed probe."""
    thetas = rng.uniform(0.05, 1.5, 9)
    u, gains, _ = t_machines(thetas)
    state = random_state(rng)
    stacked = uncertainty_products(u, gains, KET0, SIGMA_XY, state)
    for i, theta in enumerate(thetas):
        one = uncertainty_product(t_machine(theta), state)
        for name, value in uncertainty_to_dict(one).items():
            assert np.broadcast_to(getattr(stacked, name), thetas.shape)[i] == value, name

    w = random_unitary(rng, 2)
    cls = covariant_transport(t_machine(0.4), w).observables
    probe = random_state(rng, radius=0.8)
    us = np.array([random_unitary(rng, 4) for _ in range(6)])
    gains = rng.uniform(1.2, 3.0, (6, 2))
    stacked = uncertainty_products(us, gains, probe, cls, state)
    for i in range(6):
        one = uncertainty_product(CloningMachine(us[i], probe, cls, tuple(gains[i])), state)
        assert (stacked.delta_m1[i], stacked.delta_m2[i], stacked.product[i], stacked.theta[i]) == (
            one.delta_m1, one.delta_m2, one.product, one.theta
        )
        assert (stacked.delta_i1, stacked.lower_bound, stacked.optimal_theta) == (
            one.delta_i1, one.lower_bound, one.optimal_theta
        )


def _universal_pair_oracle(rho):
    """Two-clone joint state of the optimal symmetric cloner, built from the
    symmetric-subspace projector rather than from the Bloch shrink rule."""
    swap = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    psym = 0.5 * (np.eye(4) + swap)
    pair = psym @ np.kron(rho, np.eye(2) / 2.0) @ psym
    return pair * (4.0 / 3.0)


def test_universal_clone_state_matches_projector_construction(rng):
    for _ in range(15):
        state = random_state(rng)
        pair = _universal_pair_oracle(state.density)
        assert np.trace(pair).real == pytest.approx(1.0, abs=1e-13)
        for branch in (1, 2):
            marginal = ptrace_loop(pair, branch)
            assert np.allclose(
                marginal, universal_clone_state(state).density, atol=1e-12
            )


def test_universal_clone_state_shrinks_by_two_thirds(rng):
    state = random_state(rng)
    clone = universal_clone_state(state)
    assert np.allclose(clone.bloch, UNIVERSAL_SHRINK * state.bloch, atol=1e-15)


def test_universal_clone_product_on_pole_states():
    for z in (1.0, -1.0):
        report = universal_clone_product(QubitState(np.array([0.0, 0.0, z])))
        assert report.delta_m1 == pytest.approx(2.25, abs=1e-13)
        assert report.delta_m2 == pytest.approx(2.25, abs=1e-13)
        assert report.product == pytest.approx(81.0 / 16.0, abs=1e-12)
        assert report.lower_bound == pytest.approx(4.0, abs=1e-13)
        assert report.product > 4.0


def test_universal_product_exceeds_tailored_optimum():
    pole = QubitState(np.array([0.0, 0.0, 1.0]))
    tailored = uncertainty_product(t_machine(np.pi / 4), pole)
    universal = universal_clone_product(pole)
    assert universal.product > tailored.product


def test_reference_product_is_reported_not_asserted():
    """The library records the commonly quoted 9/2 alongside its own 81/16;
    the two differ by convention and neither is forced on the other."""
    assert REFERENCE_UNIVERSAL_PRODUCT == 4.5
    report = universal_clone_product(QubitState(np.array([0.0, 0.0, 1.0])))
    assert report.product != REFERENCE_UNIVERSAL_PRODUCT


def test_universal_clone_product_matches_measured_variance_convention(rng):
    """The closed form used for the universal clones must agree with the
    generic estimator-variance definition applied to the shrunk state."""
    state = random_state(rng, radius=0.9)
    report = universal_clone_product(state)
    g = 1.0 / UNIVERSAL_SHRINK
    for gen, dm in ((S1, report.delta_m1), (S2, report.delta_m2)):
        clone = universal_clone_state(state)
        mean = float(np.trace(clone.density @ gen.matrix).real)
        second = float(np.trace(clone.density @ gen.matrix @ gen.matrix).real)
        assert dm == pytest.approx(g * g * second - (g * mean) ** 2, abs=1e-12)


def test_uncertainty_to_dict_round_trips_fields():
    report = uncertainty_product(t_machine(0.8), KET0)
    data = uncertainty_to_dict(report)
    assert data["product"] == report.product
    assert data["lower_bound"] == report.lower_bound
    assert set(data) == {
        "delta_i1",
        "delta_i2",
        "delta_m1",
        "delta_m2",
        "product",
        "lower_bound",
        "theta",
        "optimal_theta",
    }
