"""Tests for joint-measurement variance accounting on cloned outputs."""

from fractions import Fraction

import numpy as np
import pytest

from obsclone.classes import ClassKind, ObservableClass
from obsclone.jointmeas import (
    REFERENCE_UNIVERSAL_PRODUCT,
    UNIVERSAL_GAINS,
    UNIVERSAL_TRANSFERS,
    UncertaintyReport,
    intrinsic_variance,
    uncertainty_product,
    uncertainty_products,
    uncertainty_to_dict,
    universal_clone_product,
)
from obsclone.linalg import QubitState, SIGMA0, tensor
from obsclone.machines import (
    KET0,
    SIGMA_XY,
    CloningMachine,
    covariant_transport,
    t_machine,
    t_machines,
    transfer_matrices,
)
from obsclone.pauli import Observable
from support import (
    buzek_hillery_pair,
    dense_output,
    ptrace_loop,
    random_observable,
    random_state,
    random_unitary,
    universal_pair_oracle,
)

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


def test_intrinsic_variance_of_a_large_identity_part_against_exact_arithmetic(rng):
    """a0 I + a.sigma with a0 up to 1e12 and unit-sized a: the variance |a|^2 - (a.s)^2 does not
    depend on a0, which a form second - mean^2 lets in through cancellation (2.0 in place of 0.99
    at a0 = 1e8, 0.0 at 3e9). Checked against the same expression in Fractions of the inputs."""
    for a0 in (0.0, 1.0, -1e4, 1e8, 3e9, -1e12, 1e12):
        for _ in range(10):
            state, a = random_state(rng), rng.uniform(-1.0, 1.0, 3)
            exact_a, exact_s = [Fraction(v) for v in a.tolist()], [Fraction(v) for v in state.bloch.tolist()]
            exact = sum(v * v for v in exact_a) - sum(v * w for v, w in zip(exact_a, exact_s)) ** 2
            got = intrinsic_variance(state, Observable(np.concatenate([[a0], a])))
            assert abs(Fraction(got) - exact) <= Fraction(1, 10**14), (a0, got, float(exact))
    worked = Observable(np.array([1e8, 0.6, 0.0, 0.8]))
    assert intrinsic_variance(QubitState(np.array([0.3, 0.2, -0.1])), worked) == pytest.approx(0.99, abs=1e-15)


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


def test_a_generator_past_unit_norm_is_refused_at_every_state(rng):
    """A generator with |a|^2 above 1 + 1e-12 is refused up front, whatever the state. |a| = 1 + 9e-13 is within
    1e-12 of 1, but its |a|^2 gives an intrinsic variance past the report's [0, 1] rule at (0, 0, 1), not at (1, 0, 0)."""
    t = t_machine(0.7)
    wide = ObservableClass(ClassKind.TWO_PARAM_NONCOMMUTING, (Observable(np.array([0.0, 1.0 + 9e-13, 0.0, 0.0])), S2))
    machine = CloningMachine(t.unitary, t.probe, wide, t.gains)
    for state in (QubitState([0.0, 0.0, 1.0]), QubitState([1.0, 0.0, 0.0]), random_state(rng)):
        with pytest.raises(ValueError, match="generators must be unit-norm traceless observables"):
            uncertainty_product(machine, state)


def test_exactly_unit_generators_keep_their_report_bytes():
    """sigma1 and sigma2 have |a|^2 = 1 exactly, so the unit rule passes them, and t_machine(0.7)'s reports keep
    these pinned bits."""
    assert all(float(x.bloch @ x.bloch) == 1.0 for x in SIGMA_XY.generators)
    report = uncertainty_to_dict(uncertainty_product(t_machine(0.7), QubitState([0.0, 0.0, 1.0])))
    assert {k: v.hex() for k, v in report.items()} == {
        "delta_i1": "0x1.0000000000000p+0",
        "delta_i2": "0x1.0000000000000p+0",
        "delta_m1": "0x1.b59e7f1fc9e05p+0",
        "delta_m2": "0x1.346be91853747p+1",
        "product": "0x1.079d94541c324p+2",
        "lower_bound": "0x1.0000000000000p+2",
        "theta": "0x1.6666666666665p-1",
        "optimal_theta": "0x1.921fb54442d18p-1",
    }
    assert uncertainty_product(t_machine(0.7), QubitState([1.0, 0.0, 0.0])).product.hex() == "0x1.b59e7f1fc9e0ep+0"


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


def _report_states(rng):
    """A random state, the six poles, the maximally mixed state, and radii 1 - 2**-40 (mixed) and
    1 + 5e-13 (past the sphere, read onto it) on random axes: the edge probes of the kernel's tests."""
    axes = [rng.normal(size=3) for _ in range(2)]
    edges = [(1.0 - 2.0**-40) * axes[0] / np.linalg.norm(axes[0]), (1.0 + 5e-13) * axes[1] / np.linalg.norm(axes[1])]
    return [random_state(rng)] + [QubitState(b) for b in [*np.eye(3), *-np.eye(3), np.zeros(3), *edges]]


def _assert_stack_matches(stacked, ones, single):
    """Entry i of each per-machine field of a stacked report equals ones[i]'s bit for bit; the state-only
    fields equal single's."""
    for name, value in uncertainty_to_dict(single).items():
        got = getattr(stacked, name)
        if np.ndim(got):
            assert got.shape == (len(ones),) and all(g == getattr(one, name) for g, one in zip(got, ones)), name
        else:
            assert got == value, name


def test_stacked_reports_equal_single_machine_reports_bit_for_bit(rng):
    """uncertainty_products on a stack gives each machine's uncertainty_product exactly, for t-machines
    and for Haar unitaries on a rotated class with a mixed probe, at random, pole, maximally mixed and
    edge-radius states. On an empty stack (transfers[:0]) the state-only fields still equal the single report's."""
    thetas = rng.uniform(0.05, 1.5, 9)
    t_transfers, t_gains, _ = t_machines(thetas)
    w = random_unitary(rng, 2)
    cls = covariant_transport(t_machine(0.4), w).observables
    probe = random_state(rng, radius=0.8)
    us = np.array([random_unitary(rng, 4) for _ in range(6)])
    gains = rng.uniform(1.2, 3.0, (6, 2))
    haar = [CloningMachine(u, probe, cls, tuple(g)) for u, g in zip(us, gains)]
    h_transfers = transfer_matrices(us, probe)
    for state in _report_states(rng):
        pairs = ((t_transfers, t_gains, SIGMA_XY, map(t_machine, thetas)), (h_transfers, gains, cls, haar))
        for transfers, g, c, machines in pairs:
            ones = [uncertainty_product(m, state) for m in machines]
            _assert_stack_matches(uncertainty_products(transfers, g, c, state), ones, ones[0])
            _assert_stack_matches(uncertainty_products(transfers[:0], g[:0], c, state), [], ones[0])


def test_noise_functions_read_a_list_state_as_a_qubit_state():
    """uncertainty_product, universal_clone_product and intrinsic_variance take a Bloch vector as a list,
    as CloningMachine takes its probe, and refuse one outside the ball by the state's own rule."""
    m, pole = t_machine(0.7), QubitState(np.array([0.0, 0.0, 1.0]))
    assert uncertainty_product(m, [0, 0, 1]) == uncertainty_product(m, pole)
    assert universal_clone_product([0, 0, 1]) == universal_clone_product(pole)
    assert intrinsic_variance([0, 0, 1], S1) == intrinsic_variance(pole, S1) == 1.0
    for call in (lambda s: uncertainty_product(m, s), universal_clone_product, lambda s: intrinsic_variance(s, S1)):
        with pytest.raises(ValueError, match="^Bloch vector must lie inside the unit ball"):
            call([0, 0, 2])


def test_universal_transfers_match_the_projector_and_isometry_oracles(rng):
    """Each branch's clone of a random state, read off UNIVERSAL_TRANSFERS, against the
    symmetric-projector pair and the Buzek-Hillery isometry, both traced by loops."""
    for _ in range(15):
        state = random_state(rng)
        for pair in (universal_pair_oracle(state.density), buzek_hillery_pair(state.density)):
            assert np.trace(pair).real == pytest.approx(1.0, abs=1e-13)
            for branch in (1, 2):
                r = UNIVERSAL_TRANSFERS[branch - 1]
                clone = r[1:, 0] + r[1:, 1:] @ state.bloch
                assert np.allclose(ptrace_loop(pair, branch), QubitState(clone).density, atol=1e-12)


def test_universal_constant_shrinks_by_two_thirds_and_is_read_only():
    """Both branches keep the identity and shrink every Bloch component by 2/3; the gains undo it."""
    for r in UNIVERSAL_TRANSFERS:
        assert np.array_equal(r, np.diag([1.0, 2.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0]))
    assert UNIVERSAL_GAINS.tolist() == [1.5, 1.5]
    for constant in (UNIVERSAL_TRANSFERS, UNIVERSAL_GAINS):
        with pytest.raises(ValueError):
            constant[0] = 0.0


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
    """The report on the universal transfer matrices must agree with the
    generic estimator-variance definition applied to the isometry's clones."""
    state = random_state(rng, radius=0.9)
    report = universal_clone_product(state)
    pair = buzek_hillery_pair(state.density)
    for branch, gen, dm in ((1, S1, report.delta_m1), (2, S2, report.delta_m2)):
        g = UNIVERSAL_GAINS[branch - 1]
        clone = ptrace_loop(pair, branch)
        mean = float(np.trace(clone @ gen.matrix).real)
        second = float(np.trace(clone @ gen.matrix @ gen.matrix).real)
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
