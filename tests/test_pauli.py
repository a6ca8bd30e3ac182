"""Tests for observables as Pauli coefficient vectors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obsclone.linalg import SIGMA1
from obsclone.pauli import (
    DegenerateSpectrumError,
    Observable,
    TwoOutcomeStatistics,
    commutes,
    conjugate,
    decompose,
    observable_from_list,
    observable_to_list,
    statistics_from_mean,
)
from support import random_observable, random_state, random_su2

coeff = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False)


def test_decompose_known_cases():
    assert np.allclose(decompose(np.diag([1.0, -1.0])).coeffs, [0, 0, 0, 1])
    assert np.allclose(decompose(np.eye(2)).coeffs, [1, 0, 0, 0])
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    assert np.allclose(decompose(h).coeffs, [0, 1 / np.sqrt(2), 0, 1 / np.sqrt(2)])


def test_decompose_rejects_non_hermitian():
    with pytest.raises(ValueError):
        decompose(np.array([[0.0, 1.0], [2.0, 0.0]]))


@given(st.tuples(coeff, coeff, coeff, coeff))
@settings(max_examples=200, deadline=None)
def test_compose_decompose_round_trip(coeffs):
    x = Observable(np.array(coeffs))
    back = decompose(x.matrix)
    assert np.allclose(back.coeffs, x.coeffs, atol=1e-12)


def test_observable_validation():
    with pytest.raises(ValueError):
        Observable(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        Observable(np.array([np.nan, 0.0, 0.0, 0.0]))


def test_observable_coeffs_are_read_only():
    x = Observable(np.array([0.0, 0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        x.coeffs[3] = 2.0


def test_eigenvalues_match_dense_solver(rng):
    for _ in range(25):
        x = random_observable(rng)
        lam = np.linalg.eigvalsh(x.matrix)
        lo, hi = x.eigenvalues()
        assert lo == pytest.approx(lam[0], abs=1e-12)
        assert hi == pytest.approx(lam[1], abs=1e-12)


def test_commutes_known_pairs():
    s1 = Observable(np.array([0.0, 1.0, 0.0, 0.0]))
    s2 = Observable(np.array([0.0, 0.0, 1.0, 0.0]))
    s3 = Observable(np.array([0.0, 0.0, 0.0, 1.0]))
    shifted = Observable(np.array([2.5, 0.0, 0.0, -3.0]))
    assert not commutes(s1, s2)
    assert commutes(s3, shifted)
    assert commutes(s1, s1)


def test_commutes_matches_dense_commutator(rng):
    for _ in range(25):
        a = random_observable(rng)
        b = random_observable(rng)
        comm = a.matrix @ b.matrix - b.matrix @ a.matrix
        assert commutes(a, b) == (np.linalg.norm(comm) < 2e-10)


def test_conjugate_preserves_eigenvalues(rng):
    x = random_observable(rng)
    w = random_su2(rng)
    y = conjugate(x, w)
    assert np.allclose(y.eigenvalues(), x.eigenvalues(), atol=1e-12)


def test_conjugate_by_sigma1_flips_two_axes():
    x = Observable(np.array([0.7, 0.2, -0.4, 0.9]))
    y = conjugate(x, SIGMA1)
    assert np.allclose(y.coeffs, [0.7, 0.2, 0.4, -0.9], atol=1e-14)


def test_conjugate_rejects_non_unitary():
    x = Observable(np.array([0.0, 0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        conjugate(x, np.array([[1.0, 0.0], [0.0, 2.0]]))


def _born_oracle(x, rho):
    """Eigenvalues and outcome probabilities from a dense eigendecomposition."""
    lam, vecs = np.linalg.eigh(x.matrix)
    probs = [float(np.real(vecs[:, k].conj() @ rho @ vecs[:, k])) for k in range(2)]
    return lam, probs


def test_statistics_from_mean_matches_born_rule(rng):
    for _ in range(30):
        x = random_observable(rng, min_axis=0.05)
        state = random_state(rng)
        mean = float(np.trace(state.density @ x.matrix).real)
        stats = statistics_from_mean(x, mean)
        lam, probs = _born_oracle(x, state.density)
        assert stats.lambda0 == pytest.approx(lam[0], abs=1e-10)
        assert stats.lambda1 == pytest.approx(lam[1], abs=1e-10)
        assert stats.p0 == pytest.approx(probs[0], abs=1e-10)
        assert stats.p1 == pytest.approx(probs[1], abs=1e-10)


def test_statistics_from_mean_known_cases():
    even = statistics_from_mean(Observable(np.array([0.0, 0.0, 0.0, 1.0])), 0.0)
    assert (even.lambda0, even.lambda1) == pytest.approx((-1.0, 1.0))
    assert (even.p0, even.p1) == pytest.approx((0.5, 0.5))

    shifted = statistics_from_mean(Observable(np.array([1.0, 2.0, 0.0, 0.0])), 1.0)
    assert (shifted.lambda0, shifted.lambda1) == pytest.approx((-1.0, 3.0))
    assert shifted.p1 == pytest.approx(0.5)


def test_statistics_from_mean_at_spectral_edge():
    x = Observable(np.array([0.5, 0.0, 0.0, 1.0]))
    stats = statistics_from_mean(x, 1.5)
    assert stats.p1 == pytest.approx(1.0)
    assert stats.p0 == pytest.approx(0.0)


def test_statistics_from_mean_rejects_degenerate_spectrum():
    with pytest.raises(DegenerateSpectrumError):
        statistics_from_mean(Observable(np.array([0.7, 0.0, 0.0, 0.0])), 0.7)


def test_statistics_from_mean_rejects_out_of_range_mean():
    x = Observable(np.array([0.0, 0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        statistics_from_mean(x, 1.5)


def test_two_outcome_statistics_validation():
    with pytest.raises(ValueError):
        TwoOutcomeStatistics(1.0, -1.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        TwoOutcomeStatistics(-1.0, 1.0, 0.7, 0.7)
    with pytest.raises(ValueError):
        TwoOutcomeStatistics(-1.0, 1.0, -0.2, 1.2)


def test_observable_list_round_trip():
    x = Observable(np.array([0.25, -1.5, 3.0, 0.0]))
    data = observable_to_list(x)
    assert data == [0.25, -1.5, 3.0, 0.0]
    assert np.array_equal(observable_from_list(data).coeffs, x.coeffs)
