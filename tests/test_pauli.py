"""Tests for observables as Pauli coefficient vectors."""

import numpy as np
import pytest

from obsclone.classes import ClassKind, ObservableClass, class_from_dict, class_to_dict
from obsclone.pauli import (
    DegenerateSpectrumError,
    Observable,
    TwoOutcomeStatistics,
    commutes,
    statistics_from_mean,
)
from support import random_observable, random_state


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


def test_tolerances_are_relative_to_the_observable():
    """Commutation, degeneracy and the spectrum's edges are judged relative to the
    observable's size, and eigenvalues stay finite where |bloch|**2 would overflow."""
    tiny = 1e-13
    assert not commutes(Observable(np.array([0.0, tiny, 0.0, 0.0])), Observable(np.array([0.0, 0.0, tiny, 0.0])))
    stats = statistics_from_mean(Observable(np.array([0.0, tiny, 0.0, 0.0])), 0.0)
    assert (stats.p0, stats.p1) == (0.5, 0.5)
    edge = statistics_from_mean(Observable(np.array([0.0, 0.0, 0.0, 1e6])), 1e6 + 2.4e-10)
    assert (edge.p0, edge.p1) == (0.0, 1.0)
    with pytest.raises(ValueError, match="outside the spectrum"):
        statistics_from_mean(Observable(np.array([0.0, 0.0, 0.0, 1e6])), 1e6 * (1.0 + 1e-11))
    with pytest.raises(DegenerateSpectrumError):
        statistics_from_mean(Observable(np.array([1.0, tiny, 0.0, 0.0])), 1.0)
    with pytest.raises(ValueError, match="eigenvalues exceed the float range"):
        statistics_from_mean(Observable(np.array([-1e308, 1e308, 0.0, 0.0])), 0.0)
    r = np.sqrt(2.0) * 1e160
    assert Observable(np.array([0.0, 1e160, 1e160, 0.0])).eigenvalues() == pytest.approx((-r, r), rel=1e-15)


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
    """A class document holds each generator as its list of Python floats, and reads it back bit for bit."""
    x = Observable(np.array([0.25, -1.5, 3.0, 0.0]))
    data = class_to_dict(ObservableClass(ClassKind.ONE_PARAM, (x,)))
    assert data["generators"] == [[0.25, -1.5, 3.0, 0.0]]
    assert all(type(v) is float for v in data["generators"][0])
    assert np.array_equal(class_from_dict(data).generators[0].coeffs, x.coeffs)
