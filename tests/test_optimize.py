"""The SQP descent's linear-algebra pieces, each against an independent reference.

_simplex_qp is checked against a brute-force solution of its dual over
every support, its face solve _solve against numpy's, and _bfgs_update,
which keeps the inverse of the Hessian approximation, against the direct
damped BFGS update of the Hessian itself, inverted by numpy.
"""

import itertools
import warnings

import numpy as np
import pytest

from obsclone import optimize
from obsclone.classes import ClassKind, ObservableClass
from obsclone.optimize import _bfgs_update, _simplex_qp
from obsclone.pauli import Observable
from obsclone.search import GAIN_BOUNDS, _bounds, _objective

X_NC = ObservableClass(ClassKind.TWO_PARAM_NONCOMMUTING, (Observable(np.eye(4)[1]), Observable(np.eye(4)[2])))
GENERAL = ObservableClass(ClassKind.GENERAL, tuple(Observable(row) for row in np.eye(4)))


def dual(m, gap, lam):
    return 0.5 * lam @ m @ lam + gap @ lam


def brute_force_dual(m, gap):
    """Minimum of lam.M.lam / 2 + gap.lam over the simplex, by enumeration.

    The minimum sits at the KKT point of some support whose multipliers are
    all nonnegative. Every support's KKT solution, clipped to lam >= 0 and
    rescaled to sum 1, is a point of the simplex, so the least dual value
    among them is that minimum.
    """
    n = len(gap)
    best = np.inf
    for size in range(1, n + 1):
        for support in itertools.combinations(range(n), size):
            kkt = np.zeros((size + 1, size + 1))
            kkt[:size, :size] = m[np.ix_(support, support)]
            kkt[:size, size] = -1.0
            kkt[size, :size] = 1.0
            try:
                sol = np.linalg.solve(kkt, np.append(-gap[list(support)], 1.0))
            except np.linalg.LinAlgError:
                continue
            lam = np.zeros(n)
            lam[list(support)] = np.clip(sol[:size], 0.0, None)
            if lam.sum() > 0.0:
                best = min(best, dual(m, gap, lam / lam.sum()))
    return best


def qp_case(rng, kind, n=None):
    """(M, gap) of a dual QP with n pairs, by default 1 to 8: M = J.J^T is positive semidefinite, and gap >= 0 has a 0."""
    n = int(rng.integers(1, 9)) if n is None else n
    jac = rng.normal(size=(n, 12))
    gap = rng.uniform(0.0, 1.0, n)
    if kind == "duplicated-rows" and n > 1:
        i, j = rng.choice(n, 2, replace=False)
        jac[j] = jac[i]
        gap[j] = gap[i] if rng.uniform() < 0.5 else gap[j]
    elif kind == "dependent-rows":
        rank = int(rng.integers(1, n + 1))
        jac = rng.normal(size=(n, rank)) @ rng.normal(size=(rank, 12))
        if n > 2:
            jac[-1] = 0.5 * (jac[0] + jac[1])
    elif kind == "tied-gaps":
        gap = rng.integers(0, 3, n) / 2.0
    gap -= gap.min()
    return jac @ jac.T, gap


QP_KINDS = ["positive-definite", "duplicated-rows", "dependent-rows", "tied-gaps"]


def assert_solves(m, gap, support, floor):
    """_simplex_qp from support, without a warning or an exception: the multipliers lie on the
    simplex, the dual value is floor to 1e-12, and the predicted decrease is min(gap + M.lam)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lam, predicted = _simplex_qp(m.tolist(), gap.tolist(), [int(i) for i in support])
    lam = np.array(lam)
    assert lam.min() >= 0.0
    assert abs(lam.sum() - 1.0) <= 1e-12
    assert abs(dual(m, gap, lam) - floor) <= 1e-12
    assert abs(predicted - (gap + m @ lam).min()) <= 1e-12


@pytest.mark.parametrize("kind", QP_KINDS)
def test_simplex_qp_matches_a_brute_force_dual(rng, kind):
    """Started from the index with the least gap, from every index and from a
    random support, the QP reaches the brute-force minimum. The plain-float
    solve must meet singular faces and multipliers that enter at exactly 0."""
    for _ in range(40):
        m, gap = qp_case(rng, kind)
        n = len(gap)
        floor = brute_force_dual(m, gap)
        some = rng.choice(n, int(rng.integers(1, n + 1)), replace=False)
        for support in ([int(np.argmin(gap))], list(range(n)), sorted(some)):
            assert_solves(m, gap, support, floor)


@pytest.mark.parametrize("kind", QP_KINDS)
@pytest.mark.parametrize("n", [4, 6])
def test_simplex_qp_matches_a_brute_force_dual_from_warm_supports_of_every_size(rng, n, kind):
    """The search's shapes: 4 pairs (two generators) and 6 (three), started as
    a descent step is, from the last step's support, in the order it was left,
    here of every size from 1 to n. Duplicated and dependent rows make its faces
    singular."""
    for _ in range(10):
        m, gap = qp_case(rng, kind, n)
        floor = brute_force_dual(m, gap)
        for size in range(1, n + 1):
            assert_solves(m, gap, rng.permutation(n)[:size], floor)


@pytest.mark.parametrize("size", range(1, 8))
def test_solve_matches_numpy_and_finds_null_vectors(rng, size):
    """A positive definite system is solved to 1e-10 relative; where the factor of
    row c repeats the first, elimination leaves exactly 0 at pivot c, and the
    null vector has 1 there and 0 after it."""
    for _ in range(20):
        b = rng.normal(size=(size, size + 2))
        a, rhs = b @ b.T, rng.normal(size=size)
        x, singular = optimize._solve(np.column_stack([a, rhs]).tolist())
        assert not singular
        assert np.abs(np.array(x) - np.linalg.solve(a, rhs)).max() <= 1e-10 * np.abs(x).max()
        if size >= 2:
            c = int(rng.integers(1, size))
            b[c] = b[0]
            a = b @ b.T
            v, singular = optimize._solve(np.column_stack([a, rhs]).tolist())
            assert singular
            assert v[c] == 1.0 and not any(v[c + 1 :])
            assert np.abs(a @ v).max() <= 1e-9 * np.abs(a).max()


def test_simplex_qp_lets_an_index_entering_at_exactly_zero_block():
    """Index 2 enters the support {0, 1} on a multiplier of -3e-16, negative
    through rounding alone, and the face solve gives it exactly 0.0: its
    ratio 0 / (0 - 0) is taken as 0, so it blocks at once and leaves again."""
    m = [
        [0.8888888888888888, -0.6666666666666666, 0.8888888888888888],
        [-0.6666666666666666, 0.5555555555555555, -0.6666666666666666],
        [0.8888888888888888, -0.6666666666666666, 1.3333333333333333],
    ]
    gap = [0.0, 0.5, 0.0]
    lam, predicted = _simplex_qp(m, gap, [0])
    assert abs(dual(np.array(m), np.array(gap), np.array(lam)) - brute_force_dual(np.array(m), np.array(gap))) <= 1e-12


def direct_update(hess, s, y):
    """Powell's damped BFGS update of the Hessian approximation itself, as the descent once kept it."""
    hs = hess @ s
    shs = s @ hs
    if not shs > 0.0:
        return hess
    sy = s @ y
    if sy < 0.2 * shs:
        theta = 0.8 * shs / (shs - sy)
        y = theta * y + (1.0 - theta) * hs
        sy = s @ y
    return hess + np.outer(y, y) / sy - np.outer(hs, hs) / shs


def assert_inverse_update(inv, s, y, hs):
    """_bfgs_update of inv with (s, y, hs) is the inverse of the direct update of inv^-1, to 1e-10, and symmetric."""
    expected = np.linalg.inv(direct_update(np.linalg.inv(inv), s, y))
    updated = inv.copy()
    _bfgs_update(updated, s, y, hs)
    assert np.array_equal(updated, updated.T)
    assert np.abs(updated - expected).max() <= 1e-10 * np.abs(expected).max()


@pytest.mark.parametrize("branch", ["undamped", "damped", "skipped"])
def test_inverse_bfgs_update_inverts_the_direct_one(rng, branch):
    """Over random positive definite H, s and y: the curvature s.y at least
    0.2 s.H.s, below it, and s = 0, where s.H.s = 0 and nothing changes."""
    for _ in range(50):
        a = rng.normal(size=(12, 12))
        hess = a @ a.T + np.eye(12)
        s, y = rng.normal(size=(2, 12))
        if branch == "skipped":
            s[:] = 0.0
        else:
            # Set s.y to a chosen multiple of s.H.s.
            ratio = rng.uniform(0.25, 5.0) if branch == "undamped" else rng.uniform(-5.0, 0.15)
            y += (ratio * (s @ hess @ s) - s @ y) / (s @ s) * s
        assert (s @ y >= 0.2 * (s @ hess @ s)) == (branch != "damped")
        inv = np.linalg.inv(hess)
        inv = (inv + inv.T) / 2.0
        assert_inverse_update(inv, s, y, hess @ s)
        if branch == "skipped":
            updated = inv.copy()
            _bfgs_update(updated, s, y, hess @ s)
            assert np.array_equal(updated, inv)


@pytest.mark.parametrize("cls", [X_NC, GENERAL], ids=["sigma-x-y", "pauli-basis"])
def test_descent_updates_invert_the_direct_ones_where_bounds_clip_steps(monkeypatch, cls):
    """In approximate mode from a start with a gain at GAIN_BOUNDS, some steps
    end on a bound, so a bound clipped them. Over the first updates of the
    descent, clipped or not, the step s it passes is the one taken, its H.s
    is inv^-1.s, and each update inverts the direct one."""
    updates, update = [], optimize._bfgs_update

    def recorded(inv, s, y, hs):
        updates.append((inv.copy(), s.copy(), y.copy(), hs.copy()))
        update(inv, s, y, hs)

    monkeypatch.setattr(optimize, "_bfgs_update", recorded)
    fun, points = _objective(cls, "approximate"), []

    def logged(x, rows=None):
        if rows is not None:
            points.append(x)
        return fun(x, rows)

    rng = np.random.default_rng(3)
    x0 = np.concatenate([rng.uniform(-np.pi, np.pi, 12), [GAIN_BOUNDS[0], rng.uniform(1.0, 3.0)]])
    optimize.minimize(logged, x0, 30, _bounds(True))
    # Update k takes the step from points[k] to points[k + 1].
    clipped = 0
    for (inv, s, y, hs), begin, end in list(zip(updates, points, points[1:]))[:8]:
        clipped += any(g in GAIN_BOUNDS for g in end[12:])
        assert np.abs(np.subtract(end, begin) - s).max() <= 1e-12
        assert np.abs(np.linalg.solve(inv, s) - hs).max() <= 1e-10 * np.abs(hs).max()
        assert_inverse_update(inv, s, y, hs)
    assert clipped
