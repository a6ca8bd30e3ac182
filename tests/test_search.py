"""Tests for the restarted simplex search, the package's one no-cloning floor estimator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy import optimize as scipy_optimize

from obsclone.classes import ClassKind, ObservableClass
from obsclone.linalg import SIGMA0, SIGMA1, SIGMA2, SIGMA3, is_unitary
from obsclone.optimize import minimize
from obsclone.pauli import Observable
from obsclone.search import (
    GAIN_BOUNDS,
    X_NC_DEFECT_FLOOR,
    SearchConfig,
    SearchResult,
    SearchSpacePoint,
    _bounds,
    _objective,
    cloning_defect,
    machine_from_point,
    result_to_dict,
    search_machine,
)
from support import expm_oracle, ptrace_loop

ONE_PARAM = ObservableClass(ClassKind.ONE_PARAM, (Observable(np.array([0.0, 0.0, 0.0, 1.0])),))
X_NC = ObservableClass(
    ClassKind.TWO_PARAM_NONCOMMUTING,
    (Observable(np.array([0.0, 1.0, 0.0, 0.0])), Observable(np.array([0.0, 0.0, 1.0, 0.0]))),
)
GENERAL = ObservableClass(
    ClassKind.GENERAL,
    tuple(Observable(row) for row in np.eye(4)),
)


def random_point(rng, with_gains=False):
    angles = rng.uniform(-np.pi, np.pi, 12)
    gains = tuple(rng.uniform(1.0, 3.0, 2)) if with_gains else None
    return SearchSpacePoint(
        tuple(angles[0:3]), tuple(angles[3:6]), tuple(angles[6:9]), tuple(angles[9:12]), gains
    )


class TestSearchSpacePoint:
    def test_vector_round_trip(self, rng):
        p = random_point(rng)
        assert np.array_equal(SearchSpacePoint.from_vector(p.to_vector()).to_vector(), p.to_vector())
        q = random_point(rng, with_gains=True)
        assert q.to_vector().shape == (14,)
        assert np.array_equal(SearchSpacePoint.from_vector(q.to_vector()).to_vector(), q.to_vector())

    def test_from_vector_rejects_odd_lengths(self):
        with pytest.raises(ValueError):
            SearchSpacePoint.from_vector(np.zeros(13))

    def test_unitary_is_unitary(self, rng):
        for _ in range(10):
            assert is_unitary(random_point(rng).unitary(), 1e-12)

    def test_dict_round_trip(self, rng):
        p = random_point(rng, with_gains=True)
        q = SearchSpacePoint.from_dict(p.to_dict())
        assert np.array_equal(q.to_vector(), p.to_vector())

    def test_from_dict_rejects_malformed_input(self):
        with pytest.raises(ValueError):
            SearchSpacePoint.from_dict({"local_pre": [0, 0, 0]})

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: [], "expected a JSON object"),
            (lambda d: None, "expected a JSON object"),
            (lambda d: {"local_pre": [0, 0, 0]}, "missing entangling, local_post_1, local_post_2"),
            (lambda d: {**d, "entangling": [0.1, "1", 0.3]}, r"entangling\[1\] must be a finite real number"),
            (lambda d: {**d, "local_pre": [True, 0.0, 0.0]}, r"local_pre\[0\] must be a finite real number"),
            (lambda d: {**d, "local_post_2": [0, 0, 10**400]}, r"local_post_2\[2\] must be a finite real number"),
            (lambda d: {**d, "local_post_1": [0.0, float("nan"), 0.0]}, r"local_post_1\[1\] must be"),
            (lambda d: {**d, "local_post_1": [0.0, 0.0]}, "local_post_1 must be a list of 3 real numbers"),
            (lambda d: {**d, "local_pre": None}, "local_pre must be a list of 3 real numbers"),
            (lambda d: {**d, "gains": [1.5]}, "gains must be a list of 2 real numbers"),
            (lambda d: {**d, "gains": [float("inf"), 2.0]}, r"gains\[0\] must be a finite real number"),
        ],
        ids=[
            "list", "null", "missing", "string", "bool", "huge-int", "nan",
            "short", "null-block", "short-gains", "inf-gain",
        ],
    )
    def test_from_dict_names_the_bad_field(self, rng, edit, message):
        doc = edit(random_point(rng, with_gains=True).to_dict())
        with pytest.raises(ValueError, match=message):
            SearchSpacePoint.from_dict(doc)

    @pytest.mark.parametrize("bad", ["1", True, 10**400, float("nan")], ids=["string", "bool", "huge-int", "nan"])
    @pytest.mark.parametrize("field", ["local_pre", "entangling", "local_post_1", "local_post_2", "gains"])
    def test_constructor_names_the_bad_field(self, bad, field):
        fields = {name: (0.0, 0.0, 0.0) for name in ("local_pre", "entangling", "local_post_1", "local_post_2")}
        fields["gains"] = (1.0, 2.0)
        fields[field] = (fields[field][0], bad) + fields[field][2:]
        with pytest.raises(ValueError, match=rf"{field}\[1\] must be a finite real number"):
            SearchSpacePoint(**fields)

    def test_constructor_reads_numpy_and_python_reals(self):
        p = SearchSpacePoint((np.float64(0.5), np.int64(2), 3), np.zeros(3), [0, 0, 0], (0, 0, 1), np.array([1.5, 2]))
        assert p.to_vector().tolist() == [0.5, 2, 3, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1.5, 2]
        assert all(type(v) is float for name in ("local_pre", "entangling", "gains") for v in getattr(p, name))
        with pytest.raises(ValueError, match="entangling must be a list of 3 real numbers"):
            SearchSpacePoint((0, 0, 0), np.zeros((3, 1)), (0, 0, 0), (0, 0, 0))
        with pytest.raises(ValueError, match="local_pre must be a list of 3 real numbers"):
            SearchSpacePoint((v for v in (0, 0, 0)), (0, 0, 0), (0, 0, 0), (0, 0, 0))

    def test_from_dict_reads_integers_and_missing_gains(self):
        doc = {"local_pre": [0, 1, 0], "entangling": [0.5, 0, 0], "local_post_1": [0, 0, 0], "local_post_2": [0, 0, 2]}
        p = SearchSpacePoint.from_dict(doc)
        assert p.gains is None
        assert p.to_vector().tolist() == [0, 1, 0, 0.5, 0, 0, 0, 0, 0, 0, 0, 2]

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchSpacePoint((0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0))
        with pytest.raises(ValueError):
            SearchSpacePoint((0, 0, np.nan), (0, 0, 0), (0, 0, 0), (0, 0, 0))


def test_machine_from_point_uses_the_fixed_probe(rng):
    machine = machine_from_point(random_point(rng), ONE_PARAM)
    assert np.array_equal(machine.probe.bloch, [0.0, 0.0, 1.0])


def test_known_point_realizes_the_axis_cloner():
    """A specific 12-angle assignment reproduces the controlled-flip machine
    up to local frames, so its exact defect on the sigma3 line vanishes."""
    p = SearchSpacePoint(
        local_pre=(0.0, -np.pi / 4, 0.0),
        entangling=(np.pi / 2, 0.0, 0.0),
        local_post_1=(0.0, np.pi / 4, 0.0),
        local_post_2=(-np.pi / 4, 0.0, 0.0),
    )
    assert cloning_defect(p, ONE_PARAM, "exact") < 1e-12


def test_known_point_realizes_the_balanced_noncommuting_machine():
    g = np.pi / (2.0 * np.sqrt(2.0))
    p = SearchSpacePoint(
        local_pre=(0.0, 0.0, 0.0),
        entangling=(np.pi / 4, -np.pi / 4, 0.0),
        local_post_1=(0.0, 0.0, 0.0),
        local_post_2=(g, g, 0.0),
        gains=(np.sqrt(2.0), np.sqrt(2.0)),
    )
    assert cloning_defect(p, X_NC, "approximate") < 1e-12


def test_identity_machine_leaves_a_full_defect_on_the_second_branch():
    zeros = (0.0, 0.0, 0.0)
    p = SearchSpacePoint(zeros, zeros, zeros, zeros)
    assert cloning_defect(p, X_NC, "exact") >= 1.0


def test_cloning_defect_validates_mode_and_gains(rng):
    p = random_point(rng)
    with pytest.raises(ValueError):
        cloning_defect(p, ONE_PARAM, "sideways")
    with pytest.raises(ValueError):
        cloning_defect(p, X_NC, "approximate")


def test_fast_objective_agrees_with_the_full_verifier(rng):
    """The closed-form objective inside the optimizer must reproduce the
    defect computed through the public lift machinery."""
    for cls, mode, gains in (
        (ONE_PARAM, "exact", False),
        (X_NC, "exact", False),
        (X_NC, "approximate", True),
        (GENERAL, "exact", False),
    ):
        fun = _objective(cls, mode)
        for _ in range(10):
            p = random_point(rng, with_gains=gains)
            assert fun(p.to_vector()) == pytest.approx(
                cloning_defect(p, cls, mode), abs=1e-12
            )


def oracle_defect(x, cls, mode):
    """Defect at a coordinate vector through scipy's expm and an index-sum
    partial trace, sharing no code with the search module."""
    paulis = (SIGMA1, SIGMA2, SIGMA3)

    def local(v):
        return expm_oracle(sum(vk * s for vk, s in zip(v, paulis)))

    kernel = expm_oracle(0.5 * sum(t * np.kron(s, s) for t, s in zip(x[3:6], paulis)))
    u = np.kron(local(x[6:9]), local(x[9:12])) @ kernel @ np.kron(local(x[0:3]), SIGMA0)
    probe = np.kron(SIGMA0, np.diag([1.0, 0.0]))
    gains = (x[12], x[13]) if mode == "approximate" else (1.0, 1.0)
    worst = 0.0
    for g in cls.generators:
        for m, gain in ((np.kron(g.matrix, SIGMA0), gains[0]), (np.kron(SIGMA0, g.matrix), gains[1])):
            lift = ptrace_loop(probe @ u.conj().T @ m @ u, keep=1)
            coeffs = np.array([np.trace(lift @ s).real / 2.0 for s in (SIGMA0,) + paulis])
            r = np.concatenate([[coeffs[0] - g.coeffs[0]], gain * coeffs[1:] - g.coeffs[1:]])
            worst = max(worst, float(np.sqrt(2.0 * (r @ r))))
    return worst


def test_transfer_matrix_objective_matches_an_independent_oracle(rng):
    """Random points in both modes, with zero rotation vectors and zero
    entangling angles mixed in so the |v| = 0 branch is exercised."""
    pair = ObservableClass(
        ClassKind.TWO_PARAM_NONCOMMUTING,
        (Observable(np.array([0.4, -0.2, 0.7, 0.1])), Observable(np.array([-1.1, 0.3, 0.5, -0.6]))),
    )
    cases = ((ONE_PARAM, "exact"), (X_NC, "exact"), (X_NC, "approximate"), (pair, "approximate"), (GENERAL, "exact"))
    for cls, mode in cases:
        fun = _objective(cls, mode)
        for i in range(40):
            x = rng.uniform(-np.pi, np.pi, 12)
            for block, stride in ((slice(0, 3), 2), (slice(3, 6), 3), (slice(6, 9), 4), (slice(9, 12), 5)):
                if i % stride == 0:
                    x[block] = 0.0
            if mode == "approximate":
                x = np.concatenate([x, rng.uniform(1.0, 3.0, 2)])
            assert fun(x) == pytest.approx(oracle_defect(x, cls, mode), abs=1e-12)


def scipy_descent(fun, x0, maxfev, bounds=None, ftarget=None):
    """Reference descent: scipy's adaptive Nelder-Mead, keeping the best point it
    evaluated and halting through a callback once that drops below ftarget."""
    seen = {"f": np.inf, "x": np.asarray(x0, dtype=float)}

    def tracked(x):
        v = fun(x.tolist())
        if v < seen["f"]:
            seen["f"], seen["x"] = v, np.array(x)
        return v

    def halt(xk):
        if seen["f"] < ftarget:
            raise StopIteration

    res = scipy_optimize.minimize(
        tracked, x0, method="Nelder-Mead", bounds=bounds, callback=None if ftarget is None else halt,
        options={"maxfev": maxfev, "xatol": 1e-10, "fatol": 1e-14, "adaptive": True},
    )
    return seen["x"].tolist(), seen["f"], res.nfev


def logged(fun, log):
    def f(x):
        log.append([float(v) for v in x])
        return fun(x)

    return f


def assert_same_descent(fun, x0, maxfev, bounds=None, ftarget=None):
    ours, theirs = [], []
    got = minimize(logged(fun, ours), x0, maxfev, bounds, ftarget)
    want = scipy_descent(logged(fun, theirs), x0, maxfev, bounds, ftarget)
    assert got == want
    assert ours == theirs
    return got


@pytest.mark.parametrize("cls", [ONE_PARAM, X_NC, GENERAL], ids=["one-param", "sigma-x-y", "pauli-basis"])
@pytest.mark.parametrize("mode", ["exact", "approximate"])
def test_nelder_mead_matches_scipy_evaluation_for_evaluation(rng, cls, mode):
    """Same best point, value, evaluation count and sequence of evaluated points
    as scipy, unbounded and with the approximate mode's bounds, with and without
    a target; the target runs must stop before the budget."""
    fun = _objective(cls, mode)
    bounds = _bounds(mode == "approximate")
    for _ in range(2):
        x0 = rng.uniform(-np.pi, np.pi, 12)
        if mode == "approximate":
            x0 = np.concatenate([x0, rng.uniform(1.0, 4.0, 2)])
        assert_same_descent(fun, x0, 1500, bounds)
        _, f, nfev = assert_same_descent(fun, x0, 1500, bounds, ftarget=0.75 * fun(x0.tolist()))
        assert nfev < 1500


@pytest.mark.parametrize("bounded", [False, True])
@pytest.mark.parametrize("tied", [False, True])
def test_nelder_mead_matches_scipy_when_the_budget_ends_inside_a_shrink(bounded, tied):
    """Every trial point scores worse than the initial simplex, so the first
    iteration reflects, contracts inside and then shrinks the 12 other vertices;
    the budgets cut that shrink after each vertex. Equal initial values exercise
    numpy's order for ties. The bounds clip one initial vertex from below and
    reflect one from above."""
    x0 = np.linspace(-1.0, 1.0, 12)
    bounds = [(-1.0, 1.02)] * 12 if bounded else None
    simplex = []
    minimize(logged(lambda x: 0.0, simplex), x0, 13, bounds)
    table = {tuple(v): 1.0 if tied else float(i) for i, v in enumerate(simplex)}

    def fun(x):
        return table.get(tuple(float(v) for v in x), 100.0)

    for maxfev in range(13, 13 + 2 + 12 + 2):
        assert_same_descent(fun, x0, maxfev, bounds)
    if not tied:
        theirs = []
        scipy_descent(logged(fun, theirs), x0, 27, bounds)
        low = np.array(simplex[0])
        shrunk = [low + (1.0 - 1.0 / 12) * (np.array(v) - low) for v in simplex[1:]]
        if bounded:
            shrunk = [np.clip(v, -1.0, 1.02) for v in shrunk]
        assert theirs[15:] == [v.tolist() for v in shrunk]


def test_nelder_mead_matches_scipy_when_new_points_tie_old_ones():
    """Every trial point scores 5, the value of one initial vertex, so accepted
    points tie existing ones and numpy's order among them steers the descent."""
    x0 = np.linspace(-1.0, 1.0, 12)
    simplex = []
    minimize(logged(lambda x: 0.0, simplex), x0, 13)
    table = {tuple(v): float(i) for i, v in enumerate(simplex)}

    def fun(x):
        return table.get(tuple(float(v) for v in x), 5.0)

    for maxfev in (14, 20, 60, 400):
        assert_same_descent(fun, x0, maxfev)


@pytest.mark.parametrize("k", [-1000, 1000])
def test_objective_scales_exactly_with_a_power_of_two(rng, k):
    """A class scaled by 2**k scores exactly 2**k times the defect: its rows
    neither overflow nor underflow to a false zero."""
    pair = (Observable(np.array([0.4, -0.2, 0.7, 0.1])), Observable(np.array([-1.1, 0.3, 0.5, -0.6])))
    cls = ObservableClass(ClassKind.TWO_PARAM_NONCOMMUTING, pair)
    big = ObservableClass(ClassKind.TWO_PARAM_NONCOMMUTING, tuple(Observable(np.ldexp(g.coeffs, k)) for g in pair))
    for mode in ("exact", "approximate"):
        fun, scaled = _objective(cls, mode), _objective(big, mode)
        for _ in range(20):
            x = random_point(rng, with_gains=mode == "approximate").to_vector().tolist()
            assert scaled(x) == fun(x) * 2.0**k


def test_search_refuses_classes_whose_residuals_leave_the_float_range():
    huge = ObservableClass(ClassKind.ONE_PARAM, (Observable(np.array([0.0, 1e306, 0.0, 0.0])),))
    assert np.isfinite(search_machine(huge, "exact", SearchConfig(restarts=1, max_evals=50)).best_defect)
    with pytest.raises(ValueError, match=r"generators\[0\] in approximate mode"):
        search_machine(huge, "approximate", SearchConfig(restarts=1, max_evals=50))


def test_search_without_a_finite_defect_raises(monkeypatch):
    monkeypatch.setattr("obsclone.search._objective", lambda cls, mode: lambda x: np.inf)
    with pytest.raises(ValueError, match="finite defect"):
        search_machine(ONE_PARAM, "exact", SearchConfig(restarts=2, max_evals=30))


def test_search_converges_on_a_one_param_class():
    result = search_machine(ONE_PARAM, "exact", SearchConfig(restarts=10, seed=5))
    assert result.converged
    assert result.best_defect < 1e-6
    assert result.restarts <= 10
    machine = machine_from_point(result.best_point, ONE_PARAM)
    from obsclone.machines import verify_exact

    assert verify_exact(machine, tol=1e-5).passed


def test_search_converges_on_a_commuting_class():
    cls = ObservableClass(
        ClassKind.TWO_PARAM_COMMUTING,
        (
            Observable(np.array([0.0, 0.6, 0.0, 0.8])),
            Observable(np.array([1.0, -0.3, 0.0, -0.4])),
        ),
    )
    result = search_machine(cls, "exact", SearchConfig(restarts=15, seed=2))
    assert result.converged


def test_search_is_deterministic():
    config = SearchConfig(restarts=2, max_evals=800, seed=9)
    a = search_machine(X_NC, "exact", config)
    b = search_machine(X_NC, "exact", config)
    assert a.best_defect == b.best_defect
    assert a.evaluations == b.evaluations
    assert np.array_equal(a.best_point.to_vector(), b.best_point.to_vector())


def test_more_restarts_never_hurt():
    small = search_machine(X_NC, "exact", SearchConfig(restarts=1, max_evals=600, seed=4))
    large = search_machine(X_NC, "exact", SearchConfig(restarts=3, max_evals=600, seed=4))
    assert large.best_defect <= small.best_defect


def test_noncommuting_class_does_not_admit_an_exact_machine():
    result = search_machine(X_NC, "exact", SearchConfig(restarts=3, max_evals=1500, seed=1))
    assert not result.converged
    assert result.best_defect >= X_NC_DEFECT_FLOOR - 1e-12


def test_noncommuting_class_admits_a_gain_rescaled_machine():
    result = search_machine(X_NC, "approximate", SearchConfig(restarts=10, seed=6))
    assert result.converged
    gains = result.best_point.gains
    assert gains is not None
    assert GAIN_BOUNDS[0] - 1e-9 <= min(gains)
    assert max(gains) <= GAIN_BOUNDS[1] + 1e-9


def test_general_class_search_reports_failure():
    result = search_machine(GENERAL, "exact", SearchConfig(restarts=1, max_evals=800, seed=0))
    assert not result.converged
    assert result.best_defect > 0.1


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(restarts=0)
    with pytest.raises(ValueError):
        SearchConfig(max_evals=-5)
    with pytest.raises(ValueError):
        SearchConfig(tol=0.0)
    with pytest.raises(ValueError):
        search_machine(ONE_PARAM, "sideways", SearchConfig())
    for bad in ({"restarts": 2.5}, {"restarts": True}, {"max_evals": 10.0}, {"seed": "0"}, {"seed": False}):
        with pytest.raises(ValueError, match="must be integers"):
            SearchConfig(**bad)
    for bad in ("1", True, float("nan"), float("inf"), 10**400, -1e-6):
        with pytest.raises(ValueError, match="tol must be a positive real"):
            SearchConfig(tol=bad)
    assert SearchConfig(np.int64(3), np.int32(50), np.uint64(7), np.float64(1e-3)) == SearchConfig(3, 50, 7, 1e-3)


@given(st.integers(0, 2**32 - 1), st.integers(100, 600))
@settings(max_examples=8, deadline=None)
def test_no_search_falls_below_the_closed_form_floor(seed, max_evals):
    """sqrt(2) - 1 is the residual left when both branches shrink the pair
    by 1/sqrt(2); no exact machine does better, whatever the budget."""
    assert X_NC_DEFECT_FLOOR == np.sqrt(2.0) - 1.0
    result = search_machine(X_NC, "exact", SearchConfig(restarts=1, max_evals=max_evals, seed=seed))
    assert result.best_defect >= X_NC_DEFECT_FLOOR - 1e-12


def test_result_to_dict_fields():
    result = search_machine(ONE_PARAM, "exact", SearchConfig(restarts=2, max_evals=500, seed=8))
    data = result_to_dict(result)
    assert set(data) == {
        "best_point",
        "best_defect",
        "restarts",
        "evaluations",
        "seed",
        "converged",
    }
    assert isinstance(data["best_point"], dict)
    assert data["seed"] == 8
    assert isinstance(result, SearchResult)
