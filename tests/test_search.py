"""Tests for the restarted SQP search, the package's one no-cloning floor estimator."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scipy import optimize as scipy_optimize

from obsclone.classes import ClassKind, ObservableClass
from obsclone.linalg import SIGMA0, SIGMA1, SIGMA2, SIGMA3, is_unitary, pauli_rotation
from obsclone.machines import KET0, CloningMachine
from obsclone.optimize import minimize
from obsclone.pauli import Observable
from obsclone.search import (
    GAIN_BOUNDS,
    MODES,
    X_NC_DEFECT_FLOOR,
    SearchConfig,
    SearchResult,
    SearchSpacePoint,
    _bounds,
    _objective,
    cloning_defect,
    result_to_dict,
    search_machine,
)
from support import dense_output, expm_oracle, ptrace_loop, random_observable, random_state

ONE_PARAM = ObservableClass(ClassKind.ONE_PARAM, (Observable(np.array([0.0, 0.0, 0.0, 1.0])),))
X_NC = ObservableClass(
    ClassKind.TWO_PARAM_NONCOMMUTING,
    (Observable(np.array([0.0, 1.0, 0.0, 0.0])), Observable(np.array([0.0, 0.0, 1.0, 0.0]))),
)
GENERAL = ObservableClass(
    ClassKind.GENERAL,
    tuple(Observable(row) for row in np.eye(4)),
)
# Identity parts, and traceless parts of the same binary exponent.
SAME_EXPONENT_PAIR = ObservableClass(
    ClassKind.TWO_PARAM_NONCOMMUTING,
    (Observable(np.array([0.4, -0.2, 0.7, 0.1])), Observable(np.array([-1.1, 0.3, 0.5, -0.6]))),
)
# Identity parts, and traceless parts whose largest entries differ by a factor 2**3.
UNEQUAL_PAIR = ObservableClass(
    ClassKind.TWO_PARAM_NONCOMMUTING,
    (Observable(np.array([0.4, -0.2, 0.7, 0.1])), Observable(np.array([-8.8, 2.4, 4.0, -4.8]))),
)


def random_vector(rng, with_gains=False):
    angles = rng.uniform(-np.pi, np.pi, 12)
    return np.concatenate([angles, rng.uniform(1.0, 3.0, 2)]) if with_gains else angles


def random_point(rng, with_gains=False):
    return SearchSpacePoint.from_vector(random_vector(rng, with_gains))


class TestSearchSpacePoint:
    def test_from_vector_rejects_odd_lengths(self):
        with pytest.raises(ValueError):
            SearchSpacePoint.from_vector(np.zeros(13))

    def test_unitary_is_unitary(self, rng):
        for _ in range(10):
            assert is_unitary(random_point(rng).unitary())

    def test_dict_round_trip(self, rng):
        p = random_point(rng, with_gains=True)
        assert SearchSpacePoint.from_dict(p.to_dict()).to_dict() == p.to_dict()

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
        want = dict(local_pre=[0.5, 2, 3], entangling=[0, 0, 0], local_post_1=[0, 0, 0], local_post_2=[0, 0, 1])
        assert p.to_dict() == {**want, "gains": [1.5, 2]}
        assert all(type(v) is float for name in ("local_pre", "entangling", "gains") for v in getattr(p, name))
        with pytest.raises(ValueError, match="entangling must be a list of 3 real numbers"):
            SearchSpacePoint((0, 0, 0), np.zeros((3, 1)), (0, 0, 0), (0, 0, 0))
        with pytest.raises(ValueError, match="local_pre must be a list of 3 real numbers"):
            SearchSpacePoint((v for v in (0, 0, 0)), (0, 0, 0), (0, 0, 0), (0, 0, 0))

    def test_from_dict_reads_integers_and_missing_gains(self):
        doc = {"local_pre": [0, 1, 0], "entangling": [0.5, 0, 0], "local_post_1": [0, 0, 0], "local_post_2": [0, 0, 2]}
        p = SearchSpacePoint.from_dict(doc)
        assert p.to_dict() == {**doc, "gains": None}

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchSpacePoint((0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0))
        with pytest.raises(ValueError):
            SearchSpacePoint((0, 0, np.nan), (0, 0, 0), (0, 0, 0), (0, 0, 0))


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
            x = random_vector(rng, with_gains=gains)
            assert fun(x) == pytest.approx(
                cloning_defect(SearchSpacePoint.from_vector(x), cls, mode), abs=1e-12
            )


def mixed_vector(rng, i, approximate):
    """A random coordinate vector in which, by index i, some rotation vectors
    and entangling angles are zero and some rotation vectors are tiny."""
    x = rng.uniform(-np.pi, np.pi, 12)
    for block, stride in ((slice(0, 3), 2), (slice(3, 6), 3), (slice(6, 9), 4), (slice(9, 12), 5)):
        if i % stride == 0:
            x[block] = 0.0
        elif i % (stride + 5) == 0:
            x[block] *= 1e-3
    return np.concatenate([x, rng.uniform(1.0, 3.0, 2)]) if approximate else x


def oracle_squared_defects(x, cls, mode):
    """Squared defect of each generator on branch 1, then on branch 2, at a
    coordinate vector, through scipy's expm and an index-sum partial trace,
    sharing no code with the search module."""
    paulis = (SIGMA1, SIGMA2, SIGMA3)

    def local(v):
        return expm_oracle(sum(vk * s for vk, s in zip(v, paulis)))

    kernel = expm_oracle(0.5 * sum(t * np.kron(s, s) for t, s in zip(x[3:6], paulis)))
    u = np.kron(local(x[6:9]), local(x[9:12])) @ kernel @ np.kron(local(x[0:3]), SIGMA0)
    probe = np.kron(SIGMA0, np.diag([1.0, 0.0]))
    gains = (x[12], x[13]) if mode == "approximate" else (1.0, 1.0)
    squares = []
    for branch, gain in enumerate(gains):
        for g in cls.generators:
            m = np.kron(SIGMA0, g.matrix) if branch else np.kron(g.matrix, SIGMA0)
            lift = ptrace_loop(probe @ u.conj().T @ m @ u, keep=1)
            coeffs = np.array([np.trace(lift @ s).real / 2.0 for s in (SIGMA0,) + paulis])
            r = np.concatenate([[coeffs[0] - g.coeffs[0]], gain * coeffs[1:] - g.coeffs[1:]])
            squares.append(float(2.0 * (r @ r)))
    return squares


def paired_squared_defects(x, cls, mode):
    """The oracle's squared defects of the generators with a nonzero traceless part, the ones that get rows."""
    paired = [bool(g.coeffs[1:].any()) for g in cls.generators] * 2
    return [square for square, kept in zip(oracle_squared_defects(x, cls, mode), paired) if kept]


def oracle_defect(x, cls, mode):
    return float(np.sqrt(max(oracle_squared_defects(x, cls, mode))))


def test_transfer_matrix_objective_matches_an_independent_oracle(rng):
    """Random points in both modes, with zero and tiny rotation vectors and
    zero entangling angles mixed in so the |v| = 0 branch is exercised."""
    cases = (
        (ONE_PARAM, "exact"), (X_NC, "exact"), (X_NC, "approximate"), (SAME_EXPONENT_PAIR, "approximate"), (GENERAL, "exact")
    )
    for cls, mode in cases:
        fun = _objective(cls, mode)
        for i in range(40):
            x = mixed_vector(rng, i, mode == "approximate")
            assert fun(x) == pytest.approx(oracle_defect(x, cls, mode), abs=1e-12)


def row_top(cls):
    """The largest binary exponent of any generator's traceless entries: the rows are in units of 4**top."""
    return max(int(np.frexp(np.abs(g.coeffs[1:]).max())[1]) for g in cls.generators if g.coeffs[1:].any())


def rows_of(fun):
    """x -> (phi, jac): the squared defects and gradients that fun(x, rows) appends to rows."""

    def rows(x):
        out = []
        fun(x, out)
        phi, jac = zip(*out)
        return list(phi), list(jac)

    return rows


def central_differences(f, x, h=1e-3):
    """Columns d f / d x_k of a vector-valued f, by fourth-order central differences."""
    cols = []
    for k in range(len(x)):
        at = []
        for step in (2 * h, h, -h, -2 * h):
            v = list(x)
            v[k] += step
            at.append(np.array(f(v)))
        cols.append((8.0 * (at[1] - at[2]) - (at[0] - at[3])) / (12.0 * h))
    return np.array(cols).T


ROW_CLASSES = (ONE_PARAM, X_NC, UNEQUAL_PAIR, GENERAL)


@pytest.mark.parametrize("mode", MODES)
def test_residual_rows_and_jacobian_match_differences_and_the_dense_oracle(rng, mode):
    """At 200 points per mode, zero and tiny rotation vectors and zero entangling
    angles among them, the rows equal the oracle's squared defects to 1e-12 and
    the Jacobian equals central differences of the rows, and at every twentieth
    point of the oracle, to 1e-9 relative to the larger of the rows and their
    gradients (the differences' rounding scales with the rows). With or without
    rows the defect is the same float, sqrt(max(phi)) * 2**top, which the
    descent relies on. Only generators with a nonzero traceless part have
    rows, so the Pauli basis's identity has none."""
    for i in range(200):
        cls = ROW_CLASSES[i % len(ROW_CLASSES)]
        fun, top = _objective(cls, mode), row_top(cls)
        rows, unit = rows_of(fun), 4.0**top
        x = mixed_vector(rng, i, mode == "approximate").tolist()
        phi, jac = rows(x)
        assert fun(x) == fun(x, []) == math.ldexp(math.sqrt(max(phi)), top)
        want = paired_squared_defects(x, cls, mode)
        assert np.abs(np.array(phi) * unit - want).max() <= 1e-12 * max(want)
        references = [central_differences(lambda v: rows(v)[0], x)]
        if i % 20 == 0:
            references.append(central_differences(lambda v: paired_squared_defects(v, cls, mode), x) / unit)
        for fd in references:
            assert np.abs(np.array(jac) - fd).max() <= 1e-9 * max(np.abs(fd).max(), max(phi))


@pytest.mark.parametrize("k", [-1000, 1000])
def test_defect_scales_exactly_with_a_power_of_two_and_its_rows_not_at_all(rng, k):
    """A class scaled by 2**k scores exactly 2**k times the defect, so nothing
    overflows or underflows to a false zero, and has the very same rows: they
    are in units of its largest power of two."""
    for cls in (SAME_EXPONENT_PAIR, UNEQUAL_PAIR):
        scaled = ObservableClass(cls.kind, tuple(Observable(np.ldexp(g.coeffs, k)) for g in cls.generators))
        for mode in MODES:
            fun, big = _objective(cls, mode), _objective(scaled, mode)
            for i in range(20):
                x = mixed_vector(rng, i, mode == "approximate").tolist()
                assert big(x) == fun(x) * 2.0**k
                assert rows_of(big)(x) == rows_of(fun)(x)


# Classes with a generator whose traceless part is zero: the identity first in
# the Pauli basis, a huge multiple of it beside a line, and nothing else.
IDENTITY_CLASSES = {
    "pauli-basis": GENERAL,
    "huge-identity-and-a-line": ObservableClass(
        ClassKind.TWO_PARAM_COMMUTING,
        (Observable(np.array([2.0**700, 0.0, 0.0, 0.0])), Observable(np.array([0.3, 0.6, 0.0, -0.8]))),
    ),
    "identity-only": ObservableClass(ClassKind.ONE_PARAM, (Observable(np.array([3.0, 0.0, 0.0, 0.0])),)),
}


def paired_generators(cls):
    """The generators of cls with a nonzero traceless part, in the one attribute _objective reads."""
    return SimpleNamespace(generators=tuple(g for g in cls.generators if g.coeffs[1:].any()))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(IDENTITY_CLASSES))
def test_generators_without_a_traceless_part_get_no_pairs(rng, name, mode):
    """Every machine copies a multiple of the identity, so the objective gives
    it no pair: a class scores the same float with it as without it, and has
    the same rows, 2 G' of them for the G' generators with a traceless part."""
    cls = IDENTITY_CLASSES[name]
    paired = paired_generators(cls)
    fun, bare = _objective(cls, mode), _objective(paired, mode)
    for i in range(40):
        x = mixed_vector(rng, i, mode == "approximate").tolist()
        rows, bare_rows = [], []
        assert fun(x) == fun(x, rows) == bare(x) == bare(x, bare_rows)
        assert rows == bare_rows
        assert len(rows) == 2 * len(paired.generators) < 2 * len(cls.generators)


@pytest.mark.parametrize("mode", MODES)
def test_a_class_of_identity_multiples_has_nothing_to_descend(mode):
    """Its defect is 0 everywhere. A search converges after its first
    evaluation, and minimize without a target stops at the first rows call,
    which comes back empty, without a step."""
    cls, approximate = IDENTITY_CLASSES["identity-only"], mode == "approximate"
    result = search_machine(cls, mode, SearchConfig())
    assert (result.converged, result.best_defect, result.evaluations, result.restarts) == (True, 0.0, 1, 1)
    fun, calls = _objective(cls, mode), []

    def recorded(x, rows=None):
        value = fun(x, rows)
        calls.append((list(x), value, rows))
        return value

    x0 = random_vector(np.random.default_rng(1), approximate).tolist()
    assert minimize(recorded, x0, 100, _bounds(approximate)) == (x0, 0.0, 2)
    assert calls == [(x0, 0.0, None), (x0, 0.0, [])]


def rotation_vector(c):
    """v with pauli_rotation(v) = c, for c in SU(2) other than -I: c = cos|v| I + i sin|v| (v / |v|) . sigma."""
    sine = np.array([np.trace(s @ c).imag / 2.0 for s in (SIGMA1, SIGMA2, SIGMA3)])
    norm = np.linalg.norm(sine)
    return math.atan2(norm, np.trace(c).real / 2.0) * sine / norm


@pytest.mark.parametrize("mode", MODES)
def test_t3_and_a_sigma3_pre_rotation_are_one_coordinate(rng, mode):
    """With probe |0>, K(t1, t2, t3) (C x I) = K(t1, t2, 0) (C' x I) on every
    signal, with C' = exp(i t3/2 sigma3) C: the kernel's sigma3 x sigma3 factor
    meets the probe's sigma3 eigenvalue 1. So moving t3 into the pre-rotation
    changes no output state (support's dense output) and no squared defect of
    the Pauli basis (the expm oracle), and the objective agrees to rounding."""
    fun = _objective(GENERAL, mode)
    for i in range(40):
        x = random_vector(rng, mode == "approximate")
        pre = pauli_rotation((0.0, 0.0, x[5] / 2.0)) @ pauli_rotation(x[0:3])
        y = x.copy()
        y[0:3], y[5] = rotation_vector(pre), 0.0
        assert np.abs(pauli_rotation(y[0:3]) - pre).max() <= 1e-12
        state = random_state(rng)
        outputs = [dense_output(CloningMachine(SearchSpacePoint.from_vector(v).unitary(), KET0, GENERAL), state) for v in (x, y)]
        assert np.abs(outputs[0] - outputs[1]).max() <= 1e-12
        assert np.abs(np.subtract(oracle_squared_defects(x, GENERAL, mode), oracle_squared_defects(y, GENERAL, mode))).max() <= 1e-12
        assert abs(fun(x.tolist()) - fun(y.tolist())) <= 1e-14


def slsqp_floor(cls, mode, starts=3):
    """Reference floor: scipy's SLSQP on the epigraph form min t s.t. phi_i(x) <= t,
    with its own finite-difference gradients and GAIN_BOUNDS on the gains, best
    of a few fixed starts."""
    fun = _objective(cls, mode)
    rows = rows_of(fun)
    approximate = mode == "approximate"
    bounds = [(None, None)] * 12 + [GAIN_BOUNDS] * (2 * approximate) + [(None, None)]
    rng = np.random.default_rng(2024)
    best = np.inf
    for _ in range(starts):
        x0 = random_vector(rng, approximate)
        z0 = np.append(x0, max(rows(x0.tolist())[0]))
        res = scipy_optimize.minimize(
            lambda z: z[-1], z0, jac=lambda z: np.eye(len(z))[-1], method="SLSQP", bounds=bounds,
            constraints=[{"type": "ineq", "fun": lambda z: z[-1] - np.array(rows(z[:-1].tolist())[0])}],
            options={"maxiter": 500, "ftol": 1e-16},
        )
        best = min(best, fun(res.x[:-1].tolist()))
    return best


def seeded_pair():
    rng = np.random.default_rng(71)
    return ObservableClass(ClassKind.TWO_PARAM_NONCOMMUTING, (random_observable(rng), random_observable(rng)))


@pytest.mark.parametrize(
    "cls, mode, restarts",
    [(X_NC, "exact", 1), (GENERAL, "exact", 1), (seeded_pair(), "exact", 1), (GENERAL, "approximate", 5)],
    ids=["sigma-x-y", "pauli-basis", "seeded-pair", "pauli-basis-approximate"],
)
def test_search_floors_match_an_slsqp_oracle(cls, mode, restarts):
    """At the benchmark's search config (1000 evaluations, one restart; five
    in approximate mode, where a single restart can stop in a local minimum)
    every seed ends within 1e-10 of the oracle, and sigma1/sigma2 within 1e-12
    of sqrt(2) - 1."""
    oracle = slsqp_floor(cls, mode)
    for seed in range(4):
        result = search_machine(cls, mode, SearchConfig(restarts=restarts, max_evals=1000, seed=seed))
        assert not result.converged
        assert abs(result.best_defect - oracle) <= 1e-10
        if cls is X_NC:
            assert abs(result.best_defect - X_NC_DEFECT_FLOOR) <= 1e-12


DESCENT_CLASSES = {"sigma-x-y": X_NC, "pauli-basis": GENERAL, "unequal-pair": UNEQUAL_PAIR}


@given(st.integers(0, 2**32 - 1), st.sampled_from(sorted(DESCENT_CLASSES)), st.sampled_from(MODES), st.integers(1, 300))
@example(0, "pauli-basis", "approximate", 1)
@example(0, "pauli-basis", "approximate", 2)
@settings(max_examples=25, deadline=None)
def test_minimize_never_worsens_its_start(seed, name, mode, budget):
    """From a random start minimize returns f = fun(x) <= fun(x0) within its
    budget, the start's evaluation included, with gains inside their bounds:
    budget 1 evaluates the start only, and budget 2 adds one rows call and no
    step. A search with that budget stays within it and reports the defect
    that cloning_defect recomputes at its point."""
    cls, approximate = DESCENT_CLASSES[name], mode == "approximate"
    fun, bounds = _objective(cls, mode), _bounds(approximate)
    x0 = random_vector(np.random.default_rng(seed), approximate).tolist()
    with_rows = []

    def counted(x, rows=None):
        with_rows.append(rows is not None)
        return fun(x, rows)

    x, f, nfev = minimize(counted, x0, budget, bounds)
    assert f <= fun(x0)
    assert f == fun(x)
    assert nfev == len(with_rows) <= budget
    if budget <= 2:
        assert x == x0
        assert with_rows == [False, True][:budget]
    result = search_machine(cls, mode, SearchConfig(restarts=1, max_evals=budget, seed=seed))
    assert result.evaluations <= budget
    assert abs(cloning_defect(result.best_point, cls, mode) - result.best_defect) <= 1e-9
    if approximate:
        for gains in (x[12:], result.best_point.gains):
            assert GAIN_BOUNDS[0] <= min(gains) and max(gains) <= GAIN_BOUNDS[1]


def logged(fun, log):
    """fun, recording each call as (point, value, whether rows were asked for)."""
    def f(x, rows=None):
        v = fun(x, rows)
        log.append(([float(t) for t in x], v, rows is not None))
        return v

    return f


@pytest.mark.parametrize("name", sorted(DESCENT_CLASSES))
@pytest.mark.parametrize("mode", MODES)
def test_minimize_with_a_target_stops_at_the_first_step_below_it(name, mode):
    """With ftarget halfway between the start's value and the untargeted end,
    the descent evaluates a prefix of the untargeted one's points and stops at
    the first accepted step below the target, well inside the budget."""
    cls, approximate = DESCENT_CLASSES[name], mode == "approximate"
    fun, bounds = _objective(cls, mode), _bounds(approximate)
    x0 = random_vector(np.random.default_rng(7), approximate).tolist()
    plain, targeted = [], []
    _, f_end, _ = minimize(logged(fun, plain), x0, 300, bounds)
    f0 = fun(x0)
    assert f_end < f0
    ftarget = 0.5 * (f0 + f_end)
    x, f, nfev = minimize(logged(fun, targeted), x0, 300, bounds, ftarget)
    assert f < ftarget
    assert nfev == len(targeted) < len(plain)
    assert targeted == plain[:nfev]
    assert targeted[-1] == (x, f, False)
    assert all(v >= ftarget for _, v, _ in targeted[:-1])


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_minimize_returns_a_start_without_a_finite_value_at_once(value):
    """The start is the one evaluation: no rows call, no step."""
    log = []
    x, f, nfev = minimize(logged(lambda x, rows=None: value, log), [0.5, -1.0, 2.0], 100)
    assert x == [0.5, -1.0, 2.0]
    assert f is value
    assert nfev == 1
    assert log == [([0.5, -1.0, 2.0], value, False)]


def enclosing_ball(centres):
    """fun for max_i |x - c_i|**2, whose minimax point is the centre of the
    smallest ball around the c_i and whose floor is its squared radius."""
    centres = np.array(centres, dtype=float)

    def fun(x, rows=None):
        diff = np.array(x) - centres
        phi = (diff**2).sum(axis=1)
        if rows is not None:
            rows.extend(zip(phi.tolist(), (2.0 * diff).tolist()))
        return float(phi.max())

    return fun


@pytest.mark.parametrize(
    "centres, x0, bounds, centre, floor",
    [
        ([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]], [0.3, 0.7, -0.4], None, [0.0, 0.0, 0.0], 1.0),
        ([[1.0, 0.0], [-0.5, math.sqrt(0.75)], [-0.5, -math.sqrt(0.75)]], [0.4, 0.9], None, [0.0, 0.0], 1.0),
        ([[-1.0, 0.0], [1.0, 0.0], [0.0, 0.2]], [0.6, -0.8], None, [0.0, 0.0], 1.0),
        ([[2.0, 0.0], [4.0, 0.0]], [-0.5, 0.5], [(-1.0, 1.0)] * 2, [1.0, 0.0], 9.0),
    ],
    ids=["two-points", "equilateral-triangle", "obtuse-triangle", "clipped-to-a-box"],
)
def test_minimize_finds_the_smallest_enclosing_ball(centres, x0, bounds, centre, floor):
    """A minimax with a closed-form answer. Two or three functions tie at the
    minimum, except in the obtuse triangle, where the third stays below the
    others, and in the box, where the minimum sits on the boundary and only
    the farther centre counts."""
    fun = enclosing_ball(centres)
    x, f, nfev = minimize(fun, x0, 200, bounds)
    assert nfev < 200
    assert abs(f - floor) <= 1e-12
    assert np.abs(np.array(x) - centre).max() <= 1e-6


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("k", [-1000, 1000])
def test_scaled_noncommuting_pair_keeps_its_verdict(mode, k):
    """sigma1/sigma2 scaled by 2**k searches to a finite floor. The tolerance is
    absolute, so the tiny class converges at once and the huge one never does;
    in exact mode the huge class ends at 2**k times the unscaled floor, at the same point."""
    scaled = ObservableClass(X_NC.kind, tuple(Observable(np.ldexp(g.coeffs, k)) for g in X_NC.generators))
    config = SearchConfig(restarts=1, max_evals=300, seed=3)
    result = search_machine(scaled, mode, config)
    assert np.isfinite(result.best_defect)
    assert result.converged is (k < 0)
    if mode == "exact" and k > 0:
        plain = search_machine(X_NC, mode, config)
        assert result.best_defect == plain.best_defect * 2.0**k
        assert result.best_point.to_dict() == plain.best_point.to_dict()
        assert abs(plain.best_defect - X_NC_DEFECT_FLOOR) <= 1e-12


def test_search_refuses_classes_whose_residuals_leave_the_float_range():
    huge = ObservableClass(ClassKind.ONE_PARAM, (Observable(np.array([0.0, 1e306, 0.0, 0.0])),))
    assert np.isfinite(search_machine(huge, "exact", SearchConfig(restarts=1, max_evals=50)).best_defect)
    with pytest.raises(ValueError, match=r"generators\[0\] in approximate mode"):
        search_machine(huge, "approximate", SearchConfig(restarts=1, max_evals=50))


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_search_without_a_finite_defect_raises(monkeypatch, value):
    monkeypatch.setattr("obsclone.search._objective", lambda cls, mode: lambda x: value)
    with pytest.raises(ValueError, match="finite defect"):
        search_machine(ONE_PARAM, "exact", SearchConfig(restarts=2, max_evals=30))


def test_search_converges_on_a_one_param_class():
    result = search_machine(ONE_PARAM, "exact", SearchConfig(restarts=10, seed=5))
    assert result.converged
    assert result.best_defect < 1e-6
    assert result.restarts <= 10
    assert cloning_defect(result.best_point, ONE_PARAM, "exact") < 1e-5


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
    assert a.best_point.to_dict() == b.best_point.to_dict()


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
        (name,) = bad
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
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
