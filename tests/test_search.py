"""Tests for the restarted SQP search, the package's one no-cloning floor estimator."""

import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scipy import optimize as scipy_optimize

from obsclone import optimize
from obsclone.classes import ClassKind, ObservableClass
from obsclone.linalg import SIGMA0, SIGMA1, SIGMA2, SIGMA3, is_unitary, pauli_rotation
from obsclone.machines import KET0, CloningMachine, verify_approximate, verify_exact
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
            assert fun(x)[0] == pytest.approx(
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
    sharing no code with the search module. The objective's pairs are those
    of basis_members(cls)."""
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


def basis_members(cls):
    """The unit members of cls.basis as observables, in the one attribute the oracle reads."""
    return SimpleNamespace(generators=tuple(Observable([0.0, *b]) for b in cls.basis))


def member_squared_defects(x, cls, mode):
    """The oracle's squared defects of the members of cls.basis, the ones that get rows."""
    return oracle_squared_defects(x, basis_members(cls), mode)


def oracle_defect(x, cls, mode):
    return float(np.sqrt(max(member_squared_defects(x, cls, mode))))


def test_transfer_matrix_objective_matches_an_independent_oracle(rng):
    """Random points in both modes, with zero and tiny rotation vectors and
    zero entangling angles mixed in so the |v| = 0 branch is exercised. The
    oracle takes the members of the class's orthonormal basis: for sigma1/sigma2
    and the Pauli basis they are the generators' traceless parts."""
    cases = (
        (ONE_PARAM, "exact"), (X_NC, "exact"), (X_NC, "approximate"), (SAME_EXPONENT_PAIR, "approximate"), (GENERAL, "exact")
    )
    for cls, mode in cases:
        fun = _objective(cls, mode)
        for i in range(40):
            x = mixed_vector(rng, i, mode == "approximate")
            assert fun(x)[0] == pytest.approx(oracle_defect(x, cls, mode), abs=1e-12)


def rows_of(fun):
    """x -> (phi, jac): the squared defects and gradients in the rows of fun(x)."""

    def at(x):
        phi, grads = fun(x)[1]
        return phi, np.reshape(grads, (len(phi), -1)).tolist()

    return at


def logged(fun, log):
    """fun, recording each call as (point, value, whether it returned rows); a trial that fun
    cuts short at above is recorded with the value it returns."""

    def f(x, above=None):
        x = [float(t) for t in x]
        v, rows = fun(x, above)
        log.append((x, v, rows is not None))
        return v, rows

    return f


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
    angles among them, the rows equal a quarter of the oracle's squared defects
    of the class's basis members to 1e-12, and the Jacobian equals central
    differences of the rows, and at every twentieth point of the oracle, to 1e-9
    relative to the larger of the rows and their gradients (the differences'
    rounding scales with the rows). The defect is the float 2 sqrt(max(phi)),
    which the descent relies on. Only the basis members have rows, so the
    Pauli basis's identity has none, and the unequal pair has two unit ones."""
    for i in range(200):
        cls = ROW_CLASSES[i % len(ROW_CLASSES)]
        fun = _objective(cls, mode)
        rows_at = rows_of(fun)
        x = mixed_vector(rng, i, mode == "approximate").tolist()
        phi, jac = rows_at(x)
        assert fun(x)[0] == 2.0 * math.sqrt(max(phi))
        want = member_squared_defects(x, cls, mode)
        assert np.abs(4.0 * np.array(phi) - want).max() <= 1e-12 * max(want)
        references = [central_differences(lambda v: rows_at(v)[0], x)]
        if i % 20 == 0:
            references.append(central_differences(lambda v: member_squared_defects(v, cls, mode), x) / 4.0)
        for fd in references:
            assert np.abs(np.array(jac) - fd).max() <= 1e-9 * max(np.abs(fd).max(), max(phi))


@pytest.mark.parametrize("k", [-1000, 1000])
def test_a_class_scaled_by_a_power_of_two_scores_the_same_defect_and_rows(rng, k):
    """A class scaled by 2**k has the very same orthonormal basis, so it scores
    the very same defect and rows, and nothing overflows or underflows to a false
    zero: the objective judges the span, not the size of its generators."""
    for cls in (SAME_EXPONENT_PAIR, UNEQUAL_PAIR):
        scaled = ObservableClass(cls.kind, tuple(Observable(np.ldexp(g.coeffs, k)) for g in cls.generators))
        assert np.array_equal(scaled.basis, cls.basis)
        for mode in MODES:
            fun, big = _objective(cls, mode), _objective(scaled, mode)
            for i in range(20):
                x = mixed_vector(rng, i, mode == "approximate").tolist()
                assert big(x) == fun(x)


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
    """The generators of cls with a nonzero traceless part, and the basis that the class's own rule gives them,
    in the attributes _objective reads."""
    paired = SimpleNamespace(generators=tuple(g for g in cls.generators if g.coeffs[1:].any()))
    paired.basis = ObservableClass.basis.func(paired)
    return paired


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(IDENTITY_CLASSES))
def test_generators_without_a_traceless_part_get_no_pairs(rng, name, mode):
    """Every machine copies a multiple of the identity, so the objective gives
    it no pair: a class scores the same float with it as without it, and has
    the same rows, 2 d of them for the d members of its orthonormal basis."""
    cls = IDENTITY_CLASSES[name]
    paired = paired_generators(cls)
    fun, bare = _objective(cls, mode), _objective(paired, mode)
    for i in range(40):
        x = mixed_vector(rng, i, mode == "approximate").tolist()
        (value, rows), (bare_value, bare_rows) = fun(x), bare(x)
        assert value == bare_value
        assert rows == bare_rows
        assert len(rows[0]) == 2 * len(cls.basis) == 2 * len(paired.basis) < 2 * len(cls.generators)


@pytest.mark.parametrize("mode", MODES)
def test_a_class_of_identity_multiples_has_nothing_to_descend(mode):
    """Its defect is 0 everywhere and its rows are empty. A search converges
    after its first evaluation, and minimize without a target charges the
    start's step one evaluation for those rows and stops without a trial."""
    cls, approximate = IDENTITY_CLASSES["identity-only"], mode == "approximate"
    result = search_machine(cls, mode, SearchConfig())
    assert (result.converged, result.best_defect, result.evaluations, result.restarts) == (True, 0.0, 1, 1)
    fun, log = _objective(cls, mode), []
    x0 = random_vector(np.random.default_rng(1), approximate).tolist()
    assert fun(x0)[1] == ([], [])
    assert minimize(logged(fun, log), x0, 100, _bounds(approximate)) == (x0, 0.0, 2)
    assert log == [(x0, 0.0, True)]


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
        assert abs(fun(x.tolist())[0] - fun(y.tolist())[0]) <= 1e-14


def slsqp_floor(cls, mode, starts=3):
    """Reference floor: scipy's SLSQP on the epigraph form min t s.t. phi_i(x) <= t,
    with its own finite-difference gradients and GAIN_BOUNDS on the gains, best
    of a few fixed starts."""
    fun = _objective(cls, mode)
    rows_at = rows_of(fun)
    approximate = mode == "approximate"
    bounds = [(None, None)] * 12 + [GAIN_BOUNDS] * (2 * approximate) + [(None, None)]
    rng = np.random.default_rng(2024)
    best = np.inf
    for _ in range(starts):
        x0 = random_vector(rng, approximate)
        z0 = np.append(x0, max(rows_at(x0.tolist())[0]))
        res = scipy_optimize.minimize(
            lambda z: z[-1], z0, jac=lambda z: np.eye(len(z))[-1], method="SLSQP", bounds=bounds,
            constraints=[{"type": "ineq", "fun": lambda z: z[-1] - np.array(rows_at(z[:-1].tolist())[0])}],
            options={"maxiter": 500, "ftol": 1e-16},
        )
        best = min(best, fun(res.x[:-1].tolist())[0])
    return best


def seeded_pair():
    rng = np.random.default_rng(71)
    return ObservableClass(ClassKind.TWO_PARAM_NONCOMMUTING, (random_observable(rng), random_observable(rng)))


def bits(value, rows):
    """A value and its rows as bits: the value's hex, and the hex of each phi and of each gradient entry."""
    phi, grads = rows
    return value.hex(), [v.hex() for v in phi], [g.hex() for g in grads]


FRESH_BITS_CLASSES = {"sigma-x-y": X_NC, "seeded-pair": seeded_pair(), "pauli-basis": GENERAL}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(FRESH_BITS_CLASSES))
def test_the_rows_of_fun_x_give_a_fresh_objectives_bits_at_x(rng, name, mode):
    """fun(x) gives the value and rows of a fresh objective at x, bit for bit,
    signed zeros included, after earlier calls at other points, and also at x
    with each zero's sign flipped, which equals x under == (sin(-0.0) is -0.0,
    and such a sign can reach a gradient entry that is exactly zero)."""
    cls, approximate = FRESH_BITS_CLASSES[name], mode == "approximate"
    fun = _objective(cls, mode)
    for i in range(10):
        x = mixed_vector(rng, i, approximate).tolist()
        y = mixed_vector(rng, i + 1, approximate).tolist()
        flipped = [-v if v == 0.0 else v for v in x]
        for point, twin in ((x, flipped), (flipped, x)):
            fun(y)
            fun(twin)
            assert bits(*fun(point)) == bits(*_objective(cls, mode)(point))


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
    """From a random start minimize returns f = fun(x)[0] <= fun(x0)[0] within its
    budget, each call of fun and each step (one QP) one evaluation, the start's
    included, with gains inside their bounds: budget 1 evaluates the start only,
    and budget 2 also charges the start's step and takes no trial. A search with
    that budget stays within it and reports the defect that cloning_defect
    recomputes at its point."""
    cls, approximate = DESCENT_CLASSES[name], mode == "approximate"
    fun, bounds = _objective(cls, mode), _bounds(approximate)
    x0 = random_vector(np.random.default_rng(seed), approximate).tolist()
    log = []
    with mock.patch.object(optimize, "_simplex_qp", wraps=optimize._simplex_qp) as qp:
        x, f, nfev = minimize(logged(fun, log), x0, budget, bounds)
    assert f <= fun(x0)[0]
    assert f == fun(x)[0]
    assert nfev == len(log) + qp.call_count <= budget
    if budget <= 2:
        assert x == x0
        assert (len(log), qp.call_count) == (1, budget - 1)
    result = search_machine(cls, mode, SearchConfig(restarts=1, max_evals=budget, seed=seed))
    assert result.evaluations <= budget
    assert abs(cloning_defect(result.best_point, cls, mode) - result.best_defect) <= 1e-9
    if approximate:
        for gains in (x[12:], result.best_point.gains):
            assert GAIN_BOUNDS[0] <= min(gains) and max(gains) <= GAIN_BOUNDS[1]


@given(st.integers(0, 2**32 - 1), st.sampled_from(sorted(DESCENT_CLASSES)), st.sampled_from(MODES), st.floats(0.0, 2.0))
@example(0, "pauli-basis", "exact", 1.0)
@example(0, "unequal-pair", "approximate", 0.5)
@example(0, "sigma-x-y", "exact", 2.0)
@settings(max_examples=60, deadline=None)
def test_a_bounded_call_gives_the_full_result_or_a_value_at_or_above_the_bound(seed, name, mode, ratio):
    """At a random point, with zero and tiny blocks mixed in, and above a random
    multiple of the defect (the defect itself among them), fun(x, above) either
    returns fun(x)'s value, below above, with rows of the same bits, or (v, None)
    with v >= above, and then fun(x)'s value is at least above too. So the line
    search gets rows only for the trials it accepts."""
    cls, approximate = DESCENT_CLASSES[name], mode == "approximate"
    fun = _objective(cls, mode)
    rng = np.random.default_rng(seed)
    x = mixed_vector(rng, int(rng.integers(40)), approximate).tolist()
    value, rows = fun(x)
    above = value * ratio
    bounded, bounded_rows = fun(x, above)
    if bounded_rows is None:
        assert bounded >= above and value >= above
    else:
        assert bounded < above
        assert bits(bounded, bounded_rows) == bits(value, rows)


@pytest.mark.parametrize("name", sorted(DESCENT_CLASSES))
@pytest.mark.parametrize("mode", MODES)
def test_the_bound_changes_no_bit_of_the_descent(name, mode):
    """minimize with the objective as it is, which cuts rejected trials short, and
    with a wrapper that drops above, so that every trial is scored in full, returns
    the same x, f and nfev, bit for bit, from three starts. In approximate mode the
    first start has a gain at its lower bound, so bounds clip some trials."""
    cls, approximate = DESCENT_CLASSES[name], mode == "approximate"
    fun, bounds = _objective(cls, mode), _bounds(approximate)
    rng = np.random.default_rng(11)
    starts = [random_vector(rng, approximate).tolist() for _ in range(3)]
    if approximate:
        starts[0][12] = GAIN_BOUNDS[0]
    trials = []

    def watched(x, above=None):
        value, rows = fun(x, above)
        trials.append((x, rows is None))
        return value, rows

    def full(x, above=None):
        return fun(x)

    for x0 in starts:
        (x, f, nfev), (want_x, want_f, want_nfev) = minimize(watched, x0, 300, bounds), minimize(full, x0, 300, bounds)
        assert ([v.hex() for v in x], f.hex(), nfev) == ([v.hex() for v in want_x], want_f.hex(), want_nfev)
    assert any(cut for _, cut in trials)
    if approximate:
        assert any(g in GAIN_BOUNDS for x, _ in trials[1:] for g in x[12:])


@pytest.mark.parametrize("name", sorted(DESCENT_CLASSES))
@pytest.mark.parametrize("mode", MODES)
def test_minimize_with_a_target_stops_at_the_first_step_below_it(name, mode):
    """With ftarget halfway between the start's value and the untargeted end,
    the descent evaluates a prefix of the untargeted one's points and stops at
    the first accepted step below the target, well inside the budget. Each
    point with rows before it, the start or an accepted trial, took one step."""
    cls, approximate = DESCENT_CLASSES[name], mode == "approximate"
    fun, bounds = _objective(cls, mode), _bounds(approximate)
    x0 = random_vector(np.random.default_rng(7), approximate).tolist()
    plain, targeted = [], []
    _, f_end, _ = minimize(logged(fun, plain), x0, 300, bounds)
    f0 = fun(x0)[0]
    assert f_end < f0
    ftarget = 0.5 * (f0 + f_end)
    with mock.patch.object(optimize, "_simplex_qp", wraps=optimize._simplex_qp) as qp:
        x, f, nfev = minimize(logged(fun, targeted), x0, 300, bounds, ftarget)
    assert f < ftarget
    assert nfev == len(targeted) + qp.call_count
    assert len(targeted) < len(plain)
    assert targeted == plain[: len(targeted)]
    assert targeted[-1] == (x, f, True)
    assert all(v >= ftarget for _, v, _ in targeted[:-1])
    assert qp.call_count == sum(with_rows for _, _, with_rows in targeted[:-1])


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_minimize_returns_a_start_without_a_finite_value_at_once(value):
    """The start is the one evaluation: no step."""
    log = []
    x, f, nfev = minimize(logged(lambda x, above=None: (value, ([], [])), log), [0.5, -1.0, 2.0], 100)
    assert x == [0.5, -1.0, 2.0]
    assert f is value
    assert nfev == 1
    assert log == [([0.5, -1.0, 2.0], value, True)]


def enclosing_ball(centres):
    """fun for max_i |x - c_i|**2, whose minimax point is the centre of the
    smallest ball around the c_i and whose floor is its squared radius."""
    centres = np.array(centres, dtype=float)

    def fun(x, above=None):
        diff = np.array(x) - centres
        phi = (diff**2).sum(axis=1)
        return float(phi.max()), (phi.tolist(), (2.0 * diff).ravel().tolist())

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
    """sigma1/sigma2 scaled by 2**k searches to a finite floor. The search judges
    the class's orthonormal basis, so at either scale it converges in approximate
    mode and not in exact mode (with an absolute tolerance the tiny class
    converged at once and the huge one never did); in exact mode each ends at
    the unscaled floor, bit for bit, at the same point."""
    scaled = ObservableClass(X_NC.kind, tuple(Observable(np.ldexp(g.coeffs, k)) for g in X_NC.generators))
    config = SearchConfig(restarts=1, max_evals=300, seed=3)
    result = search_machine(scaled, mode, config)
    assert np.isfinite(result.best_defect)
    assert result.converged is (mode == "approximate")
    if mode == "exact":
        plain = search_machine(X_NC, mode, config)
        assert result.best_defect == plain.best_defect
        assert result.best_point.to_dict() == plain.best_point.to_dict()
        assert abs(plain.best_defect - X_NC_DEFECT_FLOOR) <= 1e-12


def test_the_verdict_does_not_depend_on_the_class_scale():
    """For every k = -600..600, the one-param class of (0.1, 0.7, -0.4, 0.5)
    scaled by 2**k converges and sigma1/sigma2 scaled by 2**k does not: the search
    judges the class's unit basis. tol = 0.25 lies below sigma1/sigma2's
    relative floor (sqrt(2) - 1) / sqrt(2) = 0.29, and seed 1 brings the
    one-param class below it within 20 evaluations, so a short budget decides
    each search. At the default tol, the one-param class at 1e12 converges and
    sigma1/sigma2 at 1e-9 does not; with an absolute tolerance it was the other
    way round."""
    config = SearchConfig(restarts=1, max_evals=20, seed=1, tol=0.25)
    for k in range(-600, 601):
        one = ObservableClass(ClassKind.ONE_PARAM, (Observable(np.ldexp([0.1, 0.7, -0.4, 0.5], k)),))
        pair = ObservableClass(X_NC.kind, tuple(Observable(np.ldexp(g.coeffs, k)) for g in X_NC.generators))
        assert search_machine(one, "exact", config).converged, k
        assert not search_machine(pair, "exact", config).converged, k
    big = ObservableClass(ClassKind.ONE_PARAM, (Observable(np.array([0.0, 0.0, 0.0, 1e12])),))
    assert search_machine(big, "exact", SearchConfig(restarts=10, seed=1)).converged
    tiny = ObservableClass(X_NC.kind, tuple(Observable(1e-9 * g.coeffs) for g in X_NC.generators))
    assert not search_machine(tiny, "exact", SearchConfig(restarts=3, seed=1)).converged


@pytest.mark.parametrize("s", [1e-6, 1e-9, 1e-20])
def test_a_small_generator_of_a_noncommuting_pair_keeps_the_search_from_converging(s):
    """No exact machine clones span{sigma3, s sigma1}: a machine that clones sigma3
    loses s sigma1, a defect as large as its own norm. The search judges the class's
    unit basis, sigma3 and sigma1, so it does not converge however small s is
    (compared with the largest norm, it converged at once)."""
    cls = ObservableClass(ClassKind.TWO_PARAM_NONCOMMUTING, (Observable([0.0, 0.0, 0.0, 1.0]), Observable([0.0, s, 0.0, 0.0])))
    assert not search_machine(cls, "exact", SearchConfig(restarts=1, max_evals=1000)).converged


def test_a_near_parallel_noncommuting_pair_does_not_converge():
    """span{sigma1, sigma1 + 1e-8 sigma2} is the sigma1/sigma2 plane, so no exact machine
    clones it: the search ends at or above sigma1/sigma2's floor and does not converge.
    Judged per generator, a sigma1 cloner lost only 1e-8 of a norm and the search converged."""
    cls = ObservableClass(ClassKind.TWO_PARAM_NONCOMMUTING, (Observable([0.0, 1.0, 0.0, 0.0]), Observable([0.0, 1.0, 1e-8, 0.0])))
    result = search_machine(cls, "exact", SearchConfig(restarts=5))
    assert not result.converged
    assert result.best_defect >= X_NC_DEFECT_FLOOR - 1e-12


def test_a_commuting_pair_converges_however_far_apart_its_norms_lie():
    """span{(0.3, 0.6, 0, 0.8), 2**-k (1, -0.3, 0, -0.4)} has one line of Bloch parts,
    whatever k, so its orthonormal basis, and with it the search, is the same for every k,
    and the machine found verifies. Judged per generator, the search never converged at
    k = 30 or 40: the descent's rounding on the large generator exceeded tol times the small one."""
    config = SearchConfig(restarts=5, seed=1)
    results = []
    for k in (10, 20, 30, 40):
        cls = ObservableClass(
            ClassKind.TWO_PARAM_COMMUTING, (Observable([0.3, 0.6, 0.0, 0.8]), Observable(np.ldexp([1.0, -0.3, 0.0, -0.4], -k)))
        )
        result = search_machine(cls, "exact", config)
        assert result.converged, k
        assert verify_exact(CloningMachine(result.best_point.unitary(), KET0, cls), tol=config.tol).passed, k
        results.append(result_to_dict(result))
    assert all(r == results[0] for r in results)


def unequal_classes(rng):
    """(kind, generators) with identity parts: one-param classes scaled by 2**k, and
    commuting and noncommuting pairs whose second generator is scaled by 2**k."""
    for k in (-40, -10, 10, 40):
        a = random_observable(rng, min_axis=0.1)
        yield ClassKind.ONE_PARAM, (Observable(np.ldexp(a.coeffs, k)),)
        axis = a.bloch / np.linalg.norm(a.bloch)
        partner = np.concatenate([[rng.uniform(-1.0, 1.0)], rng.uniform(0.3, 1.5) * axis])
        yield ClassKind.TWO_PARAM_COMMUTING, (a, Observable(np.ldexp(partner, k)))
        other = random_observable(rng, min_axis=0.1)
        yield ClassKind.TWO_PARAM_NONCOMMUTING, (a, Observable(np.ldexp(other.coeffs, k)))


@pytest.mark.parametrize("seed", range(3))
def test_every_converged_search_finds_a_machine_that_verifies(seed):
    """A converged search's best point, built as cloning_defect builds it, passes
    verify at the search's tol, whatever the identity parts and however unequal the
    generators' sizes: each member of the class's unit basis misses by less than
    tol / sqrt(d), so the span defect is below tol.
    Compared with the largest norm, a pair with a small noncommuting partner converged
    with that partner lost."""
    rng = np.random.default_rng(seed)
    config = SearchConfig(restarts=2, max_evals=600, seed=3)
    converged = 0
    for kind, gens in unequal_classes(rng):
        cls = ObservableClass(kind, gens)
        for mode, verify in (("exact", verify_exact), ("approximate", verify_approximate)):
            result = search_machine(cls, mode, config)
            if result.converged:
                converged += 1
                p = result.best_point
                assert verify(CloningMachine(p.unitary(), KET0, cls, p.gains), tol=config.tol).passed, (kind, mode)
    assert converged >= 8


def test_search_refuses_classes_whose_residuals_leave_the_float_range():
    huge = ObservableClass(ClassKind.ONE_PARAM, (Observable(np.array([0.0, 1e306, 0.0, 0.0])),))
    assert np.isfinite(search_machine(huge, "exact", SearchConfig(restarts=1, max_evals=50)).best_defect)
    with pytest.raises(ValueError, match=r"generators\[0\] in approximate mode"):
        search_machine(huge, "approximate", SearchConfig(restarts=1, max_evals=50))


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_search_without_a_finite_defect_raises(monkeypatch, value):
    monkeypatch.setattr("obsclone.search._objective", lambda cls, mode: lambda x, above=None: (value, ([], [])))
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
    by 1/sqrt(2); no exact machine does better, whatever the budget. Nor on
    a random noncommuting pair: the search judges its orthonormal basis, which
    a rotation, and with it a covariant transport, carries onto sigma1/sigma2."""
    assert X_NC_DEFECT_FLOOR == np.sqrt(2.0) - 1.0
    rng = np.random.default_rng(seed)
    pair = ObservableClass(ClassKind.TWO_PARAM_NONCOMMUTING, (random_observable(rng, 0.1), random_observable(rng, 0.1)))
    for cls in (X_NC, pair):
        result = search_machine(cls, "exact", SearchConfig(restarts=1, max_evals=max_evals, seed=seed))
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
