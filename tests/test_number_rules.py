"""One rule per kind of number at every public entry point that takes numbers.

Reals go through linalg.real / linalg.reals, integers through linalg.integer
and complex matrices through the entry check of linalg.as_matrix. Each site
must refuse a bad value with a ValueError whose message starts with the
argument's name, without any numpy warning, and must read Python and numpy
numbers of the same value into bit-identical objects.
"""

import dataclasses
import enum
import warnings

import numpy as np
import pytest

from obsclone.classes import ClassKind, ObservableClass
from obsclone.linalg import QubitState, as_matrix, is_unitary, pauli_rotation, tensor
from obsclone.machines import (
    CNOT,
    KET0,
    CloningMachine,
    commuting_machine,
    covariant_transport,
    heisenberg_lift,
    nccm_residual,
    phase_covariant_machine,
    t_machine,
)
from obsclone.pauli import Observable, TwoOutcomeStatistics, observable_from_list, statistics_from_mean
from obsclone.search import SearchConfig, SearchSpacePoint

S3 = Observable([0.0, 0.0, 0.0, 1.0])
ONE_PARAM = ObservableClass(ClassKind.ONE_PARAM, (S3,))
T = t_machine(0.7)
Z3 = (0.0, 0.0, 0.0)

# (site, argument name, call taking the argument's value, a valid value with integral entries)
REAL_SITES = [
    ("Observable", "coeffs", Observable, [0, 1, 2, 3]),
    ("QubitState", "bloch", QubitState, [0, 0, 1]),
    ("pauli_rotation", "v", pauli_rotation, [1, 2, 0]),
    ("TwoOutcomeStatistics.lambda0", "lambda0", lambda v: TwoOutcomeStatistics(v, 1.0, 0.0, 1.0), -1),
    ("TwoOutcomeStatistics.lambda1", "lambda1", lambda v: TwoOutcomeStatistics(-1.0, v, 0.0, 1.0), 1),
    ("TwoOutcomeStatistics.p0", "p0", lambda v: TwoOutcomeStatistics(-1.0, 1.0, v, 1.0), 0),
    ("TwoOutcomeStatistics.p1", "p1", lambda v: TwoOutcomeStatistics(-1.0, 1.0, 0.0, v), 1),
    ("statistics_from_mean", "mean", lambda v: statistics_from_mean(S3, v), 0),
    ("t_machine", "theta", t_machine, 1),
    ("phase_covariant_machine", "theta", phase_covariant_machine, 1),
    ("commuting_machine.b0", "b0", lambda v: commuting_machine(S3, v, 2.0), 1),
    ("commuting_machine.b3", "b3", lambda v: commuting_machine(S3, 1.0, v), 2),
    ("nccm_residual.t1", "t1", lambda v: nccm_residual(v, -0.5, 0.0, 2.0, 3.0), 1),
    ("nccm_residual.t2", "t2", lambda v: nccm_residual(0.5, v, 0.0, 2.0, 3.0), -1),
    ("nccm_residual.t3", "t3", lambda v: nccm_residual(0.5, -0.5, v, 2.0, 3.0), 0),
    ("nccm_residual.g1", "g1", lambda v: nccm_residual(0.5, -0.5, 0.0, v, 3.0), 2),
    ("nccm_residual.g2", "g2", lambda v: nccm_residual(0.5, -0.5, 0.0, 2.0, v), 3),
    ("SearchSpacePoint.from_vector", "v", SearchSpacePoint.from_vector, list(range(-6, 6))),
    ("SearchSpacePoint.from_vector.gains", "v", SearchSpacePoint.from_vector, list(range(-6, 6)) + [2, 3]),
    ("SearchSpacePoint.local_pre", "local_pre", lambda v: SearchSpacePoint(v, Z3, Z3, Z3), [1, 2, 3]),
    ("SearchSpacePoint.entangling", "entangling", lambda v: SearchSpacePoint(Z3, v, Z3, Z3), [1, 2, 3]),
    ("SearchSpacePoint.local_post_1", "local_post_1", lambda v: SearchSpacePoint(Z3, Z3, v, Z3), [1, 2, 3]),
    ("SearchSpacePoint.local_post_2", "local_post_2", lambda v: SearchSpacePoint(Z3, Z3, Z3, v), [1, 2, 3]),
    ("SearchSpacePoint.gains", "gains", lambda v: SearchSpacePoint(Z3, Z3, Z3, Z3, v), [2, 3]),
    ("CloningMachine.gains", "gains", lambda v: CloningMachine(CNOT, KET0, ONE_PARAM, v), [1, 2]),
    ("observable_from_list", "observable", observable_from_list, [0, 1, 2, 3]),
]

# (site, argument name, call, a valid value, the smallest value the site accepts)
INTEGER_SITES = [
    ("SearchConfig.restarts", "restarts", lambda v: SearchConfig(restarts=v), 3, 1),
    ("SearchConfig.max_evals", "max_evals", lambda v: SearchConfig(max_evals=v), 50, 1),
    ("SearchConfig.seed", "seed", lambda v: SearchConfig(seed=v), 7, 0),
    ("heisenberg_lift", "branch", lambda v: heisenberg_lift(CNOT, KET0, S3, v), 2, 1),
]

# (site, call taking a matrix, a valid real matrix with integral entries)
MATRIX_SITES = [
    ("as_matrix", as_matrix, np.eye(3)),
    ("is_unitary", is_unitary, np.eye(2)),
    ("CloningMachine", lambda m: CloningMachine(m, KET0, ONE_PARAM), CNOT.real),
    ("covariant_transport", lambda w: covariant_transport(T, w), np.eye(2)[::-1]),
    ("heisenberg_lift.u", lambda u: heisenberg_lift(u, KET0, S3, 1), CNOT.real),
    ("tensor", lambda a: tensor(a, np.eye(2)), np.eye(2)[::-1]),
]

BAD_SCALARS = {
    "str": "1",
    "bool": True,
    "huge-int": 10**400,
    "nan": float("nan"),
    "inf": float("inf"),
    "-inf": float("-inf"),
    "float32-inf": np.float32("inf"),
    "complex": 1 + 1j,
    "np-complex": np.complex128(1.0),
    "np-bool": np.bool_(True),
}


def _real_cases():
    for site, name, call, good in REAL_SITES:
        if isinstance(good, list):
            # A bad entry goes in position 1, in a list; the arrays carry exactly the good values.
            bad = {label: good[:1] + [v] + good[2:] for label, v in BAD_SCALARS.items()}
            bad["complex-array"] = np.array(good, dtype=complex)
            bad["bool-array"] = np.array(good, dtype=bool)
            pattern = rf"{name}\[\d+\] must be a finite real number"
        else:
            bad = dict(BAD_SCALARS, **{"complex-array": np.array([1 + 0j]), "bool-array": np.array([True])})
            pattern = rf"{name} must be a finite real number"
        for label, value in bad.items():
            yield pytest.param(call, value, pattern, id=f"{site}-{label}")


def _integer_cases():
    for site, name, call, good, low in INTEGER_SITES:
        bad = {label: v for label, v in BAD_SCALARS.items() if label != "huge-int"}
        bad.update({"float": 2.0, "np-float": np.float64(2.0), "bool-array": np.array([True])})
        bad.update({"int-array": np.array([good]), "below": low - 1})
        pattern = rf"{name} must be an integer of at least {low}"
        for label, value in bad.items():
            yield pytest.param(call, value, pattern, id=f"{site}-{label}")
        if name == "branch":
            # The one integer site with an upper end: 10**400 is an integer, but not a branch.
            for label, value in {"above": 3, "huge-int": 10**400}.items():
                yield pytest.param(call, value, "branch must be 1 or 2", id=f"{site}-{label}")


def _matrix_cases():
    for site, call, good in MATRIX_SITES:
        rows = good.tolist()
        bad = {label: [rows[0][:1] + [v] + rows[0][2:]] + rows[1:] for label, v in BAD_SCALARS.items()}
        for label in ("complex", "np-complex"):
            del bad[label]
        bad["none"] = [rows[0][:1] + [None] + rows[0][2:]] + rows[1:]
        bad["nan-array"] = np.where(good == 0, np.nan, good)
        bad["bool-array"] = good.astype(bool)
        for label, value in bad.items():
            yield pytest.param(call, value, "matrix entries must be finite int, float or complex numbers", id=f"{site}-{label}")


@pytest.mark.parametrize("call, value, pattern", [*_real_cases(), *_integer_cases(), *_matrix_cases()])
def test_every_site_refuses_a_bad_number_by_name(call, value, pattern):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^{pattern}"):
            call(value)


def _bits(x):
    """Everything an object holds, down to the bytes of its arrays and the hex digits of its floats."""
    if dataclasses.is_dataclass(x):
        return (type(x).__name__, *(_bits(getattr(x, f.name)) for f in dataclasses.fields(x)))
    if isinstance(x, np.ndarray):
        return ("ndarray", x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, (list, tuple)):
        return (type(x).__name__, *map(_bits, x))
    if isinstance(x, float):
        return ("float", x.hex())
    assert isinstance(x, (bool, np.bool_, int, enum.Enum, type(None))), type(x)
    return (type(x).__name__, x)


REAL_TYPES = (int, np.int64, np.float32, np.float64)


@pytest.mark.parametrize("site, call, good", [pytest.param(i, c, g, id=i) for i, _, c, g in REAL_SITES])
def test_python_and_numpy_reals_build_bit_identical_objects(site, call, good):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if isinstance(good, list):
            reference = _bits(call([float(v) for v in good]))
            variants = [[t(v) for v in good] for t in REAL_TYPES] + [np.array(good, dtype=t) for t in REAL_TYPES[1:]]
            variants.append(tuple(good))
        else:
            reference = _bits(call(float(good)))
            variants = [t(good) for t in REAL_TYPES]
        for v in variants:
            assert _bits(call(v)) == reference, (site, v)


@pytest.mark.parametrize("site, call, good", [pytest.param(i, c, g, id=i) for i, _, c, g, _ in INTEGER_SITES])
def test_python_and_numpy_integers_build_bit_identical_objects(site, call, good):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reference = _bits(call(good))
        for t in (np.int64, np.int32, np.uint64):
            assert _bits(call(t(good))) == reference, (site, t)


@pytest.mark.parametrize("site, call, good", [pytest.param(*row, id=row[0]) for row in MATRIX_SITES])
def test_integer_and_real_matrices_build_bit_identical_objects(site, call, good):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reference = _bits(call(good.astype(complex)))
        for v in (good.tolist(), good.astype(int).tolist(), good.astype(np.int64), good.astype(np.float32), good):
            assert _bits(call(v)) == reference, (site, v)


def test_the_integer_rule_has_no_upper_end():
    assert SearchConfig(seed=10**400).seed == 10**400
