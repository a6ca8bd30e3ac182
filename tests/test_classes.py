"""Tests for observable class construction and canonicalization."""

import warnings

import numpy as np
import pytest

from obsclone.classes import (
    ClassKind,
    ObservableClass,
    canonicalize,
    class_from_dict,
    class_to_dict,
    sample_members,
)
from obsclone.pauli import Observable, commutes


def obs(*coeffs):
    return Observable(np.array(coeffs, dtype=float))


S1 = obs(0, 1, 0, 0)
S2 = obs(0, 0, 1, 0)
S3 = obs(0, 0, 0, 1)
IDENT = obs(1, 0, 0, 0)


def test_kind_json_values_are_stable():
    assert ClassKind.ONE_PARAM.value == "one-param"
    assert ClassKind.TWO_PARAM_COMMUTING.value == "two-param-commuting"
    assert ClassKind.TWO_PARAM_NONCOMMUTING.value == "two-param-noncommuting"
    assert ClassKind.GENERAL.value == "general"


def test_valid_classes_construct():
    ObservableClass(ClassKind.ONE_PARAM, (S3,))
    ObservableClass(ClassKind.TWO_PARAM_COMMUTING, (S3, obs(1, 0, 0, 2)))
    ObservableClass(ClassKind.TWO_PARAM_NONCOMMUTING, (S1, S2))
    ObservableClass(ClassKind.GENERAL, (IDENT, S1, S2, S3))


def test_generator_count_must_match_kind():
    with pytest.raises(ValueError):
        ObservableClass(ClassKind.ONE_PARAM, (S1, S2))
    with pytest.raises(ValueError):
        ObservableClass(ClassKind.GENERAL, (S1, S2))


def test_generators_must_be_independent():
    with pytest.raises(ValueError):
        ObservableClass(ClassKind.TWO_PARAM_COMMUTING, (S3, obs(0, 0, 0, -2)))


def test_generators_must_be_nonzero():
    with pytest.raises(ValueError):
        ObservableClass(ClassKind.ONE_PARAM, (obs(0, 0, 0, 0),))


@pytest.mark.parametrize("scale", [1e300, 1e-300])
def test_validation_is_scale_safe(scale):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ObservableClass(ClassKind.ONE_PARAM, (obs(0, scale, 0, 0),))
        ObservableClass(ClassKind.TWO_PARAM_NONCOMMUTING, (obs(0, scale, 0, 0), obs(0, 0, scale, 0)))
        ObservableClass(ClassKind.TWO_PARAM_COMMUTING, (obs(0, 0, 0, scale), obs(scale, 0, 0, 2 * scale)))
        with pytest.raises(ValueError, match="linearly independent"):
            ObservableClass(ClassKind.TWO_PARAM_COMMUTING, (obs(0, 0, 0, scale), obs(0, 0, 0, -2 * scale)))
        with pytest.raises(ValueError, match="must commute"):
            ObservableClass(ClassKind.TWO_PARAM_COMMUTING, (obs(0, scale, 0, 0), obs(0, 0, scale, 0)))


def test_commutation_must_match_kind():
    with pytest.raises(ValueError):
        ObservableClass(ClassKind.TWO_PARAM_COMMUTING, (S1, S2))
    with pytest.raises(ValueError):
        ObservableClass(ClassKind.TWO_PARAM_NONCOMMUTING, (S3, obs(1, 0, 0, 2)))


def test_canonicalize_single_generator():
    cls = canonicalize([obs(0, 0, 0, 2.5)])
    assert cls.kind is ClassKind.ONE_PARAM
    assert len(cls.generators) == 1


def test_canonicalize_drops_dependent_generators():
    cls = canonicalize([S3, obs(0, 0, 0, -4), obs(0, 0, 0, 0.5)])
    assert cls.kind is ClassKind.ONE_PARAM


def test_canonicalize_splits_pairs_by_commutation():
    assert canonicalize([S1, S2]).kind is ClassKind.TWO_PARAM_NONCOMMUTING
    assert canonicalize([S3, obs(1, 0, 0, 1)]).kind is ClassKind.TWO_PARAM_COMMUTING


def test_canonicalize_promotes_three_generators_to_general():
    cls = canonicalize([S1, S2, S3])
    assert cls.kind is ClassKind.GENERAL
    assert len(cls.generators) == 4
    rows = np.stack([g.coeffs for g in cls.generators])
    assert np.linalg.matrix_rank(rows) == 4


def test_canonicalize_preserves_span(rng):
    gens = [Observable(rng.uniform(-1, 1, 4)) for _ in range(2)]
    cls = canonicalize(gens)
    rows = np.stack([g.coeffs for g in cls.generators])
    for g in gens:
        w, _, _, _ = np.linalg.lstsq(rows.T, g.coeffs, rcond=None)
        assert np.allclose(rows.T @ w, g.coeffs, atol=1e-12)


def test_canonicalize_is_idempotent(rng):
    for count in (1, 2, 3):
        gens = [Observable(rng.uniform(-1, 1, 4)) for _ in range(count)]
        once = canonicalize(gens)
        twice = canonicalize(once.generators)
        assert twice.kind is once.kind
        rows = np.stack([g.coeffs for g in twice.generators])
        for g in once.generators:
            w, _, _, _ = np.linalg.lstsq(rows.T, g.coeffs, rcond=None)
            assert np.linalg.norm(rows.T @ w - g.coeffs) < 1e-10


def test_canonicalize_rejects_empty_and_zero_spans():
    with pytest.raises(ValueError):
        canonicalize([])
    with pytest.raises(ValueError):
        canonicalize([obs(0, 0, 0, 0)])


def test_sample_members_is_deterministic():
    cls = ObservableClass(ClassKind.TWO_PARAM_NONCOMMUTING, (S1, S2))
    a = sample_members(cls, 5, seed=42)
    b = sample_members(cls, 5, seed=42)
    for x, y in zip(a, b):
        assert np.array_equal(x.coeffs, y.coeffs)


def test_sample_members_stay_in_span():
    cls = ObservableClass(ClassKind.TWO_PARAM_COMMUTING, (S3, obs(1, 0, 0, 2)))
    rows = np.stack([g.coeffs for g in cls.generators])
    for member in sample_members(cls, 20, seed=7):
        w, residual, _, _ = np.linalg.lstsq(rows.T, member.coeffs, rcond=None)
        assert np.allclose(rows.T @ w, member.coeffs, atol=1e-12)


def test_sample_members_of_one_param_class_commute_with_generator():
    cls = ObservableClass(ClassKind.ONE_PARAM, (obs(0.3, 0.1, -0.7, 0.2),))
    for member in sample_members(cls, 10, seed=3):
        assert commutes(member, cls.generators[0])


def test_sample_members_rejects_bad_count():
    cls = ObservableClass(ClassKind.ONE_PARAM, (S3,))
    with pytest.raises(ValueError):
        sample_members(cls, 0, seed=1)


def test_class_dict_round_trip():
    cls = ObservableClass(ClassKind.TWO_PARAM_NONCOMMUTING, (S1, S2))
    data = class_to_dict(cls)
    assert data["kind"] == "two-param-noncommuting"
    back = class_from_dict(data)
    assert back.kind is cls.kind
    for g, h in zip(back.generators, cls.generators):
        assert np.array_equal(g.coeffs, h.coeffs)


def test_class_from_dict_rejects_malformed_documents():
    with pytest.raises(ValueError):
        class_from_dict({"kind": "one-param"})
    with pytest.raises(ValueError):
        class_from_dict({"kind": "no-such-kind", "generators": [[0, 0, 0, 1]]})
    with pytest.raises(ValueError):
        class_from_dict(None)
