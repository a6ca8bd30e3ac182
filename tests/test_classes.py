"""Tests for observable class construction and canonicalization."""

import itertools
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
from obsclone.pauli import Observable, commutes, statistics_from_mean


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


def _generator_lists(rng, count):
    """Seeded lists of 1-4 coefficient rows: independent draws mixed with multiples,
    exact sums and commuting partners (identity part plus a multiple of a drawn Bloch part)."""
    for _ in range(count):
        rows = [rng.uniform(-1.0, 1.0, 4)]
        for _ in range(rng.integers(0, 4)):
            pick, i, j = rng.integers(4), rng.integers(len(rows)), rng.integers(len(rows))
            if pick == 0:
                rows.append(rng.uniform(-1.0, 1.0, 4))
            elif pick == 1:
                rows.append(rng.choice([-3.0, 0.5, 2.0]) * rows[i])
            elif pick == 2:
                rows.append(rows[i] + rows[j])
            else:
                rows.append(np.concatenate([[rng.uniform(-1.0, 1.0)], rng.choice([-2.0, 0.25]) * rows[i][1:]]))
        yield rows


def _outcome(build):
    """The kind of the class a call builds, or the message of the ValueError it raises."""
    try:
        return build().kind
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("k", [-1000, -40, 0, 40, 500, 1000])
def test_scale_never_decides(rng, k):
    """Scaling every generator by 2**k is exact, so canonicalize, the constructor,
    commutes and statistics_from_mean must answer alike at every scale."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rows in _generator_lists(rng, 40):
            gens = [Observable(r) for r in rows]
            scaled = [Observable(np.ldexp(r, k)) for r in rows]
            want, got = canonicalize(gens), canonicalize(scaled)
            assert got.kind is want.kind
            assert np.array_equal([g.coeffs for g in got.generators], [g.coeffs for g in want.generators])
            for kind in ClassKind:
                assert _outcome(lambda: ObservableClass(kind, scaled)) == _outcome(lambda: ObservableClass(kind, gens))
            for i, j in itertools.combinations(range(len(rows)), 2):
                assert commutes(scaled[i], scaled[j]) is commutes(gens[i], gens[j])
            for x, big in zip(gens, scaled):
                lam0, lam1 = x.eigenvalues()
                mean = lam0 + rng.uniform() * (lam1 - lam0)
                want, got = statistics_from_mean(x, mean), statistics_from_mean(big, np.ldexp(mean, k))
                assert (got.p0, got.p1) == (want.p0, want.p1)


def _relative_commutator(a, b):
    """||AB - BA|| / (||A|| ||B||), from the dense 2x2 matrices."""
    comm = a.matrix @ b.matrix - b.matrix @ a.matrix
    return np.linalg.norm(comm) / (np.linalg.norm(a.matrix) * np.linalg.norm(b.matrix))


def test_one_rule_against_independent_oracles(rng):
    """canonicalize keeps as many generators as numpy's SVD rank of the unit-normalised
    rows (4 for rank 3 or more), splits pairs as the dense commutator does, and the
    constructor accepts what it returns and refuses the other pair kind. Rows come at
    scales from 2**-60 to 2**60, where an absolute tolerance would misjudge them."""
    other = {
        ClassKind.TWO_PARAM_COMMUTING: ClassKind.TWO_PARAM_NONCOMMUTING,
        ClassKind.TWO_PARAM_NONCOMMUTING: ClassKind.TWO_PARAM_COMMUTING,
    }
    for rows in _generator_lists(rng, 300):
        rows = [np.ldexp(r, rng.integers(-60, 61)) for r in rows]
        gens = [Observable(r) for r in rows]
        rank = np.linalg.matrix_rank(np.array([r / np.linalg.norm(r) for r in rows]))
        cls = canonicalize(gens)
        assert len(cls.generators) == {1: 1, 2: 2, 3: 4, 4: 4}[rank]
        if rank == 2:
            worst = max(_relative_commutator(a, b) for a, b in itertools.combinations(gens, 2))
            assert (cls.kind is ClassKind.TWO_PARAM_COMMUTING) == (worst < 1e-9)
        if rank == len(rows) != 3:
            assert ObservableClass(cls.kind, gens).kind is cls.kind
            if cls.kind in other:
                with pytest.raises(ValueError, match="commute"):
                    ObservableClass(other[cls.kind], gens)


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
