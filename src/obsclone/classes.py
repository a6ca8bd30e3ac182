"""Classes of observables a single machine is asked to clone.

A class is the real span of its generators. Four kinds cover the qubit
case: a single generator, two commuting generators, two noncommuting
generators, and the general class spanning the whole Pauli basis. Any
span of three or more independent generators necessarily contains a
noncommuting pair, so canonicalization promotes it to the general kind.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .pauli import Observable, commutes, observable_from_list, observable_to_list

INDEPENDENCE_TOL = 1e-10


class ClassKind(enum.Enum):
    ONE_PARAM = "one-param"
    TWO_PARAM_COMMUTING = "two-param-commuting"
    TWO_PARAM_NONCOMMUTING = "two-param-noncommuting"
    GENERAL = "general"


_KIND_SIZES = {
    ClassKind.ONE_PARAM: 1,
    ClassKind.TWO_PARAM_COMMUTING: 2,
    ClassKind.TWO_PARAM_NONCOMMUTING: 2,
    ClassKind.GENERAL: 4,
}


@dataclass(frozen=True, eq=False)
class ObservableClass:
    kind: ClassKind
    generators: tuple[Observable, ...]

    def __post_init__(self):
        gens = tuple(self.generators)
        object.__setattr__(self, "generators", gens)
        expected = _KIND_SIZES[self.kind]
        if len(gens) != expected:
            raise ValueError(f"{self.kind.value} classes take {expected} generator(s), got {len(gens)}")
        rows = np.stack([g.coeffs for g in gens])
        # Rows scaled to a largest |coefficient| of 1 cannot overflow or underflow below.
        scale = np.abs(rows).max(axis=1)
        if scale.min() <= 0.0:
            raise ValueError("generators must be nonzero")
        rows = rows / scale[:, None]
        sv = np.linalg.svd(rows / np.linalg.norm(rows, axis=1)[:, None], compute_uv=False)
        if sv.min() <= INDEPENDENCE_TOL:
            raise ValueError("generators must be linearly independent as 4-vectors")
        pair = tuple(Observable(r) for r in rows[:2])
        if self.kind is ClassKind.TWO_PARAM_COMMUTING and not commutes(*pair):
            raise ValueError("two-param-commuting generators must commute")
        if self.kind is ClassKind.TWO_PARAM_NONCOMMUTING and commutes(*pair):
            raise ValueError("two-param-noncommuting generators must not commute")


def canonicalize(generators) -> ObservableClass:
    """Reduce an arbitrary generator list to a classified ObservableClass.

    Gram-Schmidt runs over the 4-vector coefficients and drops dependent
    entries. One survivor gives a one-parameter class; two survivors are
    split by commutation; three or more are completed to a basis of the
    full Pauli span and classified general.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("at least one generator is required")
    basis: list[np.ndarray] = []
    for g in gens:
        v = np.asarray(g.coeffs, dtype=float).copy()
        scale = np.linalg.norm(v)
        for b in basis:
            v -= (v @ b) * b
        if np.linalg.norm(v) > INDEPENDENCE_TOL * max(scale, 1.0):
            basis.append(v / np.linalg.norm(v))
    if not basis:
        raise ValueError("generators span only the zero observable")
    if len(basis) >= 3:
        for e in np.eye(4):
            if len(basis) == 4:
                break
            v = e.copy()
            for b in basis:
                v -= (v @ b) * b
            if np.linalg.norm(v) > INDEPENDENCE_TOL:
                basis.append(v / np.linalg.norm(v))
        kind = ClassKind.GENERAL
    elif len(basis) == 1:
        kind = ClassKind.ONE_PARAM
    else:
        pair = (Observable(basis[0]), Observable(basis[1]))
        kind = ClassKind.TWO_PARAM_COMMUTING if commutes(*pair) else ClassKind.TWO_PARAM_NONCOMMUTING
    return ObservableClass(kind, tuple(Observable(b) for b in basis))


def sample_members(cls: ObservableClass, n: int, seed: int) -> list[Observable]:
    """n members of the class with coefficients drawn uniformly from [-1, 1]."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    weights = rng.uniform(-1.0, 1.0, size=(n, len(cls.generators)))
    rows = np.stack([g.coeffs for g in cls.generators])
    return [Observable(w @ rows) for w in weights]


def class_to_dict(cls: ObservableClass) -> dict:
    return {
        "kind": cls.kind.value,
        "generators": [observable_to_list(g) for g in cls.generators],
    }


def class_from_dict(data) -> ObservableClass:
    try:
        kind = ClassKind(data["kind"])
        gens = data["generators"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed class document: {exc}") from exc
    if not isinstance(gens, list):
        raise ValueError("malformed class document: generators must be a list")
    return ObservableClass(kind, tuple(observable_from_list(g, f"generators[{i}]") for i, g in enumerate(gens)))
