"""Classes of observables a single machine is asked to clone.

A class is the real span of its generators. Four kinds cover the qubit
case: a single generator, two commuting generators, two noncommuting
generators, and the general class spanning the whole Pauli basis. Any
span of three or more independent generators necessarily contains a
noncommuting pair, so canonicalization promotes it to the general kind.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .linalg import unit_scaled
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
        rows = [g.coeffs.tolist() for g in gens]
        if not all(map(any, rows)):
            raise ValueError("generators must be nonzero")
        if len(_span(rows)) < len(rows):
            raise ValueError("generators must be linearly independent as 4-vectors")
        if self.kind is ClassKind.TWO_PARAM_COMMUTING and not commutes(*gens):
            raise ValueError("two-param-commuting generators must commute")
        if self.kind is ClassKind.TWO_PARAM_NONCOMMUTING and commutes(*gens):
            raise ValueError("two-param-noncommuting generators must not commute")


def _span(rows) -> list[list[float]]:
    """Gram-Schmidt basis of the rows' span, in row order: each row, divided by the power of two of
    its largest |coefficient| and brought to unit length, is kept when its residual exceeds INDEPENDENCE_TOL."""
    basis = []
    for row in rows:
        v, _ = unit_scaled(row)
        if not any(v):
            continue
        n = math.hypot(*v)
        v = [x / n for x in v]
        for b in basis:
            d = sum(x * y for x, y in zip(v, b))
            v = [x - d * y for x, y in zip(v, b)]
        n = math.hypot(*v)
        if n > INDEPENDENCE_TOL:
            basis.append([x / n for x in v])
    return basis


def canonicalize(generators) -> ObservableClass:
    """Reduce an arbitrary generator list to a classified ObservableClass.

    The basis is _span of the 4-vector coefficients, the constructor's own
    independence test. One survivor gives a one-parameter class; two
    survivors are split by commutation; three or more are completed with
    the Pauli basis to a basis of the full span and classified general.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("at least one generator is required")
    basis = _span([g.coeffs.tolist() for g in gens])
    if not basis:
        raise ValueError("generators span only the zero observable")
    if len(basis) >= 3:
        return ObservableClass(ClassKind.GENERAL, tuple(Observable(b) for b in _span(basis + np.eye(4).tolist())))
    gens = tuple(Observable(b) for b in basis)
    if len(gens) == 1:
        return ObservableClass(ClassKind.ONE_PARAM, gens)
    kind = ClassKind.TWO_PARAM_COMMUTING if commutes(*gens) else ClassKind.TWO_PARAM_NONCOMMUTING
    return ObservableClass(kind, gens)


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
