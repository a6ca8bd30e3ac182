"""Search for cloning machines, and numerical no-go floors.

The search space is a 12-angle family: a signal-side pre-rotation, the
three-axis entangling kernel, and one post-rotation per output branch,
always with probe |0><0|. Approximate mode adds the two gains as free
coordinates. Every machine construction in this package lives in this
family up to relabeling, and a restarted search over it (search_machine,
the package's one floor estimator) either produces an explicit machine
witness or, for classes that admit none, a strictly positive defect floor
that certifies the failure numerically (evidence, not a proof).

The optimizer never builds a unitary: with the probe pinned, each output
branch acts on Pauli coefficients as a real 3x4 transfer matrix whose
entries are closed forms in the 12 angles (see _objective). Each restart
descends with obsclone.optimize.minimize, SQP on the minimax of the
squared branch-generator defects. It takes the one callable _objective
returns, defect(x, rows=None), which also appends each squared defect and
its analytic gradient to rows when given that list. The module needs
numpy alone.
MODES and SearchConfig's field defaults are the search surface the
command line offers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import optimize
from .classes import ObservableClass
from .linalg import SIGMA0, integer, is_real, pauli_rotation, reals, tensor, unit_scaled
from .machines import (
    KET0,
    OVERFLOW_MESSAGE,
    CloningMachine,
    entangling_kernel,
    overflowing_generator,
    verify_approximate,
    verify_exact,
)

MODES = ("exact", "approximate")
# The four rotation-angle triples of a search point, in coordinate order.
_ANGLE_BLOCKS = ("local_pre", "entangling", "local_post_1", "local_post_2")
GAIN_BOUNDS = (1.0, 100.0)

# Defect floor for the {sigma1, sigma2} noncommuting pair: the best exact
# machine shrinks both branch copies by 1/sqrt(2), leaving
# ||(1 - 1/sqrt(2)) sigma||_F = sqrt(2) - 1 behind on each.
X_NC_DEFECT_FLOOR = math.sqrt(2.0) - 1.0


@dataclass(frozen=True, eq=False)
class SearchSpacePoint:
    """Coordinates of one candidate machine in the 12-angle family."""

    local_pre: tuple[float, float, float]
    entangling: tuple[float, float, float]
    local_post_1: tuple[float, float, float]
    local_post_2: tuple[float, float, float]
    gains: tuple[float, float] | None = None

    def __post_init__(self):
        for name in _ANGLE_BLOCKS:
            object.__setattr__(self, name, reals(getattr(self, name), name, 3))
        if self.gains is not None:
            object.__setattr__(self, "gains", reals(self.gains, "gains", 2))

    def unitary(self) -> np.ndarray:
        post = tensor(pauli_rotation(self.local_post_1), pauli_rotation(self.local_post_2))
        pre = tensor(pauli_rotation(self.local_pre), SIGMA0)
        return post @ entangling_kernel(*self.entangling) @ pre

    @classmethod
    def from_vector(cls, v) -> "SearchSpacePoint":
        if np.shape(v) not in ((12,), (14,)):
            raise ValueError("expected 12 angles, optionally followed by 2 gains")
        v = reals(v, "v", len(v))
        return cls(v[0:3], v[3:6], v[6:9], v[9:12], v[12:] or None)

    def to_dict(self) -> dict:
        return {
            "local_pre": list(self.local_pre),
            "entangling": list(self.entangling),
            "local_post_1": list(self.local_post_1),
            "local_post_2": list(self.local_post_2),
            "gains": None if self.gains is None else list(self.gains),
        }

    @classmethod
    def from_dict(cls, data) -> "SearchSpacePoint":
        """Inverse of to_dict; a malformed entry raises ValueError naming its field."""
        if not isinstance(data, dict):
            raise ValueError("malformed search point: expected a JSON object")
        missing = [name for name in _ANGLE_BLOCKS if name not in data]
        if missing:
            raise ValueError(f"malformed search point: missing {', '.join(missing)}")
        return cls(*(data[name] for name in _ANGLE_BLOCKS), data.get("gains"))


@dataclass(frozen=True)
class SearchConfig:
    restarts: int = 50
    max_evals: int = 4000
    seed: int = 0
    tol: float = 1e-6

    def __post_init__(self):
        for name, low in (("restarts", 1), ("max_evals", 1), ("seed", 0)):
            object.__setattr__(self, name, integer(getattr(self, name), name, low))
        if not (is_real(self.tol) and self.tol > 0):
            raise ValueError("tol must be a positive real")


@dataclass(frozen=True, eq=False)
class SearchResult:
    best_point: SearchSpacePoint
    best_defect: float
    restarts: int
    evaluations: int
    seed: int
    converged: bool


def cloning_defect(p: SearchSpacePoint, cls: ObservableClass, mode: str) -> float:
    """Worst copying residual of the machine at p, over generators and branches."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    m = CloningMachine(p.unitary(), KET0, cls, p.gains)
    if mode == "approximate":
        if p.gains is None:
            raise ValueError("approximate mode needs gains in the search point")
        return verify_approximate(m, tol=np.inf).max_defect
    return verify_exact(m, tol=np.inf).max_defect


def _conjugation(a: float, b: float, c: float) -> tuple:
    """Row-major Q with W† sigma_j W = sum_k Q[j, k] sigma_k, W = exp(i v.sigma).

    Q is the transpose of the rotation by 2|v| about v; 1 - cos as 2 sin^2 avoids cancellation.
    """
    t = math.sqrt(a * a + b * b + c * c)
    if t == 0.0:
        return (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)
    s = math.sin(t)
    ss = 2.0 * s * s
    cp = 1.0 - ss
    sp = 2.0 * s * math.cos(t) / t
    k = ss / (t * t)
    ka, kb = k * a, k * b
    kab, kac, kbc = ka * b, ka * c, kb * c
    return (
        cp + ka * a, kab + sp * c, kac - sp * b,
        kab - sp * c, cp + kb * b, kbc + sp * a,
        kac + sp * b, kbc - sp * a, cp + k * c * c,
    )


def _conjugation_gradient(a: float, b: float, c: float) -> tuple:
    """Row-major D with d(Q)/dv_m = -Q [D^T e_m]x for Q = _conjugation(v); D is twice SO(3)'s left Jacobian, transposed.

    So a scalar that depends on Q through u = a^T Q, with gradient eta in u,
    has gradient D (u x eta) in v. Below t = 0.05 the coefficient of v v^T
    is its Taylor series, which avoids the cancellation in 2t - sin 2t.
    """
    tt = a * a + b * b + c * c
    t = math.sqrt(tt)
    if t == 0.0:
        return (2.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 2.0)
    s = math.sin(t)
    sp = 2.0 * s * math.cos(t) / t
    k = 2.0 * s * s / tt
    if t < 0.05:
        h = 4.0 / 3.0 - tt * (4.0 / 15.0 - tt * (8.0 / 315.0 - tt * 4.0 / 2835.0))
    else:
        h = (2.0 * t - math.sin(2.0 * t)) / (tt * t)
    return (
        sp + h * a * a, k * c + h * a * b, h * a * c - k * b,
        h * a * b - k * c, sp + h * b * b, k * a + h * b * c,
        k * b + h * a * c, h * b * c - k * a, sp + h * c * c,
    )


def _objective(cls: ObservableClass, mode: str):
    """Defect as a plain function of the coordinate vector (hot path), and on request the descent's rows.

    Branch b maps the traceless part a of a generator to the lift
    coefficients a . T_b, where T_b = Q(post_b) K_b diag(1, Q(pre)) is a
    real 3x4 transfer matrix (columns I, sigma1, sigma2, sigma3) and K_b
    holds the entangling kernel's closed form under probe |0><0|:

        K_1 = [[0, c2 c3, c2 s3, 0], [0, -c1 s3, c1 c3, 0], [s1 s2, 0, 0, c1 c2]]
        K_2 = [[0, s2 s3, -s2 c3, 0], [0, s1 c3, s1 s3, 0], [c1 c2, 0, 0, s1 s2]]

    with c_l, s_l the cosine and sine of entangling angle l; the identity
    part lifts to itself. Plain floats, because numpy's per-call cost
    dwarfs arithmetic on arrays this small. Each generator enters divided
    by the power of two 2**e of its largest entry, and its squared defect
    phi is weighted by 4**(e - top), top the largest e, so defect(x) is
    sqrt(max phi) * 2**top: exact, so ordinary classes give the same bits,
    while rows near either end of the float range neither overflow nor
    underflow to zero. A class whose traceless parts could carry a defect
    past the float range is refused; identity parts never enter.

    defect(x, rows) returns the same value and appends (phi, its gradient
    in x) for generator i on branch b + 1 to the list rows, at index b G' + i,
    where i counts only the G' generators with a nonzero traceless part:
    every machine copies the others, so they get no pair. The rotations
    differentiate through _conjugation_gradient.
    """
    approximate = mode == "approximate"
    i = overflowing_generator(cls, GAIN_BOUNDS[1] if approximate else 1.0, bloch_only=True)
    if i is not None:
        raise ValueError(f"generators[{i}] in {mode} mode: {OVERFLOW_MESSAGE}")
    gens = [unit_scaled(g.coeffs[1:].tolist()) for g in cls.generators]
    top = max((e for a, e in gens if any(a)), default=0)
    # phi = weight * |r|^2, and 2 * weight scales the gradient of |r|^2 / 2.
    gens = [(*a, math.ldexp(2.0, 2 * (e - top))) for a, e in gens if any(a)]

    def defect(x, rows=None) -> float:
        p0, p1, p2, p3, p4, p5, p6, p7, p8 = _conjugation(x[0], x[1], x[2])
        c1, c2, c3 = math.cos(x[3]), math.cos(x[4]), math.cos(x[5])
        s1, s2, s3 = math.sin(x[3]), math.sin(x[4]), math.sin(x[5])
        g1, g2 = (x[12], x[13]) if approximate else (1.0, 1.0)
        if rows is not None:
            dp0, dp1, dp2, dp3, dp4, dp5, dp6, dp7, dp8 = _conjugation_gradient(x[0], x[1], x[2])
            # d/d(theta_l), l = 1, 2, 3, of each branch's kern entries. Each is a product of one
            # cosine or sine per angle, and c_l' = -s_l, s_l' = c_l.
            dkerns = (
                (
                    (c1 * s2, 0.0, 0.0, s1 * s3, -s1 * c3, -s1 * c2),
                    (s1 * c2, -s2 * c3, -s2 * s3, 0.0, 0.0, -c1 * s2),
                    (0.0, -c2 * s3, c2 * c3, -c1 * c3, -c1 * s3, 0.0),
                ),
                (
                    (-s1 * c2, 0.0, 0.0, c1 * c3, c1 * s3, c1 * s2),
                    (-c1 * s2, c2 * s3, -c2 * c3, 0.0, 0.0, s1 * c2),
                    (0.0, s2 * c3, s2 * s3, -s1 * s3, s1 * c3, 0.0),
                ),
            )
        worst = 0.0
        for b, j, (q0, q1, q2, q3, q4, q5, q6, q7, q8), (k20, k01, k02, k11, k12, k23), gain in (
            (0, 6, _conjugation(x[6], x[7], x[8]), (s1 * s2, c2 * c3, c2 * s3, -c1 * s3, c1 * c3, c1 * c2), g1),
            (1, 9, _conjugation(x[9], x[10], x[11]), (c1 * c2, s2 * s3, -s2 * c3, s1 * c3, s1 * s3, s1 * s2), g2),
        ):
            if rows is not None:
                dq0, dq1, dq2, dq3, dq4, dq5, dq6, dq7, dq8 = _conjugation_gradient(*x[j : j + 3])
                (d10, d11, d12, d13, d14, d15), (d20, d21, d22, d23, d24, d25), (d30, d31, d32, d33, d34, d35) = dkerns[b]
            for a1, a2, a3, weight in gens:
                u1 = a1 * q0 + a2 * q3 + a3 * q6
                u2 = a1 * q1 + a2 * q4 + a3 * q7
                u3 = a1 * q2 + a2 * q5 + a3 * q8
                w1 = u1 * k01 + u2 * k11
                w2 = u1 * k02 + u2 * k12
                w3 = u3 * k23
                r0 = u3 * k20
                y1 = w1 * p0 + w2 * p3 + w3 * p6
                y2 = w1 * p1 + w2 * p4 + w3 * p7
                y3 = w1 * p2 + w2 * p5 + w3 * p8
                r1, r2, r3 = gain * y1 - a1, gain * y2 - a2, gain * y3 - a3
                phi = weight * (r0 * r0 + r1 * r1 + r2 * r2 + r3 * r3)
                if phi > worst:
                    worst = phi
                if rows is None:
                    continue
                # gain * z is the gradient of |r|^2 / 2 in w.
                z1 = gain * (p0 * r1 + p1 * r2 + p2 * r3)
                z2 = gain * (p3 * r1 + p4 * r2 + p5 * r3)
                z3 = gain * (p6 * r1 + p7 * r2 + p8 * r3)
                # Its gradient in u is e, and in the six kernel entries t.
                e1, e2, e3 = z1 * k01 + z2 * k02, z1 * k11 + z2 * k12, r0 * k20 + z3 * k23
                t0, t1, t2, t3, t4, t5 = r0 * u3, z1 * u1, z2 * u1, z1 * u2, z2 * u2, z3 * u3
                # Rotations: gain * D_pre (a x y) and D_b (u x e).
                m = 2.0 * weight
                gm = gain * m
                x1, x2, x3 = a2 * y3 - a3 * y2, a3 * y1 - a1 * y3, a1 * y2 - a2 * y1
                o1, o2, o3 = u2 * e3 - u3 * e2, u3 * e1 - u1 * e3, u1 * e2 - u2 * e1
                row = [0.0] * len(x)
                row[0] = gm * (dp0 * x1 + dp1 * x2 + dp2 * x3)
                row[1] = gm * (dp3 * x1 + dp4 * x2 + dp5 * x3)
                row[2] = gm * (dp6 * x1 + dp7 * x2 + dp8 * x3)
                row[3] = m * (t0 * d10 + t1 * d11 + t2 * d12 + t3 * d13 + t4 * d14 + t5 * d15)
                row[4] = m * (t0 * d20 + t1 * d21 + t2 * d22 + t3 * d23 + t4 * d24 + t5 * d25)
                row[5] = m * (t0 * d30 + t1 * d31 + t2 * d32 + t3 * d33 + t4 * d34 + t5 * d35)
                row[j] = m * (dq0 * o1 + dq1 * o2 + dq2 * o3)
                row[j + 1] = m * (dq3 * o1 + dq4 * o2 + dq5 * o3)
                row[j + 2] = m * (dq6 * o1 + dq7 * o2 + dq8 * o3)
                if approximate:
                    row[12 + b] = m * (y1 * r1 + y2 * r2 + y3 * r3)
                rows.append((phi, row))
        return math.ldexp(math.sqrt(worst), top)

    return defect


def _bounds(approximate: bool):
    if not approximate:
        return None
    return [(-2.0 * np.pi, 2.0 * np.pi)] * 12 + [GAIN_BOUNDS] * 2


def search_machine(cls: ObservableClass, mode: str, config: SearchConfig = SearchConfig()) -> SearchResult:
    """Minimize the cloning defect from seeded random starts.

    Deterministic for a fixed config: restarts draw their starting
    vectors from one seeded stream, each descends by SQP steps on the max
    of the squared defects of every branch and generator, with analytic
    gradients, within max_evals evaluations (its start's included) and
    until it scores below tol * 1e-3, and the search stops early once the
    defect passes below tol. Floors that do not converge therefore sit at
    the bottom of their basin, at their closed forms where one is known
    (sqrt(2) - 1 for sigma1/sigma2).
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    approximate = mode == "approximate"
    fun = _objective(cls, mode)
    bounds = _bounds(approximate)
    rng = np.random.default_rng(config.seed)
    ftarget = config.tol * 1e-3
    best_x = None
    best_f = np.inf
    evals = 0
    performed = 0
    for _ in range(config.restarts):
        x0 = rng.uniform(-np.pi, np.pi, 12)
        if approximate:
            x0 = np.concatenate([x0, rng.uniform(1.0, 4.0, 2)])
        x, f, n = optimize.minimize(fun, x0, config.max_evals, bounds, ftarget)
        evals += n
        performed += 1
        if f < best_f:
            best_x, best_f = x, f
        if best_f < config.tol:
            break
    if best_x is None:
        raise ValueError("no start gave a finite defect")
    point = SearchSpacePoint.from_vector(best_x)
    return SearchResult(
        best_point=point,
        best_defect=best_f,
        restarts=performed,
        evaluations=evals,
        seed=config.seed,
        converged=bool(best_f < config.tol),
    )


def result_to_dict(r: SearchResult) -> dict:
    return {
        "best_point": r.best_point.to_dict(),
        "best_defect": r.best_defect,
        "restarts": r.restarts,
        "evaluations": r.evaluations,
        "seed": r.seed,
        "converged": r.converged,
    }
