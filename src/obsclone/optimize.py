"""Minimax descent by sequential quadratic programming.

minimize minimizes the max of a few smooth functions, kinked wherever two of them tie, from one
start: SQP on the epigraph form with analytic gradients, a damped BFGS inverse Hessian and a
backtracking line search. A step's linear algebra is a few numpy calls on 12-14 coordinates; its
dual QP, over at most 8 pairs, runs on plain floats, where numpy's per-call cost would dwarf it.
"""

from __future__ import annotations

import math
from operator import mul

import numpy as np


def minimize(fun, x0, maxfev, bounds=None, ftarget=None):
    """Minimize max_i phi_i(x) from x0 by SQP on the epigraph form, min t s.t. phi_i(x) <= t.

    fun(x) is an increasing function of max_i phi_i (the defect), and fun(x, rows) returns the same
    value and appends each pair (phi_i, jac_i), a value and its gradient, to rows. The first call
    evaluates fun(x0); a start whose value is not finite is returned at once. Each step solves the QP
    min s + d.H.d / 2 s.t. phi_i + jac_i.d <= max(phi) + s through its dual (_simplex_qp), with H
    Powell's damped BFGS approximation of the Lagrangian's Hessian, kept as B = H^-1, so d =
    -B.jac^T.lam and a step s = alpha d has H.s = -alpha jac^T.lam for the update; it halves d until
    fun drops below its current value. A point outside bounds, a sequence of (low, high) pairs, is
    clipped into the box, and a clipped step solves B.(H.s) = s. Stops on a failed line search, a
    relative decrease below 1e-15, a predicted decrease at rounding level, a value below ftarget, or
    after maxfev calls of fun, the start's included. Returns (x, f, nfev) with f = fun(x) <= fun(x0).
    """
    x = [float(v) for v in x0]
    f, nfev = fun(x), 1
    if not math.isfinite(f):
        return x, f, nfev
    lo, hi = (None, None) if bounds is None else np.array(bounds, dtype=float).T
    here, inv, support = np.array(x), None, None
    while nfev < maxfev and not (ftarget is not None and f < ftarget):
        rows = []
        fun(x, rows)
        nfev += 1
        phi, grads = zip(*rows)
        jac = np.array(grads, dtype=float)
        if inv is None:
            inv, support = np.eye(len(x)), [phi.index(max(phi))]
        else:
            _bfgs_update(inv, step, lam @ (jac - last), hs)
        top = max(phi)
        lam, predicted = _simplex_qp((jac @ inv @ jac.T).tolist(), [top - p for p in phi], support)
        if not predicted > 1e-15 * top:
            break
        lam = np.array(lam)
        grad = lam @ jac
        d, alpha = -(inv @ grad), 1.0
        while True:
            raw = here + alpha * d
            trial = raw if lo is None else np.clip(raw, lo, hi)
            point = trial.tolist()
            if nfev == maxfev or point == x:
                return x, f, nfev
            ft = fun(point)
            nfev += 1
            if ft < f:
                break
            alpha *= 0.5
        # A step that a bound clipped is no multiple of d, so its H.s takes a solve.
        clipped = trial is not raw and point != raw.tolist()
        step = trial - here if clipped else alpha * d
        hs = np.linalg.solve(inv, step) if clipped else -alpha * grad
        last, stalled = jac, f - ft <= 1e-15 * f
        here, x, f = trial, point, ft
        if stalled:
            break
    return x, f, nfev


def _bfgs_update(inv, s, y, hs):
    """Powell's damped BFGS update, in place, of inv = H^-1, given hs = H.s.

    Where s.y < 0.2 s.H.s, y is mixed with H.s up to s.y = 0.2 s.H.s; where s.H.s <= 0 nothing changes.
    The new inv is the exact inverse of H + y.y^T / s.y - H.s.s^T.H / s.H.s, inv + t + t^T with
    t = s.z^T and z = (1 + y.inv.y / s.y) s / (2 s.y) - inv.y / s.y, so it stays exactly symmetric.
    """
    shs = s @ hs
    if not shs > 0.0:
        return
    sy = s @ y
    if sy < 0.2 * shs:
        theta = 0.8 * shs / (shs - sy)
        y = theta * y + (1.0 - theta) * hs
        sy = s @ y
    u = inv @ y
    t = np.multiply.outer(s, ((1.0 + y @ u / sy) / (2.0 * sy)) * s - u / sy)
    inv += t + t.T


def _simplex_qp(m, gap, support):
    """Multipliers lam of the QP min s + d.H.d / 2 s.t. jac.d - s <= gap, and its predicted decrease -s.

    Its dual is min lam.M.lam / 2 + gap.lam over the simplex, with M = jac H^-1 jac^T (m, nested lists),
    d = -H^-1 jac^T lam and -s = min(gap + M.lam). A primal active set solves it on plain floats from the
    uniform lam on support, the last step's support (edited in place). Each round minimizes the dual on
    the support's affine hull, lam = e_l + Z.p with l the support's last index and Z = [I; -1^T], through
    the positive semidefinite Z^T.M.Z p = -Z^T (M e_l + gap); where that is singular, the dual is linear
    along its null vector, and the round goes downhill along it. It moves as far as lam >= 0 allows and
    drops the index that blocks (one that just entered at 0 blocks at once unless its new multiplier is
    positive), or, at the minimum, adds the index whose multiplier is most negative.
    """
    lam = [1.0 / len(support) if i in support else 0.0 for i in range(len(gap))]
    gradient = lambda: [g + sum(map(mul, row, lam)) for g, row in zip(gap, m)]
    for _ in range(4 * len(gap)):
        *others, l = support
        ml, wl = m[l], m[l][l] + gap[l]
        p, singular = _solve([[mi[j] - ml[j] - c for j in others] + [wl - mi[l] - gap[i]]
                              for i in others for mi, c in [(m[i], m[i][l] - ml[l])]])
        cur = [lam[i] for i in support]
        if singular:
            w, null = gradient(), p + [-sum(p)]
            move = [-v for v in null] if sum(w[i] * v for i, v in zip(support, null)) > 0.0 else null
            blocking = [(c / -v, k) for k, (c, v) in enumerate(zip(cur, move)) if v < 0.0]
        else:
            new = p + [1.0 - sum(p)]
            move = [v - c for v, c in zip(new, cur)]
            blocking = [(c / -v if c > 0.0 else 0.0, k) for k, (c, v) in enumerate(zip(cur, move)) if not new[k] > 0.0]
        t, k = min(blocking, default=(1.0, None))
        for i, c, v in zip(support, cur, move):
            lam[i] = c + t * v
        if k is not None:
            lam[support[k]] = 0.0
            del support[k]
            continue
        w = gradient()
        j = min((j for j in range(len(gap)) if j not in support), key=w.__getitem__, default=None)
        if j is None or not w[j] - w[l] < -1e-15 * abs(w[l]):
            return lam, min(w)
        support.append(j)
    return lam, min(gradient())


def _solve(a):
    """Solve the positive semidefinite system with augmented rows a by Gaussian elimination without pivoting.

    Returns (x, False), or, at the first pivot that is not positive, (v, True) with v a null vector.
    """
    upper, null = [], []
    for c in range(len(a)):
        pivot = a.pop(0)
        if not pivot[0] > 0.0:
            # Column c is a combination of the ones before it: back-substitute for v with v_c = 1.
            upper = [row[: c - r] + [-row[c - r]] for r, row in enumerate(upper)]
            null = [1.0] + [0.0] * len(a)
            break
        upper.append(pivot)
        a = [[x - f * y for x, y in zip(row[1:], pivot[1:])] for row in a for f in [row[0] / pivot[0]]]
    x = []
    for row in reversed(upper):
        x.insert(0, (row[-1] - sum(map(mul, row[1:], x))) / row[0])
    return x + null, bool(null)
