"""Minimax descent by sequential quadratic programming.

minimize minimizes the max of a few smooth functions, kinked wherever two of them tie, from one
start: SQP on the epigraph form with analytic gradients, a damped BFGS inverse Hessian and a
backtracking line search. A step's linear algebra is a few ndarray.dot calls (the BLAS of @ at half
its call cost) on 12-14 coordinates; its dual QP, over at most 8 pairs, runs on plain floats.
"""

from __future__ import annotations

import math
from operator import mul

import numpy as np


def minimize(fun, x0, maxfev, bounds=None, ftarget=None):
    """Minimize max_i phi_i(x) from x0 by SQP on the epigraph form, min t s.t. phi_i(x) <= t.

    fun(x) returns (f, rows): f an increasing function of max_i phi_i (the defect), and rows() the list
    of pairs (phi_i, jac_i) at x, a value and its gradient. The first call evaluates fun(x0); a start
    whose f is not finite is returned at once. Each step solves the QP
    min s + d.H.d / 2 s.t. phi_i + jac_i.d <= max(phi) + s through its dual (_simplex_qp), with H
    Powell's damped BFGS approximation of the Lagrangian's Hessian, kept as B = H^-1, so a step is
    s = alpha d with d = B.jac^T.lam and alpha = -1, -1/2, ... (exact sign flips), and H.s = alpha
    jac^T.lam for the update; it halves alpha until f drops below its current value. A point outside
    bounds, a sequence of (low, high) pairs, is clipped into the box, and a clipped step solves
    B.(H.s) = s. Stops on a failed line search, a relative decrease below 1e-15, a predicted decrease
    at rounding level, empty rows, a value below ftarget, or after maxfev calls of fun and rows, the
    start's included. Each step calls the rows of the point it steps from, the start or the last
    accepted trial, once. Returns (x, f, nfev), f = fun(x)[0] <= fun(x0)[0].
    """
    x = [float(v) for v in x0]
    (f, rows), nfev = fun(x), 1
    if not math.isfinite(f):
        return x, f, nfev
    lo, hi = (None, None) if bounds is None else np.array(bounds, dtype=float).T
    here, inv, support = np.array(x), None, None
    while nfev < maxfev and not (ftarget is not None and f < ftarget):
        pairs = rows()
        nfev += 1
        if not pairs:
            break
        phi, grads = zip(*pairs)
        jac = np.array(grads, dtype=float)
        if inv is None:
            inv, support = np.eye(len(x)), [phi.index(max(phi))]
        else:
            _bfgs_update(inv, step, lam.dot(jac - last), hs)
        top = max(phi)
        lam, predicted = _simplex_qp(jac.dot(inv).dot(jac.T).tolist(), [top - p for p in phi], support)
        if not predicted > 1e-15 * top:
            break
        lam = np.array(lam)
        grad = lam.dot(jac)
        d, alpha = inv.dot(grad), -1.0
        while True:
            ad = alpha * d
            raw = here + ad
            trial = raw if lo is None else np.clip(raw, lo, hi)
            point = trial.tolist()
            if nfev == maxfev or point == x:
                return x, f, nfev
            ft, trial_rows = fun(point)
            nfev += 1
            if ft < f:
                break
            alpha *= 0.5
        # A step that a bound clipped is no multiple of d, so its H.s takes a solve.
        clipped = trial is not raw and point != raw.tolist()
        step = trial - here if clipped else ad
        hs = np.linalg.solve(inv, step) if clipped else alpha * grad
        last, stalled = jac, f - ft <= 1e-15 * f
        here, x, f, rows = trial, point, ft, trial_rows
        if stalled:
            break
    return x, f, nfev


def _bfgs_update(inv, s, y, hs):
    """Powell's damped BFGS update, in place, of inv = H^-1, given hs = H.s.

    Where s.y < 0.2 s.H.s, y is mixed with H.s up to s.y = 0.2 s.H.s; where s.H.s <= 0 nothing changes.
    The new inv is the exact inverse of H + y.y^T / s.y - H.s.s^T.H / s.H.s, inv + t + t^T with
    t = s.z^T and z = (1 + y.inv.y / s.y) s / (2 s.y) - inv.y / s.y, so it stays exactly symmetric.
    """
    shs = float(s.dot(hs))
    if not shs > 0.0:
        return
    sy = float(s.dot(y))
    if sy < 0.2 * shs:
        theta = 0.8 * shs / (shs - sy)
        y = theta * y + (1.0 - theta) * hs
        sy = float(s.dot(y))
    u = inv.dot(y)
    t = np.multiply.outer(s, ((1.0 + float(y.dot(u)) / sy) / (2.0 * sy)) * s - u / sy)
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
    positive), or, at the minimum, adds the index j whose multiplier w_j - w_l is most negative, if it is
    below rounding: -1e-15 times the larger of |gap_i| + sum_k |M_ik lam_k| for i = j, l, the size of w's terms.
    """
    n = len(gap)
    lam, outside = [0.0] * n, [True] * n
    for i in support:
        lam[i], outside[i] = 1.0 / len(support), False
    for _ in range(4 * n):
        l, others = support[-1], support[:-1]
        ml, mll, wl = m[l], m[l][l], m[l][l] + gap[l]
        p, singular = _solve([[mi[j] - ml[j] - c for j in others] + [wl - mi[l] - gap[i]]
                              for i in others for mi, c in [(m[i], m[i][l] - mll)]])
        cur = [lam[i] for i in support]
        # p becomes the face's multipliers or, if singular, its null vector, and then the move.
        if singular:
            p.append(-sum(p))
            w = [g + sum(map(mul, row, lam)) for g, row in zip(gap, m)]
            if sum(w[i] * v for i, v in zip(support, p)) > 0.0:
                p = [-v for v in p]
            blocking = [(c / -v, k) for k, (c, v) in enumerate(zip(cur, p)) if v < 0.0]
        else:
            p.append(1.0 - sum(p))
            blocking = [(c / (c - v) if c > 0.0 else 0.0, k) for k, (c, v) in enumerate(zip(cur, p)) if not v > 0.0]
            p = [v - c for v, c in zip(p, cur)]
        t, k = min(blocking, default=(1.0, None))
        for i, c, v in zip(support, cur, p):
            lam[i] = c + t * v
        if k is not None:
            i = support.pop(k)
            lam[i], outside[i] = 0.0, True
            continue
        w = [g + sum(map(mul, row, lam)) for g, row in zip(gap, m)]
        if len(support) == n:
            return lam, min(w)
        j = min((i for i in range(n) if outside[i]), key=w.__getitem__)
        # Only a negative multiplier can enter, and most of the searches' tests here see none, so the
        # size of w's terms is summed only for a negative one.
        shift = w[j] - w[l]
        if not shift < 0.0 or not shift < -1e-15 * max(
                abs(gap[i]) + sum(map(abs, map(mul, m[i], lam))) for i in (j, l)):
            return lam, min(w)
        support.append(j)
        outside[j] = False
    return lam, min(g + sum(map(mul, row, lam)) for g, row in zip(gap, m))


def _solve(a):
    """Solve the positive semidefinite system with augmented rows a, in place, by Gaussian elimination without pivoting.

    Returns (x, False), or, at the first pivot that is not positive, (v, True) with v a null vector.
    """
    n = end = len(a)
    for c, pivot in enumerate(a):
        if not pivot[c] > 0.0:
            # Column c is a combination of the ones before it: back-substitute for v with v_c = 1.
            end = c
            break
        for row in a[c + 1 :]:
            f = row[c] / pivot[c]
            for k in range(c + 1, n + 1):
                row[k] -= f * pivot[k]
    x = [0.0] * (n + 1)
    x[end] = 1.0
    for r in reversed(range(end)):
        x[r] = ((a[r][n] if end == n else -a[r][end]) - sum(map(mul, a[r][r + 1 : end], x[r + 1 : end]))) / a[r][r]
    return x[:n], end < n
