"""Minimax descent by sequential quadratic programming.

minimize minimizes the max of a few smooth functions, which is kinked
wherever two of them tie, from one start: SQP on the epigraph form with
analytic gradients, a damped BFGS Hessian and a backtracking line search.
"""

from __future__ import annotations

import math

import numpy as np


def minimize(fun, x0, maxfev, bounds=None, ftarget=None):
    """Minimize max_i phi_i(x) from x0 by SQP on the epigraph form, min t s.t. phi_i(x) <= t.

    fun(x) is an increasing function of max_i phi_i (the defect), and
    fun(x, rows) returns the same value and appends each pair (phi_i,
    jac_i), a value and its gradient, to rows. The first call evaluates
    fun(x0); a start whose value is not finite is returned at once. Each
    step solves the QP min s + d.H.d / 2 s.t. phi_i + jac_i.d <= max(phi) + s
    through its dual (_simplex_qp), with H Powell's damped BFGS
    approximation of the Lagrangian's Hessian, then halves d until fun
    drops below its current value; a point outside bounds, a sequence of
    (low, high) pairs, is clipped into the box. Stops on a failed line
    search, a relative decrease below 1e-15, a predicted decrease at
    rounding level, a value below ftarget, or after maxfev calls of fun,
    the start's included. Returns (x, f, nfev) with f = fun(x) <= fun(x0).
    """
    x = [float(v) for v in x0]
    f, nfev = fun(x), 1
    if not math.isfinite(f):
        return x, f, nfev
    lo, hi = (None, None) if bounds is None else np.array(bounds, dtype=float).T
    hess = support = None
    while nfev < maxfev and not (ftarget is not None and f < ftarget):
        rows = []
        fun(x, rows)
        nfev += 1
        phi, jac = (np.array(v) for v in zip(*rows))
        if hess is None:
            hess, support = np.eye(len(x)), [int(np.argmax(phi))]
        else:
            _bfgs_update(hess, step, lam @ (jac - last))
        gap = phi.max() - phi
        lam, d = _simplex_qp(hess, jac, gap, support)
        # -s at the QP's solution: the decrease of max(phi) that the linear model predicts.
        if not (gap - jac @ d).min() > 1e-15 * phi.max():
            break
        here, alpha = np.array(x), 1.0
        while True:
            trial = here + alpha * d
            trial = (trial if lo is None else np.clip(trial, lo, hi)).tolist()
            if nfev == maxfev or trial == x:
                return x, f, nfev
            ft = fun(trial)
            nfev += 1
            if ft < f:
                break
            alpha *= 0.5
        step, last = np.array(trial) - here, jac
        x, f, stalled = trial, ft, f - ft <= 1e-15 * f
        if stalled:
            break
    return x, f, nfev


def _bfgs_update(hess, s, y):
    """Powell's damped BFGS update of hess, in place: the curvature s.y is kept at least 0.2 s.H.s."""
    hs = hess @ s
    shs = s @ hs
    if not shs > 0.0:
        return
    sy = s @ y
    if sy < 0.2 * shs:
        theta = 0.8 * shs / (shs - sy)
        y = theta * y + (1.0 - theta) * hs
        sy = s @ y
    hess += np.outer(y, y) / sy - np.outer(hs, hs) / shs


def _simplex_qp(hess, jac, gap, support):
    """Multipliers lam and step d of the QP min s + d.H.d / 2 s.t. jac.d - s <= gap.

    Its dual is min lam.M.lam / 2 + gap.lam over the simplex lam >= 0, sum
    lam = 1, with M = jac H^-1 jac^T and d = -H^-1 jac^T lam. A primal active
    set solves it from the uniform lam on support, the last step's support
    (edited in place): each round solves the KKT system of the support,
    steps as far toward its solution as lam >= 0 allows, dropping a blocking
    index, or, at that solution, adds the index whose multiplier is most
    negative.
    """
    hj = np.linalg.solve(hess, jac.T)
    m = jac @ hj
    lam = np.zeros(len(gap))
    lam[support] = 1.0 / len(support)
    for _ in range(4 * len(gap)):
        ns = len(support)
        kkt = np.ones((ns + 1, ns + 1))
        kkt[:ns, :ns] = m[support][:, support]
        kkt[:ns, ns] = -1.0
        kkt[ns, ns] = 0.0
        rhs = np.ones(ns + 1)
        rhs[:ns] = -gap[support]
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            break
        new, mu = sol[:ns], sol[ns]
        cur = lam[support]
        if (new > 0.0).all():
            lam[support] = new
            nu = m @ lam + gap - mu
            nu[support] = np.inf
            j = int(np.argmin(nu))
            if not nu[j] < -1e-15 * abs(mu):
                break
            support.append(j)
        else:
            blocked = new <= 0.0
            ratios = cur[blocked] / (cur[blocked] - new[blocked])
            i = int(np.flatnonzero(blocked)[np.argmin(ratios)])
            lam[support] = cur + ratios.min() * (new - cur)
            lam[support[i]] = 0.0
            del support[i]
    return lam, -hj @ lam
