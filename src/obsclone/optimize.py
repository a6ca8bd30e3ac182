"""Adaptive Nelder-Mead simplex descent on plain Python floats, and an SQP minimax polish.

minimize is a transcription of scipy 1.17's Nelder-Mead
(`method="Nelder-Mead"`, `adaptive=True`, `xatol=1e-10`, `fatol=1e-14`)
that keeps its arithmetic step for step: the same initial simplex, the
same reflection, expansion, contraction and shrink formulas in the same
operation order, the centroid summed row by row as numpy's axis-0
`add.reduce` does (kept as running prefix sums, so an iteration re-adds
only the rows at or after the replaced vertex's rank), numpy's order for
tied vertices, and the evaluation budget cut exactly where scipy's wrapper
cuts it. A seeded descent therefore evaluates the very points scipy would.
The coefficients adapt to the dimension (Gao & Han, Comput. Optim. Appl.
51:259, 2012). Vertices are lists of floats because on a 12- or
14-dimensional simplex numpy's per-call cost exceeds the arithmetic.

polish minimizes the max of a few smooth functions from a good start, the
kink at which a simplex stalls, by sequential quadratic programming on the
epigraph form with analytic gradients.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from operator import add, lt

import numpy as np

XATOL = 1e-10
FATOL = 1e-14
NONZDELT = 0.05
ZDELT = 0.00025


class _BudgetSpent(Exception):
    """The objective was called once more than the budget allows."""


def minimize(fun, x0, maxfev, bounds=None, ftarget=None):
    """Minimize fun from x0 with at most maxfev evaluations.

    Returns (x, f, nfev): the first evaluated point with the lowest value
    (x0 itself, with f = inf, if no value was below inf), that value, and
    the evaluations spent. bounds is a sequence of (low, high) pairs: as
    in scipy, every vertex is clipped into the box, and initial vertices
    above a high bound are first reflected back inside. With ftarget, the
    descent ends after the first iteration that leaves a value below it.
    """
    n = len(x0)
    rho, chi, psi, sigma = 1, 1 + 2 / n, 0.75 - 1 / (2 * n), 1 - 1 / n
    # Trial points are a * xbar - b * worst; scipy's inside contraction adds psi * worst,
    # and subtracting -psi * worst rounds identically.
    reflect = (1 + rho, rho)
    expand = (1 + rho * chi, rho * chi)
    contract = (1 + psi * rho, psi * rho)
    inside = (1 - psi, -psi)
    best_x, best_f, nfev = [float(v) for v in x0], math.inf, 0

    def evaluate(x):
        nonlocal best_x, best_f, nfev
        if nfev >= maxfev:
            raise _BudgetSpent
        nfev += 1
        f = fun(x)
        if f < best_f:
            best_x, best_f = x, f
        return f

    if bounds is None:
        clip = None
    else:
        lo = [float(b[0]) for b in bounds]
        hi = [float(b[1]) for b in bounds]

        def clip(x):
            return [l if v < l else h if v > h else v for v, l, h in zip(x, lo, hi)]

    def trial(coeffs, xbar, worst):
        a, b = coeffs
        x = [a * v - b * w for v, w in zip(xbar, worst)]
        return x if clip is None else clip(x)

    start = best_x if clip is None else clip(best_x)
    sim = [start]
    for k in range(n):
        y = list(start)
        y[k] = (1 + NONZDELT) * y[k] if y[k] != 0 else ZDELT
        sim.append(y)
    if clip is not None:
        sim = [clip([2 * h - v if v > h else v for v, h in zip(y, hi)]) for y in sim]
    fsim = [math.inf] * (n + 1)
    try:
        for k in range(n + 1):
            fsim[k] = evaluate(sim[k])
        # scipy sorts twice here; with ties numpy's second argsort may permute them again.
        sim, fsim, _ = _sort(sim, fsim)
        sim, fsim, tied = _sort(sim, fsim)
        # prefix[k] sums rows 0..k in order, as numpy's axis-0 add.reduce does (sum() may
        # compensate); rows from rank `stale` on have changed since it was last summed.
        prefix, stale = [None] * n, 0
        while True:
            low, f0 = sim[0], fsim[0]
            if all(abs(f0 - f) <= FATOL for f in fsim[1:]) and all(
                abs(v - b) <= XATOL for y in sim[1:] for v, b in zip(y, low)
            ):
                break
            if stale < n:
                for k in range(stale, n):
                    prefix[k] = list(map(add, prefix[k - 1], sim[k])) if k else sim[0]
                xbar = [v / n for v in prefix[-1]]
            worst = sim[-1]
            xr = trial(reflect, xbar, worst)
            fxr = evaluate(xr)
            shrink = False
            if fxr < fsim[0]:
                xe = trial(expand, xbar, worst)
                fxe = evaluate(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-1]:
                xc = trial(contract, xbar, worst)
                fxc = evaluate(xc)
                shrink = not fxc <= fxr
                if not shrink:
                    sim[-1], fsim[-1] = xc, fxc
            else:
                xcc = trial(inside, xbar, worst)
                fxcc = evaluate(xcc)
                shrink = not fxcc < fsim[-1]
                if not shrink:
                    sim[-1], fsim[-1] = xcc, fxcc
            if shrink:
                for j in range(1, n + 1):
                    y = [b + sigma * (v - b) for v, b in zip(sim[j], low)]
                    sim[j] = y if clip is None else clip(y)
                    fsim[j] = evaluate(sim[j])
            f = fsim[-1]
            p = bisect_left(fsim, f, 0, n)
            if shrink or tied or f != f or (p < n and fsim[p] == f):
                sim, fsim, tied = _sort(sim, fsim)
                stale = 0
            else:
                # No two values tie, so argsort's order is unique and only the replaced
                # worst vertex can be out of place: move it to its bisection point.
                sim.insert(p, sim.pop())
                fsim.insert(p, fsim.pop())
                stale = p
            if ftarget is not None and best_f < ftarget:
                break
    except _BudgetSpent:
        pass
    return best_x, best_f, nfev


def _sort(sim, fsim):
    """Vertices and values in increasing value, and whether two values tie.

    Tied or NaN values are put in np.argsort's order, which need not be stable.
    """
    order = sorted(range(len(fsim)), key=fsim.__getitem__)
    values = [fsim[i] for i in order]
    tied = not all(map(lt, values, values[1:]))
    if tied:
        order = np.argsort(fsim).tolist()
        values = [fsim[i] for i in order]
    return [sim[i] for i in order], values, tied


def polish(fun, rows, x0, f0, maxfev, bounds=None, ftarget=None):
    """Minimize max_i phi_i(x) from x0 by SQP on the epigraph form, min t s.t. phi_i(x) <= t.

    rows(x) returns (phi, jac): the values phi_i and their gradients. fun is
    an increasing function of max_i phi_i (the defect), f0 = fun(x0), and
    fun decides which step is accepted. Each step solves the QP
    min s + d.H.d / 2 s.t. phi_i + jac_i.d <= max(phi) + s through its dual
    (_simplex_qp), with H Powell's damped BFGS approximation of the
    Lagrangian's Hessian, then halves d until fun drops below its current
    value; a point outside bounds is clipped into the box. Stops on a failed
    line search, a relative decrease below 1e-15, a predicted decrease at
    rounding level, a value below ftarget, or after maxfev calls of fun and
    rows together. Returns (x, f, nfev) with f = fun(x) <= f0.
    """
    x, f, nfev = [float(v) for v in x0], f0, 0
    lo, hi = (None, None) if bounds is None else np.array(bounds, dtype=float).T
    hess = support = None
    while nfev < maxfev and not (ftarget is not None and f < ftarget):
        phi, jac = rows(x)
        nfev += 1
        phi, jac = np.array(phi), np.array(jac)
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
