"""Adaptive Nelder-Mead simplex descent on plain Python floats.

A transcription of scipy 1.17's Nelder-Mead (`method="Nelder-Mead"`,
`adaptive=True`, `xatol=1e-10`, `fatol=1e-14`) that keeps its arithmetic
step for step: the same initial simplex, the same reflection, expansion,
contraction and shrink formulas in the same operation order, the centroid
summed row by row as numpy's axis-0 `add.reduce` does, numpy's order for
tied vertices, and the evaluation budget cut exactly where scipy's wrapper
cuts it. A seeded descent therefore evaluates the very points scipy would.
The coefficients adapt to the dimension (Gao & Han, Comput. Optim. Appl.
51:259, 2012). Vertices are lists of floats because on a 12- or
14-dimensional simplex numpy's per-call cost exceeds the arithmetic.
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
        while True:
            low, f0 = sim[0], fsim[0]
            if all(abs(f0 - f) <= FATOL for f in fsim[1:]) and all(
                abs(v - b) <= XATOL for y in sim[1:] for v, b in zip(y, low)
            ):
                break
            # Rows summed in order, as numpy's axis-0 add.reduce does (sum() may compensate).
            total = sim[0]
            for y in sim[1:-1]:
                total = list(map(add, total, y))
            xbar = [v / n for v in total]
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
            else:
                # No two values tie, so argsort's order is unique and only the replaced
                # worst vertex can be out of place: move it to its bisection point.
                sim.insert(p, sim.pop())
                fsim.insert(p, fsim.pop())
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
