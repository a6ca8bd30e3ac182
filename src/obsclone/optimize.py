"""Minimax descent by sequential quadratic programming.

minimize minimizes the max of a few smooth functions, kinked wherever two of them tie, from one
start: SQP on the epigraph form with analytic gradients, a damped BFGS inverse Hessian and a
backtracking line search. A step's linear algebra is a few ndarray.dot calls (the BLAS of @ at half
its call cost) on 12-14 coordinates; its dual QP, over at most 8 pairs, runs on plain floats. Most
QPs end after one round whose face minimum is interior, most often on a full support of four pairs
(two generators): that round solves the face, straight-line for three and four pairs, moves there
and forms the dual's gradient once, with the floats of the general round. The objective returns a
point's value with its rows, the smooth functions' values and gradients, as plain data, and takes
the line search's bound: fun(x, above) may stop scoring x once it finds the value at or above
`above`, and returns (above, None) for such a trial, which is rejected; any other call gives
fun(x)'s value and rows, so the bound changes no bit of the descent.
"""

from __future__ import annotations

import math
from operator import mul

import numpy as np


def minimize(fun, x0, maxfev, bounds=None, ftarget=None):
    """Minimize max_i phi_i(x) from x0 by SQP on the epigraph form, min t s.t. phi_i(x) <= t.

    fun(x, above=None) returns (f, (phi, grads)): f an increasing function of max_i phi_i (the
    defect), phi the list of the values phi_i at x and grads their gradients jac_i, one after
    another in one flat list. Given above, fun may instead return (v, None) with
    v >= above once it finds f >= above; each line-search trial passes the current f as above, and
    the start takes no bound. The first call evaluates fun(x0); a start whose f is not finite is
    returned at once. Each step solves the QP
    min s + d.H.d / 2 s.t. phi_i + jac_i.d <= max(phi) + s through its dual (_simplex_qp), with H
    Powell's damped BFGS approximation of the Lagrangian's Hessian, kept as B = H^-1, so a step is
    s = alpha d with d = B.jac^T.lam and alpha = -1, -1/2, ... (exact sign flips), and H.s = alpha
    jac^T.lam for the update; it halves alpha until f drops below its current value. A point outside
    bounds, a sequence of (low, high) pairs, is clipped into the box, and a clipped step solves
    B.(H.s) = s. Stops on a failed line search, a relative decrease below 1e-15, a predicted decrease
    at rounding level, empty rows, a value below ftarget, or after maxfev evaluations: each call of
    fun, the start's included, and one for each step, for the rows of the point it steps from, the
    start or the last accepted trial. Returns (x, f, nfev), f = fun(x)[0] <= fun(x0)[0].
    """
    x = [float(v) for v in x0]
    (f, rows), nfev = fun(x), 1
    if not math.isfinite(f):
        return x, f, nfev
    lo, hi = (None, None) if bounds is None else np.array(bounds, dtype=float).T
    here, inv, support = np.array(x), None, None
    while nfev < maxfev and not (ftarget is not None and f < ftarget):
        phi, grads = rows
        nfev += 1
        if not phi:
            break
        jac = np.array(grads).reshape(len(phi), -1)
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
            ft, trial_rows = fun(point, f)
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
    the support's affine hull (_face). Where that minimum is interior, every multiplier positive, the
    round moves lam there, c + (v - c) for each entry as the general move at t = 1 gives, and forms
    w = gap + M.lam once. Otherwise it moves towards that minimum or, where the face system is singular
    and the dual linear along its null vector, downhill along that vector, as far as lam >= 0 allows,
    and drops the index that blocks (one that just entered at 0 blocks at once unless its new multiplier
    is positive). At the minimum it adds the index j whose multiplier w_j - w_l is most negative, l the
    support's last index, if it is below rounding: -1e-15 times the larger of |gap_i| + sum_k |M_ik lam_k|
    for i = j, l, the size of w's terms.
    """
    n = len(gap)
    lam, outside = [0.0] * n, [True] * n
    for i in support:
        lam[i], outside[i] = 1.0 / len(support), False
    for _ in range(4 * n):
        p, singular = _face(m, gap, support)
        if not singular and all(v > 0.0 for v in p):
            for i, v in zip(support, p):
                c = lam[i]
                lam[i] = c + (v - c)
        else:
            cur = [lam[i] for i in support]
            # p becomes the move: towards the face's minimum or, if singular, downhill along the null vector.
            if singular:
                w = [g + sum(map(mul, row, lam)) for g, row in zip(gap, m)]
                if sum(w[i] * v for i, v in zip(support, p)) > 0.0:
                    p = [-v for v in p]
                blocking = [(c / -v, k) for k, (c, v) in enumerate(zip(cur, p)) if v < 0.0]
            else:
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
        l = support[-1]
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


def _face(m, gap, support):
    """The dual's minimum on the affine hull of support, or a null vector: (p over support, singular).

    With l the support's last index, lam = e_l + Z.q and Z = [I; -1^T], the minimum solves the positive
    semidefinite Z^T.M.Z q = -Z^T (M e_l + gap) (_solve), and p is q with 1 - sum(q) appended; where the
    system is singular, p is its null vector with -sum appended. A support of three or four, the
    search's common faces, is built and eliminated straight-line, in _solve's order and with its floats;
    a pivot that is not positive, which the searches' faces almost never meet, leaves the face to _solve.
    """
    if len(support) == 3:
        s0, s1, l = support
        m0, m1, ml = m[s0], m[s1], m[l]
        mll, l0, l1 = ml[l], ml[s0], ml[s1]
        wl = mll + gap[l]
        u, v = m0[l], m1[l]
        c0, c1 = u - mll, v - mll
        a00, a01, a02 = m0[s0] - l0 - c0, m0[s1] - l1 - c0, wl - u - gap[s0]
        a10, a11, a12 = m1[s0] - l0 - c1, m1[s1] - l1 - c1, wl - v - gap[s1]
        if a00 > 0.0:
            f = a10 / a00
            a11, a12 = a11 - f * a01, a12 - f * a02
            if a11 > 0.0:
                x1 = a12 / a11
                x0 = (a02 - (0.0 + a01 * x1)) / a00
                return [x0, x1, 1.0 - (x0 + x1)], False
    elif len(support) == 4:
        s0, s1, s2, l = support
        m0, m1, m2, ml = m[s0], m[s1], m[s2], m[l]
        mll, l0, l1, l2 = ml[l], ml[s0], ml[s1], ml[s2]
        wl = mll + gap[l]
        u, v, z = m0[l], m1[l], m2[l]
        c0, c1, c2 = u - mll, v - mll, z - mll
        a00, a01, a02, a03 = m0[s0] - l0 - c0, m0[s1] - l1 - c0, m0[s2] - l2 - c0, wl - u - gap[s0]
        a10, a11, a12, a13 = m1[s0] - l0 - c1, m1[s1] - l1 - c1, m1[s2] - l2 - c1, wl - v - gap[s1]
        a20, a21, a22, a23 = m2[s0] - l0 - c2, m2[s1] - l1 - c2, m2[s2] - l2 - c2, wl - z - gap[s2]
        if a00 > 0.0:
            f = a10 / a00
            a11, a12, a13 = a11 - f * a01, a12 - f * a02, a13 - f * a03
            f = a20 / a00
            a21, a22, a23 = a21 - f * a01, a22 - f * a02, a23 - f * a03
            if a11 > 0.0:
                f = a21 / a11
                a22, a23 = a22 - f * a12, a23 - f * a13
                if a22 > 0.0:
                    # Each back-substitution sum starts at 0.0, as _solve's does, which decides the sign of a zero.
                    x2 = a23 / a22
                    x1 = (a13 - (0.0 + a12 * x2)) / a11
                    x0 = (a03 - (0.0 + a01 * x1 + a02 * x2)) / a00
                    return [x0, x1, x2, 1.0 - (x0 + x1 + x2)], False
    l, others = support[-1], support[:-1]
    ml, mll, wl = m[l], m[l][l], m[l][l] + gap[l]
    p, singular = _solve([[mi[j] - ml[j] - c for j in others] + [wl - mi[l] - gap[i]]
                          for i in others for mi, c in [(m[i], m[i][l] - mll)]])
    p.append(-sum(p) if singular else 1.0 - sum(p))
    return p, singular


def _solve(a):
    """Solve the positive semidefinite system with augmented rows a, in place, by Gaussian elimination without pivoting.

    Returns (x, False), or, at the first pivot that is not positive, (v, True) with v a null vector.
    """
    n = end = len(a)
    for c, pivot in enumerate(a):
        d = pivot[c]
        if not d > 0.0:
            # Column c is a combination of the ones before it: back-substitute for v with v_c = 1.
            end = c
            break
        tail = pivot[c + 1 :]
        for r in range(c + 1, n):
            row = a[r]
            f = row[c] / d
            row[c + 1 :] = [v - f * p for v, p in zip(row[c + 1 :], tail)]
    x = [0.0] * (n + 1)
    x[end] = 1.0
    for r in reversed(range(end)):
        row, s = a[r], 0.0
        for k in range(r + 1, end):
            s += row[k] * x[k]
        x[r] = ((row[n] if end == n else -row[end]) - s) / row[r]
    return x[:n], end < n
