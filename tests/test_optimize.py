"""The SQP descent's linear-algebra pieces, each against an independent reference.

_simplex_qp is checked against a brute-force solution of its dual over
every support, its face solve _solve against numpy's, and _bfgs_update,
which keeps the inverse of the Hessian approximation, against the direct
damped BFGS update of the Hessian itself, inverted by numpy. The QP's
interior round and its straight-line faces of three and four pairs are
checked bit for bit against the QP as it was before them
(reference_simplex_qp); that holds where sum() adds floats left to right,
as CPython before 3.12 does.
"""

import itertools
import warnings
from operator import mul

import numpy as np
import pytest

from obsclone import optimize
from obsclone.classes import ClassKind, ObservableClass
from obsclone.optimize import _bfgs_update, _simplex_qp
from obsclone.pauli import Observable
from obsclone.search import GAIN_BOUNDS, _bounds, _objective

X_NC = ObservableClass(ClassKind.TWO_PARAM_NONCOMMUTING, (Observable(np.eye(4)[1]), Observable(np.eye(4)[2])))
GENERAL = ObservableClass(ClassKind.GENERAL, tuple(Observable(row) for row in np.eye(4)))


def dual(m, gap, lam):
    return 0.5 * lam @ m @ lam + gap @ lam


def brute_force_dual(m, gap):
    """Minimum of lam.M.lam / 2 + gap.lam over the simplex, by enumeration.

    The minimum sits at the KKT point of some support whose multipliers are
    all nonnegative. Every support's KKT solution, clipped to lam >= 0 and
    rescaled to sum 1, is a point of the simplex, so the least dual value
    among them is that minimum.
    """
    n = len(gap)
    best = np.inf
    for size in range(1, n + 1):
        for support in itertools.combinations(range(n), size):
            kkt = np.zeros((size + 1, size + 1))
            kkt[:size, :size] = m[np.ix_(support, support)]
            kkt[:size, size] = -1.0
            kkt[size, :size] = 1.0
            try:
                sol = np.linalg.solve(kkt, np.append(-gap[list(support)], 1.0))
            except np.linalg.LinAlgError:
                continue
            lam = np.zeros(n)
            lam[list(support)] = np.clip(sol[:size], 0.0, None)
            if lam.sum() > 0.0:
                best = min(best, dual(m, gap, lam / lam.sum()))
    return best


def qp_case(rng, kind, n=None):
    """(M, gap) of a dual QP with n pairs, by default 1 to 8: M = J.J^T is positive semidefinite, and gap >= 0 has a 0."""
    n = int(rng.integers(1, 9)) if n is None else n
    jac = rng.normal(size=(n, 12))
    gap = rng.uniform(0.0, 1.0, n)
    if kind == "duplicated-rows" and n > 1:
        i, j = rng.choice(n, 2, replace=False)
        jac[j] = jac[i]
        gap[j] = gap[i] if rng.uniform() < 0.5 else gap[j]
    elif kind == "dependent-rows":
        rank = int(rng.integers(1, n + 1))
        jac = rng.normal(size=(n, rank)) @ rng.normal(size=(rank, 12))
        if n > 2:
            jac[-1] = 0.5 * (jac[0] + jac[1])
    elif kind == "tied-gaps":
        gap = rng.integers(0, 3, n) / 2.0
    gap -= gap.min()
    return jac @ jac.T, gap


QP_KINDS = ["positive-definite", "duplicated-rows", "dependent-rows", "tied-gaps"]


def assert_solves(m, gap, support, floor):
    """_simplex_qp from support, without a warning or an exception: the multipliers lie on the
    simplex, the dual value is floor to 1e-12, and the predicted decrease is min(gap + M.lam)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lam, predicted = _simplex_qp(m.tolist(), gap.tolist(), [int(i) for i in support])
    lam = np.array(lam)
    assert lam.min() >= 0.0
    assert abs(lam.sum() - 1.0) <= 1e-12
    assert abs(dual(m, gap, lam) - floor) <= 1e-12
    assert abs(predicted - (gap + m @ lam).min()) <= 1e-12


@pytest.mark.parametrize("kind", QP_KINDS)
def test_simplex_qp_matches_a_brute_force_dual(rng, kind):
    """Started from the index with the least gap, from every index and from a
    random support, the QP reaches the brute-force minimum. The plain-float
    solve must meet singular faces and multipliers that enter at exactly 0."""
    for _ in range(40):
        m, gap = qp_case(rng, kind)
        n = len(gap)
        floor = brute_force_dual(m, gap)
        some = rng.choice(n, int(rng.integers(1, n + 1)), replace=False)
        for support in ([int(np.argmin(gap))], list(range(n)), sorted(some)):
            assert_solves(m, gap, support, floor)


@pytest.mark.parametrize("kind", QP_KINDS)
@pytest.mark.parametrize("n", [4, 6, 8])
def test_simplex_qp_matches_a_brute_force_dual_from_warm_supports_of_every_size(rng, n, kind):
    """The search's shapes: 4 pairs (two generators), 6 (three) and 8 (four, the
    largest, as in the class {I + sigma1, sigma1, sigma2, sigma3}), started as a
    descent step is, from the last step's support, in the order it was left,
    here of every size from 1 to n. Duplicated and dependent rows make its faces
    singular."""
    for _ in range(10):
        m, gap = qp_case(rng, kind, n)
        floor = brute_force_dual(m, gap)
        for size in range(1, n + 1):
            assert_solves(m, gap, rng.permutation(n)[:size], floor)


@pytest.mark.parametrize("size", range(1, 8))
def test_solve_matches_numpy_and_finds_null_vectors(rng, size):
    """A positive definite system is solved to 1e-10 relative; where the factor of
    row c repeats the first, elimination leaves exactly 0 at pivot c, and the
    null vector has 1 there and 0 after it."""
    for _ in range(20):
        b = rng.normal(size=(size, size + 2))
        a, rhs = b @ b.T, rng.normal(size=size)
        x, singular = optimize._solve(np.column_stack([a, rhs]).tolist())
        assert not singular
        assert np.abs(np.array(x) - np.linalg.solve(a, rhs)).max() <= 1e-10 * np.abs(x).max()
        if size >= 2:
            c = int(rng.integers(1, size))
            b[c] = b[0]
            a = b @ b.T
            v, singular = optimize._solve(np.column_stack([a, rhs]).tolist())
            assert singular
            assert v[c] == 1.0 and not any(v[c + 1 :])
            assert np.abs(a @ v).max() <= 1e-9 * np.abs(a).max()


def test_simplex_qp_keeps_an_index_at_rounding_level_out(monkeypatch):
    """At the minimum on the support {0, 1}, index 2's multiplier w_2 - w_1 is
    -3e-16, negative through rounding alone, next to terms of w of size ~1.
    The entering test scales with those terms, so index 2 stays out: two face
    solves, and the support ends as [0, 1]. Scaled by |w_1| alone, the test
    let it enter; its face solve gave it exactly 0.0, its ratio 0 / (0 - 0)
    was taken as 0, so it blocked at once, left and entered again, for twelve
    solves in all."""
    m = [
        [0.8888888888888888, -0.6666666666666666, 0.8888888888888888],
        [-0.6666666666666666, 0.5555555555555555, -0.6666666666666666],
        [0.8888888888888888, -0.6666666666666666, 1.3333333333333333],
    ]
    gap = [0.0, 0.5, 0.0]
    solves, solve = [], optimize._solve
    monkeypatch.setattr(optimize, "_solve", lambda a: solves.append(len(a)) or solve(a))
    support = [0]
    lam, predicted = _simplex_qp(m, gap, support)
    assert (len(solves), support) == (2, [0, 1])
    assert abs(dual(np.array(m), np.array(gap), np.array(lam)) - brute_force_dual(np.array(m), np.array(gap))) <= 1e-12
    assert abs(predicted - (np.array(gap) + np.array(m) @ np.array(lam)).min()) <= 1e-12


def test_simplex_qp_drops_an_index_that_a_tie_leaves_at_exactly_zero(monkeypatch):
    """From the support [0], index 1 enters, then index 2. The face {0, 1, 2}
    has its minimum at e_2, so indices 0 and 1 block together at t = 1: index 0
    leaves, and index 1 stays on the support at exactly 0.0. On the face {1, 2}
    its multiplier is again exactly 0.0, so its ratio is 0 / (0 - 0), taken as
    0: it blocks at once and leaves. Five face solves, on supports of 1, 2, 3,
    2 and 1 pairs; the support ends as [2], at the dual's minimum e_2, where
    every w_i is 1."""
    m = [[1.0, -1.0, -1.0], [-1.0, 5.0, 1.0], [-1.0, 1.0, 1.0]]
    gap = [2.0, 0.0, 0.0]
    faces, face = [], optimize._face
    monkeypatch.setattr(optimize, "_face", lambda m, gap, support: faces.append(len(support)) or face(m, gap, support))
    support = [0]
    lam, predicted = _simplex_qp(m, gap, support)
    assert (faces, support, lam, predicted) == ([1, 2, 3, 2, 1], [2], [0.0, 0.0, 1.0], 1.0)
    assert abs(dual(np.array(m), np.array(gap), np.array(lam)) - brute_force_dual(np.array(m), np.array(gap))) <= 1e-12


# The dual QP before its interior round and its straight-line face of four pairs, verbatim but for the two
# names: the bit-for-bit reference of the tests below.
def reference_simplex_qp(m, gap, support):
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
        p, singular = reference_solve([[mi[j] - ml[j] - c for j in others] + [wl - mi[l] - gap[i]]
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


def reference_solve(a):
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


def bits(values):
    """Each float's exact bits, the sign of a zero included."""
    return [float(v).hex() for v in values]


def assert_same_qp(m, gap, support):
    """_simplex_qp and the reference from the same support: the same lam and predicted decrease, bit for
    bit, and the same support left."""
    new, old = list(support), list(support)
    (lam, predicted), (want_lam, want_predicted) = _simplex_qp(m, gap, new), reference_simplex_qp(m, gap, old)
    assert (bits(lam), bits([predicted]), new) == (bits(want_lam), bits([want_predicted]), old)


def reference_face(m, gap, support):
    """The reference's face solve on support: its multipliers or null vector, the last entry appended."""
    l, others = support[-1], support[:-1]
    ml, mll, wl = m[l], m[l][l], m[l][l] + gap[l]
    p, singular = reference_solve([[mi[j] - ml[j] - c for j in others] + [wl - mi[l] - gap[i]]
                                   for i in others for mi, c in [(m[i], m[i][l] - mll)]])
    p.append(-sum(p) if singular else 1.0 - sum(p))
    return p, singular


def warm_supports(rng, n):
    """Every support of n pairs: every ordered one for n <= 4, and every subset in a random order for more."""
    if n <= 4:
        return [list(s) for size in range(1, n + 1) for s in itertools.permutations(range(n), size)]
    subsets = (s for size in range(1, n + 1) for s in itertools.combinations(range(n), size))
    return [[int(i) for i in rng.permutation(s)] for s in subsets]


@pytest.mark.parametrize("kind", QP_KINDS)
@pytest.mark.parametrize("n", [2, 4, 6])
def test_simplex_qp_gives_the_references_bits_from_every_warm_support(rng, n, kind):
    """Random QPs of 2, 4 and 6 pairs (one, two and three generators), started
    from every support: the interior round and the straight-line face change
    no float of the QP's result and leave the support as the reference does."""
    for _ in range(8):
        m, gap = (a.tolist() for a in qp_case(rng, kind, n))
        for support in warm_supports(rng, n):
            assert_same_qp(m, gap, support)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_a_face_minimum_with_a_zero_multiplier_takes_the_general_round(n):
    """With M = (n - 1) I and gap = e_0, the full support's face minimum gives
    index 0 a multiplier of exactly 0.0, listed first or last. It is not
    interior, so the round drops index 0 as the reference does, and the QP
    ends on the other n - 1 indices with the reference's bits."""
    m = [[float(n - 1) if i == j else 0.0 for j in range(n)] for i in range(n)]
    gap = [1.0] + [0.0] * (n - 1)
    for support in (list(range(n)), list(range(1, n)) + [0]):
        p, singular = optimize._face(m, gap, support)
        assert not singular and p[support.index(0)] == 0.0
        assert_same_qp(m, gap, support)
        optimize._simplex_qp(m, gap, support)
        assert sorted(support) == list(range(1, n))


@pytest.mark.parametrize("kind", QP_KINDS)
@pytest.mark.parametrize("size", [3, 4])
def test_the_straight_line_face_matches_solve_bit_for_bit(rng, size, kind):
    """Every ordered support of three or four pairs of random QPs of that many
    pairs and of 6: the straight-line face gives the reference solve's
    multipliers, or its null vector, bit for bit. Duplicated rows meet each of
    the size - 1 pivots at zero, dependent rows the second and the third."""
    ends = set()
    for n in (size, 6):
        for _ in range(6):
            m, gap = (a.tolist() for a in qp_case(rng, kind, n))
            for support in itertools.permutations(range(n), size):
                (p, singular), (want, want_singular) = optimize._face(m, gap, list(support)), reference_face(m, gap, support)
                assert (bits(p), singular) == (bits(want), want_singular)
                # A null vector has 1 at the pivot that is not positive and 0 after it, the last entry aside.
                ends.add(max(i for i in range(size - 1) if p[i]) if singular else None)
    pivots = set(range(size - 1))
    assert ends >= {None} | {"duplicated-rows": pivots, "dependent-rows": pivots - {0}}.get(kind, set())


@pytest.mark.parametrize("size", [3, 4])
def test_the_straight_line_face_keeps_the_sign_of_a_zero(rng, size):
    """Faces of three and four pairs whose entries are 0.0, -0.0, 1 and 2, with
    the last index's row and column 0.0 but for m_ll = gap_l = -0.0: the face
    rows end in -0.0, and elimination meets zeros of both signs. The
    straight-line face gives the reference's signs of zero too, which the 0.0
    that starts each of _solve's back-substitution sums decides."""
    signed, k = 0, size - 1
    for _ in range(3000):
        m = [[*rng.choice([-0.0, 0.0, 1.0, 2.0], k).tolist(), 0.0] for _ in range(k)] + [[0.0] * k + [-0.0]]
        gap = [*rng.choice([-1.0, -0.0, 0.0], k).tolist(), -0.0]
        support = list(range(size))
        (p, singular), (want, want_singular) = optimize._face(m, gap, support), reference_face(m, gap, support)
        assert (bits(p), singular) == (bits(want), want_singular)
        signed += "-0x0.0p+0" in bits(p)
    assert signed


@pytest.mark.parametrize("size", range(1, 8))
def test_solve_gives_the_references_bits(rng, size):
    """The index-loop _solve against the reference's slices: the same solution
    or null vector, bit for bit, for positive definite systems and for ones
    whose row c repeats the first."""
    for _ in range(20):
        b = rng.normal(size=(size, size + 2))
        rows = [np.column_stack([b @ b.T, rng.normal(size=size)])]
        if size >= 2:
            b[int(rng.integers(1, size))] = b[0]
            rows.append(np.column_stack([b @ b.T, rng.normal(size=size)]))
        for a in rows:
            (x, singular), (want, want_singular) = optimize._solve(a.tolist()), reference_solve(a.tolist())
            assert (bits(x), singular) == (bits(want), want_singular)


def direct_update(hess, s, y):
    """Powell's damped BFGS update of the Hessian approximation itself, as the descent once kept it."""
    hs = hess @ s
    shs = s @ hs
    if not shs > 0.0:
        return hess
    sy = s @ y
    if sy < 0.2 * shs:
        theta = 0.8 * shs / (shs - sy)
        y = theta * y + (1.0 - theta) * hs
        sy = s @ y
    return hess + np.outer(y, y) / sy - np.outer(hs, hs) / shs


def assert_inverse_update(inv, s, y, hs):
    """_bfgs_update of inv with (s, y, hs) is the inverse of the direct update of inv^-1, to 1e-10, and symmetric."""
    expected = np.linalg.inv(direct_update(np.linalg.inv(inv), s, y))
    updated = inv.copy()
    _bfgs_update(updated, s, y, hs)
    assert np.array_equal(updated, updated.T)
    assert np.abs(updated - expected).max() <= 1e-10 * np.abs(expected).max()


@pytest.mark.parametrize("branch", ["undamped", "damped", "skipped"])
def test_inverse_bfgs_update_inverts_the_direct_one(rng, branch):
    """Over random positive definite H, s and y: the curvature s.y at least
    0.2 s.H.s, below it, and s = 0, where s.H.s = 0 and nothing changes."""
    for _ in range(50):
        a = rng.normal(size=(12, 12))
        hess = a @ a.T + np.eye(12)
        s, y = rng.normal(size=(2, 12))
        if branch == "skipped":
            s[:] = 0.0
        else:
            # Set s.y to a chosen multiple of s.H.s.
            ratio = rng.uniform(0.25, 5.0) if branch == "undamped" else rng.uniform(-5.0, 0.15)
            y += (ratio * (s @ hess @ s) - s @ y) / (s @ s) * s
        assert (s @ y >= 0.2 * (s @ hess @ s)) == (branch != "damped")
        inv = np.linalg.inv(hess)
        inv = (inv + inv.T) / 2.0
        assert_inverse_update(inv, s, y, hess @ s)
        if branch == "skipped":
            updated = inv.copy()
            _bfgs_update(updated, s, y, hess @ s)
            assert np.array_equal(updated, inv)


@pytest.mark.parametrize("cls", [X_NC, GENERAL], ids=["sigma-x-y", "pauli-basis"])
def test_descent_updates_invert_the_direct_ones_where_bounds_clip_steps(monkeypatch, cls):
    """In approximate mode from a start with a gain at GAIN_BOUNDS, some steps
    end on a bound, so a bound clipped them. Over the first updates of the
    descent, clipped or not, the step s it passes is the one taken, its H.s
    is inv^-1.s, and each update inverts the direct one."""
    updates, update = [], optimize._bfgs_update

    def recorded(inv, s, y, hs):
        updates.append((inv.copy(), s.copy(), y.copy(), hs.copy()))
        update(inv, s, y, hs)

    monkeypatch.setattr(optimize, "_bfgs_update", recorded)
    fun, points = _objective(cls, "approximate"), []

    def logged(x, above=None):
        value, rows = fun(x, above)
        if rows is not None:
            points.append(x)
        return value, rows

    rng = np.random.default_rng(3)
    x0 = np.concatenate([rng.uniform(-np.pi, np.pi, 12), [GAIN_BOUNDS[0], rng.uniform(1.0, 3.0)]])
    optimize.minimize(logged, x0, 30, _bounds(True))
    # Update k takes the step from points[k] to points[k + 1].
    clipped = 0
    for (inv, s, y, hs), begin, end in list(zip(updates, points, points[1:]))[:8]:
        clipped += any(g in GAIN_BOUNDS for g in end[12:])
        assert np.abs(np.subtract(end, begin) - s).max() <= 1e-12
        assert np.abs(np.linalg.solve(inv, s) - hs).max() <= 1e-10 * np.abs(hs).max()
        assert_inverse_update(inv, s, y, hs)
    assert clipped
