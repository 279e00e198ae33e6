"""The transportation simplex against the solver it replaced, and HiGHS.

``_former_solve_transport`` is an earlier solver, which recomputed the
duals, the cycle and the objective from scratch on every pivot and took
the first most negative cell of the whole cost matrix; it is kept here only
as a reference, with counters added.  It starts from the north-west
corner, as it did, or from a starting flow it is given.  The present
solver prices a short candidate list, so it makes other pivots and may
reach another optimal vertex: only the costs must agree with the former
solver, to 1e-12 (see ``_close``), from either start.  Its own pivot
counts are pinned on fixed fixtures.  Everything must agree with the
HiGHS LP.  Equal-size uniform pairs are assignment problems, which
``w1_exact`` solves without the simplex.
"""

from unittest import mock

import numpy as np
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from urcd.measures import (_distance_matrix, _least_cost_start, _solve_transport,
                           make_empirical, w1_exact)

from lp_oracle import lp_oracle, lp_transport


def _former_northwest_corner(a, b):
    k, m = a.size, b.size
    ra, rb = a.copy(), b.copy()
    basis = []
    flow = {}
    i = j = 0
    while True:
        t = min(ra[i], rb[j])
        basis.append((i, j))
        flow[(i, j)] = t
        ra[i] -= t
        rb[j] -= t
        if i == k - 1 and j == m - 1:
            break
        if ra[i] <= rb[j] and i < k - 1:
            i += 1
        elif j < m - 1:
            j += 1
        else:
            i += 1
    return basis, flow


def _former_tree_path(adj, start, goal):
    parent = {start: (None, None)}
    stack = [start]
    while stack:
        node = stack.pop()
        if node == goal:
            break
        for nbr, cell in adj[node]:
            if nbr not in parent:
                parent[nbr] = (node, cell)
                stack.append(nbr)
    path = []
    node = goal
    while parent[node][0] is not None:
        prev, cell = parent[node]
        path.append(cell)
        node = prev
    path.reverse()
    return path


def _former_solve_transport(a, b, cost, start=None):
    """Returns (F, pivots, degenerate pivots, whether Bland's rule fired).

    `start` maps basis cells to flows, in basis order; by default the
    north-west corner."""
    k, m = cost.shape
    if start is None:
        basis, flow = _former_northwest_corner(a, b)
    else:
        basis, flow = list(start), dict(start)

    adj = {node: [] for node in range(k + m)}
    for (i, j) in basis:
        adj[i].append((k + j, (i, j)))
        adj[k + j].append((i, (i, j)))

    tol = 1e-12 * (1.0 + float(cost.max(initial=0.0)))
    u = np.zeros(k)
    v = np.zeros(m)
    bland = False
    stall = 0
    prev_obj = np.inf
    pivots = degenerate = 0

    while True:
        seen = np.zeros(k + m, dtype=bool)
        seen[0] = True
        u[0] = 0.0
        stack = [0]
        while stack:
            node = stack.pop()
            for nbr, (i, j) in adj[node]:
                if not seen[nbr]:
                    if nbr >= k:
                        v[j] = cost[i, j] - u[i]
                    else:
                        u[i] = cost[i, j] - v[j]
                    seen[nbr] = True
                    stack.append(nbr)

        reduced = cost - u[:, None] - v[None, :]
        if bland:
            viol = np.argwhere(reduced < -tol)
            if viol.size == 0:
                break
            ei, ej = int(viol[0, 0]), int(viol[0, 1])
        else:
            flat = int(np.argmin(reduced))
            ei, ej = divmod(flat, m)
            if reduced[ei, ej] >= -tol:
                break

        path = _former_tree_path(adj, k + ej, ei)
        minus = path[0::2]
        theta = min(flow[c] for c in minus)
        leave = next(c for c in minus if flow[c] == theta)
        pivots += 1
        if theta == 0.0:
            degenerate += 1

        sign = -1.0
        for c in path:
            flow[c] += sign * theta
            sign = -sign
        flow[(ei, ej)] = theta

        basis.remove(leave)
        basis.append((ei, ej))
        li, lj = leave
        adj[li] = [e for e in adj[li] if e[1] != leave]
        adj[k + lj] = [e for e in adj[k + lj] if e[1] != leave]
        adj[ei].append((k + ej, (ei, ej)))
        adj[k + ej].append((ei, (ei, ej)))
        del flow[leave]

        obj = sum(flow[c] * cost[c] for c in basis)
        if obj < prev_obj - tol:
            stall = 0
        else:
            stall += 1
            if stall > 100:
                bland = True
        prev_obj = obj

    F = np.zeros((k, m))
    for (i, j), val in flow.items():
        if val > 0.0:
            F[i, j] = val
    return F, pivots, degenerate, bland


def _close(x, y, cost):
    """Within 1e-12 relative to the larger of `y` and the largest ground
    distance: flows carry rounding of order eps absolutely, so a cost much
    below the ground distances (mass 1e-6 moved by 1) may differ by more
    than 1e-12 of itself."""
    return abs(x - y) <= 1e-12 * max(abs(y), float(cost.max()))


def _positive(mu, nu):
    """``w1_exact``'s zero-weight filter: (a, b, cost, ia, ib)."""
    ia = np.flatnonzero(mu.weights > 0.0)
    ib = np.flatnonzero(nu.weights > 0.0)
    a = mu.weights[ia] / mu.weights[ia].sum()
    b = nu.weights[ib] / nu.weights[ib].sum()
    return a, b, _distance_matrix(mu, nu)[np.ix_(ia, ib)], ia, ib


def _is_assignment(mu, nu):
    a, b, *_ = _positive(mu, nu)
    return a.size == b.size and np.all(a == a[0]) and np.all(b == b[0])


def _former_cost(a, b, cost, least_cost):
    """The former solver's cost, from the least-cost basis or from the
    north-west corner."""
    start = _least_cost_start(a, b, cost) if least_cost else None
    F, *_ = _former_solve_transport(a, b, cost, start)
    return float(np.sum(F * cost))


def _assert_same_cost_as_former(mu, nu):
    """``w1_exact`` against the former solver, from both starts, on the
    atoms of positive weight.  Assignment pairs make no pivots."""
    plan = w1_exact(mu, nu)
    if _is_assignment(mu, nu):
        assert (plan.pivots, plan.degenerate_pivots, plan.bland) == (0, 0, False)
    a, b, cost, *_ = _positive(mu, nu)
    for least_cost in (True, False):
        assert _close(plan.cost, _former_cost(a, b, cost, least_cost),
                      _distance_matrix(mu, nu))
    return plan


def _assert_solve_same_cost_as_former(a, b, cost):
    """``_solve_transport`` against the former solver's cost, from both
    starts.  Returns the stats."""
    F, *stats = _solve_transport(a, b, cost)
    for least_cost in (True, False):
        assert _close(float(np.sum(F * cost)), _former_cost(a, b, cost, least_cost),
                      cost)
    return stats


# ---------------------------------------------------------------------------
# input strategies
# ---------------------------------------------------------------------------

@st.composite
def _atoms(draw, k, dim, pool):
    """k atoms in R^dim; with a pool, drawn with repeats from `pool` points."""
    coord = st.floats(-3, 3, allow_nan=False, allow_infinity=False)
    if pool is None:
        return np.array(draw(st.lists(st.lists(coord, min_size=dim, max_size=dim),
                                      min_size=k, max_size=k)))
    points = draw(st.lists(st.lists(coord, min_size=dim, max_size=dim),
                           min_size=pool, max_size=pool))
    idx = draw(st.lists(st.integers(0, pool - 1), min_size=k, max_size=k))
    return np.array(points)[idx]


@st.composite
def _measure(draw, k, dim, weights="random", pool=None):
    atoms = draw(_atoms(k, dim, pool))
    if weights == "uniform":
        return make_empirical(atoms)
    low = 0.0 if weights == "zeros" else 1e-6
    w = np.array(draw(st.lists(st.floats(low, 1.0), min_size=k, max_size=k)))
    if weights == "zeros":
        w[draw(st.integers(0, k - 1))] = 1.0     # at least one atom carries mass
    return make_empirical(atoms, w / w.sum())


@st.composite
def _pair(draw, case):
    """Two measures on a shared R^dim, shaped by `case`."""
    dim = draw(st.integers(1, 3))
    k, m = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    weights, pool = "random", None
    if case == "uniform":
        m, weights = k, "uniform"
    elif case == "duplicates":
        pool = draw(st.integers(1, 3))
        weights = draw(st.sampled_from(["random", "uniform"]))
    elif case == "zeros":
        weights = "zeros"
    elif case == "single":
        if draw(st.booleans()):
            k = 1
        else:
            m = 1
    return (draw(_measure(k, dim, weights, pool)),
            draw(_measure(m, dim, weights, pool)))


_PAIRS = st.sampled_from(["random", "uniform", "duplicates", "zeros",
                          "single"]).flatmap(_pair)


def _near_additive(rng, k, m):
    """Costs u_i + v_j plus noise below 0.1: the least-cost start cannot
    rank the cells, so the simplex still has many pivots to make."""
    return (rng.uniform(0, 3, size=(k, 1)) + rng.uniform(0, 3, size=(1, m))
            + rng.uniform(0, 0.1, size=(k, m)))


# ---------------------------------------------------------------------------
# the former solver's costs, and pinned pivot counts
# ---------------------------------------------------------------------------

@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**32 - 1),
       st.booleans())
def test_solve_transport_matches_former_solver(k, m, seed, square_uniform):
    rng = np.random.default_rng(seed)
    if square_uniform:
        m = k
        a = b = np.full(k, 1.0 / k)
    else:
        a = rng.uniform(0.01, 1.0, size=k)
        b = rng.uniform(0.01, 1.0, size=m)
        a, b = a / a.sum(), b / b.sum()
    cost = rng.uniform(0.0, 3.0, size=(k, m))
    _assert_solve_same_cost_as_former(a, b, cost)


@settings(max_examples=200)
@given(_PAIRS)
def test_w1_exact_matches_former_solver(pair):
    _assert_same_cost_as_former(*pair)


def _tiny_flow_fixture(seed):
    """Flows of ~1e-13.5 to 1e-11 put theta * reduced cost below `tol`, the
    threshold of the former solver's stall test.  Nearly additive costs keep
    the least-cost start far from the optimum, so many such pivots are
    made."""
    rng = np.random.default_rng(seed)
    k, m = rng.integers(5, 31, size=2)
    scale = 10.0 ** rng.uniform(-13.5, -11)
    a = rng.uniform(0.5, 2, size=k) * scale
    b = rng.uniform(0.5, 2, size=m) * scale
    a[rng.integers(k)] = b[rng.integers(m)] = 1.0
    a, b = a / a.sum(), b / b.sum()
    return a, b, _near_additive(rng, k, m)


def test_pivot_counts_are_pinned():
    rng = np.random.default_rng(3)
    gauss = _assert_same_cost_as_former(make_empirical(rng.normal(size=(40, 2))),
                                        make_empirical(rng.normal(size=(30, 2)),
                                                       rng.dirichlet(np.ones(30))))
    assert (gauss.pivots, gauss.degenerate_pivots, gauss.bland) == (46, 0, False)

    # equal-size uniform pairs are assignments in w1_exact, so the simplex
    # is pinned on them directly; on repeated atoms the least-cost start
    # matches coincident atoms first and is already optimal
    pool = rng.normal(size=(4, 2))
    mu = make_empirical(pool[rng.integers(0, 4, size=40)])
    nu = make_empirical(pool[rng.integers(0, 4, size=40)])
    assert _assert_solve_same_cost_as_former(mu.weights, nu.weights,
                                             _distance_matrix(mu, nu)) == [0, 0, False]
    plan = _assert_same_cost_as_former(mu, nu)
    assert (plan.pivots, plan.degenerate_pivots, plan.bland) == (0, 0, False)
    # uniform, unequal sizes: the simplex, with degenerate pivots
    unequal = _assert_same_cost_as_former(make_empirical(rng.normal(size=(50, 2))),
                                          make_empirical(rng.normal(size=(25, 2))))
    assert (unequal.pivots, unequal.degenerate_pivots, unequal.bland) == (46, 37, False)

    # all but one atom on each side carry ~1e-14: the pivots move little
    # mass, but move it, so none counts toward Bland's rule
    rng = np.random.default_rng(0)
    a = rng.uniform(1, 2, size=30) * 1e-14
    b = rng.uniform(1, 2, size=30) * 1e-14
    a[0] = b[-1] = 1.0
    a, b = a / a.sum(), b / b.sum()
    cost = _near_additive(rng, 30, 30)
    assert _assert_solve_same_cost_as_former(a, b, cost) == [119, 0, False]
    F, *_ = _solve_transport(a, b, cost)
    assert abs(float(np.sum(F * cost)) - lp_transport(a, b, cost)) < 1e-8


def test_pivots_moving_tiny_flows_are_not_stalls():
    """The tiny-flow fixtures: the same costs as the former solver and
    HiGHS, and pinned pivot totals.  None of their pivots is degenerate, so
    none of them reaches Bland's rule."""
    totals = np.zeros(3, dtype=int)
    for seed in range(80):
        a, b, cost = _tiny_flow_fixture(seed)
        stats = _assert_solve_same_cost_as_former(a, b, cost)
        F, *_ = _solve_transport(a, b, cost)
        assert abs(float(np.sum(F * cost)) - lp_transport(a, b, cost)) < 1e-8
        totals += stats
    assert totals.tolist() == [3722, 0, 0]


def test_degenerate_pivots_hand_over_to_bland():
    """Uniform weights on 320 evenly spaced atoms of [0, 1) x {0} against
    160 of [0.3, 1.3) x {0}: most pivots are degenerate, more than 100 of
    them come in a row, and Bland's rule finishes the solve."""
    mu = make_empirical(np.column_stack([np.arange(320) / 320, np.zeros(320)]))
    nu = make_empirical(np.column_stack([0.3 + np.arange(160) / 160, np.zeros(160)]))
    plan = w1_exact(mu, nu)
    assert (plan.pivots, plan.degenerate_pivots, plan.bland) == (795, 754, True)
    assert abs(plan.cost - lp_oracle(mu, nu)) < 1e-8


@st.composite
def _tiny_weight_pair(draw):
    """Mixture-like weights from 1e-300 to 1 on up to 40 atoms a side,
    drawn with repeats from one pool of points."""
    dim = draw(st.integers(1, 2))
    k, m = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    atoms = draw(_atoms(k + m, dim, draw(st.integers(1, k + m))))
    sides = []
    for part in (atoms[:k], atoms[k:]):
        exponents = draw(st.lists(st.floats(-300, 0), min_size=len(part),
                                  max_size=len(part)))
        w = 10.0 ** np.array(exponents)
        sides.append(make_empirical(part, w / w.sum()))
    return tuple(sides)


@settings(max_examples=100)
@given(_tiny_weight_pair())
def test_tiny_weight_mixtures_match_lp(pair):
    """HiGHS's cost, and Bland's rule only after more than 100 degenerate
    pivots."""
    mu, nu = pair
    plan = w1_exact(mu, nu)
    assert abs(plan.cost - lp_oracle(mu, nu)) < 1e-8
    assert not plan.bland or plan.degenerate_pivots > 100


def test_degenerate_inputs_pivot_counts():
    """Pivot counts, which do not depend on the host as a time bound would,
    on two larger fixtures: Dirichlet weights on 500 x 100 Gaussian atoms,
    and uniform weights on 200 x 200 atoms drawn from 20 distinct points
    (an assignment in ``w1_exact``, so the simplex is run directly)."""
    rng = np.random.default_rng(0)
    mu = make_empirical(rng.normal(size=(500, 2)), rng.dirichlet(np.ones(500)))
    nu = make_empirical(rng.normal(size=(100, 2)), rng.dirichlet(np.ones(100)))
    plan = w1_exact(mu, nu)
    assert (plan.pivots, plan.degenerate_pivots, plan.bland) == (667, 0, False)
    assert abs(plan.cost - lp_oracle(mu, nu)) < 1e-8

    rng = np.random.default_rng(1)
    pool = rng.normal(size=(20, 2))
    mu = make_empirical(pool[rng.integers(0, 20, size=200)])
    nu = make_empirical(pool[rng.integers(0, 20, size=200)])
    cost = _distance_matrix(mu, nu)
    F, *stats = _solve_transport(mu.weights, nu.weights, cost)
    assert stats == [483, 472, False]
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    assert _close(float(np.sum(F * cost)), float(cost[rows, cols].sum()) / 200, cost)


@settings(max_examples=200)
@given(_PAIRS)
def test_simplex_plan_is_a_tree_and_matches_lp(pair):
    """On the atoms of positive weight: at most k + m - 1 cells carry mass,
    no more degenerate pivots than pivots, and the cost of HiGHS.  The
    memory layout of the cost matrix does not matter."""
    mu, nu = pair
    a, b, cost, *_ = _positive(mu, nu)
    F, pivots, degenerate, _ = _solve_transport(a, b, cost)
    assert np.count_nonzero(F) <= a.size + b.size - 1
    assert 0 <= degenerate <= pivots
    assert abs(float(np.sum(F * cost)) - lp_transport(a, b, cost)) < 1e-8
    assert np.array_equal(_solve_transport(a, b, np.asfortranarray(cost))[0], F)


# ---------------------------------------------------------------------------
# edge cases against the LP
# ---------------------------------------------------------------------------

@settings(max_examples=200)
@given(_PAIRS)
def test_w1_exact_edge_cases_match_lp(pair):
    mu, nu = pair
    plan = w1_exact(mu, nu)
    assert abs(plan.cost - lp_oracle(mu, nu)) < 1e-8
    assert np.abs(plan.coupling.sum(axis=1) - mu.weights).max() < 1e-8
    assert np.abs(plan.coupling.sum(axis=0) - nu.weights).max() < 1e-8


# ---------------------------------------------------------------------------
# the least-cost starting basis
# ---------------------------------------------------------------------------

@settings(max_examples=200)
@given(_PAIRS)
def test_least_cost_start_is_a_feasible_spanning_tree(pair):
    """Fed the raw weights, zeros included: k + m - 1 cells that join every
    row and column without a cycle, non-negative flows, exact marginals."""
    mu, nu = pair
    a, b = mu.weights, nu.weights
    k, m = a.size, b.size
    flow = _least_cost_start(a, b, _distance_matrix(mu, nu))
    assert len(flow) == k + m - 1

    root = list(range(k + m))          # union-find over rows 0..k-1, columns k..

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for i, j in flow:
        ri, rj = find(i), find(k + j)
        assert ri != rj                 # a cycle would join joined nodes
        root[ri] = rj
    assert len({find(x) for x in range(k + m)}) == 1

    F = np.zeros((k, m))
    for (i, j), t in flow.items():
        F[i, j] = t
    assert F.min() >= 0.0
    assert np.abs(F.sum(axis=1) - a).max() <= 1e-12
    assert np.abs(F.sum(axis=0) - b).max() <= 1e-12


# ---------------------------------------------------------------------------
# equal-size uniform pairs: the assignment path
# ---------------------------------------------------------------------------

@st.composite
def _assignment_pair(draw):
    """Uniform weights on n positive atoms per side; atoms may repeat, and
    either side may carry extra atoms of weight zero."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(1, 10))
    pool = draw(st.sampled_from([None, 1, 3]))
    sides = []
    for _ in range(2):
        zeros = draw(st.integers(0, 3))
        atoms = draw(_atoms(n + zeros, dim, pool))
        w = np.zeros(n + zeros)
        w[draw(st.permutations(range(n + zeros)))[:n]] = 1.0 / n
        sides.append(make_empirical(atoms, w) if zeros else make_empirical(atoms))
    return tuple(sides)


@settings(max_examples=200)
@given(_assignment_pair())
def test_assignment_path_matches_lp_and_simplex(pair):
    mu, nu = pair
    assert _is_assignment(mu, nu)
    plan = w1_exact(mu, nu)
    assert (plan.pivots, plan.degenerate_pivots, plan.bland) == (0, 0, False)
    assert abs(plan.cost - lp_oracle(mu, nu)) < 1e-8
    a, b, cost, ia, ib = _positive(mu, nu)
    F, *_ = _solve_transport(a, b, cost)
    assert _close(plan.cost, float(np.sum(F * cost)), cost)

    # a permutation of the positive atoms, each matched with mass 1/n
    n = ia.size
    sub = plan.coupling[np.ix_(ia, ib)]
    assert np.array_equal(np.count_nonzero(sub, axis=0), np.ones(n))
    assert np.array_equal(np.count_nonzero(sub, axis=1), np.ones(n))
    assert np.allclose(sub[sub > 0], 1.0 / n, rtol=1e-15, atol=0.0)
    assert np.count_nonzero(plan.coupling) == n


@st.composite
def _simplex_pair(draw):
    """Not an assignment: unequal numbers of positive atoms, or (at equal
    numbers) weights that are not all equal on one side."""
    dim = draw(st.integers(1, 3))
    k = draw(st.integers(1, 10))
    if draw(st.booleans()):
        m = draw(st.integers(1, 10).filter(lambda m: m != k))
        return (draw(_measure(k, dim, "uniform")), draw(_measure(m, dim, "uniform")))
    k = max(k, 2)
    mu, nu = draw(_measure(k, dim, "uniform")), draw(_measure(k, dim, "uniform"))
    w = np.full(k, 1.0)
    w[draw(st.integers(0, k - 1))] = draw(st.sampled_from([0.5, 2.0]))
    skewed = make_empirical(nu.atoms, w / w.sum())
    return (mu, skewed) if draw(st.booleans()) else (skewed, mu)


@settings(max_examples=100)
@given(_simplex_pair())
def test_other_pairs_go_through_the_simplex(pair):
    mu, nu = pair
    assert not _is_assignment(mu, nu)
    with mock.patch.object(scipy.optimize, "linear_sum_assignment",
                           side_effect=AssertionError("assignment path taken")):
        plan = w1_exact(mu, nu)
    a, b, cost, ia, ib = _positive(mu, nu)
    F, *stats = _solve_transport(a, b, cost)
    assert np.array_equal(plan.coupling[np.ix_(ia, ib)], F)
    assert [plan.pivots, plan.degenerate_pivots, plan.bland] == stats

