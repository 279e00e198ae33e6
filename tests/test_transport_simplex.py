"""The spanning-tree transportation simplex against the solver it replaced.

``_former_solve_transport`` is the earlier solver, which recomputed the
duals, the cycle and the objective from scratch on every pivot; it is kept
here only as a reference, with counters added.  The tree-keeping solver
must make the same pivots and return the same coupling bit for bit, and
both must agree with the HiGHS LP.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from urcd.measures import _distance_matrix, _solve_transport, make_empirical, w1_exact

from lp_oracle import lp_oracle


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


def _former_solve_transport(a, b, cost):
    """Returns (F, pivots, degenerate pivots, whether Bland's rule fired)."""
    k, m = cost.shape
    basis, flow = _former_northwest_corner(a, b)

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


def _former_w1_exact(mu, nu):
    """``w1_exact``'s zero-weight handling around the former solver."""
    cost = _distance_matrix(mu, nu)
    ia = np.flatnonzero(mu.weights > 0.0)
    ib = np.flatnonzero(nu.weights > 0.0)
    a = mu.weights[ia] / mu.weights[ia].sum()
    b = nu.weights[ib] / nu.weights[ib].sum()
    sub, *stats = _former_solve_transport(a, b, cost[np.ix_(ia, ib)])
    coupling = np.zeros((mu.n_atoms, nu.n_atoms))
    coupling[np.ix_(ia, ib)] = sub
    return coupling, stats


def _assert_same_as_former(mu, nu):
    plan = w1_exact(mu, nu)
    coupling, stats = _former_w1_exact(mu, nu)
    assert np.array_equal(plan.coupling, coupling)
    assert [plan.pivots, plan.degenerate_pivots, plan.bland] == stats
    return plan


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


# ---------------------------------------------------------------------------
# same pivots, same coupling
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
    F, *stats = _solve_transport(a, b, cost)
    old_F, *old_stats = _former_solve_transport(a, b, cost)
    assert np.array_equal(F, old_F)
    assert stats == old_stats


@settings(max_examples=200)
@given(_PAIRS)
def test_w1_exact_matches_former_solver(pair):
    _assert_same_as_former(*pair)


def test_pivot_counts_match_former_solver():
    rng = np.random.default_rng(3)
    gauss = _assert_same_as_former(make_empirical(rng.normal(size=(40, 2))),
                                   make_empirical(rng.normal(size=(30, 2)),
                                                  rng.dirichlet(np.ones(30))))
    assert (gauss.pivots, gauss.degenerate_pivots, gauss.bland) == (139, 0, False)
    pool = rng.normal(size=(4, 2))
    repeated = _assert_same_as_former(make_empirical(pool[rng.integers(0, 4, size=40)]),
                                      make_empirical(pool[rng.integers(0, 4, size=40)]))
    assert (repeated.pivots, repeated.degenerate_pivots, repeated.bland) == (83, 78, False)

    # all but one atom on each side carry ~1e-14: the pivots move too little
    # mass to count as progress, so Bland's rule takes over
    rng = np.random.default_rng(2)
    a = rng.uniform(1, 2, size=30) * 1e-14
    b = rng.uniform(1, 2, size=30) * 1e-14
    a[0] = b[-1] = 1.0
    a, b = a / a.sum(), b / b.sum()
    cost = rng.uniform(0, 3, size=(30, 30))
    F, *stats = _solve_transport(a, b, cost)
    old_F, *old_stats = _former_solve_transport(a, b, cost)
    assert np.array_equal(F, old_F)
    assert stats == old_stats == [106, 0, True]


def test_stall_rule_matches_former_solver():
    """Flows of ~1e-13.5 to 1e-11 put theta * reduced cost near the stall
    threshold, so when Bland's rule starts decides the pivots."""
    blands = 0
    for seed in range(80):
        rng = np.random.default_rng(seed)
        k, m = rng.integers(5, 31, size=2)
        scale = 10.0 ** rng.uniform(-13.5, -11)
        a = rng.uniform(0.5, 2, size=k) * scale
        b = rng.uniform(0.5, 2, size=m) * scale
        a[rng.integers(k)] = b[rng.integers(m)] = 1.0
        a, b = a / a.sum(), b / b.sum()
        cost = rng.uniform(0, 3, size=(k, m))
        F, *stats = _solve_transport(a, b, cost)
        old_F, *old_stats = _former_solve_transport(a, b, cost)
        assert np.array_equal(F, old_F)
        assert stats == old_stats
        blands += stats[2]
    assert blands > 0


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
