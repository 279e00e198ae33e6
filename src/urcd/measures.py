"""Finitely supported probability measures on R^D and Wasserstein-1 distances.

An empirical measure is a set of atoms (points in R^D) together with a
probability weight vector.  This module provides the exact Wasserstein-1
distance (solved as a balanced transportation problem on the bipartite atom
graph), the fast 1-D closed form, and the mixture operation everything else
in the package is built on.

The exact solver is a transportation simplex that starts from a least-cost
basis and keeps its basis as a rooted spanning tree between pivots, in the
manner of the network simplex (Bonneel et al. 2011): each node keeps its
parent, depth and parent-edge flow in lists; a pivot finds its cycle by
walking up to a common ancestor, reverses the parent pointers from the
entering cell to the cut, and shifts the potentials of the one subtree it
re-hangs by a single constant.  Pricing is by candidate list: one numpy
pass over all cells keeps the most negative few, and the next pivots
re-price only those, in Python.  Its pivot count, degenerate pivots and
whether the anti-cycling rule fired come back on the ``TransportPlan``.
Two measures with the same number of atoms and uniform weights are an
assignment problem, which ``w1_exact`` hands to
``scipy.optimize.linear_sum_assignment`` instead.

A 1-D W1 is a sweep over the merged sorted atoms of its two measures.
Each measure sorts its atoms once, on first use (``line_view``).
``mixture`` mixes a fixed family of measures (a model's atom measures)
over their ``atom_pool``, which sorts the pooled atoms once; a 1-D mixture
takes its sorted order from the pool, so scoring a prediction against a
reference merges two sorted runs and sorts nothing.

All functions here are pure: they never mutate their inputs and are safe to
call concurrently.  The only state is the sort cache of ``line_view``: it
is derived from the measure's read-only arrays, and equality, ``asdict``
and the JSON formats do not see it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

CONSTRUCTION_TOL = 1e-9
FEASIBILITY_TOL = 1e-8


@dataclass(frozen=True)
class EmpiricalMeasure:
    """A probability measure with finite support.

    atoms   : (k, D) array, one row per support point
    weights : (k,) probability vector (entries in [0, 1], sum 1)

    Coincident atoms are permitted and are deliberately not merged.
    """

    atoms: np.ndarray
    weights: np.ndarray

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[0]

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]

    def mean(self) -> np.ndarray:
        """Barycenter sum_j w_j a_j as a (D,) array."""
        return self.weights @ self.atoms

    @cached_property
    def line_view(self) -> tuple[np.ndarray, np.ndarray]:
        """The first coordinates of the atoms in ascending order, and their
        weights: a stable argsort, so tied atoms keep their index order.

        Sorted on first use and kept on the measure (``w1_1d`` reads it).
        ``mixture`` hands its mixtures this view ready-made."""
        return _sorted_view(self, np.argsort(self.atoms[:, 0], kind="stable"))


def _sorted_view(measure: EmpiricalMeasure, order) -> tuple[np.ndarray, np.ndarray]:
    xs, ws = measure.atoms[:, 0][order], measure.weights[order]
    xs.flags.writeable = False
    ws.flags.writeable = False
    return xs, ws


@dataclass(frozen=True)
class TransportPlan:
    """An optimal coupling between two empirical measures.

    coupling : (k, m) matrix; row sums = source weights, column sums =
               target weights
    cost     : sum_ij coupling_ij * ||a_i - b_j||

    What the solver did, as data (all three are 0 / False when the pair
    was solved as an assignment problem, without the simplex):
    pivots            : simplex pivots made from the least-cost start
    degenerate_pivots : pivots that moved no mass (theta = 0)
    bland             : whether the anti-cycling rule took over
    """

    coupling: np.ndarray
    cost: float
    pivots: int = 0
    degenerate_pivots: int = 0
    bland: bool = False


def check_simplex(weights, tol: float = CONSTRUCTION_TOL) -> np.ndarray:
    """Validate a probability vector and return it as a float array."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size < 1:
        raise ValueError("weights must be a non-empty 1-D vector")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    if np.any(w < -tol) or np.any(w > 1.0 + tol):
        raise ValueError("weights must lie in [0, 1]")
    if abs(w.sum() - 1.0) > tol:
        raise ValueError(f"weights must sum to 1 (got {w.sum()!r})")
    return w


def make_empirical(points, weights=None, renormalize: bool = True) -> EmpiricalMeasure:
    """Build an empirical measure from support points and optional weights.

    Weights default to uniform 1/k.  Duplicate points are kept as distinct
    atoms.  Weights are rescaled to sum to exactly 1 so that downstream
    transport solves never see an infeasible marginal; pass
    ``renormalize=False`` to store validated weights verbatim (used by the
    serialization loaders, whose round trip must be bit-exact).
    """
    atoms = np.atleast_2d(np.asarray(points, dtype=float))
    if atoms.size == 0:
        raise ValueError("empty point list")
    if atoms.ndim != 2:
        raise ValueError("points must be a list of equal-length coordinate vectors")
    if not np.all(np.isfinite(atoms)):
        raise ValueError("point coordinates must be finite")
    k = atoms.shape[0]
    if weights is None:
        w = np.full(k, 1.0 / k)
    else:
        w = check_simplex(weights)
        if w.size != k:
            raise ValueError(f"{w.size} weights for {k} points")
        if renormalize:
            w = np.clip(w, 0.0, None)
            w = w / w.sum()
    atoms = atoms.copy()
    atoms.flags.writeable = False
    w.flags.writeable = False
    return EmpiricalMeasure(atoms=atoms, weights=w)


def _check_same_dim(mu: EmpiricalMeasure, nu: EmpiricalMeasure):
    if mu.dim != nu.dim:
        raise ValueError(f"dimension mismatch: {mu.dim} vs {nu.dim}")


def _distance_matrix(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> np.ndarray:
    diff = mu.atoms[:, None, :] - nu.atoms[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


# ---------------------------------------------------------------------------
# Exact solver: transportation simplex on the bipartite atom graph
# ---------------------------------------------------------------------------

def _least_cost_start(a, b, cost):
    """Initial basic feasible solution by the least-cost rule: flows keyed
    by basis cell, in the order the cells enter the basis.

    Cells are visited cheapest first (stable argsort, so ties go in row-major
    order); a cell whose row or column is closed is skipped.  Every other
    cell takes as much mass as its row and column have left and closes
    exactly one of them, so the k + m - 1 cells form a spanning tree."""
    k, m = cost.shape
    ra, rb = a.tolist(), b.tolist()
    row_open, col_open = [True] * k, [True] * m
    rows, cols = k, m
    flow = {}
    order = np.argsort(cost, axis=None, kind="stable")
    for i, j in zip((order // m).tolist(), (order % m).tolist()):
        if not (row_open[i] and col_open[j]):
            continue
        t = min(ra[i], rb[j])
        flow[(i, j)] = t
        ra[i] -= t
        rb[j] -= t
        if rows == 1 and cols == 1:
            break
        if (ra[i] <= rb[j] and rows > 1) or cols == 1:
            row_open[i] = False
            rows -= 1
        else:
            col_open[j] = False
            cols -= 1
    return flow


def _solve_transport(a, b, cost):
    """Minimize <F, cost> over couplings of marginals a, b.

    Returns ``(F, pivots, degenerate_pivots, bland)``.  Transportation
    simplex from a least-cost starting basis (``_least_cost_start``), with
    candidate-list pricing and a Bland fallback after more than 100
    consecutive degenerate pivots (only degenerate pivots can cycle, and
    they cannot under Bland's rule).  Supplies/demands must be strictly
    positive.

    Nodes 0..k-1 are the sources and k..k+m-1 the sinks; the basis cells
    are the edges of a spanning tree rooted at source 0.  Each node keeps,
    in lists, its parent, its depth and the flow on the edge to its parent,
    and the neighbour set it walks subtrees by.  The potentials (duals)
    satisfy ``cost[i, j] = pot[i] - pot[k + j]`` on every tree edge: the
    sinks' potentials are stored negated, so cell (i, j) prices at
    ``cost[i, j] - pot[i] + pot[k + j]``.

    Pricing.  A full pricing computes the reduced costs of all k*m cells in
    numpy and keeps the `L` most negative, sorted by reduced cost, ties in
    row-major order; the first of them enters.  `L` is half of sqrt(k*m),
    and at least 24.  The next pivots re-price only the kept cells, in
    Python, and the most negative enters (the first in list order on
    ties).  A fresh full pricing is made once none of them is below -`tol`,
    or after `L` pivots; the solve ends when a full pricing finds no cell
    below -`tol`.  Under Bland's rule every pivot prices in full and takes
    the first violating cell in row-major order.

    A pivot walks from the entering cell's sink and source up to their
    common ancestor, which lists the cycle's tree path from sink to source;
    every other cell, starting at the sink's, loses flow, and the first of
    them with the least flow leaves.  Removing it cuts one subtree off the
    tree.  The parent pointers on the path from the entering endpoint
    inside it up to the cut are reversed, so that the subtree hangs from
    the entering cell, and one walk over the subtree sets its depths and
    shifts all its potentials by the entering cell's reduced cost (down
    when the subtree holds the sink, up when it holds the source).
    """
    k, m = cost.shape
    n = k + m
    start = _least_cost_start(a, b, cost)
    c = cost.tolist()
    nbrs = [set() for _ in range(n)]
    for i, j in start:
        nbrs[i].add(k + j)
        nbrs[k + j].add(i)
    parent = [-1] * n
    depth = [0] * n
    pot = [0.0] * n
    up = [0.0] * n                    # flow on the edge to the parent
    stack = [0]
    while stack:
        x = stack.pop()
        for y in nbrs[x]:
            if y != parent[x]:
                parent[y] = x
                depth[y] = depth[x] + 1
                if x < k:
                    pot[y] = pot[x] - c[x][y - k]
                    up[y] = start[(x, y - k)]
                else:
                    pot[y] = pot[x] + c[y][x - k]
                    up[y] = start[(y, x - k)]
                stack.append(y)

    tol = 1e-12 * (1.0 + float(cost.max(initial=0.0)))
    n_cands = max(24, math.isqrt(k * m) // 2)       # L in the docstring
    bland = False
    stall = 0
    pivots = degenerate = 0
    max_iters = 50 * (k + m) ** 2 + 1000

    # priced in place, no k*m allocation per pivot; C order, so `flat` is a view
    reduced = np.empty((k, m))
    flat = reduced.reshape(-1)
    costs = cost.reshape(-1)
    cands = []                        # (i, k + j, cost) of the kept cells
    age = n_cands                     # pivots since the last full pricing
    for _ in range(max_iters):
        r = 0.0
        if not bland and age < n_cands:
            for cell in cands:
                rc = cell[2] - pot[cell[0]] + pot[cell[1]]
                if rc < r:
                    r, best = rc, cell
        if r < -tol:
            age += 1
        else:
            duals = np.array(pot)
            np.subtract(cost, duals[:k, None], out=reduced)
            reduced += duals[None, k:]
            idx = np.flatnonzero(flat < -tol)
            if idx.size == 0:
                break
            if bland:
                idx = idx[:1]             # the first violating cell, row-major
            else:
                vals = flat[idx]
                if idx.size > 4 * n_cands:
                    # drop what cannot be among the L most negative; ties stay
                    keep = vals <= np.partition(vals, n_cands - 1)[n_cands - 1]
                    idx, vals = idx[keep], vals[keep]
                # stable: equal reduced costs stay in row-major order
                idx = idx[np.argsort(vals, kind="stable")[:n_cands]]
            cands = list(zip((idx // m).tolist(), (idx % m + k).tolist(),
                             costs[idx].tolist()))
            best = cands[0]
            age = 1
            r = best[2] - pot[best[0]] + pot[best[1]]
        ei, kj = best[0], best[1]

        # unique cycle: entering cell plus the tree path sink -> source; the
        # path nodes are listed by the tree edge to their parent
        x, y = kj, ei
        sink_side, source_side = [], []
        while x != y:
            if depth[x] >= depth[y]:
                sink_side.append(x)
                x = parent[x]
            else:
                source_side.append(y)
                y = parent[y]
        # the minus cells: edges walked from a sink to a source
        theta = math.inf
        for x in sink_side[0::2]:
            if up[x] < theta:
                theta, cut = up[x], x
        cut_sink = True
        for y in reversed(source_side[0::2]):
            if up[y] < theta:
                theta, cut = up[y], y
                cut_sink = False
        if theta > 0.0:
            for x in sink_side[0::2]:
                up[x] -= theta
            for x in sink_side[1::2]:
                up[x] += theta
            for y in source_side[0::2]:
                up[y] -= theta
            for y in source_side[1::2]:
                up[y] += theta

        # the cut-off subtree holds the entering endpoint on the leaving side
        inner, outer, shift = (kj, ei, -r) if cut_sink else (ei, kj, r)
        nbrs[cut].discard(parent[cut])
        nbrs[parent[cut]].discard(cut)
        nbrs[ei].add(kj)
        nbrs[kj].add(ei)
        x, above, flow = inner, outer, theta
        while True:
            next_x, next_flow = parent[x], up[x]
            parent[x], up[x] = above, flow
            if x == cut:
                break
            x, above, flow = next_x, x, next_flow
        depth[inner] = depth[outer] + 1
        pot[inner] += shift
        stack = [inner]
        while stack:
            x = stack.pop()
            px, dy = parent[x], depth[x] + 1
            for y in nbrs[x]:
                if y != px:
                    depth[y] = dy
                    pot[y] += shift
                    stack.append(y)

        pivots += 1
        if theta == 0.0:
            degenerate += 1
        # a pivot that moves mass ends a stall; the first pivot never stalls
        if pivots == 1 or theta > 0.0:
            stall = 0
        else:
            stall += 1
            if stall > 100:
                bland = True
    else:
        raise RuntimeError("transport solver failed to converge (internal bug)")

    F = np.zeros((k, m))
    for x in range(1, n):
        if up[x] > 0.0:
            if x < k:
                F[x, parent[x] - k] = up[x]
            else:
                F[parent[x], x - k] = up[x]
    return F, pivots, degenerate, bland


def _positive_part(measure: EmpiricalMeasure):
    """Indices of the atoms of positive weight, and their weights renormalised."""
    idx = np.flatnonzero(measure.weights > 0.0)
    return idx, measure.weights[idx] / measure.weights[idx].sum()


def w1_exact(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> TransportPlan:
    """Exact Wasserstein-1 distance with an optimal coupling.

    Solves the balanced min-cost transportation problem between the atom
    sets under the Euclidean ground metric.  Deterministic for fixed
    inputs.  Atoms of weight zero receive zero coupling rows/columns.

    Once those atoms are dropped, two sides with the same number of atoms
    and every weight on each side equal are an assignment problem: an
    optimal coupling is a permutation scaled by the common weight, which
    ``scipy.optimize.linear_sum_assignment`` finds exactly.  That plan
    reports 0 pivots.  Every other pair goes through ``_solve_transport``.
    """
    _check_same_dim(mu, nu)
    cost = _distance_matrix(mu, nu)

    ia, a = _positive_part(mu)
    ib, b = _positive_part(nu)
    sub_cost = cost[np.ix_(ia, ib)]
    if a.size == b.size and np.all(a == a[0]) and np.all(b == b[0]):
        # imported here: scipy.optimize would add ~0.2 s to `import urcd.cli`
        from scipy.optimize import linear_sum_assignment

        rows, cols = linear_sum_assignment(sub_cost)
        sub = np.zeros_like(sub_cost)
        sub[rows, cols] = a[rows]
        pivots = degenerate = 0
        bland = False
    else:
        sub, pivots, degenerate, bland = _solve_transport(a, b, sub_cost)

    coupling = np.zeros((mu.n_atoms, nu.n_atoms))
    coupling[np.ix_(ia, ib)] = sub
    total = float(np.sum(coupling * cost))

    row_err = np.abs(coupling.sum(axis=1) - mu.weights).max()
    col_err = np.abs(coupling.sum(axis=0) - nu.weights).max()
    if max(row_err, col_err) > FEASIBILITY_TOL:
        raise RuntimeError("transport solver returned infeasible plan (internal bug)")
    return TransportPlan(coupling=coupling, cost=total, pivots=pivots,
                         degenerate_pivots=degenerate, bland=bland)


def w1_1d(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    """Wasserstein-1 on the line: integral of |CDF_mu - CDF_nu|.

    Merged-breakpoint sweep over the union of the supports; agrees with
    ``w1_exact`` to 1e-9.  The two sorted views (``line_view``) are merged
    rather than the union sorted: nu's j-th sorted atom goes to position
    ``searchsorted(mu's atoms, it, side="right") + j``, which is the order
    a stable argsort of mu's atoms followed by nu's gives (on ties, mu's
    atoms first).  Each atom adds ``w - 0.0`` (mu) or ``0.0 - w`` (nu) to
    the CDF gap, so the cumulative sum runs over the same sequence, and
    gives the same bits, as sorting the union would.
    """
    _check_same_dim(mu, nu)
    if mu.dim != 1:
        raise ValueError("w1_1d requires 1-D measures")
    xa, wa = mu.line_view
    xb, wb = nu.line_view
    n = xa.size + xb.size
    at_b = np.searchsorted(xa, xb, side="right") + np.arange(xb.size)
    at_a = np.ones(n, dtype=bool)
    at_a[at_b] = False
    xs = np.empty(n)
    xs[at_a] = xa
    xs[at_b] = xb
    steps = np.empty(n)
    steps[at_a] = wa - 0.0
    steps[at_b] = 0.0 - wb
    gap = np.diff(xs)
    cdf_gap = np.cumsum(steps)[:-1]
    return float(np.abs(cdf_gap) @ gap)


@dataclass(frozen=True)
class AtomPool:
    """Measures mu_1..mu_N laid end to end, to be mixed again and again.

    atoms   : (K, D) the atoms of mu_1, then those of mu_2, ...
    weights : (K,) each atom's weight within its own measure
    sizes   : (N,) the atom count of each measure
    order   : for D = 1, the stable argsort of the atoms; None otherwise
    """

    atoms: np.ndarray
    weights: np.ndarray
    sizes: np.ndarray
    order: np.ndarray | None


def atom_pool(measures) -> AtomPool:
    """Pool measures that share an ambient dimension (see ``mixture``)."""
    measures = list(measures)
    dims = {m.dim for m in measures}
    if len(dims) != 1:
        raise ValueError("measures must share an ambient dimension")
    atoms = np.concatenate([m.atoms for m in measures], axis=0)
    order = np.argsort(atoms[:, 0], kind="stable") if dims == {1} else None
    return AtomPool(atoms=atoms,
                    weights=np.concatenate([m.weights for m in measures]),
                    sizes=np.array([m.n_atoms for m in measures]),
                    order=order)


def mixture(beta, pool: AtomPool) -> EmpiricalMeasure:
    """Convex combination sum_n beta_n * mu_n of the pooled measures.

    Atom j of measure n enters with weight beta_n * w_nj, in pool order;
    atoms whose mixture weight is exactly zero are dropped.  A 1-D
    mixture gets its ``line_view`` from the pool's order, restricted to
    the atoms it keeps, so it is never sorted on its own.
    """
    beta = check_simplex(beta)
    if beta.size != pool.sizes.size:
        raise ValueError(f"{beta.size} coefficients for {pool.sizes.size} measures")
    weights = np.repeat(beta, pool.sizes) * pool.weights
    keep = weights > 0.0
    atoms, order = pool.atoms, pool.order
    if not keep.all():
        atoms, weights = atoms[keep], weights[keep]
        if order is not None:
            # the kept atoms in pool order, renumbered among themselves
            order = (np.cumsum(keep) - 1)[order[keep[order]]]
    mix = make_empirical(atoms, weights)
    if order is not None:
        # seeds the cache of the (frozen) measure's cached_property
        mix.__dict__["line_view"] = _sorted_view(mix, order)
    return mix


def w1_cost(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    """W1 value, dispatching to the 1-D sweep when both measures live on R."""
    if mu.dim == 1 and nu.dim == 1:
        return w1_1d(mu, nu)
    return w1_exact(mu, nu).cost
