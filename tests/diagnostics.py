"""Reference checks the tests compare the package against: measure equality,
gradients, hull slack, covering radius, the exact medoid centers, GMM
likelihood, one-target EM, and reading a CSV report back."""

import dataclasses
import itertools

import numpy as np

from urcd.baselines import VARIANCE_FLOOR, GaussianMixture
from urcd.dnm import DnmModel, dnm_predict
from urcd.harness import CSV_HEADER, Metrics
from urcd.measures import EmpiricalMeasure, mixture, w1_cost
from urcd.neural import Mlp, cross_entropy_grad


def measures_equal(mu: EmpiricalMeasure, nu: EmpiricalMeasure,
                   tol: float = 1e-12) -> bool:
    """Equality as weighted atom multisets, merging coincident atoms."""
    if mu.dim != nu.dim:
        return False

    def merged(m):
        acc: dict[bytes, float] = {}
        for row, w in zip(m.atoms, m.weights):
            key = row.tobytes()
            acc[key] = acc.get(key, 0.0) + w
        return acc

    a, b = merged(mu), merged(nu)
    keys = set(a) | set(b)
    return all(abs(a.get(key, 0.0) - b.get(key, 0.0)) <= tol for key in keys)


def grad_check(net: Mlp, batch, h: float = 1e-5) -> float:
    """Max relative error of analytic vs central-difference gradients."""
    if len(batch) == 0:
        raise ValueError("batch must be non-empty")
    X = np.array([np.asarray(x, dtype=float) for x, _ in batch])
    Y = np.array([np.asarray(y, dtype=float) for _, y in batch])
    _, grad = cross_entropy_grad(net, X, Y)

    def loss_at(idx, step):
        bumped = dataclasses.replace(net)
        bumped.params[idx] += step
        return cross_entropy_grad(bumped, X, Y)[0]

    worst = 0.0
    for idx, a in enumerate(grad):
        numeric = (loss_at(idx, h) - loss_at(idx, -h)) / (2 * h)
        err = abs(a - numeric) / max(abs(a) + abs(numeric), 1e-8)
        worst = max(worst, err)
    return worst


def covering_radius(atoms, targets) -> float:
    """max over targets of the W1 distance to the nearest atom measure."""
    atoms = list(atoms)
    targets = list(targets)
    if not atoms or not targets:
        raise ValueError("atoms and targets must be non-empty")
    return max(min(w1_cost(t, a) for a in atoms) for t in targets)


def medoid_centers(inputs, n_centers: int) -> list:
    """The lexicographically first index subset minimizing the medoid
    objective sum_x min_n ||x - c_n||, by enumerating every subset; the
    oracle for greedy center selection on small inputs."""
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    dist = np.linalg.norm(inputs[:, None, :] - inputs[None, :, :], axis=2)
    best, best_cost = None, np.inf
    for subset in itertools.combinations(range(len(inputs)), n_centers):
        cost = float(dist[:, list(subset)].min(axis=1).sum())
        if cost < best_cost - 1e-12:
            best, best_cost = subset, cost
    return list(best)


def _simplex_grid(n: int, resolution: int):
    """All weight vectors with coordinates i/resolution on the n-simplex."""
    if n == 1:
        yield np.array([1.0])
        return
    if n == 2:
        for i in range(resolution + 1):
            yield np.array([i, resolution - i]) / resolution
        return
    for i in range(resolution + 1):
        for j in range(resolution + 1 - i):
            yield np.array([i, j, resolution - i - j]) / resolution


def projection_slack(model: DnmModel, targets, grid_resolution: int):
    """Worst prediction error and worst hull distance over target pairs.

    targets : list of (x, measure) pairs.  Returns (sup_error,
    sup_hull_dist) where the hull distance is estimated by exhaustive
    search over a simplex grid; only tractable for up to 3 atom measures.
    """
    n = len(model.atoms)
    if n > 3:
        raise ValueError("hull grid search supports at most 3 atom measures")
    if grid_resolution < 1:
        raise ValueError("grid_resolution must be >= 1")
    targets = list(targets)
    if not targets:
        raise ValueError("targets must be non-empty")

    sup_error = max(w1_cost(dnm_predict(model, x), f_x) for x, f_x in targets)

    grid_measures = [mixture(beta, model.atoms)
                     for beta in _simplex_grid(n, grid_resolution)]
    sup_hull = max(min(w1_cost(g, f_x) for g in grid_measures)
                   for _, f_x in targets)
    return sup_error, sup_hull


def _log_gauss_diag(points, means, log_stds):
    """(n, K) matrix of diagonal-Gaussian log densities."""
    var = np.exp(2.0 * log_stds)                       # (K, D)
    diff = points[:, None, :] - means[None, :, :]      # (n, K, D)
    quad = (diff ** 2 / var[None, :, :]).sum(axis=2)
    norm = (np.log(2.0 * np.pi) + 2.0 * log_stds).sum(axis=1)
    return -0.5 * (quad + norm[None, :])


def em_step_one(points, gmm: GaussianMixture) -> GaussianMixture:
    """One E + M update of a single mixture, in the per-target (n, K, D)
    layout; the oracle for the stacked ``em_step``."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    log_p = _log_gauss_diag(points, gmm.means, gmm.log_stds)
    log_p = log_p + np.log(np.clip(gmm.weights, 1e-300, None))[None, :]
    mx = log_p.max(axis=1, keepdims=True)
    resp = np.exp(log_p - mx)
    resp /= resp.sum(axis=1, keepdims=True)

    nk = resp.sum(axis=0)                                   # (K,)
    weights = nk / points.shape[0]
    safe_nk = np.clip(nk, 1e-12, None)
    means = (resp.T @ points) / safe_nk[:, None]
    diff = points[:, None, :] - means[None, :, :]
    var = np.einsum("nk,nkd->kd", resp, diff ** 2) / safe_nk[:, None]
    var = np.maximum(var, VARIANCE_FLOOR)
    return GaussianMixture(weights=weights, means=means,
                           log_stds=0.5 * np.log(var))


def em_fit_one(points, n_components: int, iters: int,
               seed: int) -> GaussianMixture:
    """One target's EM fit by ``em_step_one``, from the seeded data-point
    initialization of ``em_fit_gmm``."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n, _ = points.shape
    rng = np.random.default_rng(seed)
    idx = rng.choice(n, size=n_components, replace=False)
    var0 = np.maximum(points.var(axis=0), VARIANCE_FLOOR)
    gmm = GaussianMixture(weights=np.full(n_components, 1.0 / n_components),
                          means=points[idx].copy(),
                          log_stds=np.tile(0.5 * np.log(var0), (n_components, 1)))
    for _ in range(iters):
        gmm = em_step_one(points, gmm)
    return gmm


def gmm_log_likelihood(gmm: GaussianMixture, points) -> float:
    points = np.atleast_2d(np.asarray(points, dtype=float))
    log_p = _log_gauss_diag(points, gmm.means, gmm.log_stds)
    log_p = log_p + np.log(np.clip(gmm.weights, 1e-300, None))[None, :]
    mx = log_p.max(axis=1, keepdims=True)
    return float((mx[:, 0] + np.log(np.exp(log_p - mx).sum(axis=1))).sum())


def parse_report_csv(path) -> list:
    """Read back an emitted CSV into (model, Metrics) pairs."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if lines[0] != CSV_HEADER:
        raise ValueError("unexpected report header")
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        rows.append((parts[0], Metrics(
            w1_lo=float(parts[1]), w1=float(parts[2]), w1_hi=float(parts[3]),
            m_lo=float(parts[4]), m=float(parts[5]), m_hi=float(parts[6]),
            n_par=int(parts[7]), train_time=float(parts[8]),
            test_time_ratio=float(parts[9]))))
    return rows
