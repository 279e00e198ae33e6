"""Comparison models: mixture-density network, Gaussian-head regressor,
plain mean regressor, and the Monte-Carlo oracle.

The continuous-output models are made comparable to empirical-measure
predictors by sampling: each one can emit an empirical measure of fresh
draws from its predicted law, seeded and reproducible.

The three trained models are one network each, and one helper
(``_fit_network``) trains them under their own output gradients.  The MDN
is a single ``Mlp`` whose last affine layer emits the mixture parameters,
as in Bishop's mixture density networks.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from urcd.measures import EmpiricalMeasure, make_empirical
from urcd.neural import (
    Mlp,
    NetConfig,
    backprop,
    fit_epochs,
    forward_cache,
    init_mlp,
    mlp_forward,
    n_params,
    softmax,
)

VARIANCE_FLOOR = 1e-6
EM_ITERS = 50      # EM iterations per MDN target decomposition


@dataclass(frozen=True)
class GaussianMixture:
    """Diagonal-covariance Gaussian mixture in R^D."""

    weights: np.ndarray    # (K,)
    means: np.ndarray      # (K, D)
    log_stds: np.ndarray   # (K, D)

    @property
    def n_components(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


# ---------------------------------------------------------------------------
# EM for diagonal Gaussian mixtures
# ---------------------------------------------------------------------------

def _log_gauss_diag(points, means, log_stds):
    """(n, K) matrix of diagonal-Gaussian log densities."""
    var = np.exp(2.0 * log_stds)                       # (K, D)
    diff = points[:, None, :] - means[None, :, :]      # (n, K, D)
    quad = (diff ** 2 / var[None, :, :]).sum(axis=2)
    norm = (np.log(2.0 * np.pi) + 2.0 * log_stds).sum(axis=1)
    return -0.5 * (quad + norm[None, :])


def em_step(points, gmm: GaussianMixture) -> GaussianMixture:
    """One E + M update; never decreases the log-likelihood."""
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


def em_fit_gmm(points, n_components: int, iters: int = 50,
               seed: int = 0) -> GaussianMixture:
    """Diagonal-covariance GMM by EM with a seeded data-point initialization."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n, dim = points.shape
    if n_components > n:
        raise ValueError("more components than points")
    rng = np.random.default_rng(seed)
    idx = rng.choice(n, size=n_components, replace=False)
    var0 = np.maximum(points.var(axis=0), VARIANCE_FLOOR)
    gmm = GaussianMixture(weights=np.full(n_components, 1.0 / n_components),
                          means=points[idx].copy(),
                          log_stds=np.tile(0.5 * np.log(var0), (n_components, 1)))
    for _ in range(iters):
        gmm = em_step(points, gmm)
    return gmm


def sample_gmm(gmm: GaussianMixture, n_samples: int,
               rng: np.random.Generator) -> np.ndarray:
    comp = rng.choice(gmm.n_components, size=n_samples, p=gmm.weights / gmm.weights.sum())
    z = rng.standard_normal((n_samples, gmm.dim))
    return gmm.means[comp] + np.exp(gmm.log_stds[comp]) * z


# ---------------------------------------------------------------------------
# shared network trainer
# ---------------------------------------------------------------------------

def _fit_network(data, hidden_dims, out_dim: int, output_grad,
                 cfg: NetConfig, seed: int) -> Mlp:
    """Minibatch Adam on a seeded network from the training inputs to out_dim
    outputs; returns the trained network.

    output_grad(out, rows) is the gradient of the loss, averaged over the
    index array rows, w.r.t. the network outputs out of those rows.
    """
    rng = np.random.default_rng(seed)
    X = data.train_inputs()
    net = init_mlp([X.shape[1], *hidden_dims, out_dim],
                   activation=cfg.activation, rng=rng)

    def loss_grad(net, rows):
        out, pre, post = forward_cache(net, X[rows])
        return backprop(net, pre, post, output_grad(out, rows))

    for net in fit_epochs(net, loss_grad, X.shape[0], cfg, rng):
        pass
    return net


def _fit_squared_error(data, Y, cfg: NetConfig, seed: int) -> Mlp:
    """Mean squared error from the training inputs to the rows of Y."""
    return _fit_network(data, cfg.hidden_dims, Y.shape[1],
                        lambda out, rows: 2.0 * (out - Y[rows]) / rows.size,
                        cfg, seed)


# ---------------------------------------------------------------------------
# mixture-density network
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MdnModel:
    """One network whose last affine layer emits the mixture parameters.

    The output is split as [logits (K) | means (K*D) | log-stds (K*D)].
    """

    net: Mlp
    n_components: int
    out_dim: int

    def parameter_count(self) -> int:
        return n_params(self.net)


def mdn_predict_params(model: MdnModel, x) -> GaussianMixture:
    """Predicted mixture parameters at a single input."""
    o = mlp_forward(model.net, np.asarray(x, dtype=float))
    K, D = model.n_components, model.out_dim
    return GaussianMixture(weights=softmax(o[:K]),
                           means=o[K:K + K * D].reshape(K, D),
                           log_stds=o[K + K * D:].reshape(K, D))


def _greedy_match(pred_means, targ_means):
    """Per-row permutations aligning target components to predicted ones.

    pred_means, targ_means : (B, K, D).  In each row, repeatedly pairs the
    globally closest unmatched (predicted, target) means; returns perm
    (B, K) with perm[b, k] = index of the target component that predicted
    component k of row b should regress to.  Each of the K rounds takes,
    in every row, the first pair in ``np.argsort`` order (default kind, so
    ties break as a row-by-row sort breaks them) whose two components are
    both still unmatched.
    """
    B, K, _ = pred_means.shape
    d = np.linalg.norm(pred_means[:, :, None, :] - targ_means[:, None, :, :],
                       axis=-1)
    pi, tj = np.divmod(np.argsort(d.reshape(B, K * K), axis=-1), K)
    free = np.ones((B, K * K), dtype=bool)    # sorted pairs still open
    perm = np.empty((B, K), dtype=int)
    rows = np.arange(B)
    for _ in range(K):
        first = free.argmax(axis=1)
        i, j = pi[rows, first], tj[rows, first]
        perm[rows, i] = j
        free &= (pi != i[:, None]) & (tj != j[:, None])
    return perm


def _mdn_output_grad(out, t_weights, t_means, t_log_stds):
    """Gradient of the MDN loss, averaged over the rows, w.r.t. the network
    output.

    out : (B, K + 2KD) network outputs; the targets of the same rows are
    t_weights (B, K), t_means and t_log_stds (B, K, D).  Target components
    are first re-ordered to match the predicted means.
    """
    B, K, D = t_means.shape
    means = out[:, K:K + K * D].reshape(B, K, D)
    log_stds = out[:, K + K * D:].reshape(B, K, D)
    perm = _greedy_match(means, t_means)
    tw = np.take_along_axis(t_weights, perm, axis=1)
    tm = np.take_along_axis(t_means, perm[:, :, None], axis=1)
    ts = np.take_along_axis(t_log_stds, perm[:, :, None], axis=1)
    d_out = np.empty_like(out)
    d_out[:, :K] = softmax(out[:, :K]) - tw
    d_out[:, K:K + K * D] = 2.0 * (means - tm).reshape(B, K * D)
    d_out[:, K + K * D:] = 2.0 * (log_stds - ts).reshape(B, K * D)
    d_out /= B
    return d_out


def mdn_fit(data, n_components: int, cfg: NetConfig = NetConfig(),
            seed: int = 0) -> MdnModel:
    """Fit per-input mixture targets by EM, then regress the parameters.

    Squared error on means and log-stds, cross-entropy on the weights,
    with target components greedily re-ordered each step to match the
    currently predicted means (``_greedy_match``, a whole minibatch at
    once).  Deterministic per seed.
    """
    D = data.output_dim
    K = n_components

    targets = []
    for _, measure in data.train_entries():
        # seed the EM init from the sample content so identical target
        # measures receive identical mixture decompositions
        content_seed = (seed * 1_000_003 + zlib.crc32(measure.atoms.tobytes())) % 2**32
        n = min(K, measure.n_atoms)
        gmm = em_fit_gmm(measure.atoms, n, iters=EM_ITERS, seed=content_seed)
        if n < K:    # pad tiny targets by repeating the last component, weight 0
            idx = np.minimum(np.arange(K), n - 1)
            gmm = GaussianMixture(weights=np.append(gmm.weights, np.zeros(K - n)),
                                  means=gmm.means[idx], log_stds=gmm.log_stds[idx])
        targets.append(gmm)
    t_weights = np.array([t.weights for t in targets])     # (N, K)
    t_means = np.array([t.means for t in targets])         # (N, K, D)
    t_log_stds = np.array([t.log_stds for t in targets])   # (N, K, D)

    hidden = cfg.hidden_dims if cfg.hidden_dims else (max(8, 2 * data.input_dim),)
    net = _fit_network(
        data, hidden, K + 2 * K * D,
        lambda out, rows: _mdn_output_grad(out, t_weights[rows], t_means[rows],
                                           t_log_stds[rows]), cfg, seed)
    return MdnModel(net=net, n_components=K, out_dim=D)


def mdn_predict_measure(model: MdnModel, x, n_samples: int,
                        seed: int) -> EmpiricalMeasure:
    """Empirical measure of draws from the predicted mixture at x."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    gmm = mdn_predict_params(model, x)
    pts = sample_gmm(gmm, n_samples, np.random.default_rng(seed))
    return make_empirical(pts)


# ---------------------------------------------------------------------------
# Gaussian-head regressor (mean + covariance factor)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianNetModel:
    """Network emitting a mean in R^D and a D x D covariance factor L.

    The predicted covariance L L^T is positive semi-definite by
    construction.
    """

    net: Mlp
    out_dim: int

    def parameter_count(self) -> int:
        return n_params(self.net)


def _dgn_head(model: GaussianNetModel, x):
    """Predicted mean and covariance factor L at a single input."""
    D = model.out_dim
    o = mlp_forward(model.net, np.asarray(x, dtype=float))
    return o[:D], o[D:].reshape(D, D)


def dgn_fit(data, cfg: NetConfig = NetConfig(), seed: int = 0) -> GaussianNetModel:
    """Regress per-input sample mean and covariance Cholesky factor."""
    D = data.output_dim
    targets = []
    for _, measure in data.train_entries():
        m = measure.mean()
        diff = measure.atoms - m
        cov = (measure.weights[:, None] * diff).T @ diff
        L = np.linalg.cholesky(cov + VARIANCE_FLOOR * np.eye(D))
        targets.append(np.concatenate([m, L.ravel()]))
    net = _fit_squared_error(data, np.array(targets), cfg, seed)
    return GaussianNetModel(net=net, out_dim=D)


def dgn_predict_measure(model: GaussianNetModel, x, n_samples: int,
                        seed: int) -> EmpiricalMeasure:
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    mean, factor = _dgn_head(model, x)
    z = np.random.default_rng(seed).standard_normal((n_samples, model.out_dim))
    return make_empirical(mean + z @ factor.T)


# ---------------------------------------------------------------------------
# plain mean regressor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeanDnnModel:
    net: Mlp
    out_dim: int

    def parameter_count(self) -> int:
        return n_params(self.net)


def mean_dnn_fit(data, cfg: NetConfig = NetConfig(), seed: int = 0) -> MeanDnnModel:
    """Squared-error regression onto the empirical means of the targets."""
    Y = np.array([m.mean() for _, m in data.train_entries()])
    return MeanDnnModel(net=_fit_squared_error(data, Y, cfg, seed),
                        out_dim=data.output_dim)


def mean_dnn_predict(model: MeanDnnModel, x) -> np.ndarray:
    return mlp_forward(model.net, np.asarray(x, dtype=float))


def mean_dnn_predict_measure(model: MeanDnnModel, x) -> EmpiricalMeasure:
    """Point prediction as a Dirac measure."""
    return make_empirical([mean_dnn_predict(model, x)])


# ---------------------------------------------------------------------------
# Monte-Carlo oracle
# ---------------------------------------------------------------------------

def mc_oracle(sampler, x, n_samples: int, seed: int) -> EmpiricalMeasure:
    """Uniform empirical measure on fresh i.i.d. draws from the true law.

    `sampler` has a vectorized ``draw(x, size, seed) -> (size, D)`` method.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    return make_empirical(np.asarray(sampler.draw(x, n_samples, seed), dtype=float))
