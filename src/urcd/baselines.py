"""Comparison models: mixture-density network, Gaussian-head regressor,
plain mean regressor, and the Monte-Carlo oracle.

The continuous-output models are made comparable to empirical-measure
predictors by sampling: each one can emit an empirical measure of fresh
draws from its predicted law, seeded and reproducible.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from urcd.measures import EmpiricalMeasure, make_empirical
from urcd.neural import (
    FitConfig,
    Mlp,
    activation_fns,
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

    def mean(self) -> np.ndarray:
        return self.weights @ self.means


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


def gmm_log_likelihood(gmm: GaussianMixture, points) -> float:
    points = np.atleast_2d(np.asarray(points, dtype=float))
    log_p = _log_gauss_diag(points, gmm.means, gmm.log_stds)
    log_p = log_p + np.log(np.clip(gmm.weights, 1e-300, None))[None, :]
    mx = log_p.max(axis=1, keepdims=True)
    return float((mx[:, 0] + np.log(np.exp(log_p - mx).sum(axis=1))).sum())


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
# shared squared-error trainer
# ---------------------------------------------------------------------------

def _fit_squared_error(net: Mlp, X, Y, cfg: FitConfig, rng):
    """Adam on mean squared error; returns the trained network."""
    def loss_grad(nets, rows):
        out, pre, post = forward_cache(nets[0], X[rows])
        return (backprop(nets[0], pre, post, 2.0 * (out - Y[rows]) / rows.size),)

    for (net,) in fit_epochs((net,), loss_grad, X.shape[0], cfg, rng):
        pass
    return net


# ---------------------------------------------------------------------------
# mixture-density network
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MdnModel:
    """Trunk network plus an affine head emitting mixture parameters.

    The head output is split as [logits (K) | means (K*D) | log-stds (K*D)];
    trunk features pass through the trunk's activation before the head.
    """

    trunk: Mlp
    head: Mlp
    n_components: int
    out_dim: int

    def parameter_count(self) -> int:
        return n_params(self.trunk) + n_params(self.head)


def _mdn_features(model: MdnModel, X):
    out, pre, post = forward_cache(model.trunk, X)
    act, dact = activation_fns(model.trunk.activation)
    return act(out), dact(out), pre, post


def mdn_predict_params(model: MdnModel, x) -> GaussianMixture:
    """Predicted mixture parameters at a single input."""
    x = np.asarray(x, dtype=float)
    feats, _, _, _ = _mdn_features(model, x[None, :])
    o = mlp_forward(model.head, feats[0])
    K, D = model.n_components, model.out_dim
    return GaussianMixture(weights=softmax(o[:K]),
                           means=o[K:K + K * D].reshape(K, D),
                           log_stds=o[K + K * D:].reshape(K, D))


def _greedy_mean_match(pred_means, targ_means):
    """Permutation aligning target components to the closest predicted ones.

    Repeatedly pairs the globally closest unmatched (predicted, target)
    means; returns perm with perm[k] = index of the target component that
    predicted component k should regress to.
    """
    K = pred_means.shape[0]
    d = np.linalg.norm(pred_means[:, None, :] - targ_means[None, :, :], axis=2)
    perm = np.full(K, -1)
    used_p, used_t = set(), set()
    flat = np.argsort(d, axis=None)
    for f in flat:
        i, j = divmod(int(f), K)
        if i in used_p or j in used_t:
            continue
        perm[i] = j
        used_p.add(i)
        used_t.add(j)
        if len(used_p) == K:
            break
    return perm


def mdn_fit(data, n_components: int, cfg: FitConfig) -> MdnModel:
    """Fit per-input mixture targets by EM, then regress the parameters.

    Squared error on means and log-stds, cross-entropy on the weights,
    with target components greedily re-ordered each step to match the
    currently predicted means.  Deterministic per seed.
    """
    rng = np.random.default_rng(cfg.seed)
    train = data.train_entries()
    X = np.array([x for x, _ in train])
    d_in = X.shape[1]
    D = train[0][1].dim
    K = n_components

    targets = []
    for _, measure in train:
        # seed the EM init from the sample content so identical target
        # measures receive identical mixture decompositions
        content_seed = (cfg.seed * 1_000_003 + zlib.crc32(measure.atoms.tobytes())) % 2**32
        gmm = em_fit_gmm(measure.atoms, min(K, measure.n_atoms),
                         iters=EM_ITERS, seed=content_seed)
        if gmm.n_components < K:      # pad tiny targets by repeating components
            reps = [gmm.weights, gmm.means, gmm.log_stds]
            while reps[0].size < K:
                reps[0] = np.append(reps[0], 0.0)
                reps[1] = np.vstack([reps[1], reps[1][-1]])
                reps[2] = np.vstack([reps[2], reps[2][-1]])
            gmm = GaussianMixture(weights=reps[0], means=reps[1], log_stds=reps[2])
        targets.append(gmm)

    hidden = cfg.hidden_dims if cfg.hidden_dims else (max(8, 2 * d_in),)
    trunk = init_mlp([d_in, *hidden], activation=cfg.activation, rng=rng)
    head = init_mlp([hidden[-1], K + 2 * K * D], activation="identity", rng=rng)

    def loss_grad(nets, rows):
        model = MdnModel(*nets, n_components=K, out_dim=D)
        feats, dfeats, pre, post = _mdn_features(model, X[rows])
        out, h_pre, h_post = forward_cache(model.head, feats)

        d_out = np.zeros_like(out)
        for row, i in enumerate(rows):
            o = out[row]
            logits, means, log_stds = (o[:K], o[K:K + K * D].reshape(K, D),
                                       o[K + K * D:].reshape(K, D))
            t = targets[i]
            perm = _greedy_mean_match(means, t.means)
            tw, tm, ts = t.weights[perm], t.means[perm], t.log_stds[perm]
            p = softmax(logits)
            d_out[row, :K] = p - tw
            d_out[row, K:K + K * D] = 2.0 * (means - tm).ravel()
            d_out[row, K + K * D:] = 2.0 * (log_stds - ts).ravel()
        d_out /= rows.size

        d_feats = (d_out @ model.head.weights[0].T) * dfeats
        return (backprop(model.trunk, pre, post, d_feats),
                backprop(model.head, h_pre, h_post, d_out))

    for nets in fit_epochs((trunk, head), loss_grad, X.shape[0], cfg, rng):
        pass
    return MdnModel(*nets, n_components=K, out_dim=D)


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


def dgn_predict_params(model: GaussianNetModel, x):
    D = model.out_dim
    o = mlp_forward(model.net, np.asarray(x, dtype=float))
    mean = o[:D]
    factor = o[D:].reshape(D, D)
    return mean, factor @ factor.T


def dgn_fit(data, cfg: FitConfig) -> GaussianNetModel:
    """Regress per-input sample mean and covariance Cholesky factor."""
    rng = np.random.default_rng(cfg.seed)
    train = data.train_entries()
    X = np.array([x for x, _ in train])
    D = train[0][1].dim
    targets = []
    for _, measure in train:
        m = measure.mean()
        diff = measure.atoms - m
        cov = (measure.weights[:, None] * diff).T @ diff
        L = np.linalg.cholesky(cov + VARIANCE_FLOOR * np.eye(D))
        targets.append(np.concatenate([m, L.ravel()]))
    Y = np.array(targets)
    net = init_mlp([X.shape[1], *cfg.hidden_dims, D + D * D],
                   activation=cfg.activation, rng=rng)
    net = _fit_squared_error(net, X, Y, cfg, rng)
    return GaussianNetModel(net=net, out_dim=D)


def dgn_predict_measure(model: GaussianNetModel, x, n_samples: int,
                        seed: int) -> EmpiricalMeasure:
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    D = model.out_dim
    o = mlp_forward(model.net, np.asarray(x, dtype=float))
    mean, factor = o[:D], o[D:].reshape(D, D)
    z = np.random.default_rng(seed).standard_normal((n_samples, D))
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


def mean_dnn_fit(data, cfg: FitConfig) -> MeanDnnModel:
    """Squared-error regression onto the empirical means of the targets."""
    rng = np.random.default_rng(cfg.seed)
    train = data.train_entries()
    X = np.array([x for x, _ in train])
    Y = np.array([m.mean() for _, m in train])
    net = init_mlp([X.shape[1], *cfg.hidden_dims, Y.shape[1]],
                   activation=cfg.activation, rng=rng)
    net = _fit_squared_error(net, X, Y, cfg, rng)
    return MeanDnnModel(net=net, out_dim=Y.shape[1])


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

    `sampler` is either an object with a vectorized
    ``draw(x, size, seed) -> (size, D)`` method, or a plain callable
    ``sampler(x, seed) -> point`` invoked once per draw with derived seeds.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if hasattr(sampler, "draw"):
        pts = np.asarray(sampler.draw(x, n_samples, seed), dtype=float)
    else:
        seeds = np.random.SeedSequence(seed).generate_state(n_samples)
        pts = np.array([np.atleast_1d(np.asarray(sampler(x, int(s)), dtype=float))
                        for s in seeds])
    return make_empirical(pts)
