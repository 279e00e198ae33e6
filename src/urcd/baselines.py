"""Comparison models: mixture-density network, Gaussian-head regressor,
plain mean regressor, and the Monte-Carlo oracle.

The continuous-output models are made comparable to empirical-measure
predictors by sampling: each one can emit an empirical measure of fresh
draws from its predicted law, seeded and reproducible.

The three trained models are one network each, and one helper
(``_fit_network``) trains them under their own output gradients.  The MDN
is a single ``Mlp`` whose last affine layer emits the mixture parameters,
as in Bishop's mixture density networks.  Its regression targets are EM
fits of the training measures, made by ``em_fit_gmm`` on stacks of equal-size
targets at once; ``EM_CHUNK_CELLS`` bounds a stack, so that the faster
stacked fit does not raise the peak memory of a run.
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
# Atom-component cells (targets x atoms x K x D) per stacked EM call, e.g.
# 10 targets of 500 atoms at K x D = 3.  Stacks run EM ~3x faster than one
# target at a time, but their arrays add to the peak RSS: on the perfbench
# hetero-minibatch experiment (100 such targets) one unbounded stack adds
# ~6 MB and 48,000 cells 0.3 MB, while this bound leaves it flat.
EM_CHUNK_CELLS = 16_000


@dataclass(frozen=True)
class GaussianMixture:
    """Diagonal-covariance Gaussian mixture in R^D, or a stack of B of them
    (a leading B axis on every field)."""

    weights: np.ndarray    # (K,)
    means: np.ndarray      # (K, D)
    log_stds: np.ndarray   # (K, D)

    @property
    def n_components(self) -> int:
        return self.means.shape[-2]

    @property
    def dim(self) -> int:
        return self.means.shape[-1]


# ---------------------------------------------------------------------------
# EM for diagonal Gaussian mixtures
# ---------------------------------------------------------------------------

def _sum_first(a: np.ndarray) -> np.ndarray:
    """a summed over its first axis in the order numpy sums a contiguous
    row of len(a) values: term by term below 8 terms; from 8 terms numpy
    sums pairwise, so its own sum runs on a copy with that axis last."""
    if len(a) >= 8:
        return np.moveaxis(a, 0, -1).copy().sum(axis=-1)
    total = a[0].copy()
    for row in a[1:]:
        total += row
    return total


def em_step(points, gmm: GaussianMixture) -> GaussianMixture:
    """One E + M update of every mixture of a stack on its own target's
    points; never decreases a target's log-likelihood.

    points (B, n, D); gmm's weights (B, K), means and log-stds (B, K, D).
    Each pass runs component-major, over (D, K, B, n) arrays, so its rows
    are n long rather than K.  Every sum keeps the order of a one-target
    update, so a target's bits do not depend on the stack it sits in: the
    sums over D and K run in the order of numpy's contiguous sum
    (``_sum_first``), the means are the same BLAS product on the same
    (B, n, K) memory, and the sums over the points run term by term
    (``cumsum``).
    """
    points = np.asarray(points, dtype=float)
    _, n, D = points.shape
    K = gmm.weights.shape[1]
    by_dim = points.transpose(2, 0, 1)[:, None]                # (D, 1, B, n)

    # E step: responsibilities, (K, B, n)
    quad = by_dim - gmm.means.transpose(2, 1, 0)[..., None]    # (D, K, B, n)
    quad **= 2
    quad /= np.exp(2.0 * gmm.log_stds).transpose(2, 1, 0)[..., None]
    norm = (np.log(2.0 * np.pi) + 2.0 * gmm.log_stds).sum(axis=-1)   # (B, K)
    log_p = _sum_first(quad)
    log_p += norm.T[..., None]
    log_p *= -0.5
    log_p += np.log(np.clip(gmm.weights, 1e-300, None)).T[..., None]
    log_p -= np.maximum.reduce(log_p)
    resp = np.exp(log_p, out=log_p)
    resp /= _sum_first(resp)

    # M step
    nk = np.cumsum(resp, axis=-1)[..., -1]                     # (K, B)
    safe_nk = np.clip(nk, 1e-12, None).T[..., None]            # (B, K, 1)
    by_target = np.moveaxis(resp, 0, -1).copy()                # (B, n, K)
    means = (by_target.transpose(0, 2, 1) @ points) / safe_nk  # (B, K, D)
    sq = by_dim - means.transpose(2, 1, 0)[..., None]          # (D, K, B, n)
    sq **= 2
    if K * D == 1:   # one target sums this single product row by numpy's dot
        sq = np.einsum("kbn,dkbn->dkb", resp, sq)
    else:
        sq *= resp
        sq = np.cumsum(sq, axis=-1)[..., -1]
    var = np.maximum(sq.transpose(2, 1, 0) / safe_nk, VARIANCE_FLOOR)
    return GaussianMixture(weights=(nk / n).T, means=means,
                           log_stds=0.5 * np.log(var))


def em_fit_gmm(points, n_components: int, iters: int = 50, *,
               seed) -> GaussianMixture:
    """Diagonal-covariance GMMs by EM, one per target of a stack, each from
    a seeded data-point initialization.

    points (B, n, D) with seed a sequence of B seeds, one per target,
    returns stacked mixtures (weights (B, K), means and log-stds (B, K, D)).
    A target's fit is bit for bit the same in any stack, a stack of one
    included.  Each working array of a step is K times the size of the
    points, so a caller bounds a stack (``mdn_fit`` by ``EM_CHUNK_CELLS``).
    """
    points = np.asarray(points, dtype=float)
    B, n, _ = points.shape
    if n_components > n:
        raise ValueError("more components than points")
    means, log_stds = [], []
    for target, target_seed in zip(points, seed, strict=True):
        idx = np.random.default_rng(target_seed).choice(n, size=n_components,
                                                        replace=False)
        var0 = np.maximum(target.var(axis=0), VARIANCE_FLOOR)
        means.append(target[idx])
        log_stds.append(np.tile(0.5 * np.log(var0), (n_components, 1)))
    gmm = GaussianMixture(weights=np.full((B, n_components), 1.0 / n_components),
                          means=np.array(means), log_stds=np.array(log_stds))
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

def _fit_network(data, out_dim: int, output_grad, cfg: NetConfig,
                 seed: int) -> Mlp:
    """Minibatch Adam on a seeded network from the training inputs to out_dim
    outputs; returns the trained network.

    output_grad(out, rows) is the gradient of the loss, averaged over the
    index array rows, w.r.t. the network outputs out of those rows.
    """
    rng = np.random.default_rng(seed)
    X = data.train_inputs()
    net = init_mlp([X.shape[1], *cfg.hidden_dims, out_dim],
                   activation=cfg.activation, rng=rng)

    def loss_grad(net, rows):
        out, pre, post = forward_cache(net, X[rows])
        return backprop(net, pre, post, output_grad(out, rows))

    return fit_epochs(net, loss_grad, X.shape[0], cfg, rng)


def _fit_squared_error(data, Y, cfg: NetConfig, seed: int) -> Mlp:
    """Mean squared error from the training inputs to the rows of Y."""
    return _fit_network(data, Y.shape[1],
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
    component k of row b should regress to.  Each round takes, in every
    row, the first pair in ``np.argsort`` order (default kind, so ties
    break as a row-by-row sort breaks them) whose two components are both
    still unmatched.  That is sorted position 0 in the first round, and in
    the last round the one pair left, found by elimination, so only K - 2
    rounds search.  The distances are ``np.linalg.norm``'s own expression,
    so they and the order are the same bits.
    """
    B, K, _ = pred_means.shape
    diff = pred_means[:, :, None, :] - targ_means[:, None, :, :]
    d = np.sqrt(np.add.reduce(diff * diff, axis=-1))
    pi, tj = np.divmod(np.argsort(d.reshape(B, K * K), axis=-1), K)
    perm = np.empty((B, K), dtype=int)
    rows = np.arange(B)
    i, j = pi[:, 0], tj[:, 0]
    perm[rows, i] = j
    # sums of the indices each row has still to match
    i_left, j_left = K * (K - 1) // 2 - i, K * (K - 1) // 2 - j
    free = np.ones((B, K * K), dtype=bool)    # sorted pairs still open
    for _ in range(K - 2):
        free &= (pi != i[:, None]) & (tj != j[:, None])
        first = free.argmax(axis=1)
        i, j = pi[rows, first], tj[rows, first]
        perm[rows, i] = j
        i_left -= i
        j_left -= j
    perm[rows, i_left] = j_left
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
    matched = np.arange(B)[:, None], _greedy_match(means, t_means)
    tw, tm, ts = t_weights[matched], t_means[matched], t_log_stds[matched]
    d_out = np.empty_like(out)
    d_out[:, :K] = softmax(out[:, :K]) - tw
    d_out[:, K:K + K * D] = 2.0 * (means - tm).reshape(B, K * D)
    d_out[:, K + K * D:] = 2.0 * (log_stds - ts).reshape(B, K * D)
    d_out /= B
    return d_out


def _mdn_targets(data, K: int, seed: int):
    """The EM decomposition of every training target into K components:
    weights (N, K), means and log-stds (N, K, D).

    A target with fewer atoms than K gets one component per atom, padded
    by repeating the last component at weight 0.  Targets with the same
    atom count are fitted together, in stacks of at most EM_CHUNK_CELLS
    atom-component cells.
    """
    measures = [measure for _, measure in data.train_entries()]
    t_weights = np.zeros((len(measures), K))
    t_means = np.empty((len(measures), K, data.output_dim))
    t_log_stds = np.empty_like(t_means)
    groups = {}
    for i, measure in enumerate(measures):
        groups.setdefault(measure.n_atoms, []).append(i)
    for n_atoms, rows in groups.items():
        n = min(K, n_atoms)
        pad = np.minimum(np.arange(K), n - 1)
        stack = max(1, EM_CHUNK_CELLS // (n_atoms * n * data.output_dim))
        for start in range(0, len(rows), stack):
            chunk = rows[start:start + stack]
            # seed the EM init from the sample content so identical target
            # measures receive identical mixture decompositions
            seeds = [(seed * 1_000_003 + zlib.crc32(measures[i].atoms.tobytes()))
                     % 2**32 for i in chunk]
            gmm = em_fit_gmm(np.array([measures[i].atoms for i in chunk]), n,
                             iters=EM_ITERS, seed=seeds)
            t_weights[chunk, :n] = gmm.weights
            t_means[chunk] = gmm.means[:, pad]
            t_log_stds[chunk] = gmm.log_stds[:, pad]
    return t_weights, t_means, t_log_stds


def mdn_fit(data, n_components: int, cfg: NetConfig = NetConfig(),
            seed: int = 0) -> MdnModel:
    """Fit per-input mixture targets by EM, then regress the parameters.

    The targets are fitted in stacks of targets with the same atom count,
    each of at most EM_CHUNK_CELLS atom-component cells (``_mdn_targets``):
    stacking makes EM ~3x faster, and the bound keeps the peak RSS where
    one-target fits left it.  Each call goes through the module-level name
    ``em_fit_gmm``, so a tracer that rebinds it sees every fit.

    Squared error on means and log-stds, cross-entropy on the weights,
    with target components greedily re-ordered each step to match the
    currently predicted means (``_greedy_match``, a whole minibatch at
    once).  Deterministic per seed.
    """
    D = data.output_dim
    K = n_components
    t_weights, t_means, t_log_stds = _mdn_targets(data, K, seed)

    net = _fit_network(
        data, K + 2 * K * D,
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
