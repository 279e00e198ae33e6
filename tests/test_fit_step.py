"""Bit-level contract of one training step.

``adam_step`` updates a network's flat parameter vector in place, and
``mdn_fit`` matches the targets of a whole minibatch at once.  The property
tests compare both with the per-layer Adam update and the per-row greedy
matching they replaced, which are kept below as the reference, with
``np.array_equal``.  ``fit_epochs`` runs those in-place steps on a copy of
its own, which another property test checks.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from urcd.baselines import _greedy_match, _mdn_output_grad
from urcd.neural import (ADAM_BETA1, Mlp, NetConfig, adam_step, fit_epochs,
                         softmax)

# ---------------------------------------------------------------------------
# reference: per-layer Adam
# ---------------------------------------------------------------------------


def _adam_per_layer(params, grads, ms, vs, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    new_p, new_m, new_v = [], [], []
    for p, g, m, v in zip(params, grads, ms, vs):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        new_p.append(p - lr * mhat / (np.sqrt(vhat) + eps))
        new_m.append(m)
        new_v.append(v)
    return new_p, new_m, new_v


@st.composite
def _net_and_grads(draw):
    dims = draw(st.lists(st.integers(1, 7), min_size=2, max_size=5))
    steps = draw(st.integers(1, 5))
    # the first step number straddles t = 356, where 1 - b1**t rounds to 1.0
    first = draw(st.sampled_from([1, *range(350, 361), 1000]))
    seed = draw(st.integers(0, 2**32 - 1))
    lr = draw(st.sampled_from([1e-3, 1e-2, 0.3]))
    rng = np.random.default_rng(seed)
    net = Mlp(layer_dims=tuple(dims),
              weights=tuple(rng.normal(size=(a, b))
                            for a, b in zip(dims[:-1], dims[1:])),
              biases=tuple(rng.normal(size=b) for b in dims[1:]),
              activation="tanh")
    # per-layer gradients over many scales, with exact zeros mixed in
    grads = [[*(rng.normal(size=w.shape) * 10.0 ** rng.integers(-8, 4)
                * (rng.random(w.shape) < 0.8) for w in net.weights),
              *(rng.normal(size=b.shape) * 10.0 ** rng.integers(-8, 4)
                for b in net.biases)]
             for _ in range(steps)]
    return net, grads, lr, first


def _flat(arrays):
    return np.concatenate([a.ravel() for a in arrays])


@given(_net_and_grads())
def test_flat_adam_matches_per_layer_update(case):
    net, grads, lr, first = case
    m, v = np.zeros_like(net.params), np.zeros_like(net.params)
    params = [a.copy() for a in (*net.weights, *net.biases)]
    ms = [np.zeros_like(p) for p in params]
    vs = [np.zeros_like(p) for p in params]
    for t, g in enumerate(grads, first):
        adam_step(net.params, m, v, _flat(g), t, lr)
        params, ms, vs = _adam_per_layer(params, g, ms, vs, t, lr)
        assert len(net.weights) == len(net.biases) == len(net.layer_dims) - 1
        for got, want in zip((*net.weights, *net.biases), params):
            assert got.shape == want.shape
            assert np.array_equal(got, want)
        assert np.array_equal(net.params, _flat(params))
        assert np.array_equal(m, _flat(ms))
        assert np.array_equal(v, _flat(vs))


def test_adam_bias_correction_first_rounds_to_one_at_step_356():
    assert 1 - ADAM_BETA1 ** 355 != 1.0
    assert 1 - ADAM_BETA1 ** 356 == 1.0


@st.composite
def _fit_case(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    dims = draw(st.lists(st.integers(1, 5), min_size=2, max_size=4))
    net = Mlp(layer_dims=tuple(dims),
              weights=tuple(rng.normal(size=(a, b))
                            for a, b in zip(dims[:-1], dims[1:])),
              biases=tuple(rng.normal(size=b) for b in dims[1:]))
    n = draw(st.integers(1, 8))
    cfg = NetConfig(epochs=draw(st.integers(1, 4)),
                    batch_size=draw(st.none() | st.integers(1, 8)),
                    learning_rate=draw(st.sampled_from([1e-3, 0.3])))
    return net, n, cfg, seed


@given(_fit_case())
def test_fit_epochs_writes_only_its_own_copies(case):
    net, n, cfg, seed = case
    before = [a.copy() for a in (*net.weights, *net.biases, net.params)]
    grad_rng = np.random.default_rng(seed)

    def loss_grad(current, rows):
        return grad_rng.normal(size=current.params.size)

    trained = fit_epochs(net, loss_grad, n, cfg, np.random.default_rng(seed))
    # the network passed in is never written to ...
    after = (*net.weights, *net.biases, net.params)
    assert all(np.array_equal(a, b) for a, b in zip(before, after))
    # ... and the one returned shares no memory with it
    assert not any(np.shares_memory(a, b)
                   for a in (*trained.weights, *trained.biases, trained.params)
                   for b in after)


# ---------------------------------------------------------------------------
# reference: per-row greedy matching and MDN output gradient
# ---------------------------------------------------------------------------


def _greedy_mean_match(pred_means, targ_means):
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


def _mdn_output_grad_per_row(out, t_weights, t_means, t_log_stds):
    B, K, D = t_means.shape
    d_out = np.zeros_like(out)
    for row in range(B):
        o = out[row]
        logits, means, log_stds = (o[:K], o[K:K + K * D].reshape(K, D),
                                   o[K + K * D:].reshape(K, D))
        perm = _greedy_mean_match(means, t_means[row])
        tw = t_weights[row][perm]
        tm, ts = t_means[row][perm], t_log_stds[row][perm]
        p = softmax(logits)
        d_out[row, :K] = p - tw
        d_out[row, K:K + K * D] = 2.0 * (means - tm).ravel()
        d_out[row, K + K * D:] = 2.0 * (log_stds - ts).ravel()
    d_out /= B
    return d_out


# a coarse grid makes equal means and exactly tied distances common
_GRID = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
_REAL = st.floats(-3.0, 3.0, allow_nan=False)


@st.composite
def _means(draw):
    B, K, D = draw(st.integers(1, 20)), draw(st.integers(1, 6)), draw(st.integers(1, 3))
    elements = draw(st.sampled_from([_GRID, _REAL]))
    pred = draw(arrays(np.float64, (B, K, D), elements=elements))
    targ = draw(arrays(np.float64, (B, K, D), elements=elements))
    # duplicated components, as padded targets and collapsed predictions have
    dup_t, dup_p = draw(st.integers(0, K - 1)), draw(st.integers(0, K - 1))
    targ[:, dup_t:] = targ[:, dup_t:dup_t + 1]
    pred[:, dup_p:] = pred[:, dup_p:dup_p + 1]
    return pred, targ


@given(_means())
def test_batched_matching_matches_per_row_loop(case):
    pred, targ = case
    perm = _greedy_match(pred, targ)
    assert perm.shape == pred.shape[:2]
    for row in range(pred.shape[0]):
        assert np.array_equal(perm[row], _greedy_mean_match(pred[row], targ[row]))


@given(_means(), st.integers(0, 2**32 - 1))
def test_batched_mdn_output_grad_matches_per_row_loop(case, seed):
    pred, targ = case
    B, K, D = pred.shape
    rng = np.random.default_rng(seed)
    logits = rng.normal(scale=5.0, size=(B, K))
    log_stds = rng.normal(size=(B, K * D))
    out = np.hstack([logits, pred.reshape(B, K * D), log_stds])
    t_weights = rng.dirichlet(np.ones(K), size=B)
    t_log_stds = rng.normal(size=(B, K, D))
    got = _mdn_output_grad(out, t_weights, targ, t_log_stds)
    assert np.array_equal(got, _mdn_output_grad_per_row(out, t_weights, targ,
                                                         t_log_stds))
