"""The MDN is one network, with the same bits as its former two.

``mdn_fit`` once built a trunk network and a one-layer identity head,
applied the trunk's activation between them by hand, and chained the
gradient across that seam by hand.  Its one network now has the trunk's
layers followed by the head's affine layer.  The copies below of the former
initialization, forward pass and chain rule are the reference; the property
test compares the one network's initialization, ``mdn_predict_params`` and
the loss gradient ``mdn_fit`` steps with against them by ``==``, on random
networks over every activation.
"""

import dataclasses
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from urcd import baselines, neural
from urcd.baselines import (
    GaussianMixture,
    MdnModel,
    mdn_fit,
    mdn_predict_params,
)
from urcd.measures import make_empirical
from urcd.neural import (
    Mlp,
    NetConfig,
    backprop,
    forward_cache,
    init_mlp,
    mlp_forward,
    softmax,
)
from urcd.training import build_dataset

# ---------------------------------------------------------------------------
# reference: the former trunk -> activation -> head composition
# ---------------------------------------------------------------------------


def _old_init(d, hidden, out_dim, activation, rng):
    trunk = init_mlp([d, *hidden], activation=activation, rng=rng)
    head = init_mlp([hidden[-1], out_dim], activation="identity", rng=rng)
    return trunk, head


def _old_features(trunk, X):
    out, pre, post = forward_cache(trunk, X)
    act, dact = neural._ACTIVATIONS[trunk.activation]
    return act(out), dact(out), pre, post


def _old_predict_params(trunk, head, K, D, x):
    feats, _, _, _ = _old_features(trunk, np.asarray(x, dtype=float)[None, :])
    o = mlp_forward(head, feats[0])
    return GaussianMixture(weights=softmax(o[:K]),
                           means=o[K:K + K * D].reshape(K, D),
                           log_stds=o[K + K * D:].reshape(K, D))


def _old_loss_grad(trunk, head, X, output_grad, rows):
    feats, dfeats, pre, post = _old_features(trunk, X[rows])
    out, h_pre, h_post = forward_cache(head, feats)
    d_out = output_grad(out, rows)
    d_feats = (d_out @ head.weights[0].T) * dfeats
    return (backprop(trunk, pre, post, d_feats),
            backprop(head, h_pre, h_post, d_out))


def _split(net):
    """The trunk and head networks that net's arrays formerly made up."""
    trunk = Mlp(layer_dims=net.layer_dims[:-1], weights=net.weights[:-1],
                biases=net.biases[:-1], activation=net.activation)
    head = Mlp(layer_dims=net.layer_dims[-2:], weights=net.weights[-1:],
               biases=net.biases[-1:], activation="identity")
    return trunk, head


def _in_layout(net, flat):
    """flat, a vector in net.params order, viewed as net's arrays."""
    shaped = dataclasses.replace(net)
    shaped.params[:] = flat
    return shaped


# ---------------------------------------------------------------------------
# property
# ---------------------------------------------------------------------------


def _dataset(rng, n, d, D):
    entries = []
    for _ in range(n):
        x = rng.normal(size=d)
        atoms = rng.normal(size=(int(rng.integers(1, 7)), D))
        entries.append((x, make_empirical(atoms)))
    return build_dataset(entries)


def _captured_fit(data, K, cfg, seed):
    """Run mdn_fit with no epochs; return the network it initialized, its
    loss gradient and its output gradient over the EM targets."""
    captured = {}
    fit_network = baselines._fit_network

    def fit_epochs(net, loss_grad, n, cfg, rng):
        captured.update(net=net, loss_grad=loss_grad)
        return net

    def spy(data, out_dim, output_grad, cfg, seed):
        captured["output_grad"] = output_grad
        return fit_network(data, out_dim, output_grad, cfg, seed)

    with mock.patch.object(baselines, "fit_epochs", fit_epochs), \
            mock.patch.object(baselines, "_fit_network", spy):
        model = mdn_fit(data, K, cfg, seed)
    assert model.net is captured["net"]
    return captured["net"], captured["loss_grad"], captured["output_grad"]


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1),
       activation=st.sampled_from(["relu", "tanh", "sigmoid", "identity"]),
       D=st.integers(1, 2), K=st.integers(1, 4), d=st.integers(1, 3),
       hidden=st.lists(st.integers(1, 6), min_size=1, max_size=2))
def test_one_network_mdn_equals_trunk_and_head(seed, activation, D, K, d, hidden):
    rng = np.random.default_rng(seed)
    data = _dataset(rng, int(rng.integers(K + 2, 12)), d, D)
    cfg = NetConfig(hidden_dims=tuple(hidden), activation=activation, epochs=1)
    init, loss_grad, output_grad = _captured_fit(data, K, cfg, seed)

    # the same uniforms, drawn in the same order
    out_dim = K + 2 * K * D
    assert init.layer_dims == (d, *hidden, out_dim)
    for got, want in zip(_split(init), _old_init(d, hidden, out_dim, activation,
                                                 np.random.default_rng(seed))):
        assert got.layer_dims == want.layer_dims
        assert got.activation == want.activation
        assert np.array_equal(got.params, want.params)

    X = data.train_inputs()
    for _ in range(3):
        scale = 10.0 ** rng.integers(-2, 2)
        net = dataclasses.replace(init)
        net.params[:] = rng.normal(scale=scale, size=net.params.size)
        trunk, head = _split(net)

        x = rng.normal(size=d)
        got = mdn_predict_params(MdnModel(net=net, n_components=K, out_dim=D), x)
        want = _old_predict_params(trunk, head, K, D, x)
        for field in ("weights", "means", "log_stds"):
            assert np.array_equal(getattr(got, field), getattr(want, field))

        rows = rng.permutation(X.shape[0])[:int(rng.integers(1, X.shape[0] + 1))]
        grad = _in_layout(net, loss_grad(net, rows))
        g_trunk, g_head = _old_loss_grad(trunk, head, X, output_grad, rows)
        g_trunk, g_head = _in_layout(trunk, g_trunk), _in_layout(head, g_head)
        want_arrays = (*g_trunk.weights, *g_head.weights,
                       *g_trunk.biases, *g_head.biases)
        for a, b in zip((*grad.weights, *grad.biases), want_arrays, strict=True):
            assert a.shape == b.shape
            assert np.array_equal(a.view(np.int64), b.view(np.int64))
