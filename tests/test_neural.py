import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urcd import neural
from urcd.neural import (
    Mlp,
    adam_step,
    backprop,
    cross_entropy_grad,
    forward_cache,
    init_mlp,
    mean_nll,
    mlp_forward,
    mlp_from_dict,
    mlp_to_dict,
    n_params,
    softmax,
)

from diagnostics import grad_check


def _ce(net, batch):
    """The mean negative log-likelihood and cross_entropy_grad's gradient
    on a list of (x, one_hot_label) pairs."""
    X = np.array([np.asarray(x, dtype=float) for x, _ in batch])
    Y = np.array([np.asarray(y, dtype=float) for _, y in batch])
    grad = cross_entropy_grad(net, X, Y)
    return mean_nll(softmax(forward_cache(net, X)[0]), Y), grad


def test_forward_identity_layer():
    net = Mlp(layer_dims=(3, 3), weights=(np.eye(3),), biases=(np.zeros(3),),
              activation="relu")
    x = np.array([0.5, -2.0, 1.0])
    assert np.allclose(mlp_forward(net, x), x)


def test_forward_zero_weights_returns_bias():
    b = np.array([1.0, -4.0])
    net = Mlp(layer_dims=(2, 3, 2),
              weights=(np.zeros((2, 3)), np.zeros((3, 2))),
              biases=(np.zeros(3), b), activation="tanh")
    for x in ([0.0, 0.0], [3.0, -1.0]):
        assert np.allclose(mlp_forward(net, x), b)


def test_forward_hand_computed_two_layer():
    # frozen from an eval of tanh(x W1 + b1) W2 + b2 done with plain math
    net = Mlp(layer_dims=(2, 2, 1),
              weights=(np.array([[1.0, 0.5], [-1.0, 2.0]]), np.array([[2.0], [-1.0]])),
              biases=(np.array([0.1, -0.2]), np.array([0.3])),
              activation="tanh")
    out = mlp_forward(net, [1.0, -1.0])
    assert abs(out[0] - 3.1763129438300064) < 1e-12


def test_forward_dimension_mismatch():
    net = init_mlp([2, 3], rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        mlp_forward(net, [1.0, 2.0, 3.0])


def test_softmax_values():
    assert np.allclose(softmax(np.zeros(5)), np.full(5, 0.2))
    assert np.allclose(softmax([np.log(2.0), 0.0]), [2 / 3, 1 / 3])
    v = np.array([0.3, -1.2, 4.0])
    assert np.allclose(softmax(v), softmax(v + 17.5), atol=1e-12)


def test_softmax_simplex_invariant():
    rng = np.random.default_rng(5)
    for _ in range(200):
        v = rng.normal(scale=50, size=rng.integers(1, 9))
        p = softmax(v)
        assert abs(p.sum() - 1.0) < 1e-12
        assert p.min() >= 0.0
        # a constant shift must never move the argmax
        c = rng.normal(scale=100)
        assert softmax(v + c).argmax() == p.argmax()
        assert np.allclose(softmax(v + c), p, atol=1e-12)


def test_cross_entropy_saturated_logits():
    # network whose output is a large multiple of the correct one-hot
    net = Mlp(layer_dims=(2, 2), weights=(30.0 * np.eye(2),),
              biases=(np.zeros(2),), activation="identity")
    batch = [(np.array([1.0, 0.0]), np.array([1.0, 0.0])),
             (np.array([0.0, 1.0]), np.array([0.0, 1.0]))]
    loss, grad = _ce(net, batch)
    assert loss < 1e-3
    assert np.abs(grad[:net.weights[0].size]).max() < 1e-3


def test_cross_entropy_uniform_loss():
    n_classes = 7
    net = Mlp(layer_dims=(3, n_classes), weights=(np.zeros((3, n_classes)),),
              biases=(np.zeros(n_classes),), activation="relu")
    label = np.zeros(n_classes)
    label[2] = 1.0
    loss, _ = _ce(net, [(np.array([1.0, 2.0, 3.0]), label)])
    assert abs(loss - np.log(n_classes)) < 1e-12


def test_cross_entropy_label_length_check():
    net = init_mlp([2, 3], rng=np.random.default_rng(1))
    with pytest.raises(ValueError):
        _ce(net, [(np.zeros(2), np.array([1.0, 0.0]))])
    with pytest.raises(ValueError):
        _ce(net, [])


def test_cross_entropy_row_count_check():
    net = init_mlp([2, 3], rng=np.random.default_rng(1))
    with pytest.raises(ValueError):
        cross_entropy_grad(net, np.zeros((2, 2)), np.array([[1.0, 0.0, 0.0]]))


def _pair_cross_entropy_grad(net, batch):
    """The earlier cross_entropy_grad, which rebuilt X and Y from
    (x, one_hot_label) pairs on every call; kept as a reference."""
    if len(batch) == 0:
        raise ValueError("batch must be non-empty")
    X = np.array([np.asarray(x, dtype=float) for x, _ in batch])
    Y = np.array([np.asarray(y, dtype=float) for _, y in batch])
    if Y.shape[1] != net.layer_dims[-1]:
        raise ValueError("label length does not match the network output dimension")
    logits, pre, post = forward_cache(net, X)
    p = softmax(logits)
    n = X.shape[0]
    loss = float(-(Y * np.log(np.clip(p, 1e-300, None))).sum() / n)
    grads = backprop(net, pre, post, (p - Y) / n)
    return loss, grads


@settings(max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 4),
       st.lists(st.integers(1, 6), max_size=2), st.integers(1, 5),
       st.sampled_from(["relu", "tanh", "sigmoid", "identity"]))
def test_cross_entropy_arrays_match_pair_version_bitwise(seed, n, d, hidden,
                                                         n_classes, activation):
    # rows picked from arrays built once, as train_dnm does, against pairs
    rng = np.random.default_rng(seed)
    net = init_mlp([d, *hidden, n_classes], activation=activation, rng=rng)
    X = rng.normal(scale=3.0, size=(n + 3, d))
    Y = np.zeros((n + 3, n_classes))
    Y[np.arange(n + 3), rng.integers(n_classes, size=n + 3)] = 1.0
    rows = rng.permutation(n + 3)[:n]
    grads = cross_entropy_grad(net, X[rows], Y[rows])
    loss = mean_nll(softmax(forward_cache(net, X[rows])[0]), Y[rows])
    ref_loss, ref_grads = _pair_cross_entropy_grad(
        net, [(X[i], Y[i]) for i in rows])
    assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
    assert grads.tobytes() == ref_grads.tobytes()


def _per_layer_backprop(net, pre, post, d_out):
    """The earlier backprop, which returned one new array per weight and
    bias; kept as a reference, flattened weights first, then biases."""
    _, dact = neural._ACTIVATIONS[net.activation]
    gw = [None] * len(net.weights)
    gb = [None] * len(net.biases)
    delta = d_out
    for j in range(len(net.weights) - 1, -1, -1):
        gw[j] = post[j].T @ delta
        gb[j] = delta.sum(axis=0)
        if j > 0:
            delta = (delta @ net.weights[j].T) * dact(pre[j - 1])
    return np.concatenate([a.ravel() for a in (*gw, *gb)])


@settings(max_examples=80)
@given(st.integers(0, 2**32 - 1), st.integers(1, 17),
       st.lists(st.integers(1, 9), min_size=2, max_size=5),
       st.sampled_from(["relu", "tanh", "sigmoid", "identity"]))
def test_flat_backprop_matches_per_layer_bitwise(seed, n, dims, activation):
    rng = np.random.default_rng(seed)
    net = init_mlp(dims, activation=activation, rng=rng)
    X = rng.normal(scale=2.0, size=(n, dims[0]))
    out, pre, post = forward_cache(net, X)
    d_out = rng.normal(size=out.shape) * 10.0 ** rng.integers(-6, 3)
    grad = backprop(net, pre, post, d_out)
    assert grad.shape == net.params.shape
    ref = _per_layer_backprop(net, pre, post, d_out)
    assert np.array_equal(grad.view(np.int64), ref.view(np.int64))


def test_params_are_one_vector_behind_weights_and_biases():
    rng = np.random.default_rng(14)
    w = (rng.normal(size=(2, 3)), rng.normal(size=(3, 1)))
    b = (rng.normal(size=3), rng.normal(size=1))
    net = Mlp(layer_dims=(2, 3, 1), weights=w, biases=b, activation="tanh")
    assert np.array_equal(net.params,
                          np.concatenate([a.ravel() for a in (*w, *b)]))
    for view in (*net.weights, *net.biases):
        assert np.shares_memory(view, net.params)
    # the constructor copies: the caller's arrays stay separate
    before = w[0].copy()
    w[0][0, 0] += 1.0
    assert np.array_equal(net.weights[0], before)
    # replace builds a fresh vector from the new weights, never a stale one
    swapped = dataclasses.replace(net, weights=(np.zeros((2, 3)), w[1]))
    assert np.array_equal(swapped.params[:6], np.zeros(6))
    assert np.array_equal(swapped.params[6:], net.params[6:])
    assert not np.shares_memory(swapped.params, net.params)
    assert np.array_equal(swapped.weights[0], np.zeros((2, 3)))


def test_grad_check_linear_net():
    rng = np.random.default_rng(2)
    net = init_mlp([3, 4, 2], activation="identity", rng=rng)
    batch = _random_batch(rng, 5, 3, 2)
    assert grad_check(net, batch) < 1e-7


def test_grad_check_tanh_net():
    rng = np.random.default_rng(3)
    net = init_mlp([3, 6, 4], activation="tanh", rng=rng)
    batch = _random_batch(rng, 6, 3, 4)
    assert grad_check(net, batch) < 1e-4


def test_grad_check_relu_net_away_from_kinks():
    rng = np.random.default_rng(4)
    net = init_mlp([3, 6, 4], activation="relu", rng=rng)
    batch = _batch_away_from_kinks(net, rng, 6, 3, 4)
    assert grad_check(net, batch) < 1e-4


def _random_batch(rng, n, d, n_classes):
    batch = []
    for _ in range(n):
        x = rng.normal(size=d)
        y = np.zeros(n_classes)
        y[rng.integers(n_classes)] = 1.0
        batch.append((x, y))
    return batch


def _batch_away_from_kinks(net, rng, n, d, n_classes, margin=1e-3):
    """Resample inputs until every relu pre-activation clears the kink."""
    while True:
        batch = _random_batch(rng, n, d, n_classes)
        X = np.array([x for x, _ in batch])
        _, pre, _ = forward_cache(net, X)
        if all(np.abs(z).min() >= margin for z in pre[:-1]):
            return batch


def _moments(net):
    """Fresh zero Adam moments for net."""
    return np.zeros_like(net.params), np.zeros_like(net.params)


def test_adam_zero_gradient_is_identity():
    rng = np.random.default_rng(6)
    net = init_mlp([2, 3, 2], rng=rng)
    _, grad = _ce(
        net, [(np.zeros(2), np.array([0.5, 0.5]))])
    zero = np.zeros_like(grad)
    stepped = dataclasses.replace(net)
    m, v = _moments(net)
    adam_step(stepped.params, m, v, zero, 1, 0.05)
    assert not m.any() and not v.any()
    for a, b in zip(net.weights, stepped.weights):
        assert np.array_equal(a, b)


def test_adam_first_step_is_signed_lr():
    # at step 1 the bias-corrected update is -lr * g / (|g| + eps)
    rng = np.random.default_rng(7)
    net = init_mlp([2, 2], rng=rng)
    lr = 0.01
    g = np.array([[0.5, -2.0], [1.0, -0.25]])
    grad = np.concatenate([g.ravel(), np.zeros(2)])
    stepped = dataclasses.replace(net)
    adam_step(stepped.params, *_moments(net), grad, 1, lr)
    update = stepped.weights[0] - net.weights[0]
    assert np.allclose(update, -lr * np.sign(g), atol=1e-6)


def test_adam_deterministic():
    rng = np.random.default_rng(8)
    net = init_mlp([2, 3], rng=rng)
    batch = _random_batch(rng, 4, 2, 3)
    _, grads = _ce(net, batch)
    n1, n2 = dataclasses.replace(net), dataclasses.replace(net)
    s1, s2 = _moments(net), _moments(net)
    adam_step(n1.params, *s1, grads, 1, 1e-2)
    adam_step(n2.params, *s2, grads, 1, 1e-2)
    for a, b in zip(n1.weights, n2.weights):
        assert np.array_equal(a, b)
    assert all(np.array_equal(a, b) for a, b in zip(s1, s2))


def test_adam_shape_mismatch():
    rng = np.random.default_rng(9)
    net = init_mlp([2, 3], rng=rng)
    _, grad = _ce(net, _random_batch(rng, 2, 2, 3))
    deep = init_mlp([2, 4, 3], rng=rng)
    _, deep_grad = _ce(deep, _random_batch(rng, 2, 2, 3))
    cases = [
        (net, grad[:-1]),                            # too short
        (net, np.append(grad, 0.0)),                 # too long
        # a (1, P) gradient would broadcast over the (P,) moments
        (net, grad[None, :]),
        # a one-layer gradient for a two-layer network
        (deep, deep_grad[:deep.weights[0].size + deep.biases[0].size]),
        (deep, np.zeros(1)),
    ]
    for target, bad in cases:
        with pytest.raises(ValueError):
            adam_step(target.params, *_moments(target), bad, 1, 1e-2)
    # the moments of another network, or one of them
    m, v = _moments(net)
    deep_m, deep_v = _moments(deep)
    for moments in ((m, v), (deep_m, v), (m, deep_v)):
        with pytest.raises(ValueError):
            adam_step(deep.params, *moments, deep_grad, 1, 1e-2)


def test_loss_decreases_on_separable_problem():
    rng = np.random.default_rng(10)
    xs = np.concatenate([rng.normal(-2, 0.3, size=(20, 1)),
                         rng.normal(2, 0.3, size=(20, 1))])
    labels = np.zeros((40, 2))
    labels[:20, 0] = 1.0
    labels[20:, 1] = 1.0
    batch = list(zip(xs, labels))
    net = init_mlp([1, 8, 2], rng=rng)
    m, v = _moments(net)
    loss0, _ = _ce(net, batch)
    for t in range(1, 201):
        _, grad = _ce(net, batch)
        adam_step(net.params, m, v, grad, t, 0.05)
    loss_final, _ = _ce(net, batch)
    assert loss_final < loss0


def test_param_count():
    net = init_mlp([3, 5, 7, 2], rng=np.random.default_rng(11))
    expected = (3 * 5 + 5) + (5 * 7 + 7) + (7 * 2 + 2)
    assert n_params(net) == expected


def test_serialization_bit_identical():
    rng = np.random.default_rng(12)
    net = init_mlp([4, 9, 3], activation="tanh", rng=rng)
    loaded = mlp_from_dict(json.loads(json.dumps(mlp_to_dict(net))))
    assert loaded.layer_dims == net.layer_dims
    assert loaded.activation == net.activation
    for a, b in zip(net.weights, loaded.weights):
        assert np.array_equal(a, b)
    for a, b in zip(net.biases, loaded.biases):
        assert np.array_equal(a, b)


def test_serialization_rejects_garbage():
    with pytest.raises(ValueError):
        mlp_from_dict({"format": "something-else"})
    net = init_mlp([2, 2], rng=np.random.default_rng(13))
    data = mlp_to_dict(net)
    data["version"] = 99
    with pytest.raises(ValueError):
        mlp_from_dict(data)
