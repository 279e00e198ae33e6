"""Dense feedforward networks with hand-rolled backprop and Adam.

Networks are plain dataclasses over numpy arrays: an ``Mlp``'s weights and
biases view one flat vector ``params`` (weights, then biases), the layout
of its gradients too.  The forward map applies the activation
componentwise after every affine layer except the last one.
``forward_cache``/``backprop`` expose the reverse-mode core, and
``fit_epochs`` is the one minibatch-Adam loop: it trains one network, so
other modules train the same networks under their own losses.
``cross_entropy_grad`` takes a batch as an input array and a one-hot label
array, so a trainer builds both once per fit and passes row slices; it
returns the gradient alone, and ``mean_nll`` of the softmax outputs is
its loss.
``adam_step`` updates the flat vector and its two moment vectors
elementwise in place, so a step costs a handful of numpy operations
whatever the depth.  ``NetConfig`` declares the network and optimiser
settings every trainer shares; a trainer takes its seed on its own.

Everything is deterministic: initialization is seeded, and gradients are
fresh arrays.  Only ``fit_epochs`` writes, and only to its own copy.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

ADAM_BETA1 = 0.9      # Adam's moment decay rates and denominator offset
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

_ACTIVATIONS = {
    "relu": (lambda z: np.maximum(z, 0.0),
             lambda z: z > 0.0),  # subgradient 0 at the kink; a mask casts to 0/1
    "tanh": (np.tanh, lambda z: 1.0 - np.tanh(z) ** 2),
    "sigmoid": (lambda z: 1.0 / (1.0 + np.exp(-z)),
                lambda z: (s := 1.0 / (1.0 + np.exp(-z))) * (1.0 - s)),
    "identity": (lambda z: z, lambda z: np.ones_like(z)),
}


def _views(flat: np.ndarray, shapes) -> list:
    """Consecutive slices of flat, reshaped to shapes (no copy)."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[start:start + size].reshape(shape))
        start += size
    return views


@dataclass(frozen=True)
class Mlp:
    """Fully-connected network.

    layer_dims : [d_in, hidden..., d_out]
    weights    : weights[j] has shape (layer_dims[j], layer_dims[j+1])
    biases     : biases[j] has shape (layer_dims[j+1],)
    activation : one of relu / tanh / sigmoid / identity
    params     : the flat float64 vector they view; the constructor (and so
                 ``dataclasses.replace``) copies into a new one
    """

    layer_dims: tuple
    weights: tuple
    biases: tuple
    activation: str = "relu"
    params: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arrays = (*self.weights, *self.biases)
        flat = np.concatenate([np.ravel(a) for a in arrays], dtype=float)
        views = _views(flat, [np.shape(a) for a in arrays])
        layers = len(self.weights)
        object.__setattr__(self, "params", flat)
        object.__setattr__(self, "weights", tuple(views[:layers]))
        object.__setattr__(self, "biases", tuple(views[layers:]))


def check_finite(config) -> None:
    """Refuse a config dataclass holding a NaN or infinite float field."""
    for name, value in vars(config).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, not {value}")


@dataclass(frozen=True, kw_only=True)
class NetConfig:
    """Network shape and minibatch-Adam settings shared by every trainer."""

    hidden_dims: tuple = (64, 64)
    activation: str = "relu"
    epochs: int = 500
    batch_size: int | None = None      # None = full batch
    learning_rate: float = 1e-2

    def __post_init__(self):
        check_finite(self)
        if self.epochs < 1 or self.learning_rate <= 0:
            raise ValueError("epochs and learning_rate must be positive")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be positive when given")


def init_mlp(layer_dims, activation: str = "relu",
             rng: np.random.Generator | None = None) -> Mlp:
    """Seeded uniform(+-sqrt(6/(fan_in+fan_out))) initialization, zero biases."""
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ValueError("layer_dims needs at least input and output sizes >= 1")
    if activation not in _ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}")
    rng = rng if rng is not None else np.random.default_rng()
    weights, biases = [], []
    for din, dout in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (din + dout))
        weights.append(rng.uniform(-bound, bound, size=(din, dout)))
        biases.append(np.zeros(dout))
    return Mlp(layer_dims=dims, weights=tuple(weights), biases=tuple(biases),
               activation=activation)


def n_params(net: Mlp) -> int:
    """Exact trainable-parameter count: sum_j (d_j * d_{j+1} + d_{j+1})."""
    return net.params.size


def forward_cache(net: Mlp, X: np.ndarray):
    """Batched forward pass keeping pre-activations for backprop.

    X : (n, d_in).  Returns (output (n, d_out), pre_acts, post_acts) where
    post_acts[0] is X itself.
    """
    act, _ = _ACTIVATIONS[net.activation]
    pre, post = [], [np.asarray(X, dtype=float)]
    last = len(net.weights) - 1
    for j, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = post[-1] @ w + b
        pre.append(z)
        post.append(act(z) if j < last else z)
    return post[-1], pre, post


def backprop(net: Mlp, pre, post, d_out: np.ndarray) -> np.ndarray:
    """Reverse-mode accumulation from d(loss)/d(output) back to parameters.

    Returns the gradient as one flat vector in ``net.params`` order.
    """
    _, dact = _ACTIVATIONS[net.activation]
    layers = len(net.weights)
    d_weights, d_biases = [None] * layers, [None] * layers
    delta = d_out
    for j in range(layers - 1, -1, -1):
        d_weights[j] = (post[j].T @ delta).ravel()
        d_biases[j] = delta.sum(axis=0)
        if j > 0:
            delta = (delta @ net.weights[j].T) * dact(pre[j - 1])
    return np.concatenate(d_weights + d_biases)


def mlp_forward(net: Mlp, x) -> np.ndarray:
    """Network output for a single input point, as a (d_out,) vector."""
    x = np.asarray(x, dtype=float)
    if x.shape != (net.layer_dims[0],):
        raise ValueError(
            f"input of dimension {x.shape} for network expecting ({net.layer_dims[0]},)")
    out, _, _ = forward_cache(net, x[None, :])
    return out[0]


def softmax(v) -> np.ndarray:
    """Numerically stabilized softmax; output sums to 1 within 1e-12."""
    v = np.asarray(v, dtype=float)
    if v.size < 1 or not np.all(np.isfinite(v)):
        raise ValueError("softmax input must be non-empty and finite")
    shifted = v - v.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def mean_nll(p: np.ndarray, Y: np.ndarray) -> float:
    """Mean negative log-likelihood of one-hot labels Y under probabilities p."""
    return float(-(Y * np.log(np.clip(p, 1e-300, None))).sum() / Y.shape[0])


def cross_entropy_grad(net: Mlp, X, Y) -> np.ndarray:
    """Flat gradient of the mean negative log-likelihood of softmax outputs
    (``mean_nll``) under one-hot labels.

    X : (n, d_in) inputs; Y : (n, d_out) one-hot labels, whose length must
    equal the network output dimension.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.shape[0] == 0:
        raise ValueError("batch must be non-empty")
    if Y.ndim != 2 or Y.shape[1] != net.layer_dims[-1]:
        raise ValueError("label length does not match the network output dimension")
    if Y.shape[0] != X.shape[0]:
        raise ValueError("inputs and labels must have the same number of rows")
    logits, pre, post = forward_cache(net, X)
    return backprop(net, pre, post, (softmax(logits) - Y) / X.shape[0])


def adam_step(params: np.ndarray, m: np.ndarray, v: np.ndarray,
              grad: np.ndarray, t: int, learning_rate: float) -> None:
    """Bias-corrected Adam update number t of the flat vector params by the
    flat gradient grad, written in place into params and its moments m, v."""
    if np.shape(grad) != params.shape:
        raise ValueError("gradient shape does not match the network")
    if m.shape != params.shape or v.shape != params.shape:
        raise ValueError("optimizer state does not match the network")
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    m *= b1
    m += (1 - b1) * grad
    v *= b2
    v += (1 - b2) * grad * grad
    mhat = m / (1 - b1 ** t)
    vhat = v / (1 - b2 ** t)
    params -= learning_rate * mhat / (np.sqrt(vhat) + ADAM_EPS)


def fit_epochs(net: Mlp, loss_grad, n: int, cfg: NetConfig, rng) -> Mlp:
    """Minibatch Adam over n training rows; returns the trained network.

    loss_grad(net, rows) returns the flat gradient for the index array rows.
    Adam steps a copy of the given network in place and returns that copy,
    so the network passed in is not written to.  Rows are reshuffled every
    epoch only when a batch is smaller than n.
    """
    net = dataclasses.replace(net)
    m, v = np.zeros_like(net.params), np.zeros_like(net.params)
    batch = min(cfg.batch_size or n, n)
    t = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(n) if batch < n else np.arange(n)
        for start in range(0, n, batch):
            grad = loss_grad(net, order[start:start + batch])
            t += 1
            adam_step(net.params, m, v, grad, t, cfg.learning_rate)
    return net


# ---------------------------------------------------------------------------
# serialization (versioned JSON, round-trips doubles bit-exactly)
# ---------------------------------------------------------------------------

def mlp_to_dict(net: Mlp) -> dict:
    return {
        "format": "urcd-mlp",
        "version": 1,
        "layer_dims": list(net.layer_dims),
        "activation": net.activation,
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
    }


def mlp_from_dict(data: dict) -> Mlp:
    """Rebuild a saved network; a malformed one raises ValueError."""
    if not isinstance(data, dict) or data.get("format") != "urcd-mlp":
        raise ValueError("not a serialized network")
    if data.get("version") != 1:
        raise ValueError(f"unsupported network format version {data.get('version')!r}")
    dims = data["layer_dims"]
    if not (isinstance(dims, list) and len(dims) >= 2
            and all(type(d) is int and d >= 1 for d in dims)):
        raise ValueError("layer_dims must list at least two positive integers")
    if data["activation"] not in _ACTIVATIONS:
        raise ValueError(f"unknown activation {data['activation']!r}")
    weights = tuple(np.array(w, dtype=float) for w in data["weights"])
    biases = tuple(np.array(b, dtype=float) for b in data["biases"])
    shapes = [(a, b) for a, b in zip(dims, dims[1:])] + [(d,) for d in dims[1:]]
    if [a.shape for a in (*weights, *biases)] != shapes:
        raise ValueError(f"weight and bias shapes do not match layer_dims {dims}")
    return Mlp(layer_dims=tuple(dims), weights=weights, biases=biases,
               activation=data["activation"])
