"""Dense feedforward networks with hand-rolled backprop and Adam.

Networks are plain dataclasses over numpy arrays: an ``Mlp``'s weights and
biases view one flat vector ``params`` (weights, then biases), the layout
of its gradients too.  The forward map applies the activation
componentwise after every affine layer except the last one.
``forward_cache``/``backprop`` expose the reverse-mode core, and
``fit_epochs`` is the one minibatch-Adam loop, so other modules train the
same networks under their own losses.  ``cross_entropy_grad`` takes a batch
as an input array and a one-hot label array, so a trainer builds both once
per fit and passes row slices; ``mean_nll`` is its loss expression, for a
loss that needs no gradient.  ``adam_step`` updates the flat vector
elementwise, so a step costs a handful of numpy operations whatever the
depth.  ``NetConfig``/``FitConfig`` declare the training settings they share.

Everything is deterministic: initialization is seeded, and gradient /
optimizer updates are pure functions returning fresh objects.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

_ACTIVATIONS = {
    "relu": (lambda z: np.maximum(z, 0.0),
             lambda z: (z > 0.0).astype(float)),  # subgradient 0 at the kink
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
                 ``dataclasses.replace``) copies into a new one, while
                 ``with_params`` wraps a given one
    """

    layer_dims: tuple
    weights: tuple
    biases: tuple
    activation: str = "relu"
    params: np.ndarray = field(init=False, repr=False, compare=False)
    flat: InitVar[np.ndarray | None] = None

    def __post_init__(self, flat):
        arrays = (*self.weights, *self.biases)
        if flat is None:
            flat = np.concatenate([np.ravel(a) for a in arrays], dtype=float)
        views = _views(flat, [np.shape(a) for a in arrays])
        layers = len(self.weights)
        object.__setattr__(self, "params", flat)
        object.__setattr__(self, "weights", tuple(views[:layers]))
        object.__setattr__(self, "biases", tuple(views[layers:]))

    def with_params(self, params: np.ndarray) -> Mlp:
        """This network's shape over the flat vector params, taken as is."""
        return Mlp(self.layer_dims, self.weights, self.biases, self.activation,
                   flat=params)


@dataclass(frozen=True)
class OptimizerState:
    """Adam moments of one network, flat in ``Mlp.params`` order."""

    step: int
    m: np.ndarray
    v: np.ndarray
    learning_rate: float
    beta1: float
    beta2: float
    eps: float


@dataclass(frozen=True, kw_only=True)
class NetConfig:
    """Network shape and minibatch-Adam settings shared by every trainer."""

    hidden_dims: tuple = (64, 64)
    activation: str = "relu"
    epochs: int = 500
    batch_size: int | None = None      # None = full batch
    learning_rate: float = 1e-2

    def __post_init__(self):
        if self.epochs < 1 or self.learning_rate <= 0:
            raise ValueError("epochs and learning_rate must be positive")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be positive when given")


@dataclass(frozen=True, kw_only=True)
class FitConfig(NetConfig):
    """Settings for one seeded fit."""

    seed: int = 0


def activation_fns(name: str):
    """(function, derivative) pair for an activation tag."""
    if name not in _ACTIVATIONS:
        raise ValueError(f"unknown activation {name!r}")
    return _ACTIVATIONS[name]


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
    grad = np.empty_like(net.params)
    layers = len(net.weights)
    views = _views(grad, [a.shape for a in (*net.weights, *net.biases)])
    delta = d_out
    for j in range(layers - 1, -1, -1):
        np.matmul(post[j].T, delta, out=views[j])
        delta.sum(axis=0, out=views[layers + j])
        if j > 0:
            delta = (delta @ net.weights[j].T) * dact(pre[j - 1])
    return grad


def mlp_forward(net: Mlp, x) -> np.ndarray:
    """Network output for a single input point, as a (d_out,) vector."""
    x = np.asarray(x, dtype=float)
    if x.shape != (net.layer_dims[0],):
        raise ValueError(
            f"input of dimension {x.shape} for network expecting ({net.layer_dims[0]},)")
    out, _, _ = forward_cache(net, x[None, :])
    return out[0]


def forward_batch(net: Mlp, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != net.layer_dims[0]:
        raise ValueError("batch shape does not match the network input size")
    out, _, _ = forward_cache(net, X)
    return out


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


def cross_entropy_grad(net: Mlp, X, Y):
    """Mean negative log-likelihood of softmax outputs, with its gradient.

    X : (n, d_in) inputs; Y : (n, d_out) one-hot labels, whose length must
    equal the network output dimension.  Returns (loss, flat gradient).
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
    p = softmax(logits)
    grad = backprop(net, pre, post, (p - Y) / X.shape[0])
    return mean_nll(p, Y), grad


def init_adam(net: Mlp, learning_rate: float = 1e-2, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> OptimizerState:
    zeros = np.zeros(n_params(net))
    return OptimizerState(step=0, m=zeros, v=zeros, learning_rate=learning_rate,
                          beta1=beta1, beta2=beta2, eps=eps)


def adam_step(net: Mlp, state: OptimizerState, grad: np.ndarray):
    """One bias-corrected Adam update of ``net.params`` by the flat gradient
    grad; returns (new net, new state).  Inputs are not modified."""
    if np.shape(grad) != net.params.shape:
        raise ValueError("gradient shape does not match the network")
    if state.m.shape != grad.shape or state.v.shape != grad.shape:
        raise ValueError("optimizer state does not match the network")
    t = state.step + 1
    b1, b2 = state.beta1, state.beta2
    m = b1 * state.m + (1 - b1) * grad
    v = b2 * state.v + (1 - b2) * grad * grad
    mhat = m / (1 - b1 ** t)
    vhat = v / (1 - b2 ** t)
    params = net.params - state.learning_rate * mhat / (np.sqrt(vhat) + state.eps)
    return net.with_params(params), OptimizerState(
        step=t, m=m, v=v, learning_rate=state.learning_rate, beta1=b1, beta2=b2,
        eps=state.eps)


def fit_epochs(nets, loss_grad, n: int, cfg: NetConfig, rng):
    """Minibatch Adam over n training rows; yields the networks after each epoch.

    loss_grad(nets, rows) returns one flat gradient per network for the index
    array rows.  Each network keeps its own Adam state.  Rows are reshuffled
    every epoch only when a batch is smaller than n.
    """
    nets = tuple(nets)
    states = [init_adam(net, learning_rate=cfg.learning_rate) for net in nets]
    batch = min(cfg.batch_size or n, n)
    for _ in range(cfg.epochs):
        order = rng.permutation(n) if batch < n else np.arange(n)
        for start in range(0, n, batch):
            grads = loss_grad(nets, order[start:start + batch])
            stepped = [adam_step(net, state, g)
                       for net, state, g in zip(nets, states, grads)]
            nets = tuple(net for net, _ in stepped)
            states = [state for _, state in stepped]
        yield nets


def grad_check(net: Mlp, batch, h: float = 1e-5) -> float:
    """Max relative error of analytic vs central-difference gradients."""
    if len(batch) == 0:
        raise ValueError("batch must be non-empty")
    X = np.array([np.asarray(x, dtype=float) for x, _ in batch])
    Y = np.array([np.asarray(y, dtype=float) for _, y in batch])
    _, grad = cross_entropy_grad(net, X, Y)

    def loss_at(idx, step):
        bumped = net.params.copy()
        bumped[idx] += step
        return cross_entropy_grad(net.with_params(bumped), X, Y)[0]

    worst = 0.0
    for idx, a in enumerate(grad):
        numeric = (loss_at(idx, h) - loss_at(idx, -h)) / (2 * h)
        err = abs(a - numeric) / max(abs(a) + abs(numeric), 1e-8)
        worst = max(worst, err)
    return worst


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
    if data.get("format") != "urcd-mlp":
        raise ValueError("not a serialized network")
    if data.get("version") != 1:
        raise ValueError(f"unsupported network format version {data.get('version')!r}")
    return Mlp(
        layer_dims=tuple(data["layer_dims"]),
        weights=tuple(np.array(w, dtype=float) for w in data["weights"]),
        biases=tuple(np.array(b, dtype=float) for b in data["biases"]),
        activation=data["activation"],
    )
