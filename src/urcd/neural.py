"""Dense feedforward networks with hand-rolled backprop and Adam.

Networks are plain dataclasses over numpy arrays.  The forward map applies
the activation componentwise after every affine layer except the last one.
``forward_cache``/``backprop`` expose the reverse-mode core, and
``fit_epochs`` is the one minibatch-Adam loop, so other modules train the
same networks under their own losses.  ``NetConfig``/``FitConfig`` declare
the training settings they share.

Everything is deterministic: initialization is seeded, and gradient /
optimizer updates are pure functions returning fresh objects.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

_ACTIVATIONS = {
    "relu": (lambda z: np.maximum(z, 0.0),
             lambda z: (z > 0.0).astype(float)),  # subgradient 0 at the kink
    "tanh": (np.tanh, lambda z: 1.0 - np.tanh(z) ** 2),
    "sigmoid": (lambda z: 1.0 / (1.0 + np.exp(-z)),
                lambda z: (s := 1.0 / (1.0 + np.exp(-z))) * (1.0 - s)),
    "identity": (lambda z: z, lambda z: np.ones_like(z)),
}


@dataclass(frozen=True)
class Mlp:
    """Fully-connected network.

    layer_dims : [d_in, hidden..., d_out]
    weights    : weights[j] has shape (layer_dims[j], layer_dims[j+1])
    biases     : biases[j] has shape (layer_dims[j+1],)
    activation : one of relu / tanh / sigmoid / identity
    """

    layer_dims: tuple
    weights: tuple
    biases: tuple
    activation: str = "relu"


@dataclass(frozen=True)
class Grads:
    """Parameter-shaped gradient collection mirroring an Mlp."""

    weights: tuple
    biases: tuple


@dataclass(frozen=True)
class OptimizerState:
    step: int
    m_weights: tuple
    m_biases: tuple
    v_weights: tuple
    v_biases: tuple
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
    return sum(w.size + b.size for w, b in zip(net.weights, net.biases))


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


def backprop(net: Mlp, pre, post, d_out: np.ndarray) -> Grads:
    """Reverse-mode accumulation from d(loss)/d(output) back to parameters."""
    _, dact = _ACTIVATIONS[net.activation]
    gw = [None] * len(net.weights)
    gb = [None] * len(net.biases)
    delta = d_out
    for j in range(len(net.weights) - 1, -1, -1):
        gw[j] = post[j].T @ delta
        gb[j] = delta.sum(axis=0)
        if j > 0:
            delta = (delta @ net.weights[j].T) * dact(pre[j - 1])
    return Grads(weights=tuple(gw), biases=tuple(gb))


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


def cross_entropy_grad(net: Mlp, batch):
    """Mean negative log-likelihood of softmax outputs, with its gradient.

    batch : sequence of (x, one_hot_label) pairs; labels must have length
    equal to the network output dimension.
    """
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


def init_adam(net: Mlp, learning_rate: float = 1e-2, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> OptimizerState:
    zeros_w = tuple(np.zeros_like(w) for w in net.weights)
    zeros_b = tuple(np.zeros_like(b) for b in net.biases)
    return OptimizerState(step=0, m_weights=zeros_w, m_biases=zeros_b,
                          v_weights=zeros_w, v_biases=zeros_b,
                          learning_rate=learning_rate, beta1=beta1,
                          beta2=beta2, eps=eps)


def adam_step(net: Mlp, state: OptimizerState, grads: Grads):
    """One bias-corrected Adam update; returns (new net, new state)."""
    for w, g in zip(net.weights, grads.weights):
        if w.shape != g.shape:
            raise ValueError("gradient shapes do not match the network")
    t = state.step + 1
    b1, b2 = state.beta1, state.beta2

    def upd(params, grads_, ms, vs):
        new_p, new_m, new_v = [], [], []
        for p, g, m, v in zip(params, grads_, ms, vs):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mhat = m / (1 - b1 ** t)
            vhat = v / (1 - b2 ** t)
            new_p.append(p - state.learning_rate * mhat / (np.sqrt(vhat) + state.eps))
            new_m.append(m)
            new_v.append(v)
        return tuple(new_p), tuple(new_m), tuple(new_v)

    w, mw, vw = upd(net.weights, grads.weights, state.m_weights, state.v_weights)
    b, mb, vb = upd(net.biases, grads.biases, state.m_biases, state.v_biases)
    new_net = replace(net, weights=w, biases=b)
    new_state = replace(state, step=t, m_weights=mw, v_weights=vw,
                        m_biases=mb, v_biases=vb)
    return new_net, new_state


def fit_epochs(nets, loss_grad, n: int, cfg: NetConfig, rng):
    """Minibatch Adam over n training rows; yields the networks after each epoch.

    loss_grad(nets, rows) returns one Grads per network for the index array
    rows.  Each network keeps its own Adam state.  Rows are reshuffled every
    epoch only when a batch is smaller than n.
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
    _, grads = cross_entropy_grad(net, batch)

    def loss_with(weights, biases):
        probe = replace(net, weights=weights, biases=biases)
        loss, _ = cross_entropy_grad(probe, batch)
        return loss

    worst = 0.0
    for kind in ("weights", "biases"):
        params = list(getattr(net, kind))
        analytic = getattr(grads, kind)
        for li, arr in enumerate(params):
            flat = arr.ravel()
            for idx in range(flat.size):
                bumped = arr.copy().ravel()
                bumped[idx] += h
                plus = list(params)
                plus[li] = bumped.reshape(arr.shape)
                bumped = arr.copy().ravel()
                bumped[idx] -= h
                minus = list(params)
                minus[li] = bumped.reshape(arr.shape)
                if kind == "weights":
                    lp = loss_with(tuple(plus), net.biases)
                    lm = loss_with(tuple(minus), net.biases)
                else:
                    lp = loss_with(net.weights, tuple(plus))
                    lm = loss_with(net.weights, tuple(minus))
                numeric = (lp - lm) / (2 * h)
                a = analytic[li].ravel()[idx]
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
