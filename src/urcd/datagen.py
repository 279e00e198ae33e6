"""Synthetic measure-valued target generators.

Each generator returns a ``(Dataset, sampler)`` pair.  The dataset holds
per-input empirical target measures of exactly S i.i.d. draws; the sampler
can re-draw from the true conditional law at any input (this is what the
Monte-Carlo oracle consumes).

Reproducibility contract: entry i of a dataset is drawn with
``entry_seed(master_seed, i)``, so re-driving ``sampler.draw(x_i, S,
entry_seed(seed, i))`` reproduces the stored samples bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from urcd.measures import make_empirical
from urcd.neural import Mlp, check_finite, mlp_forward
from urcd.training import Dataset, build_dataset

TASKS = ("heteroscedastic", "mc_dropout", "elm", "sde")
ELM_SPARSITY = 0.75   # the elm task's probability that a random parameter is zeroed
# the SDE task's coefficient catalog
_DRIFTS = ("zero", "constant", "linear", "ou")
_DIFFUSIONS = ("constant", "linear")

# Samplers draw their uniforms in blocks of about this many doubles; the
# block size bounds the temporaries and leaves the stream unchanged.
_BLOCK_DOUBLES = 2 ** 16


@dataclass(frozen=True)
class GeneratorConfig:
    task: str
    d: int | None = None         # None: 11 for elm, else 1
    D: int | None = None         # None: d for sde, else 1
    size: int = 100              # number of inputs
    S: int = 1000                # samples per input
    seed: int = 0
    # heteroscedastic / mc_dropout base network
    base_depth: int = 1
    base_width: int = 100
    dropout_rate: float = 0.1
    # extreme-learning-machine task
    elm_width: int = 32
    elm_depth: int = 1
    elm_lambda: float = 1e-3
    elm_M: float = 1.0
    # SDE marginals task
    sde_drift: str = "ou"        # zero | constant | linear | ou
    sde_diffusion: str = "constant"
    drift_a0: float = 0.0
    drift_a1: float = -1.0
    diffusion_b0: float = 1.0
    diffusion_b1: float = 0.0
    n_steps: int = 200
    t_max: float = 1.0
    x_max: float = 1.0

    def __post_init__(self):
        if self.d is None:
            object.__setattr__(self, "d", 11 if self.task == "elm" else 1)
        if self.D is None:
            object.__setattr__(self, "D", self.d if self.task == "sde" else 1)
        check_finite(self)
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}; choose from {TASKS}")
        if self.size < 2 or self.S < 2:
            raise ValueError("size and S must both be at least 2")
        if self.d < 1 or self.D < 1:
            raise ValueError("dimensions must be positive")
        if not 0 <= self.dropout_rate < 1:
            raise ValueError("dropout_rate must lie in [0, 1)")
        if self.elm_lambda <= 0:
            raise ValueError("ridge penalty must be positive")
        if self.task == "elm" and (self.elm_width < 1 or self.elm_depth < 1):
            raise ValueError("elm_width and elm_depth must be positive")
        if self.task == "heteroscedastic" and self.D != 1:
            raise ValueError("the heteroscedastic task is scalar-valued (D = 1)")
        if self.task == "elm" and (self.d != 11 or self.D != 1):
            raise ValueError("the elm task is fixed at d=11, D=1")
        if self.task == "sde" and self.D != self.d:
            raise ValueError("the SDE state dimension is D = d")
        if self.task == "sde" and (self.sde_drift not in _DRIFTS
                                   or self.sde_diffusion not in _DIFFUSIONS):
            raise ValueError(f"coefficients must come from the catalog "
                             f"{_DRIFTS} x {_DIFFUSIONS}")
        if self.n_steps < 1 or self.t_max <= 0 or self.x_max <= 0:
            raise ValueError("SDE grid parameters must be positive")

    def describe(self) -> str:
        """One-line exact parameterization, for report appendices."""
        common = f"task={self.task} d={self.d} D={self.D} size={self.size} S={self.S} seed={self.seed}"
        if self.task == "heteroscedastic":
            extra = f" base_depth={self.base_depth} base_width={self.base_width}"
        elif self.task == "mc_dropout":
            extra = (f" base_depth={self.base_depth} base_width={self.base_width}"
                     f" dropout_rate={self.dropout_rate}")
        elif self.task == "elm":
            extra = (f" elm_width={self.elm_width} elm_depth={self.elm_depth}"
                     f" elm_lambda={self.elm_lambda} elm_M={self.elm_M}"
                     f" elm_sparsity={ELM_SPARSITY}")
        else:
            extra = (f" drift={self.sde_drift}({self.drift_a0},{self.drift_a1})"
                     f" diffusion={self.sde_diffusion}({self.diffusion_b0},{self.diffusion_b1})"
                     f" n_steps={self.n_steps} t_max={self.t_max} x_max={self.x_max}")
        return common + extra


def entry_seed(master_seed: int, index: int) -> np.random.SeedSequence:
    """Seed-splitting contract: one independent stream per dataset entry."""
    return np.random.SeedSequence(entropy=(int(master_seed), int(index)))


def _blocks(size: int, doubles_per_draw: int):
    """(start, count) runs covering draws 0..size-1, each of about
    _BLOCK_DOUBLES doubles of per-draw work."""
    step = max(1, _BLOCK_DOUBLES // max(1, doubles_per_draw))
    for start in range(0, size, step):
        yield start, min(step, size - start)


def _split_columns(u: np.ndarray, widths) -> list:
    """Consecutive column blocks of u with the given widths."""
    return np.split(u, np.cumsum(widths)[:-1], axis=1)


def _build(cfg: GeneratorConfig, inputs, sampler, n_train=None) -> Dataset:
    """Entry i draws under entry_seed(cfg.seed, i); the first n_train
    entries (all by default) train and the rest test."""
    entries = [(x, make_empirical(sampler.draw(x, cfg.S, entry_seed(cfg.seed, i))))
               for i, x in enumerate(inputs)]
    n_train = len(entries) if n_train is None else n_train
    return build_dataset(entries, train_idx=range(n_train),
                         test_idx=range(n_train, len(entries)))


def generate(cfg: GeneratorConfig):
    """Dispatch on the task tag; returns (Dataset, sampler)."""
    return {
        "heteroscedastic": gen_heteroscedastic,
        "mc_dropout": gen_mc_dropout,
        "elm": gen_elm,
        "sde": gen_sde_marginals,
    }[cfg.task](cfg)


# ---------------------------------------------------------------------------
# heteroscedastic regression: f(x) + Laplace noise with variance ||x||
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HeteroscedasticSampler:
    net: Mlp

    def draw(self, x, size, seed):
        rng = np.random.default_rng(seed)
        x = np.asarray(x, dtype=float)
        loc = mlp_forward(self.net, x)[0]
        scale = math.sqrt(np.linalg.norm(x) / 2.0)   # Laplace variance 2 b^2 = ||x||
        if scale == 0.0:
            return np.full((size, 1), loc)
        return loc + rng.laplace(0.0, scale, size=(size, 1))


def gen_heteroscedastic(cfg: GeneratorConfig):
    """Scalar regression targets around a fixed random network.

    The trunk's weights are drawn uniformly from [-1/2, 1/2]; the additive
    noise at x is Laplace with variance ||x||, so inputs near the origin
    are nearly deterministic.
    """
    if cfg.task != "heteroscedastic":
        raise ValueError("config task mismatch")
    rng = np.random.default_rng(cfg.seed)
    dims = [cfg.d] + [cfg.base_width] * cfg.base_depth + [1]
    weights = tuple(rng.uniform(-0.5, 0.5, size=(a, b))
                    for a, b in zip(dims[:-1], dims[1:]))
    biases = tuple(rng.uniform(-0.5, 0.5, size=b) for b in dims[1:])
    net = Mlp(layer_dims=tuple(dims), weights=weights, biases=biases,
              activation="relu")
    inputs = rng.uniform(0.0, 1.0, size=(cfg.size, cfg.d))
    sampler = HeteroscedasticSampler(net=net)
    return _build(cfg, inputs, sampler), sampler


# ---------------------------------------------------------------------------
# dropout-randomized network
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DropoutSampler:
    """Bernoulli masks on every weight matrix of a fixed linear chain.

    Stream contract: draw s consumes one uniform per weight entry, layer by
    layer in weight order (each layer's entries in C order), before draw
    s + 1 starts.  An entry is kept when its uniform is >= rate.  So a block
    of m draws is one ``rng.random((m, sum of weight sizes))`` whose rows
    are the draws, and blocking leaves every output bit unchanged.
    """

    net: Mlp
    rate: float

    def draw(self, x, size, seed):
        rng = np.random.default_rng(seed)
        x = np.asarray(x, dtype=float)
        weights, biases = self.net.weights, self.net.biases
        widths = [w.size for w in weights]
        out = np.empty((size, self.net.layer_dims[-1]))
        for start, m in _blocks(size, sum(widths)):
            keep = rng.random((m, sum(widths))) >= self.rate
            h = np.broadcast_to(x, (m, 1, x.size))
            for w, b, k in zip(weights, biases, _split_columns(keep, widths)):
                h = h @ (w * k.reshape(m, *w.shape)) + b
            out[start:start + m] = h[:, 0]
        return out


def gen_mc_dropout(cfg: GeneratorConfig):
    """Predictive law of a fixed network under weight dropout.

    The base network has standard-normal weights and biases and no
    activation between layers (the randomness, not the nonlinearity, is
    the object of study); each draw masks every weight matrix entrywise
    by independent Bernoulli(1 - rate).
    """
    if cfg.task != "mc_dropout":
        raise ValueError("config task mismatch")
    rng = np.random.default_rng(cfg.seed)
    dims = [cfg.d] + [cfg.base_width] * cfg.base_depth + [cfg.D]
    weights = tuple(rng.standard_normal((a, b))
                    for a, b in zip(dims[:-1], dims[1:]))
    biases = tuple(rng.standard_normal(b) for b in dims[1:])
    net = Mlp(layer_dims=tuple(dims), weights=weights, biases=biases,
              activation="identity")
    inputs = rng.uniform(0.0, 1.0, size=(cfg.size, cfg.d))
    sampler = DropoutSampler(net=net, rate=cfg.dropout_rate)
    return _build(cfg, inputs, sampler), sampler


# ---------------------------------------------------------------------------
# extreme learning machines on a synthetic return series
# ---------------------------------------------------------------------------

def ridge_solve(X: np.ndarray, Y: np.ndarray, lam: float) -> np.ndarray:
    """Solve (X^T X + lam I) w = X^T Y; lam > 0 keeps the system regular.

    X may be a stack of designs (..., n, W); each gets its own solution."""
    if lam <= 0:
        raise ValueError("ridge penalty must be positive")
    Xt = np.swapaxes(X, -1, -2)
    return np.linalg.solve(Xt @ X + lam * np.eye(X.shape[-1]), Xt @ Y)


@dataclass(frozen=True)
class ElmSampler:
    """Random-feature ridge regressors with freshly drawn hidden weights.

    Each draw resamples the hidden parameters theta (uniform on [-M, M],
    then sparsified by a Bernoulli mask), rebuilds the feature design of
    the training inputs, and evaluates the resulting ridge solution at x.

    Stream contract: draw s consumes, layer by layer, the weight uniforms,
    the weight mask, the bias uniforms and the bias mask (each in C order)
    before draw s + 1 starts.  A uniform is ``-M + 2M * U`` as
    ``Generator.uniform`` computes it; a parameter is kept when its mask
    double is >= sparsity.  So a block of draws is one ``rng.random`` call
    whose rows are the draws, and blocking leaves every output bit
    unchanged.
    """

    train_X: np.ndarray          # (n_train, d)
    train_Y: np.ndarray          # (n_train, D)
    width: int
    depth: int
    lam: float
    M: float
    sparsity: float

    def features(self, theta, X):
        """Hidden features of the rows of X; a theta whose weights carry a
        leading draw axis gives one feature matrix per draw."""
        h = np.atleast_2d(X)
        for w, b in theta:
            h = np.maximum(h @ w + b[..., None, :], 0.0)
        return h

    def predict(self, theta, X):
        design = self.features(theta, self.train_X)
        coef = ridge_solve(design, self.train_Y, self.lam)
        return self.features(theta, X) @ coef

    def draw(self, x, size, seed):
        rng = np.random.default_rng(seed)
        x = np.atleast_2d(np.asarray(x, dtype=float))
        dims = [self.train_X.shape[1]] + [self.width] * self.depth
        shapes = list(zip(dims[:-1], dims[1:]))
        widths = [n for a, b in shapes for n in (a * b, a * b, b, b)]
        # per draw: its uniforms, one design matrix and one Gram matrix
        work = sum(widths) + self.width * (self.train_X.shape[0] + self.width)
        low, high = -self.M, self.M
        out = np.empty((size, self.train_Y.shape[1]))
        for start, m in _blocks(size, work):
            parts = iter(_split_columns(rng.random((m, sum(widths))), widths))
            theta = []
            for a, b in shapes:
                w = (low + (high - low) * next(parts)).reshape(m, a, b)
                w *= next(parts).reshape(m, a, b) >= self.sparsity
                bias = low + (high - low) * next(parts)
                bias *= next(parts) >= self.sparsity
                theta.append((w, bias))
            out[start:start + m] = self.predict(theta, x)[:, 0]
        return out


def _synthetic_return_series(rng, rows: int, n_series: int = 12,
                             rho: float = 0.1, scale: float = 0.01) -> np.ndarray:
    """Seeded AR(1) return panel standing in for market data."""
    r = np.zeros((rows, n_series))
    innov = rng.normal(0.0, scale, size=(rows, n_series))
    r[0] = innov[0]
    for t in range(1, rows):
        r[t] = rho * r[t - 1] + innov[t]
    return r


def gen_elm(cfg: GeneratorConfig):
    """Next-day regression targets from randomized ridge regressors.

    A seeded 12-channel AR(1) return panel supplies 11 inputs and a
    held-out channel one step ahead; the first 80% of the rows are the
    ridge training window.  The measure at x collects predictions of S
    independently re-randomized feature maps.
    """
    if cfg.task != "elm":
        raise ValueError("config task mismatch")
    rng = np.random.default_rng(cfg.seed)
    rows = cfg.size + 1
    panel = _synthetic_return_series(rng, rows)
    inputs = panel[:-1, :11]
    targets = panel[1:, 11:12]
    cut = max(2, int(0.8 * cfg.size))
    sampler = ElmSampler(train_X=inputs[:cut], train_Y=targets[:cut],
                         width=cfg.elm_width, depth=cfg.elm_depth,
                         lam=cfg.elm_lambda, M=cfg.elm_M,
                         sparsity=ELM_SPARSITY)
    return _build(cfg, inputs, sampler, n_train=cut), sampler


# ---------------------------------------------------------------------------
# SDE marginal laws via Euler-Maruyama
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SdeSampler:
    """Marginal law of X_t started at x under affine coefficients.

    Inputs are (t, x) with t first.  Drift and diffusion come from a small
    Lipschitz catalog (zero / constant / affine in the state, applied
    coordinatewise), so strong solutions exist.
    """

    drift: str
    diffusion: str
    a0: float
    a1: float
    b0: float
    b1: float
    n_steps: int

    def _mu(self, y):
        if self.drift == "zero":
            return np.zeros_like(y)
        if self.drift == "constant":
            return np.full_like(y, self.a0)
        # "linear" and "ou" are both affine: a0 + a1 * y (ou: a0 = 0, a1 < 0)
        return self.a0 + self.a1 * y

    def _sigma(self, y):
        if self.diffusion == "constant":
            return np.full_like(y, self.b0)
        return self.b0 + self.b1 * y

    def project(self, tx):
        """Nearest input in the sampler's domain: times before 0 become 0."""
        tx = np.array(tx, dtype=float)
        tx[0] = max(tx[0], 0.0)
        return tx

    def draw(self, tx, size, seed):
        rng = np.random.default_rng(seed)
        tx = np.asarray(tx, dtype=float).ravel()
        t, x0 = float(tx[0]), tx[1:]
        if t < 0.0:
            raise ValueError(f"time {t!r} lies before the start time 0")
        y = np.tile(x0, (size, 1))
        if t == 0.0 or self.n_steps == 0:
            return y
        dt = t / self.n_steps
        sqdt = math.sqrt(dt)
        for _ in range(self.n_steps):
            noise = rng.standard_normal(y.shape)
            y = y + self._mu(y) * dt + self._sigma(y) * sqdt * noise
        return y


def _grid(cfg: GeneratorConfig) -> np.ndarray:
    """Regular lattice over [0, t_max] x [-x_max, x_max]^d, truncated to size."""
    axes_count = cfg.d + 1
    per_axis = max(2, math.ceil(cfg.size ** (1.0 / axes_count)))
    axes = [np.linspace(0.0, cfg.t_max, per_axis)]
    axes += [np.linspace(-cfg.x_max, cfg.x_max, per_axis)] * cfg.d
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    return pts[:cfg.size]


def gen_sde_marginals(cfg: GeneratorConfig):
    """Empirical marginal laws of a diffusion over a (t, x) grid."""
    if cfg.task != "sde":
        raise ValueError("config task mismatch")
    sampler = SdeSampler(drift=cfg.sde_drift, diffusion=cfg.sde_diffusion,
                         a0=cfg.drift_a0, a1=cfg.drift_a1,
                         b0=cfg.diffusion_b0, b1=cfg.diffusion_b1,
                         n_steps=cfg.n_steps)
    inputs = _grid(cfg)
    return _build(cfg, inputs, sampler), sampler
