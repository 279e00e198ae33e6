"""Decoupled training of mixture models.

Training never evaluates a transport distance: center selection and the
nearest-center labeling happen purely in input space, and the classifier is
then fit by cross-entropy.  This module intentionally has no dependency on
the Wasserstein solvers.

``train_dnm`` logs every epoch's full-training-set loss and the final label
accuracy with the bits a forward pass after each epoch would give, but
skips work the loop already did or cannot change: with a full batch, step
t + 1's loss is epoch t's, and a one-center classifier, whose gradient is
exactly zero, is not trained at all.

Dataset files are line-delimited JSON, one record per input:
``{"x": [...], "samples": [[...], ...]}``, where the samples are the i.i.d.
draws defining the target measure at x.  The train/test split lives in a
companion JSON index file, or defaults to a deterministic 80/20 head/tail
split.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from urcd.dnm import DnmModel, identity_feature_map
from urcd.measures import make_empirical
from urcd.neural import (
    FitConfig,
    cross_entropy_grad,
    fit_epochs,
    forward_cache,
    init_mlp,
    mean_nll,
    softmax,
)

EXHAUSTIVE_SUBSET_CAP = 100_000


@dataclass(frozen=True)
class Dataset:
    """Input points paired with empirical target measures, plus a split."""

    entries: tuple          # of (x: (d,) array, target: EmpiricalMeasure)
    train_idx: tuple
    test_idx: tuple

    def __post_init__(self):
        if len(self.train_idx) < 2:
            raise ValueError("need at least 2 training entries")
        dims_in = {e[0].shape for e in self.entries}
        dims_out = {e[1].dim for e in self.entries}
        if len(dims_in) != 1 or len(dims_out) != 1:
            raise ValueError("entries must share input and output dimensions")
        all_idx = set(self.train_idx) | set(self.test_idx)
        if not all_idx <= set(range(len(self.entries))):
            raise ValueError("split indices out of range")

    @property
    def input_dim(self) -> int:
        return self.entries[0][0].shape[0]

    @property
    def output_dim(self) -> int:
        return self.entries[0][1].dim

    def train_entries(self):
        return [self.entries[i] for i in self.train_idx]

    def test_entries(self):
        return [self.entries[i] for i in self.test_idx]

    def train_inputs(self) -> np.ndarray:
        return np.array([self.entries[i][0] for i in self.train_idx])


def build_dataset(entries, train_idx=None, test_idx=None) -> Dataset:
    """Normalize raw (x, measure) pairs into a Dataset.

    Without an explicit split, the first 80% of the entries train and the
    rest test (deterministic head/tail split).
    """
    ents = tuple((np.asarray(x, dtype=float).ravel(), m) for x, m in entries)
    if train_idx is None:
        cut = max(2, int(0.8 * len(ents)))
        train_idx = tuple(range(cut))
        test_idx = tuple(range(cut, len(ents)))
    return Dataset(entries=ents, train_idx=tuple(train_idx),
                   test_idx=tuple(test_idx or ()))


@dataclass(frozen=True, kw_only=True)
class TrainConfig(FitConfig):
    n_centers: int
    center_strategy: str = "greedy_medoids"

    def __post_init__(self):
        super().__post_init__()
        if self.n_centers < 1:
            raise ValueError("n_centers must be >= 1")
        if self.center_strategy not in ("greedy_medoids", "exhaustive"):
            raise ValueError(f"unknown center strategy {self.center_strategy!r}")


@dataclass(frozen=True)
class TrainingLog:
    center_indices: tuple
    epoch_losses: tuple
    final_accuracy: float


def _medoid_objective(dist: np.ndarray, subset) -> float:
    """Sum over inputs of the distance to the nearest chosen center."""
    return float(dist[:, list(subset)].min(axis=1).sum())


def select_centers(train, n_centers: int, strategy: str = "greedy_medoids"):
    """Choose distinct training indices whose points cover the inputs.

    The covering objective is sum_x min_n ||x - c_n||.  "exhaustive"
    enumerates all index subsets (refused above 1e5 subsets) and returns
    the lexicographically first minimizer; "greedy_medoids" adds one index
    at a time, each minimizing the objective given the centers already
    chosen, ties broken by lowest index.  Both are deterministic.
    """
    if isinstance(train, Dataset):
        inputs = train.train_inputs()
    else:
        inputs = np.atleast_2d(np.asarray(train, dtype=float))
    n = inputs.shape[0]
    if not 1 <= n_centers < n:
        raise ValueError(f"need 1 <= n_centers < {n}")
    dist = np.linalg.norm(inputs[:, None, :] - inputs[None, :, :], axis=2)

    if strategy == "exhaustive":
        if math.comb(n, n_centers) > EXHAUSTIVE_SUBSET_CAP:
            raise ValueError("too many subsets for exhaustive center selection")
        best, best_cost = None, np.inf
        for subset in itertools.combinations(range(n), n_centers):
            cost = _medoid_objective(dist, subset)
            if cost < best_cost - 1e-12:
                best, best_cost = subset, cost
        return list(best)

    if strategy != "greedy_medoids":
        raise ValueError(f"unknown center strategy {strategy!r}")
    chosen: list[int] = []
    current = np.full(n, np.inf)
    for _ in range(n_centers):
        cand_costs = np.minimum(current[:, None], dist).sum(axis=0)
        cand_costs[chosen] = np.inf
        pick = int(np.argmin(cand_costs))   # argmin takes the lowest index on ties
        chosen.append(pick)
        current = np.minimum(current, dist[:, pick])
    return chosen


def assign_labels(train_inputs, center_indices) -> np.ndarray:
    """One-hot nearest-center labels, ties resolved to the lowest center index."""
    inputs = np.atleast_2d(np.asarray(train_inputs, dtype=float))
    centers = list(center_indices)
    if not centers:
        raise ValueError("center list must be non-empty")
    d = np.linalg.norm(inputs[:, None, :] - inputs[None, centers, :], axis=2)
    labels = np.zeros((inputs.shape[0], len(centers)))
    labels[np.arange(inputs.shape[0]), d.argmin(axis=1)] = 1.0
    return labels


def train_dnm(data: Dataset, cfg: TrainConfig):
    """Fit a mixture model: pick centers, freeze their target measures as
    the atoms, and train the classifier on nearest-center labels.

    Fully deterministic for a fixed config seed.  Returns (model, log).
    """
    inputs = data.train_inputs()
    if cfg.n_centers >= inputs.shape[0]:
        raise ValueError("n_centers must be smaller than the training set")
    rng = np.random.default_rng(cfg.seed)

    centers = select_centers(inputs, cfg.n_centers, cfg.center_strategy)
    train = data.train_entries()
    atoms = tuple(train[c][1] for c in centers)
    labels = assign_labels(inputs, centers)

    d = data.input_dim
    net = init_mlp([d, *cfg.hidden_dims, cfg.n_centers],
                   activation=cfg.activation, rng=rng)

    def forward_loss(net):
        logits, _, _ = forward_cache(net, inputs)
        return mean_nll(softmax(logits), labels), logits

    n = len(inputs)
    if cfg.n_centers == 1 and np.isfinite(inputs).all():
        # One class: the softmax of a single finite logit is exactly 1.0, the
        # label, so p - y is 0 and, with finite inputs, every gradient entry
        # is +-0; Adam's moments stay +0 and each step subtracts +0 from every
        # parameter.  fit_epochs would return this network unchanged and log
        # this loss every epoch, so it is skipped.
        loss, logits = forward_loss(net)
        losses = [loss] * cfg.epochs
    else:
        step_losses, losses = [], []

        def loss_grad(nets, rows):
            loss, grad = cross_entropy_grad(nets[0], inputs[rows], labels[rows])
            step_losses.append(loss)
            return (grad,)

        full_batch = min(cfg.batch_size or n, n) == n
        for (net,) in fit_epochs((net,), loss_grad, n, cfg, rng):
            if not full_batch:
                loss, logits = forward_loss(net)
                losses.append(loss)
        if full_batch:
            # step t + 1 starts from epoch t's network on the same rows, so
            # its loss is epoch t's; only the last epoch needs a forward pass
            loss, logits = forward_loss(net)
            losses = [*step_losses[1:], loss]

    accuracy = float((logits.argmax(axis=1) == labels.argmax(axis=1)).mean())

    model = DnmModel(feature_map=identity_feature_map(d), classifier=net,
                     atoms=atoms)
    log = TrainingLog(center_indices=tuple(centers),
                      epoch_losses=tuple(losses), final_accuracy=accuracy)
    return model, log


# ---------------------------------------------------------------------------
# dataset files
# ---------------------------------------------------------------------------

def save_dataset(data: Dataset, path) -> None:
    """Write entries as JSON lines, and the split as a companion index file."""
    with open(path, "w") as fh:
        for x, measure in data.entries:
            rec = {"x": x.tolist(), "samples": measure.atoms.tolist()}
            fh.write(json.dumps(rec) + "\n")
    with open(str(path) + ".split.json", "w") as fh:
        json.dump({"train": list(data.train_idx), "test": list(data.test_idx)}, fh)


def load_dataset(path) -> Dataset:
    """Read a JSON-lines dataset file.

    The split comes from the companion file when it exists, else from the
    deterministic 80/20 head/tail rule.
    """
    import os

    entries = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            samples = np.asarray(rec["samples"], dtype=float)
            entries.append((np.asarray(rec["x"], dtype=float),
                            make_empirical(samples)))
    if not entries:
        raise ValueError(f"no records in {path}")

    split_path = str(path) + ".split.json"
    if os.path.exists(split_path):
        with open(split_path) as fh:
            split = json.load(fh)
        return build_dataset(entries, split["train"], split["test"])
    return build_dataset(entries)
