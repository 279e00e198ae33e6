"""Decoupled training of mixture models.

Training never evaluates a transport distance: center selection and the
nearest-center labeling happen purely in input space, and the classifier is
then fit by cross-entropy.  This module intentionally has no dependency on
the Wasserstein solvers.

Dataset files are line-delimited JSON, one record per input:
``{"x": [...], "samples": [[...], ...]}``, where the samples are the i.i.d.
draws defining the target measure at x.  The train/test split lives in a
companion JSON index file, or defaults to a deterministic 80/20 head/tail
split.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from urcd.dnm import DnmModel
from urcd.measures import make_empirical
from urcd.neural import (
    NetConfig,
    cross_entropy_grad,
    fit_epochs,
    forward_cache,
    init_mlp,
    mean_nll,
    softmax,
)

# Input-difference cells (rows x n x d) per block of select_centers'
# distance matrix.  The whole (n, n, d) array raised the tracemalloc peak to
# 768 MB at n = 2,000 and d = 11; blocks of this size leave ~105 MB.
DIST_BLOCK_CELLS = 1 << 22


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
        for name, idx in (("train", self.train_idx), ("test", self.test_idx)):
            if len(set(idx)) < len(idx):
                raise ValueError(f"the {name} split repeats an index")

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
        cut = min(len(ents), max(2, int(0.8 * len(ents))))
        train_idx = tuple(range(cut))
        test_idx = tuple(range(cut, len(ents)))
    return Dataset(entries=ents, train_idx=tuple(train_idx),
                   test_idx=tuple(test_idx or ()))


@dataclass(frozen=True)
class TrainingLog:
    center_indices: tuple
    final_loss: float
    final_accuracy: float


def select_centers(inputs, n_centers: int):
    """Choose distinct training indices whose points cover the inputs.

    Greedy medoids: add one index at a time, each minimizing the medoid
    objective sum_x min_n ||x - c_n|| given the centers already chosen, ties
    broken by lowest index.  Deterministic.  The distance matrix is built
    in row blocks of at most DIST_BLOCK_CELLS input differences; each
    distance is computed on its own, so the blocks change no bit.
    """
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    n = inputs.shape[0]
    if not 1 <= n_centers < n:
        raise ValueError(f"need 1 <= n_centers < {n}")
    dist = np.empty((n, n))
    rows = max(1, DIST_BLOCK_CELLS // (n * inputs.shape[1]))
    for start in range(0, n, rows):
        block = inputs[start:start + rows, None, :] - inputs[None, :, :]
        dist[start:start + rows] = np.linalg.norm(block, axis=2)
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


def train_dnm(data: Dataset, n_centers: int, cfg: NetConfig = NetConfig(),
              seed: int = 0):
    """Fit a mixture model of n_centers atoms: pick centers (``select_centers``
    refuses n_centers outside [1, training-set size)), freeze their target
    measures as the atoms, and train the classifier on nearest-center labels.

    Fully deterministic for a fixed seed.  Returns (model, log); the log
    holds the centers and the trained classifier's full-training-set loss
    and label accuracy.
    """
    inputs = data.train_inputs()
    centers = select_centers(inputs, n_centers)
    rng = np.random.default_rng(seed)
    train = data.train_entries()
    atoms = tuple(train[c][1] for c in centers)
    labels = assign_labels(inputs, centers)

    d = data.input_dim
    net = init_mlp([d, *cfg.hidden_dims, n_centers],
                   activation=cfg.activation, rng=rng)

    if n_centers > 1 or not np.isfinite(inputs).all():
        # With one center and finite inputs the softmax of the single logit
        # is exactly 1.0, the label, so every gradient entry is +-0, Adam's
        # moments stay +0 and each step subtracts +0: fit_epochs would
        # return this network unchanged, so it is not called.
        def loss_grad(net, rows):
            return cross_entropy_grad(net, inputs[rows], labels[rows])

        net = fit_epochs(net, loss_grad, len(inputs), cfg, rng)

    logits, _, _ = forward_cache(net, inputs)
    loss = mean_nll(softmax(logits), labels)
    accuracy = float((logits.argmax(axis=1) == labels.argmax(axis=1)).mean())

    model = DnmModel(classifier=net, atoms=atoms)
    log = TrainingLog(center_indices=tuple(centers),
                      final_loss=loss, final_accuracy=accuracy)
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
    deterministic 80/20 head/tail rule.  A malformed record or split raises
    ValueError naming the file (and the line), and so does a split the
    records cannot fill: one the split file names, or the default one of a
    single record.
    """
    import os

    entries = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                if not isinstance(rec, dict) or not {"x", "samples"} <= rec.keys():
                    raise ValueError('a record needs the fields "x" and "samples"')
                x = np.asarray(rec["x"], dtype=float).ravel()
                if x.size == 0 or not np.all(np.isfinite(x)):
                    raise ValueError('"x" must be a non-empty list of finite numbers')
                samples = np.asarray(rec["samples"], dtype=float)
                if samples.ndim != 2:
                    raise ValueError('"samples" must be a list of points, '
                                     'each a list of coordinates')
                target = make_empirical(samples)
                if entries and (x.size, target.dim) != (
                        entries[0][0].size, entries[0][1].dim):
                    raise ValueError(
                        f'"x" of dimension {x.size} and samples of dimension '
                        f'{target.dim}, but the first record has '
                        f'{entries[0][0].size} and {entries[0][1].dim}')
                entries.append((x, target))
            except (TypeError, ValueError) as exc:   # TypeError: x or samples not numbers
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    if not entries:
        raise ValueError(f"no records in {path}")

    split_path = str(path) + ".split.json"
    where, split = path, {"train": None, "test": None}
    if os.path.exists(split_path):
        where = split_path
        with open(split_path) as fh:
            try:
                split = json.load(fh)
            except ValueError as exc:
                raise ValueError(f"{split_path}: {exc}") from exc
        if not isinstance(split, dict) or not {"train", "test"} <= split.keys():
            raise ValueError(f'{split_path}: a split needs the fields "train" '
                             f'and "test"')
        for key in ("train", "test"):
            idx = split[key]
            if not (isinstance(idx, list) and all(type(i) is int for i in idx)):
                raise ValueError(f'{split_path}: "{key}" must be a list of integers')
    try:
        return build_dataset(entries, split["train"], split["test"])
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc
