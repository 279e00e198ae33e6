"""Bit-level contract of the stacked EM fit.

``em_fit_gmm`` fits a stack of equal-size targets in one component-major
pass, and ``mdn_fit`` builds its targets from stacks of the targets that
share an atom count.  The property tests compare both with the one-target
EM they replaced (``em_fit_one`` in ``diagnostics``) with
``np.array_equal``: over D = 1..3, K = 1..10 (numpy sums 8 or more terms
pairwise), tied and duplicate atoms, targets with fewer atoms than K, mixed
atom counts, and target counts that are not a multiple of the stack size.
A traced run must still see every fit, so ``mdn_fit`` calls EM through the
module-level name.
"""

import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import urcd.baselines as baselines
from urcd.baselines import EM_ITERS, _mdn_targets, em_fit_gmm, mdn_fit
from urcd.measures import make_empirical
from urcd.neural import NetConfig
from urcd.training import build_dataset

from diagnostics import em_fit_one

FIELDS = ("weights", "means", "log_stds")


def _points(rng, kind: str, n: int, dim: int) -> np.ndarray:
    """n points in R^dim: continuous, on a coarse grid (ties), or with half
    of them on one duplicated atom."""
    pts = rng.normal(size=(n, dim)) * rng.uniform(0.1, 10.0)
    if kind == "grid":
        pts = np.round(pts)
    elif kind == "duplicates":
        pts[: n // 2] = pts[0]
    return pts


@st.composite
def _stack(draw):
    dim = draw(st.integers(1, 3))
    k = draw(st.integers(1, 10))
    n = draw(st.integers(k, k + 25))
    b = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["normal", "grid", "duplicates"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = np.array([_points(rng, kind, n, dim) for _ in range(b)])
    seeds = [int(s) for s in rng.integers(0, 2**32, size=b)]
    return points, k, seeds


@settings(max_examples=60)
@given(_stack(), st.integers(1, 8))
def test_stacked_em_matches_one_target_loop(case, iters):
    points, k, seeds = case
    stacked = em_fit_gmm(points, k, iters=iters, seed=seeds)
    for b, (target, seed) in enumerate(zip(points, seeds)):
        one = em_fit_one(target, k, iters, seed)
        for field in FIELDS:
            assert np.array_equal(getattr(stacked, field)[b], getattr(one, field))


def _mdn_targets_one_by_one(data, k: int, seed: int):
    """mdn_fit's former target loop: one EM fit per training target."""
    weights, means, log_stds = [], [], []
    for _, measure in data.train_entries():
        content_seed = (seed * 1_000_003 + zlib.crc32(measure.atoms.tobytes())) % 2**32
        n = min(k, measure.n_atoms)
        gmm = em_fit_one(measure.atoms, n, EM_ITERS, content_seed)
        idx = np.minimum(np.arange(k), n - 1)
        weights.append(np.append(gmm.weights, np.zeros(k - n)))
        means.append(gmm.means[idx])
        log_stds.append(gmm.log_stds[idx])
    return np.array(weights), np.array(means), np.array(log_stds)


@st.composite
def _mixed_dataset(draw):
    """Targets of a few atom counts, some below K, in shuffled order."""
    dim = draw(st.integers(1, 3))
    k = draw(st.integers(1, 10))
    counts = draw(st.lists(st.integers(1, 14), min_size=1, max_size=3))
    size = draw(st.integers(3, 13))
    kind = draw(st.sampled_from(["normal", "grid", "duplicates"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    entries = [(rng.uniform(size=2),
                make_empirical(_points(rng, kind, int(rng.choice(counts)), dim)))
               for _ in range(size)]
    data = build_dataset(entries, train_idx=range(size), test_idx=())
    return data, k, draw(st.integers(0, 2**16))


@settings(max_examples=40)
@given(_mixed_dataset(), st.integers(1, 200))
def test_mdn_targets_match_one_target_loop(case, chunk_cells):
    data, k, seed = case
    # small stacks, so groups split into stacks with a shorter last one
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(baselines, "EM_CHUNK_CELLS", chunk_cells)
        stacked = _mdn_targets(data, k, seed)
    for got, want in zip(stacked, _mdn_targets_one_by_one(data, k, seed)):
        assert np.array_equal(got, want)


def test_mdn_fit_runs_em_through_the_module_name(monkeypatch):
    """A tracer rebinds ``urcd.baselines.em_fit_gmm``; every target's fit
    must pass through that name, in stacks of EM_CHUNK_CELLS cells."""
    rng = np.random.default_rng(0)
    n_targets, n_atoms, k = 100, 500, 3
    entries = [(rng.uniform(size=2), make_empirical(rng.normal(size=(n_atoms, 1))))
               for _ in range(n_targets)]
    data = build_dataset(entries, train_idx=range(n_targets), test_idx=())
    stacks = []
    fit = baselines.em_fit_gmm

    def counted(points, *args, **kwargs):
        stacks.append(len(points))
        return fit(points, *args, **kwargs)

    monkeypatch.setattr(baselines, "em_fit_gmm", counted)
    mdn_fit(data, k, NetConfig(hidden_dims=(4,), epochs=1), seed=1)
    per_stack = baselines.EM_CHUNK_CELLS // (n_atoms * k)
    assert sum(stacks) == n_targets
    assert 1 <= len(stacks) <= math.ceil(n_targets / per_stack)


def test_em_fit_needs_one_seed_per_target():
    with pytest.raises(ValueError):
        em_fit_gmm(np.zeros((3, 5, 1)), 2, seed=[1, 2])
