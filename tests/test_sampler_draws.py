"""Bit-level contract of the dropout and ELM samplers.

``tests/data/golden_draws.json`` pins the SHA-256 of the bytes that
``sampler.draw(x_i, S, entry_seed(seed, i))`` returns for a few fixed
generator configurations.  The property tests compare the batched draws
with the one-draw-at-a-time loops they replaced, which are kept below as
the reference.

Regenerate the golden file (only when a change to the draws is intended
and said so) with ``PYTHONPATH=src python tests/test_sampler_draws.py``.
"""

import hashlib
import json
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from urcd import datagen
from urcd.datagen import (
    DropoutSampler,
    ElmSampler,
    GeneratorConfig,
    entry_seed,
    generate,
    ridge_solve,
)
from urcd.neural import Mlp

GOLDEN = Path(__file__).parent / "data" / "golden_draws.json"

# name -> generator settings; every entry i of each dataset is re-drawn
_CASES = {
    "mc_dropout_d10_width5": dict(task="mc_dropout", d=10, size=4, S=500,
                                  seed=5, base_width=5),
    "mc_dropout_d2_D2": dict(task="mc_dropout", d=2, D=2, size=4, S=30,
                             seed=3, base_width=5),
    # 2*100 + 100*100 + 100 doubles per draw: S = 101 spans several blocks
    # and is not a multiple of the block's draw count
    "mc_dropout_width100_depth2_rate0.3": dict(
        task="mc_dropout", d=2, size=2, S=101, seed=7, base_width=100,
        base_depth=2, dropout_rate=0.3),
    "mc_dropout_rate0": dict(task="mc_dropout", d=3, size=3, S=40, seed=2,
                             base_width=4, dropout_rate=0.0),
    "elm_depth1_width32": dict(task="elm", d=11, size=10, S=50, seed=4,
                               elm_width=32),
    "elm_depth2_width16": dict(task="elm", d=11, size=10, S=50, seed=6,
                               elm_width=16, elm_depth=2),
}


def _draw_hashes(params: dict) -> list:
    cfg = GeneratorConfig(**params)
    data, sampler = generate(cfg)
    return [hashlib.sha256(
                sampler.draw(x, cfg.S, entry_seed(cfg.seed, i)).tobytes()
            ).hexdigest()
            for i, (x, _) in enumerate(data.entries)]


def test_golden_draw_bytes():
    golden = json.loads(GOLDEN.read_text())
    assert set(golden) == set(_CASES)
    for name, params in _CASES.items():
        assert golden[name]["config"] == params
        assert _draw_hashes(params) == golden[name]["sha256"], name


def test_targets_drawn_on_first_read_have_the_golden_bits():
    """``generate`` draws no target; each is drawn where its atoms are
    first read, with the bits of the direct draw."""
    golden = json.loads(GOLDEN.read_text())
    for name, params in _CASES.items():
        data, _ = generate(GeneratorConfig(**params))
        targets = [target for _, target in data.entries]
        assert not any("atoms" in vars(target) for target in targets), name
        assert [hashlib.sha256(target.atoms.tobytes()).hexdigest()
                for target in targets] == golden[name]["sha256"], name


# ---------------------------------------------------------------------------
# reference loops: one draw, one layer at a time
# ---------------------------------------------------------------------------

def _dropout_loop(sampler: DropoutSampler, x, size, seed):
    rng = np.random.default_rng(seed)
    x = np.asarray(x, dtype=float)
    out = np.empty((size, sampler.net.layer_dims[-1]))
    for s in range(size):
        h = x
        for w, b in zip(sampler.net.weights, sampler.net.biases):
            mask = rng.random(size=w.shape) >= sampler.rate
            h = h @ (w * mask) + b
        out[s] = h
    return out


def _elm_loop(sampler: ElmSampler, x, size, seed):
    rng = np.random.default_rng(seed)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    dims = [sampler.train_X.shape[1]] + [sampler.width] * sampler.depth
    out = np.empty((size, sampler.train_Y.shape[1]))
    for s in range(size):
        theta = []
        for a, b in zip(dims[:-1], dims[1:]):
            w = rng.uniform(-sampler.M, sampler.M, size=(a, b))
            w *= rng.random(size=w.shape) >= sampler.sparsity
            bias = rng.uniform(-sampler.M, sampler.M, size=b)
            bias *= rng.random(size=b) >= sampler.sparsity
            theta.append((w, bias))

        def features(X):
            h = X
            for w, b in theta:
                h = np.maximum(h @ w + b, 0.0)
            return h

        coef = ridge_solve(features(sampler.train_X), sampler.train_Y,
                           sampler.lam)
        out[s] = (features(x) @ coef)[0]
    return out


def _dropout_draws_per_block(net: Mlp) -> int:
    return max(1, datagen._BLOCK_DOUBLES // sum(w.size for w in net.weights))


# The block cap is patched down so that every size around a block boundary
# stays small enough for the reference loop; the wide-net test below and
# the golden hashes cover the real cap.
@settings(max_examples=60)
@given(d=st.integers(1, 12), D=st.integers(1, 3), width=st.integers(1, 40),
       depth=st.integers(0, 3), rate=st.floats(0.0, 1.0, exclude_max=True),
       cap=st.integers(1, 4096), net_seed=st.integers(0, 2 ** 32 - 1),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_dropout_batched_draw_matches_loop(d, D, width, depth, rate, cap,
                                           net_seed, seed, data):
    rng = np.random.default_rng(net_seed)
    dims = [d] + [width] * depth + [D]
    net = Mlp(layer_dims=tuple(dims),
              weights=tuple(rng.standard_normal((a, b))
                            for a, b in zip(dims[:-1], dims[1:])),
              biases=tuple(rng.standard_normal(b) for b in dims[1:]),
              activation="identity")
    sampler = DropoutSampler(net=net, rate=rate)
    x = rng.uniform(0.0, 1.0, size=d)
    with mock.patch.object(datagen, "_BLOCK_DOUBLES", cap):
        block = _dropout_draws_per_block(net)
        size = data.draw(st.sampled_from(
            [1, max(1, block - 1), block, block + 1, 2 * block + 3]))
        got = sampler.draw(x, size, seed)
    assert got.shape == (size, D)
    assert np.array_equal(got, _dropout_loop(sampler, x, size, seed))


def test_dropout_block_boundaries_wide_net():
    cfg = GeneratorConfig(task="mc_dropout", d=2, size=2, S=2, seed=1,
                          base_width=100, base_depth=2, dropout_rate=0.3)
    _, sampler = generate(cfg)
    block = _dropout_draws_per_block(sampler.net)
    assert 1 < block < 101
    x = np.array([0.25, 0.75])
    for size in (1, block - 1, block, block + 1):
        got = sampler.draw(x, size, entry_seed(9, size))
        assert got.shape == (size, 1)
        assert np.array_equal(got, _dropout_loop(sampler, x, size,
                                                 entry_seed(9, size)))


@settings(max_examples=60)
@given(width=st.integers(1, 24), depth=st.integers(1, 3),
       sparsity=st.floats(0.0, 1.0), M=st.floats(0.1, 3.0),
       lam=st.floats(1e-4, 10.0), n_train=st.integers(2, 20),
       D=st.integers(1, 2), size=st.integers(1, 40),
       cap=st.integers(1, 20000), seed=st.integers(0, 2 ** 32 - 1))
def test_elm_batched_draw_matches_loop(width, depth, sparsity, M, lam,
                                       n_train, D, size, cap, seed):
    rng = np.random.default_rng(seed)
    sampler = ElmSampler(train_X=rng.normal(0.0, 0.01, size=(n_train, 11)),
                         train_Y=rng.normal(0.0, 0.01, size=(n_train, D)),
                         width=width, depth=depth, lam=lam, M=M,
                         sparsity=sparsity)
    x = rng.normal(0.0, 0.01, size=11)
    with mock.patch.object(datagen, "_BLOCK_DOUBLES", cap):
        got = sampler.draw(x, size, seed)
    assert got.shape == (size, D)
    assert np.array_equal(got, _elm_loop(sampler, x, size, seed))


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {name: {"config": params, "sha256": _draw_hashes(params)}
         for name, params in _CASES.items()}, indent=2) + "\n")
    print(f"wrote {GOLDEN}")
