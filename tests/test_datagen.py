import math

import numpy as np
import pytest

from urcd.datagen import (
    DropoutSampler,
    GeneratorConfig,
    SdeSampler,
    entry_seed,
    gen_elm,
    gen_heteroscedastic,
    gen_mc_dropout,
    gen_sde_marginals,
    generate,
    ridge_solve,
)
from urcd.neural import Mlp, mlp_forward


def test_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(task="nope")
    with pytest.raises(ValueError):
        GeneratorConfig(task="sde", S=1)
    with pytest.raises(ValueError):
        GeneratorConfig(task="mc_dropout", dropout_rate=1.0)
    with pytest.raises(ValueError):
        GeneratorConfig(task="heteroscedastic", D=2)
    with pytest.raises(ValueError):
        GeneratorConfig(task="elm", elm_lambda=0.0)
    with pytest.raises(ValueError):
        GeneratorConfig(task="elm", d=11, elm_depth=0)
    with pytest.raises(ValueError):
        GeneratorConfig(task="elm", d=11, elm_width=0)


def test_task_fills_in_its_own_dimensions():
    elm = GeneratorConfig(task="elm", size=10, S=3, elm_width=4)
    sde = GeneratorConfig(task="sde", d=2, size=4, S=3, n_steps=5)
    assert (elm.d, elm.D) == (11, 1)
    assert (sde.d, sde.D) == (2, 2)
    for cfg in (elm, sde):
        data, _ = generate(cfg)
        assert data.output_dim == cfg.D
    for wrong in ({"task": "elm", "d": 5}, {"task": "elm", "D": 2},
                  {"task": "sde", "d": 2, "D": 1}, {"task": "sde", "D": 2}):
        with pytest.raises(ValueError):
            GeneratorConfig(**wrong)


# ---------------------------------------------------------------------------
# heteroscedastic
# ---------------------------------------------------------------------------

def test_heteroscedastic_zero_input_is_deterministic():
    cfg = GeneratorConfig(task="heteroscedastic", d=2, size=4, S=10, seed=0)
    _, sampler = gen_heteroscedastic(cfg)
    pts = sampler.draw(np.zeros(2), 50, seed=1)
    f0 = mlp_forward(sampler.net, np.zeros(2))[0]
    assert np.all(pts == f0)


def test_heteroscedastic_variance_scales_with_norm():
    cfg = GeneratorConfig(task="heteroscedastic", d=2, size=4, S=4000, seed=1)
    _, sampler = gen_heteroscedastic(cfg)
    for x in (np.array([0.5, 0.5]), np.array([1.0, 0.0])):
        pts = sampler.draw(x, cfg.S, seed=7)
        norm = np.linalg.norm(x)
        assert abs(pts.var() - norm) < 5 * norm * math.sqrt(2.0 / cfg.S)


def test_heteroscedastic_reproducible_entries():
    cfg = GeneratorConfig(task="heteroscedastic", d=1, size=6, S=20, seed=3)
    data, sampler = gen_heteroscedastic(cfg)
    for i, (x, measure) in enumerate(data.entries):
        redriven = sampler.draw(x, cfg.S, entry_seed(cfg.seed, i))
        assert np.array_equal(measure.atoms, redriven)


# ---------------------------------------------------------------------------
# dropout
# ---------------------------------------------------------------------------

def test_dropout_rate_zero_degenerate():
    cfg = GeneratorConfig(task="mc_dropout", d=3, size=4, S=15, seed=0,
                          base_depth=1, base_width=4, dropout_rate=0.0)
    data, sampler = gen_mc_dropout(cfg)
    x = data.entries[0][0]
    base = np.asarray(x)
    for w, b in zip(sampler.net.weights, sampler.net.biases):
        base = base @ w + b
    pts = sampler.draw(x, 20, seed=5)
    assert np.allclose(pts, base, atol=1e-12)


def test_dropout_rate_near_one_collapses_to_final_bias():
    rng = np.random.default_rng(2)
    dims = (2, 5, 1)
    weights = tuple(rng.standard_normal((a, b)) for a, b in zip(dims[:-1], dims[1:]))
    biases = (np.zeros(5), np.array([0.75]))
    net = Mlp(layer_dims=dims, weights=weights, biases=biases,
              activation="identity")
    sampler = DropoutSampler(net=net, rate=0.999)
    pts = sampler.draw(np.array([1.0, -1.0]), 400, seed=0)
    # each draw deviates only when some of the ~15 masked entries survive
    assert np.median(np.abs(pts - 0.75)) < 1e-12
    assert np.mean(np.abs(pts - 0.75) > 1e-12) < 0.05


def test_dropout_table_shape_config():
    cfg = GeneratorConfig(task="mc_dropout", d=10, D=1, size=6, S=8, seed=1,
                          base_depth=1, base_width=5, dropout_rate=0.1)
    data, sampler = gen_mc_dropout(cfg)
    assert data.input_dim == 10
    assert data.output_dim == 1
    assert sampler.net.layer_dims == (10, 5, 1)
    assert all(m.n_atoms == 8 for _, m in data.entries)


# ---------------------------------------------------------------------------
# extreme learning machines
# ---------------------------------------------------------------------------

def test_elm_ridge_matches_lstsq_oracle():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(5, 3))
    Y = rng.normal(size=(5, 1))
    lam = 0.37
    ours = ridge_solve(X, Y, lam)
    # independent route: least squares on the augmented system
    aug_X = np.vstack([X, math.sqrt(lam) * np.eye(3)])
    aug_Y = np.vstack([Y, np.zeros((3, 1))])
    oracle = np.linalg.lstsq(aug_X, aug_Y, rcond=None)[0]
    assert np.abs(ours - oracle).max() < 1e-8


def test_elm_huge_penalty_shrinks_to_zero():
    cfg = GeneratorConfig(task="elm", d=11, size=30, S=5, seed=4,
                          elm_width=8, elm_lambda=1e8)
    _, sampler = gen_elm(cfg)
    pts = sampler.draw(sampler.train_X[0], 20, seed=9)
    assert np.abs(pts).max() < 1e-4


def test_elm_zero_mask_gives_constant_prediction():
    cfg = GeneratorConfig(task="elm", d=11, size=30, S=5, seed=5, elm_width=6)
    _, sampler = gen_elm(cfg)
    theta = [(np.zeros((11, 6)), np.array([0.5, -1.0, 2.0, 0.1, 0.0, 1.0]))]
    preds = sampler.predict(theta, sampler.train_X)
    assert np.ptp(preds, axis=0).max() < 1e-12


def test_elm_split_is_80_20_time_ordered():
    cfg = GeneratorConfig(task="elm", d=11, size=40, S=3, seed=6)
    data, _ = gen_elm(cfg)
    assert data.train_idx == tuple(range(32))
    assert data.test_idx == tuple(range(32, 40))
    assert data.input_dim == 11


def test_elm_reproducible_entries():
    cfg = GeneratorConfig(task="elm", d=11, size=12, S=4, seed=7, elm_width=4)
    data, sampler = gen_elm(cfg)
    for i in (0, 5, 11):
        x, measure = data.entries[i]
        assert np.array_equal(measure.atoms,
                              sampler.draw(x, cfg.S, entry_seed(cfg.seed, i)))


# ---------------------------------------------------------------------------
# SDE marginals
# ---------------------------------------------------------------------------

def test_sde_zero_coefficients_identity():
    cfg = GeneratorConfig(task="sde", d=1, D=1, size=9, S=6, seed=0,
                          sde_drift="zero", sde_diffusion="constant",
                          diffusion_b0=0.0, n_steps=50)
    data, sampler = gen_sde_marginals(cfg)
    for tx, measure in data.entries:
        assert np.all(measure.atoms == tx[1:])
    pts = sampler.draw(np.array([0.7, 0.3]), 4, seed=3)
    assert np.all(pts == 0.3)


def test_sde_constant_drift_integrates_exactly():
    sampler = SdeSampler(drift="constant", diffusion="constant",
                         a0=1.0, a1=0.0, b0=0.0, b1=0.0, n_steps=200)
    pts = sampler.draw(np.array([1.0, 0.0]), 8, seed=1)
    assert np.abs(pts - 1.0).max() < 1e-9


def test_sde_ou_moments_match_closed_form():
    theta, sigma, x0, t = 1.0, 1.0, 1.0, 1.0
    n_steps, s = 200, 2000
    sampler = SdeSampler(drift="ou", diffusion="constant",
                         a0=0.0, a1=-theta, b0=sigma, b1=0.0,
                         n_steps=n_steps)
    pts = sampler.draw(np.array([t, x0]), s, seed=11)
    mean_exact = x0 * math.exp(-theta * t)
    var_exact = sigma ** 2 * (1 - math.exp(-2 * theta * t)) / (2 * theta)
    tol = 5 / math.sqrt(s) + 10 / n_steps
    assert abs(pts.mean() - mean_exact) < tol
    assert abs(pts.var() - var_exact) < tol


def test_sde_domain_starts_at_time_zero():
    sampler = SdeSampler(drift="ou", diffusion="constant", a0=0.0, a1=-1.0,
                         b0=1.0, b1=0.0, n_steps=10)
    tx = np.array([-0.05, 0.4])
    assert np.array_equal(sampler.project(tx), [0.0, 0.4])
    assert tx[0] == -0.05                      # the input is not modified
    assert np.array_equal(sampler.project([0.3, 0.4]), [0.3, 0.4])
    assert np.all(sampler.draw(sampler.project(tx), 3, seed=1) == 0.4)
    with pytest.raises(ValueError, match="before the start time"):
        sampler.draw(tx, 3, seed=1)


def test_sde_rejects_non_catalog_coefficients():
    with pytest.raises(ValueError):
        gen_sde_marginals(GeneratorConfig(task="sde", sde_drift="cubic"))


def test_sde_grid_covers_both_axes():
    cfg = GeneratorConfig(task="sde", d=1, D=1, size=16, S=3, seed=2,
                          t_max=2.0, x_max=3.0, n_steps=10)
    data, _ = gen_sde_marginals(cfg)
    inputs = np.array([x for x, _ in data.entries])
    assert inputs.shape == (16, 2)
    assert inputs[:, 0].min() == 0.0 and inputs[:, 0].max() <= 2.0
    assert inputs[:, 1].min() >= -3.0 and inputs[:, 1].max() <= 3.0


# ---------------------------------------------------------------------------
# cross-cutting invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cfg", [
    GeneratorConfig(task="heteroscedastic", d=2, size=5, S=7, seed=13),
    GeneratorConfig(task="mc_dropout", d=3, size=5, S=7, seed=13,
                    base_width=4),
    GeneratorConfig(task="elm", d=11, size=10, S=7, seed=13, elm_width=4),
    GeneratorConfig(task="sde", d=1, size=5, S=7, seed=13, n_steps=20),
])
def test_generators_bit_reproducible_and_uniform(cfg):
    data1, sampler = generate(cfg)
    data2, _ = generate(cfg)
    for i, ((x1, m1), (x2, m2)) in enumerate(zip(data1.entries, data2.entries)):
        assert np.array_equal(x1, x2)
        assert np.array_equal(m1.atoms, m2.atoms)
        assert m1.n_atoms == cfg.S
        assert np.allclose(m1.weights, 1.0 / cfg.S)
        # re-driving the sampler with the recorded entry seed reproduces
        # the stored draws exactly
        redriven = sampler.draw(x1, cfg.S, entry_seed(cfg.seed, i))
        assert np.array_equal(m1.atoms, redriven)
