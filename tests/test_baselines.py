import numpy as np
import pytest

from urcd.baselines import (
    GaussianMixture,
    _dgn_head,
    dgn_fit,
    dgn_predict_measure,
    em_fit_gmm,
    em_step,
    mc_oracle,
    mdn_fit,
    mdn_predict_measure,
    mdn_predict_params,
    mean_dnn_fit,
    mean_dnn_predict,
    mean_dnn_predict_measure,
    sample_gmm,
)
from urcd.measures import make_empirical, w1_1d
from urcd.neural import NetConfig, init_mlp, n_params
from urcd.training import build_dataset

from diagnostics import gmm_log_likelihood


def _dataset_from(fn_mean, rng, n=30, s=50, noise=0.2, d=1):
    entries = []
    for _ in range(n):
        x = rng.uniform(0, 1, size=d)
        samples = fn_mean(x) + rng.normal(0, noise, size=(s, 1))
        entries.append((x, make_empirical(samples)))
    return build_dataset(entries)


# ---------------------------------------------------------------------------
# EM
# ---------------------------------------------------------------------------

def test_em_single_component_closed_form():
    rng = np.random.default_rng(0)
    pts = rng.normal(2.0, 1.5, size=(200, 2))
    gmm = em_fit_gmm(pts, 1, iters=3, seed=0)
    assert np.allclose(gmm.means[0], pts.mean(axis=0), atol=1e-12)
    assert np.allclose(np.exp(2 * gmm.log_stds[0]), pts.var(axis=0), atol=1e-12)
    assert gmm.weights[0] == 1.0


def test_em_two_blobs():
    rng = np.random.default_rng(1)
    pts = np.concatenate([rng.normal(-10, 0.5, size=(60, 1)),
                          rng.normal(10, 0.5, size=(60, 1))])
    gmm = em_fit_gmm(pts, 2, iters=100, seed=3)
    means = np.sort(gmm.means[:, 0])
    assert abs(means[0] + 10) < 0.1
    assert abs(means[1] - 10) < 0.1


def test_em_log_likelihood_monotone():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(80, 2)) * np.array([1.0, 3.0]) + np.array([0.0, 5.0])
    gmm = em_fit_gmm(pts, 3, iters=1, seed=1)
    ll = gmm_log_likelihood(gmm, pts)
    for _ in range(40):
        gmm = em_step(pts, gmm)
        new_ll = gmm_log_likelihood(gmm, pts)
        assert new_ll >= ll - 1e-8
        ll = new_ll


def test_em_rejects_too_many_components():
    with pytest.raises(ValueError):
        em_fit_gmm(np.zeros((3, 1)), 4)


# ---------------------------------------------------------------------------
# MDN
# ---------------------------------------------------------------------------

def test_mdn_constant_target_constant_params():
    rng = np.random.default_rng(3)
    target = rng.normal(0.5, 0.3, size=(60, 1))
    entries = [(rng.uniform(0, 1, size=1), make_empirical(target))
               for _ in range(24)]
    data = build_dataset(entries)
    cfg = NetConfig(hidden_dims=(16,), epochs=1500, learning_rate=5e-3)
    model = mdn_fit(data, 2, cfg, seed=0)
    param_sets = []
    for x, _ in data.test_entries():
        g = mdn_predict_params(model, x)
        param_sets.append(np.concatenate([g.weights, g.means.ravel(),
                                          g.log_stds.ravel()]))
    spread = np.ptp(np.array(param_sets), axis=0)
    assert spread.max() < 0.05


def test_mdn_single_component_tracks_mean():
    rng = np.random.default_rng(4)
    s, std = 500, 0.5
    data = _dataset_from(lambda x: float(x[0]), rng, n=40, s=s, noise=std)
    cfg = NetConfig(hidden_dims=(16,), epochs=800, learning_rate=5e-3)
    model = mdn_fit(data, 1, cfg, seed=1)
    tol = 3 * std / np.sqrt(s)
    gmms = [(mdn_predict_params(model, x), x) for x, _ in data.train_entries()]
    errs = [abs((gmm.weights @ gmm.means)[0] - float(x[0])) for gmm, x in gmms]
    assert np.mean(errs) < tol


def test_mdn_parameter_count():
    rng = np.random.default_rng(5)
    data = _dataset_from(lambda x: 0.0, rng, n=8, s=10)
    model = mdn_fit(data, 3, NetConfig(hidden_dims=(7, 5), epochs=1), seed=0)
    d, K, D = 1, 3, 1
    trunk = (d * 7 + 7) + (7 * 5 + 5)
    head = 5 * (K + 2 * K * D) + (K + 2 * K * D)
    assert model.parameter_count() == trunk + head
    assert n_params(model.net) == trunk + head
    assert model.net.layer_dims == (d, 7, 5, K + 2 * K * D)


def test_mdn_measure_degenerate_mixture():
    rng = np.random.default_rng(6)
    data = _dataset_from(lambda x: 1.0, rng, n=8, s=10)
    model = mdn_fit(data, 1, NetConfig(hidden_dims=(4,), epochs=1), seed=0)
    squeezed = GaussianMixture(weights=np.array([1.0]),
                               means=np.array([[2.5]]),
                               log_stds=np.array([[-20.0]]))
    pts = sample_gmm(squeezed, 50, np.random.default_rng(0))
    assert np.abs(pts - 2.5).max() < 1e-6


def test_mdn_measure_clt_and_determinism():
    rng = np.random.default_rng(7)
    data = _dataset_from(lambda x: float(x[0]), rng, n=10, s=40)
    model = mdn_fit(data, 2, NetConfig(hidden_dims=(8,), epochs=50), seed=2)
    x = np.array([0.4])
    n_samples = 4000
    m = mdn_predict_measure(model, x, n_samples, seed=11)
    gmm = mdn_predict_params(model, x)
    second_moment = (gmm.weights @ (np.exp(2 * gmm.log_stds[:, 0])
                                    + gmm.means[:, 0] ** 2))
    gmm_mean = gmm.weights @ gmm.means
    std = np.sqrt(second_moment - gmm_mean[0] ** 2)
    assert abs(m.mean()[0] - gmm_mean[0]) < 4 * std / np.sqrt(n_samples)
    again = mdn_predict_measure(model, x, n_samples, seed=11)
    assert np.array_equal(m.atoms, again.atoms)


# ---------------------------------------------------------------------------
# DGN and mean regressor
# ---------------------------------------------------------------------------

def test_dgn_constant_mean_recovery():
    rng = np.random.default_rng(8)
    data = _dataset_from(lambda x: 1.5, rng, n=24, s=60, noise=0.3)
    model = dgn_fit(data, NetConfig(hidden_dims=(16,), epochs=400,
                                    learning_rate=5e-3), seed=0)
    errs = [abs(_dgn_head(model, x)[0][0] - 1.5)
            for x, _ in data.test_entries()]
    assert np.mean(errs) < 0.05


def test_dgn_covariance_always_psd():
    rng = np.random.default_rng(9)
    D = 3
    net = init_mlp([2, 8, D + D * D], rng=rng)
    from urcd.baselines import GaussianNetModel

    model = GaussianNetModel(net=net, out_dim=D)
    for _ in range(50):
        _, factor = _dgn_head(model, rng.normal(size=2))
        cov = factor @ factor.T
        assert np.linalg.eigvalsh(cov).min() >= -1e-10


def test_dgn_measure_sampling_matches_params():
    rng = np.random.default_rng(10)
    data = _dataset_from(lambda x: 0.0, rng, n=10, s=30)
    model = dgn_fit(data, NetConfig(hidden_dims=(6,), epochs=30), seed=1)
    x = np.array([0.3])
    m = dgn_predict_measure(model, x, 5000, seed=5)
    mean, factor = _dgn_head(model, x)
    cov = factor @ factor.T
    assert abs(m.mean()[0] - mean[0]) < 4 * np.sqrt(cov[0, 0] / 5000) + 1e-6


def test_mean_dnn_linear_noiseless():
    rng = np.random.default_rng(11)
    entries = []
    for _ in range(30):
        x = rng.uniform(-1, 1, size=2)
        y = np.array([2.0 * x[0] - x[1]])
        entries.append((x, make_empirical([y])))
    data = build_dataset(entries)
    model = mean_dnn_fit(data, NetConfig(hidden_dims=(32,), epochs=600,
                                         learning_rate=5e-3), seed=0)
    errs = [abs(mean_dnn_predict(model, x)[0] - (2.0 * x[0] - x[1]))
            for x, _ in data.test_entries()]
    assert np.mean(errs) < 0.05
    measure = mean_dnn_predict_measure(model, entries[0][0])
    assert measure.n_atoms == 1


# ---------------------------------------------------------------------------
# MC oracle
# ---------------------------------------------------------------------------

class _NormalSampler:
    def draw(self, x, size, seed):
        return np.random.default_rng(seed).normal(size=(size, 1))


class _ConstantSampler:
    def draw(self, x, size, seed):
        return np.full((size, 1), 3.0)


def test_mc_oracle_constant_sampler():
    m = mc_oracle(_ConstantSampler(), np.zeros(1), 5, seed=0)
    assert m.n_atoms == 5
    assert np.all(m.atoms == 3.0)
    assert np.allclose(m.weights, 0.2)


def test_mc_oracle_concentrates_with_sample_size():
    s = _NormalSampler()
    x = np.zeros(1)
    small = [w1_1d(mc_oracle(s, x, 200, seed=2 * i),
                   mc_oracle(s, x, 200, seed=2 * i + 1)) for i in range(5)]
    large = [w1_1d(mc_oracle(s, x, 20000, seed=2 * i),
                   mc_oracle(s, x, 20000, seed=2 * i + 1)) for i in range(5)]
    assert np.mean(large) < np.mean(small)


def test_mc_oracle_deterministic():
    s = _NormalSampler()
    a = mc_oracle(s, np.zeros(1), 100, seed=9)
    b = mc_oracle(s, np.zeros(1), 100, seed=9)
    assert a.n_atoms == 100
    assert np.array_equal(a.atoms, b.atoms)
    with pytest.raises(ValueError):
        mc_oracle(s, np.zeros(1), 0, seed=0)


def test_mc_oracle_accepts_plain_callable():
    # A per-draw callable ``sampler(x, seed) -> point`` is used through a
    # draw object that gives each draw its own derived seed.
    def sampler(x, seed):
        return np.random.default_rng(seed).normal(size=1)

    class _PerDraw:
        def draw(self, x, size, seed):
            seeds = np.random.SeedSequence(seed).generate_state(size)
            return np.array([sampler(x, int(s)) for s in seeds])

    a = mc_oracle(_PerDraw(), np.zeros(1), 12, seed=4)
    b = mc_oracle(_PerDraw(), np.zeros(1), 12, seed=4)
    assert a.n_atoms == 12
    assert np.array_equal(a.atoms, b.atoms)
