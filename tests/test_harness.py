import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri
from scipy.stats import norm

import urcd.harness
import urcd.measures
from urcd.datagen import GeneratorConfig
from urcd.harness import (
    CSV_HEADER,
    _bootstrap_means,
    EvalResult,
    ExperimentReport,
    HarnessConfig,
    Metrics,
    bca_interval,
    emit_report,
    eval_model,
    oracle_references,
    run_experiment,
)
from urcd.measures import make_empirical
from urcd.training import build_dataset

from diagnostics import parse_report_csv

MINI_HARNESS = HarnessConfig(n_centers=2, hidden_dims=(6,), epochs=25,
                             n_test=5, bootstrap_b=200, mdn_components=2)


class _FixedPairSampler:
    """True law at every x: uniform on {0, 2}."""

    def draw(self, x, size, seed):
        pts = np.tile(np.array([[0.0], [2.0]]), (size // 2 + 1, 1))
        return pts[:size]


def _mini_dataset(rng, n=6):
    entries = [(rng.uniform(0, 1, size=1),
                make_empirical(rng.normal(size=(4, 1)))) for _ in range(n)]
    return build_dataset(entries, train_idx=range(n - 2), test_idx=(n - 2, n - 1))


# ---------------------------------------------------------------------------
# eval_model
# ---------------------------------------------------------------------------

def test_eval_model_perfect_predictor_scores_zero():
    rng = np.random.default_rng(0)
    data = _mini_dataset(rng)
    sampler = _FixedPairSampler()
    refs = oracle_references(data, sampler, 10, seed=1)
    keyed = {data.entries[i][0].tobytes(): refs[i]
             for i in range(len(data.entries))}
    result = eval_model(lambda x: keyed[np.asarray(x).tobytes()], data, refs)
    assert max(result.train_w1) < 1e-12
    assert max(result.test_w1) < 1e-12
    assert max(result.train_m + result.test_m) < 1e-12


def test_eval_model_dirac_at_mean():
    # oracle spreads mass on {0, 2}; predicting its mean as a point mass
    # zeroes M but pays the transport cost of 1 to the spread
    rng = np.random.default_rng(1)
    data = _mini_dataset(rng)
    refs = oracle_references(data, _FixedPairSampler(), 10, seed=2)
    result = eval_model(lambda x: make_empirical([(1.0,)]), data, refs)
    assert np.allclose(result.train_w1, 1.0)
    assert np.allclose(result.train_m, 0.0, atol=1e-12)


def test_eval_worst_split_dominates_each_average():
    result = EvalResult(train_w1=(0.1, 0.3), train_m=(0.5, 0.5),
                        test_w1=(0.4, 0.6), test_m=(0.1, 0.1))
    w1, w1_samples = result.worst_w1()
    m, m_samples = result.worst_m()
    assert w1 >= np.mean(result.train_w1) and w1 >= np.mean(result.test_w1)
    assert m >= np.mean(result.train_m) and m >= np.mean(result.test_m)
    assert w1_samples == result.test_w1
    assert m_samples == result.train_m


# ---------------------------------------------------------------------------
# BCa
# ---------------------------------------------------------------------------

def test_bca_constant_samples():
    lo, hi = bca_interval(np.full(20, 3.5))
    assert lo == hi == 3.5


def test_bca_coverage_on_gaussian_means():
    covered = 0
    trials = 120
    for t in range(trials):
        x = np.random.default_rng(1000 + t).normal(size=100)
        lo, hi = bca_interval(x, level=0.95, n_boot=400, seed=t)
        covered += lo <= 0.0 <= hi
    assert covered / trials >= 0.9


def test_bca_deterministic_and_validated():
    x = np.random.default_rng(4).normal(size=50)
    assert bca_interval(x, seed=9) == bca_interval(x, seed=9)
    with pytest.raises(ValueError):
        bca_interval([1.0])
    with pytest.raises(ValueError):
        bca_interval(x, level=1.5)
    with pytest.raises(ValueError):
        bca_interval(x, n_boot=10)


def _norm_bca_interval(samples, level=0.95, n_boot=1000, seed=0):
    """bca_interval as written with scipy.stats.norm; kept as a reference."""
    x = np.asarray(samples, dtype=float)
    if np.ptp(x) == 0.0:
        return float(x[0]), float(x[0])
    n = x.size
    boot = _bootstrap_means(x, n_boot, seed)
    theta = x.mean()
    p0 = np.clip((boot < theta).mean(), 1.0 / (n_boot + 1), n_boot / (n_boot + 1.0))
    z0 = norm.ppf(p0)
    jack = (x.sum() - x) / (n - 1)
    centered = jack.mean() - jack
    denom = 6.0 * (centered ** 2).sum() ** 1.5
    accel = (centered ** 3).sum() / denom if denom > 0 else 0.0

    def endpoint(z):
        shift = z0 + z
        scale = 1.0 - accel * shift
        if scale <= 0:
            return 1.0 if shift > 0 else 0.0
        return float(norm.cdf(z0 + shift / scale))

    alpha_lo = endpoint(norm.ppf((1.0 - level) / 2.0))
    alpha_hi = endpoint(norm.ppf((1.0 + level) / 2.0))
    return float(np.quantile(boot, alpha_lo)), float(np.quantile(boot, alpha_hi))


@settings(max_examples=40)
@given(st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=2, max_size=40),
       st.sampled_from([100, 1000]),
       st.sampled_from([0.5, 0.8, 0.9, 0.95, 0.99, 0.999]),
       st.integers(0, 2**32 - 1), st.booleans())
def test_bca_matches_scipy_stats_norm_version(samples, n_boot, level, seed,
                                              skewed):
    x = np.array(samples)
    if skewed:                      # a heavy tail moves z0 and accel off 0
        x = np.exp(x / 200.0)
    assert bca_interval(x, level, n_boot, seed) == _norm_bca_interval(
        x, level, n_boot, seed)


def test_ndtri_and_ndtr_match_norm_on_bca_inputs():
    # every bias-correction input bca_interval can form: k / n_boot, clipped
    grid = np.concatenate([
        np.clip(np.arange(n_boot + 1) / n_boot, 1.0 / (n_boot + 1),
                n_boot / (n_boot + 1.0))
        for n_boot in range(100, 2001)])
    assert np.array_equal(ndtri(grid), norm.ppf(grid))
    z = np.concatenate([np.linspace(-40.0, 40.0, 200_001),
                        np.random.default_rng(0).normal(scale=3.0, size=100_000)])
    assert np.array_equal(ndtr(z), norm.cdf(z))


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------

def test_run_experiment_oracle_only():
    gen = GeneratorConfig(task="heteroscedastic", d=1, size=8, S=10, seed=2)
    report = run_experiment(gen, ["oracle"], seed=2, harness=MINI_HARNESS)
    assert len(report.rows) == 1
    name, metrics = report.rows[0]
    assert name == "oracle"
    assert metrics.w1 == 0.0 and metrics.m == 0.0 and metrics.n_par == 0


def test_run_experiment_single_center_equals_const():
    gen = GeneratorConfig(task="heteroscedastic", d=1, size=10, S=12, seed=3)
    h = HarnessConfig(n_centers=1, hidden_dims=(6,), epochs=20, n_test=4,
                      bootstrap_b=200)
    report = run_experiment(gen, ["dnm", "const"], seed=3, harness=h)
    rows = dict(report.rows)
    assert rows["dnm"].w1 == rows["const"].w1
    assert rows["dnm"].m == rows["const"].m


def test_run_experiment_ci_brackets_point():
    gen = GeneratorConfig(task="heteroscedastic", d=1, size=10, S=12, seed=4)
    report = run_experiment(gen, ["dnm", "mean"], seed=4, harness=MINI_HARNESS)
    for _, m in report.rows:
        assert m.w1_lo <= m.w1 <= m.w1_hi
        assert m.m_lo <= m.m <= m.m_hi
        assert m.w1 >= 0 and m.m >= 0


def test_run_experiment_deterministic(tmp_path):
    gen = GeneratorConfig(task="heteroscedastic", d=1, size=8, S=10, seed=5)
    a = run_experiment(gen, ["dnm", "mdn"], seed=5, harness=MINI_HARNESS)
    b = run_experiment(gen, ["dnm", "mdn"], seed=5, harness=MINI_HARNESS)
    emit_report(a, "csv", tmp_path / "a.csv")
    emit_report(b, "csv", tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_run_experiment_rejects_unknown_model():
    gen = GeneratorConfig(task="heteroscedastic", d=1, size=8, S=10, seed=6)
    with pytest.raises(ValueError):
        run_experiment(gen, ["gpr"], seed=6, harness=MINI_HARNESS)


def test_run_experiment_calls_through_rebound_names(monkeypatch):
    """Each model's fit and prediction look up the harness's module-level
    names at call time, so rebinding them (as tracing does) sees every call."""
    calls = dict.fromkeys(("train_dnm", "mdn_fit", "dgn_fit", "mean_dnn_fit",
                           "dnm_predict"), 0)

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(urcd.harness, name,
                            counting(name, getattr(urcd.harness, name)))
    gen = GeneratorConfig(task="heteroscedastic", d=1, size=8, S=10, seed=7)
    run_experiment(gen, ["dnm", "const", "mdn", "dgn", "mean"], seed=7,
                   harness=MINI_HARNESS)
    assert calls["train_dnm"] == 2
    assert calls["mdn_fit"] == calls["dgn_fit"] == calls["mean_dnn_fit"] == 1
    assert calls["dnm_predict"] > 0


def test_1d_run_experiment_scores_each_pair_through_w1_1d(monkeypatch,
                                                          tmp_path):
    """``perfbench`` samples its 1-D W1 cross-check by rebinding
    ``urcd.measures.w1_1d``; every scored 1-D pair must go through it, in
    whichever process scores it.  Each call appends to one file, so the
    counts of the scoring processes add up in it."""
    w1_1d, eval_model_ = urcd.measures.w1_1d, urcd.harness.eval_model
    log = tmp_path / "calls"

    def append(tally):
        with open(log, "ab") as fh:     # O_APPEND: one write per call
            fh.write(tally)

    def counting_w1_1d(mu, nu):
        append(b"w")
        return w1_1d(mu, nu)

    def counting_eval_model(predict, data, references):
        append(b"p" * (len(data.train_idx) + len(data.test_idx)))
        return eval_model_(predict, data, references)

    monkeypatch.setattr(urcd.measures, "w1_1d", counting_w1_1d)
    monkeypatch.setattr(urcd.harness, "eval_model", counting_eval_model)
    monkeypatch.setattr(urcd.harness, "_usable_cpus", lambda: 2)
    gen = GeneratorConfig(task="heteroscedastic", d=1, size=8, S=10, seed=9)
    run_experiment(gen, ["dnm", "const", "mdn", "dgn", "mean"], seed=9,
                   harness=MINI_HARNESS)
    calls = log.read_bytes()
    assert calls.count(b"p") == 5 * (8 + MINI_HARNESS.n_test)
    assert calls.count(b"w") == calls.count(b"p")


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def test_emit_report_round_trip(tmp_path):
    gen = GeneratorConfig(task="heteroscedastic", d=1, size=8, S=10, seed=7)
    report = run_experiment(gen, ["dnm"], seed=7, harness=MINI_HARNESS)
    path = tmp_path / "report.csv"
    emit_report(report, "csv", path)
    parsed = dict(parse_report_csv(path))
    for name, metrics in report.rows:
        got = parsed[name]
        assert got.w1 == pytest.approx(metrics.w1, abs=1e-15)
        assert got.m_hi == pytest.approx(metrics.m_hi, abs=1e-15)
        assert got.n_par == metrics.n_par


def test_emit_report_empty_rows_header_only(tmp_path):
    report = ExperimentReport(rows=(), generator_description="none",
                              config_snapshot={}, seed=0)
    path = tmp_path / "empty.csv"
    emit_report(report, "csv", path)
    assert path.read_text() == CSV_HEADER + "\n"


def test_emit_report_sub_floor_values_print_as_zero(tmp_path):
    m = Metrics(w1=1e-30, w1_lo=0.0, w1_hi=1e-22, m=0.5, m_lo=0.4, m_hi=0.6,
                n_par=3, train_time=0.0, test_time_ratio=0.0)
    report = ExperimentReport(rows=(("x", m),), generator_description="d",
                              config_snapshot={}, seed=0)
    path = tmp_path / "r.csv"
    emit_report(report, "csv", path)
    line = path.read_text().splitlines()[1]
    assert line.split(",")[1:4] == ["0", "0", "0"]


def test_emit_report_json(tmp_path):
    gen = GeneratorConfig(task="heteroscedastic", d=1, size=8, S=10, seed=8)
    report = run_experiment(gen, ["mean"], seed=8, harness=MINI_HARNESS)
    path = tmp_path / "report.json"
    emit_report(report, "json", path)
    import json

    payload = json.loads(path.read_text())
    assert payload["seed"] == 8
    assert {row["model"] for row in payload["rows"]} == {"oracle", "mean"}
    with pytest.raises(ValueError):
        emit_report(report, "xml", tmp_path / "r.xml")


def _report_csv(tmp_path, gen, models, h):
    report = run_experiment(gen, models, seed=gen.seed, harness=h)
    path = tmp_path / "report.csv"
    emit_report(report, "csv", path)
    return path.read_bytes()


def _assert_golden(monkeypatch, golden, report_bytes):
    """``report_bytes()`` gives the bytes of ``tests/data/<golden>`` with
    one usable CPU, where nothing forks, and with two, where the scoring
    runs in strides across forked processes."""
    expected = (pathlib.Path(__file__).parent / "data" / golden).read_bytes()
    for cpus in (1, 2):
        monkeypatch.setattr(urcd.harness, "_usable_cpus", lambda: cpus)
        assert report_bytes() == expected, f"{cpus} usable CPU(s)"


def test_golden_mini_report(tmp_path, monkeypatch):
    gen = GeneratorConfig(task="heteroscedastic", d=1, size=10, S=16, seed=123)
    h = HarnessConfig(n_centers=2, hidden_dims=(6,), epochs=30, n_test=5,
                      bootstrap_b=200, mdn_components=2)
    _assert_golden(monkeypatch, "golden_mini_report.csv",
                   lambda: _report_csv(tmp_path, gen, ["dnm", "const", "mean"],
                                       h))


def test_golden_minibatch_report(tmp_path, monkeypatch):
    """MDN, DGN and the minibatch shuffle, which the mini golden skips."""
    gen = GeneratorConfig(task="heteroscedastic", d=2, size=30, S=40, seed=5)
    h = HarnessConfig(hidden_dims=(8,), epochs=30, batch_size=16, n_test=10,
                      bootstrap_b=200)
    _assert_golden(monkeypatch, "golden_minibatch_report.csv",
                   lambda: _report_csv(tmp_path, gen, ["dnm", "const", "mdn",
                                                       "dgn", "mean"], h))


def _d2_report_bytes(tmp_path):
    gen = GeneratorConfig(task="mc_dropout", d=2, D=2, size=12, S=20,
                          base_width=5, seed=5)
    h = HarnessConfig(n_centers=5, n_test=12, epochs=50)
    return _report_csv(tmp_path, gen, ["dnm", "const", "mean"], h)


def test_golden_d2_report(tmp_path, monkeypatch):
    """D=2, so every W1 in it goes through the exact transport solver."""
    _assert_golden(monkeypatch, "golden_d2_report.csv",
                   lambda: _d2_report_bytes(tmp_path))


if __name__ == "__main__":
    import tempfile

    out = pathlib.Path(__file__).parent / "data" / "golden_d2_report.csv"
    with tempfile.TemporaryDirectory() as tmp:
        out.write_bytes(_d2_report_bytes(pathlib.Path(tmp)))
    print(f"wrote {out}")
