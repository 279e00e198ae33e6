"""Experiment orchestration: train the requested models on a generated
task, score them against fresh Monte-Carlo oracle draws, and emit a
metrics table.

Quality metrics per model: the transport distance between the predicted
measure and a fresh oracle measure (W1), and the Euclidean gap between the
predicted and oracle means (M).  Both are averaged per split and the worse
of the train/test averages is reported, with bias-corrected accelerated
bootstrap confidence intervals around the reported split's per-point
values.

Reports are byte-identical across runs at a fixed seed.  Wall-clock
timings are inherently non-reproducible, so they are only filled in when
explicitly enabled; the columns are always present.
"""

from __future__ import annotations

import dataclasses
import json
import time
import zlib
from dataclasses import dataclass

import numpy as np
from scipy.stats import norm

from urcd.baselines import (
    FitConfig,
    dgn_fit,
    dgn_predict_measure,
    mc_oracle,
    mdn_fit,
    mdn_predict_measure,
    mean_dnn_fit,
    mean_dnn_predict_measure,
)
from urcd.datagen import GeneratorConfig, generate
from urcd.dnm import dnm_predict
from urcd.measures import w1_cost
from urcd.neural import NetConfig, n_params
from urcd.training import Dataset, TrainConfig, build_dataset, train_dnm

KNOWN_MODELS = ("oracle", "dnm", "const", "mdn", "dgn", "mean")
ZERO_FLOOR = 1e-20   # reported values below this print as 0

_STREAM_TEST = 104729    # distinct seed-stream tags
_STREAM_REF = 224737
_STREAM_PRED = 350377
_STREAM_BOOT = 499979


@dataclass(frozen=True, kw_only=True)
class HarnessConfig(NetConfig):
    """Defaults for the experiment driver; every field is overridable.

    The network and optimiser fields come from NetConfig and are passed on
    to every trained model."""

    n_centers: int = 10
    mdn_components: int = 3
    n_test: int = 100
    test_radius: float = 0.1
    bootstrap_b: int = 1000
    level: float = 0.95
    timings: bool = False


@dataclass(frozen=True)
class Metrics:
    w1: float
    w1_lo: float
    w1_hi: float
    m: float
    m_lo: float
    m_hi: float
    n_par: int
    train_time: float
    test_time_ratio: float


@dataclass(frozen=True)
class ExperimentReport:
    rows: tuple                  # of (model_name, Metrics), ordered
    generator_description: str
    config_snapshot: dict
    seed: int


@dataclass(frozen=True)
class EvalResult:
    """Per-point distances for each split."""

    train_w1: tuple
    train_m: tuple
    test_w1: tuple
    test_m: tuple

    def _worst(self, train_vals, test_vals):
        train_avg = float(np.mean(train_vals)) if train_vals else 0.0
        if not test_vals:
            return train_avg, tuple(train_vals)
        test_avg = float(np.mean(test_vals))
        if test_avg >= train_avg:
            return test_avg, tuple(test_vals)
        return train_avg, tuple(train_vals)

    def worst_w1(self):
        """(worse split average, that split's per-point values)."""
        return self._worst(self.train_w1, self.test_w1)

    def worst_m(self):
        return self._worst(self.train_m, self.test_m)


def _ref_seed(seed: int, index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=(int(seed), _STREAM_REF, int(index)))


def oracle_references(data: Dataset, sampler, n_samples: int, seed: int):
    """Fresh oracle measures, one per dataset entry, shared across models."""
    return [mc_oracle(sampler, x, n_samples, _ref_seed(seed, i))
            for i, (x, _) in enumerate(data.entries)]


def eval_model(predict, data: Dataset, sampler, n_samples: int,
               seed: int = 0, references=None) -> EvalResult:
    """Score a predictor against fresh oracle measures on both splits.

    predict : input point -> EmpiricalMeasure.  References may be passed
    in so several models share the same oracle draws.
    """
    if references is None:
        references = oracle_references(data, sampler, n_samples, seed)
    per_split = {"train": ([], []), "test": ([], [])}
    for split, idx_list in (("train", data.train_idx), ("test", data.test_idx)):
        w1s, ms = per_split[split]
        for i in idx_list:
            x, _ = data.entries[i]
            pred = predict(x)
            ref = references[i]
            w1s.append(w1_cost(pred, ref))
            ms.append(float(np.linalg.norm(pred.mean() - ref.mean())))
    return EvalResult(train_w1=tuple(per_split["train"][0]),
                      train_m=tuple(per_split["train"][1]),
                      test_w1=tuple(per_split["test"][0]),
                      test_m=tuple(per_split["test"][1]))


# ---------------------------------------------------------------------------
# BCa bootstrap
# ---------------------------------------------------------------------------

def _bootstrap_means(x: np.ndarray, n_boot: int, seed) -> np.ndarray:
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, x.size, size=(n_boot, x.size))
    return x[idx].mean(axis=1)


def bca_interval(samples, level: float = 0.95, n_boot: int = 1000,
                 seed: int = 0):
    """Bias-corrected and accelerated bootstrap interval for the mean.

    Bias correction comes from the bootstrap CDF at the point estimate,
    acceleration from the jackknife skewness, and the interval endpoints
    are the adjusted percentiles of the bootstrap distribution.
    Deterministic per seed.
    """
    x = np.asarray(samples, dtype=float)
    if x.size < 2:
        raise ValueError("need at least 2 samples")
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    if n_boot < 100:
        raise ValueError("n_boot must be at least 100")
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


# ---------------------------------------------------------------------------
# experiment driver
# ---------------------------------------------------------------------------

def _pred_seed(seed: int, x: np.ndarray) -> int:
    """Stable per-input sampling seed (platform-independent content hash)."""
    return (seed * 2_654_435_761 + _STREAM_PRED
            + zlib.crc32(np.ascontiguousarray(x, dtype=float).tobytes())) % 2 ** 32


def _ball_test_inputs(data: Dataset, sampler, n_samples: int, n_test: int,
                      radius: float, seed: int) -> Dataset:
    """Extend a train-only dataset with test points drawn uniformly from
    closed balls around randomly chosen training inputs.

    Each test target is drawn under the reference seed of its index, so it
    is the very measure ``oracle_references`` would draw for that point."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, _STREAM_TEST)))
    train_inputs = data.train_inputs()
    d = train_inputs.shape[1]
    entries = list(data.entries)
    test_idx = []
    for _ in range(n_test):
        center = train_inputs[rng.integers(train_inputs.shape[0])]
        direction = rng.standard_normal(d)
        direction /= max(np.linalg.norm(direction), 1e-300)
        offset = radius * rng.random() ** (1.0 / d) * direction
        x = center + offset
        test_idx.append(len(entries))
        entries.append((x, mc_oracle(sampler, x, n_samples,
                                     _ref_seed(seed, len(entries)))))
    return build_dataset(entries, train_idx=data.train_idx, test_idx=test_idx)


def _train_model(name: str, data: Dataset, gen_cfg: GeneratorConfig,
                 h: HarnessConfig, seed: int):
    """Returns (predictor, parameter count)."""
    shared = {f.name: getattr(h, f.name) for f in dataclasses.fields(NetConfig)}
    fit_cfg = FitConfig(**shared, seed=seed)
    if name in ("dnm", "const"):
        n_centers = h.n_centers if name == "dnm" else 1
        model, _ = train_dnm(data, TrainConfig(**shared, seed=seed,
                                               n_centers=n_centers))
        return (lambda x: dnm_predict(model, x)), n_params(model.classifier)
    if name == "mdn":
        model = mdn_fit(data, h.mdn_components, fit_cfg)
        return (lambda x: mdn_predict_measure(model, x, gen_cfg.S,
                                              _pred_seed(seed, x)),
                model.parameter_count())
    if name == "dgn":
        model = dgn_fit(data, fit_cfg)
        return (lambda x: dgn_predict_measure(model, x, gen_cfg.S,
                                              _pred_seed(seed, x)),
                model.parameter_count())
    if name == "mean":
        model = mean_dnn_fit(data, fit_cfg)
        return (lambda x: mean_dnn_predict_measure(model, x)), model.parameter_count()
    raise ValueError(f"unknown model {name!r}")


def _check_hull(predict, data: Dataset):
    """Spot check: mixture predictions must carry simplex weights."""
    for i in list(data.train_idx)[:3]:
        pred = predict(data.entries[i][0])
        if abs(pred.weights.sum() - 1.0) > 1e-9 or pred.weights.min() < 0:
            raise RuntimeError("prediction left the atom hull (internal bug)")


def run_experiment(gen_cfg: GeneratorConfig, models, seed: int,
                   harness: HarnessConfig | None = None) -> ExperimentReport:
    """Generate data, train each requested model, evaluate, and assemble
    the metrics table.  The oracle row is always present, with W1 = M = 0
    by definition (it is the reference the others are scored against).
    """
    h = harness or HarnessConfig()
    models = list(dict.fromkeys(models))    # keep order, drop duplicates
    unknown = [m for m in models if m not in KNOWN_MODELS]
    if unknown:
        raise ValueError(f"unknown models requested: {unknown}")
    if "oracle" not in models:
        models = ["oracle"] + models

    gen_cfg = dataclasses.replace(gen_cfg, seed=seed)
    try:
        data, sampler = generate(gen_cfg)
    except Exception as exc:
        raise RuntimeError(f"[generate] {exc}") from exc

    references = oracle_references(data, sampler, gen_cfg.S, seed)
    if not data.test_idx:
        data = _ball_test_inputs(data, sampler, gen_cfg.S, h.n_test,
                                 h.test_radius, seed)
        references += [target for _, target in data.test_entries()]

    # oracle timing baseline: one prediction pass over the test split
    oracle_test_time = 1.0
    if h.timings:
        t0 = time.perf_counter()
        for i in data.test_idx:
            mc_oracle(sampler, data.entries[i][0], gen_cfg.S,
                      np.random.SeedSequence((seed, _STREAM_PRED, i)))
        oracle_test_time = max(time.perf_counter() - t0, 1e-12)

    rows = []
    for name in models:
        if name == "oracle":
            rows.append((name, Metrics(
                w1=0.0, w1_lo=0.0, w1_hi=0.0, m=0.0, m_lo=0.0, m_hi=0.0,
                n_par=0, train_time=0.0,
                test_time_ratio=1.0 if h.timings else 0.0)))
            continue
        try:
            t0 = time.perf_counter()
            predict, par = _train_model(name, data, gen_cfg, h, seed)
            train_time = time.perf_counter() - t0
        except Exception as exc:
            raise RuntimeError(f"[train:{name}] {exc}") from exc
        if name in ("dnm", "const"):
            _check_hull(predict, data)
        try:
            test_time = 0.0
            if h.timings:
                t0 = time.perf_counter()
                for i in data.test_idx:
                    predict(data.entries[i][0])
                test_time = time.perf_counter() - t0
            result = eval_model(predict, data, sampler, gen_cfg.S,
                                seed=seed, references=references)
        except Exception as exc:
            raise RuntimeError(f"[eval:{name}] {exc}") from exc

        w1_point, w1_samples = result.worst_w1()
        m_point, m_samples = result.worst_m()
        boot_seed = (seed, _STREAM_BOOT, models.index(name))
        w1_lo, w1_hi = bca_interval(w1_samples, h.level, h.bootstrap_b,
                                    np.random.SeedSequence(boot_seed).generate_state(1)[0])
        m_lo, m_hi = bca_interval(m_samples, h.level, h.bootstrap_b,
                                  np.random.SeedSequence(boot_seed).generate_state(2)[1])
        rows.append((name, Metrics(
            w1=w1_point, w1_lo=min(w1_lo, w1_point), w1_hi=max(w1_hi, w1_point),
            m=m_point, m_lo=min(m_lo, m_point), m_hi=max(m_hi, m_point),
            n_par=par,
            train_time=train_time if h.timings else 0.0,
            test_time_ratio=(test_time / oracle_test_time) if h.timings else 0.0)))

    snapshot = {
        "generator": dataclasses.asdict(gen_cfg),
        "harness": dataclasses.asdict(h),
        "models": models,
    }
    return ExperimentReport(rows=tuple(rows),
                            generator_description=gen_cfg.describe(),
                            config_snapshot=snapshot, seed=seed)


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

CSV_HEADER = ("model,W1-95L,W1,W1-95R,M-95L,M,M-95R,"
              "N_Par,Train_Time,Test_Time_Ratio")


def _fmt(value: float) -> str:
    if abs(value) < ZERO_FLOOR:
        return "0"
    return repr(float(value))


def _fmt_time(value: float) -> str:
    if abs(value) < ZERO_FLOOR:
        return "0"
    return f"{value:.3g}"


def metrics_csv_row(name: str, m: Metrics) -> str:
    fields = [name, _fmt(m.w1_lo), _fmt(m.w1), _fmt(m.w1_hi),
              _fmt(m.m_lo), _fmt(m.m), _fmt(m.m_hi), str(m.n_par),
              _fmt_time(m.train_time), _fmt_time(m.test_time_ratio)]
    return ",".join(fields)


def emit_report(report: ExperimentReport, fmt: str, path) -> None:
    """Write the report as CSV (stable column order, '.' decimals) or JSON."""
    if fmt == "csv":
        lines = [CSV_HEADER]
        lines += [metrics_csv_row(name, m) for name, m in report.rows]
        text = "\n".join(lines) + "\n"
        with open(path, "w", newline="") as fh:
            fh.write(text)
        return
    if fmt == "json":
        payload = {
            "seed": report.seed,
            "generator": report.generator_description,
            "config": report.config_snapshot,
            "rows": [{"model": name, **dataclasses.asdict(m)}
                     for name, m in report.rows],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return
    raise ValueError(f"unknown report format {fmt!r}")


def parse_report_csv(path) -> list:
    """Read back an emitted CSV into (model, Metrics) pairs."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if lines[0] != CSV_HEADER:
        raise ValueError("unexpected report header")
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        rows.append((parts[0], Metrics(
            w1_lo=float(parts[1]), w1=float(parts[2]), w1_hi=float(parts[3]),
            m_lo=float(parts[4]), m=float(parts[5]), m_hi=float(parts[6]),
            n_par=int(parts[7]), train_time=float(parts[8]),
            test_time_ratio=float(parts[9]))))
    return rows
