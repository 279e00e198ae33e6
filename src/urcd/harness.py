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
import functools
import json
import os
import pickle
import time
import zlib
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from urcd.baselines import (
    dgn_fit,
    dgn_predict_measure,
    mc_oracle,
    mdn_fit,
    mdn_predict_measure,
    mean_dnn_fit,
    mean_dnn_predict_measure,
)
from urcd.datagen import GeneratorConfig, TargetDrawError, generate
from urcd.dnm import dnm_predict
from urcd.measures import w1_cost
from urcd.neural import NetConfig
from urcd.training import Dataset, build_dataset, train_dnm

ZERO_FLOOR = 1e-20   # reported values below this print as 0
TEST_RADIUS = 0.1    # a ball test point lies this close to a training input

_STREAM_TEST = 104729    # distinct seed-stream tags
_STREAM_REF = 224737
_STREAM_PRED = 350377
_STREAM_BOOT = 499979


@dataclass(frozen=True, kw_only=True)
class HarnessConfig(NetConfig):
    """Defaults for the experiment driver; every field is overridable.

    The config is itself the NetConfig of every trained model, which gets
    the experiment's seed."""

    n_centers: int = 10
    mdn_components: int = 3
    n_test: int = 100
    bootstrap_b: int = 1000
    timings: bool = False

    def __post_init__(self):
        super().__post_init__()
        if self.n_centers < 1 or self.mdn_components < 1:
            raise ValueError("n_centers and mdn_components must be >= 1")
        if self.n_test < 0:
            raise ValueError("n_test must be >= 0")
        if self.bootstrap_b < 100:
            raise ValueError("bootstrap_b must be at least 100")


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
    """Per-point distances, and the seconds each prediction took, for each
    split."""

    train_w1: tuple
    train_m: tuple
    train_s: tuple
    test_w1: tuple
    test_m: tuple
    test_s: tuple

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


def oracle_references(points, sampler, n_samples: int, seed: int):
    """Fresh oracle measures, one per input point; point i draws under its
    own reference seed, so the draws do not depend on the points after it."""
    return [mc_oracle(sampler, x, n_samples, _ref_seed(seed, i))
            for i, x in enumerate(points)]


def eval_model(predict, data: Dataset) -> EvalResult:
    """Score a predictor on both splits against the measure each point
    carries, timing each prediction.

    predict : input point -> EmpiricalMeasure
    data    : its targets are the references: fresh oracle draws in
              ``run_experiment``, a dataset's stored targets in ``urcd eval``
    """
    fields = {}
    for split, idx_list in (("train", data.train_idx), ("test", data.test_idx)):
        w1s, ms, secs = [], [], []
        for i in idx_list:
            x, ref = data.entries[i]
            t0 = time.perf_counter()
            pred = predict(x)
            secs.append(time.perf_counter() - t0)
            w1s.append(w1_cost(pred, ref))
            ms.append(float(np.linalg.norm(pred.mean() - ref.mean())))
        fields.update({f"{split}_w1": tuple(w1s), f"{split}_m": tuple(ms),
                       f"{split}_s": tuple(secs)})
    return EvalResult(**fields)


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

    # imported here: scipy.special would add ~0.25 s to `import urcd.cli`
    from scipy.special import ndtr, ndtri

    n = x.size
    boot = _bootstrap_means(x, n_boot, seed)
    theta = x.mean()

    p0 = np.clip((boot < theta).mean(), 1.0 / (n_boot + 1), n_boot / (n_boot + 1.0))
    z0 = ndtri(p0)

    jack = (x.sum() - x) / (n - 1)
    centered = jack.mean() - jack
    denom = 6.0 * (centered ** 2).sum() ** 1.5
    accel = (centered ** 3).sum() / denom if denom > 0 else 0.0

    def endpoint(z):
        shift = z0 + z
        scale = 1.0 - accel * shift
        if scale <= 0:
            return 1.0 if shift > 0 else 0.0
        return float(ndtr(z0 + shift / scale))

    alpha_lo = endpoint(ndtri((1.0 - level) / 2.0))
    alpha_hi = endpoint(ndtri((1.0 + level) / 2.0))
    return float(np.quantile(boot, alpha_lo)), float(np.quantile(boot, alpha_hi))


# ---------------------------------------------------------------------------
# experiment driver
# ---------------------------------------------------------------------------

def _pred_seed(seed: int, x: np.ndarray) -> int:
    """Stable per-input sampling seed (platform-independent content hash)."""
    return (seed * 2_654_435_761 + _STREAM_PRED
            + zlib.crc32(np.ascontiguousarray(x, dtype=float).tobytes())) % 2 ** 32


def _ball_test_inputs(data: Dataset, sampler, n_test: int, seed: int) -> list:
    """Test points drawn uniformly from closed balls of radius TEST_RADIUS
    around randomly chosen training inputs.  A sampler with a ``project``
    method moves each point into its input domain."""
    project = getattr(sampler, "project", None)
    rng = np.random.default_rng(np.random.SeedSequence((seed, _STREAM_TEST)))
    train_inputs = data.train_inputs()
    d = train_inputs.shape[1]
    points = []
    for _ in range(n_test):
        center = train_inputs[rng.integers(train_inputs.shape[0])]
        direction = rng.standard_normal(d)
        direction /= max(np.linalg.norm(direction), 1e-300)
        offset = TEST_RADIUS * rng.random() ** (1.0 / d) * direction
        x = center + offset
        points.append(x if project is None else project(x))
    return points


class _Model(NamedTuple):
    fit: Callable        # (data, HarnessConfig, seed) -> model
    predict: Callable    # (model, x, n_samples, seed) -> EmpiricalMeasure


# The lambdas look up ``train_dnm``, ``dnm_predict``, ... when called, so a
# rebinding of those module-level names reaches every entry.
_MODELS = {
    "dnm": _Model(lambda data, h, seed: train_dnm(data, h.n_centers, h, seed)[0],
                  lambda model, x, n, seed: dnm_predict(model, x)),
    "const": _Model(lambda data, h, seed: train_dnm(data, 1, h, seed)[0],
                    lambda model, x, n, seed: dnm_predict(model, x)),
    "mdn": _Model(lambda data, h, seed: mdn_fit(data, h.mdn_components, h, seed),
                  mdn_predict_measure),
    "dgn": _Model(lambda data, h, seed: dgn_fit(data, h, seed), dgn_predict_measure),
    "mean": _Model(lambda data, h, seed: mean_dnn_fit(data, h, seed),
                   lambda model, x, n, seed: mean_dnn_predict_measure(model, x)),
    "oracle": None,    # the reference itself: never trained, W1 = M = 0
}
KNOWN_MODELS = tuple(_MODELS)

# Training rows per fit (epochs x training-set size) from which
# ``run_experiment`` fits the models in forked processes; the figures are
# whole runs on a 2-core x86-64 host.  Forking and returning the models
# cost ~14 ms; with 64x64 networks trained full batch, two processes won by
# 25 ms or more from 20,000 rows on every shape measured (n_train 10 to 400,
# two or four models), while at 10,000 rows the least gain was within noise
# (BENCH_23.json).  A minibatch fit costs more per row, so gains more.  With
# one model that trains beside ``const``, two of three shapes gained 28-88 ms
# from 10,000 rows on, and no row count separated the third, whose
# references are too small to overlap with the fit (BENCH_24.json).
_PARALLEL_MIN_ROWS = 20_000


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where fork or affinity is missing."""
    if not all(hasattr(os, f) for f in ("fork", "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _trains(name: str, h: HarnessConfig) -> bool:
    """Whether fitting ``name`` runs the optimizer; a one-center DNM
    (``const``) skips it, so its fit is too short to send elsewhere."""
    return name != "const" and not (name == "dnm" and h.n_centers == 1)


def _failure(stage: str, exc: Exception) -> RuntimeError:
    """``exc`` as a RuntimeError tagged ``[<stage>]``, or ``[generate]``
    when it is a target that failed to draw where it was first read."""
    tag = "generate" if isinstance(exc, TargetDrawError) else stage
    return RuntimeError(f"[{tag}] {exc}")


def _fit(name: str, data: Dataset, h: HarnessConfig, seed: int):
    """``name`` fitted on ``data``'s training split, and the seconds that
    took, the draws of the targets it reads included; a failed fit raises
    RuntimeError tagged ``[train:<name>]`` (``_failure``)."""
    t0 = time.perf_counter()
    try:
        model = _MODELS[name].fit(data, h, seed)
    except Exception as exc:
        raise _failure(f"train:{name}", exc) from exc
    return model, time.perf_counter() - t0


class _Stride(NamedTuple):
    """What ``eval_model`` reads of a Dataset, for a share of its points."""
    entries: tuple
    train_idx: tuple
    test_idx: tuple


def _score(name: str, model, scored, seed: int, n_samples: int) -> EvalResult:
    """``eval_model`` of ``name``'s model on ``scored`` (a Dataset or a
    ``_Stride`` of one); a failure raises RuntimeError tagged
    ``[eval:<name>]`` (``_failure``)."""
    spec = _MODELS[name]

    def predict(x):
        return spec.predict(model, x, n_samples, _pred_seed(seed, x))

    try:
        return eval_model(predict, scored)
    except Exception as exc:
        raise _failure(f"eval:{name}", exc) from exc


def _interleaved(parts) -> EvalResult:
    """The EvalResult whose every split holds ``parts[r]``'s values at
    positions r, r + n, r + 2n, ... (n = ``len(parts)``)."""
    def weave(field):
        shares = [getattr(part, field) for part in parts]
        out = [None] * sum(map(len, shares))
        for r, share in enumerate(shares):
            out[r::len(parts)] = share
        return tuple(out)
    return EvalResult(**{f.name: weave(f.name)
                         for f in dataclasses.fields(EvalResult)})


_PR_SET_PDEATHSIG = 1     # <linux/prctl.h>


def _forked(n_procs: int, work: Callable) -> list:
    """Run ``work(r)`` in forked children r = 1 .. ``n_procs - 1`` and then
    in this process (r = 0); every result in r order.

    A child inherits what it needs through the fork and pickles back, once
    and on a pipe of its own, its result or the Exception ``work`` raised.
    The first failure raises: this process's own, then the children's in r
    order, as each is read.  A child that exits without sending either
    raises RuntimeError tagged ``[fork]``, as does a pipe or fork that
    fails.  Every child is reaped before this returns or raises; an error
    or interrupt here kills the children still running first."""
    import ctypes     # imported here: `import urcd.cli` does not load them
    import signal

    parent = os.getpid()
    running = {}     # pid -> the read end of its result pipe
    try:
        for r in range(1, n_procs):
            try:
                out, out_w = os.pipe()
                try:
                    pid = os.fork()
                except BaseException:
                    os.close(out)
                    os.close(out_w)
                    raise
            except OSError as exc:
                raise RuntimeError(f"[fork] {exc}") from exc
            if pid == 0:
                status = 1
                try:
                    # PR_SET_PDEATHSIG: SIGKILL this child when the *thread*
                    # that forked it exits, which is this one, waiting for
                    # its children below.  A child whose parent died before
                    # the call has another parent already, and leaves.
                    ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
                    if os.getppid() == parent:
                        try:
                            result = work(r)
                        except Exception as exc:
                            result = exc
                        with open(out_w, "wb") as fh:
                            pickle.dump(result, fh)
                        status = 0
                finally:
                    os._exit(status)
            os.close(out_w)
            running[pid] = open(out, "rb")
        results = [work(0)]
        for pid, fh in list(running.items()):
            with fh:
                payload = fh.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del running[pid]
            if code != 0:
                raise RuntimeError(f"[fork] a forked process exited with "
                                   f"status {code} before returning its result")
            result = pickle.loads(payload)
            if isinstance(result, Exception):
                raise result
            results.append(result)
    finally:
        for pid, fh in running.items():
            fh.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return results


def _in_processes(names, n_fit: int, n_score: int, data: Dataset,
                  h: HarnessConfig, seed: int, n_samples: int,
                  draw: Callable) -> dict:
    """Fit ``names`` in ``n_fit`` processes and score them in ``n_score``,
    this one included; name -> (EvalResult, parameter count, fit seconds).
    A failed fit or score raises, as ``_forked`` orders it: this process's
    first failure, then the children's in fork order.

    Phase 1 fits: every process takes the next model index from one pipe,
    filled before the fork.  This process runs ``draw()`` for the scored
    points, each carrying its reference, before it takes any; while
    children fit, it scores each model it fits at once, and a child only
    fits and returns its models.  Phase 2 scores every other model in
    strides: process r scores it on every ``n_score``-th point of each
    split from the r-th on, and the shares, prediction times included, are
    put back in point order.  Each point is scored, and its prediction
    timed, once.  A phase run in one process does not fork.

    ``data``'s targets are drawn, by ``entry_seed``, in the process that
    first reads them (``datagen.LazyTarget``): each fitting process draws
    only the targets its fits read, a model fitted in a child comes back
    with its atoms drawn, and the scoring draws no training target."""
    jobs, jobs_w = os.pipe()
    os.write(jobs_w, bytes(range(len(names))))
    os.close(jobs_w)
    outcomes = {}

    def fits(r):
        if r == 0:
            scored = draw()
        done = {}
        for i in iter(lambda: os.read(jobs, 1), b""):
            name = names[i[0]]
            model, train_time = _fit(name, data, h, seed)
            if r or n_fit == 1:
                done[name] = model, train_time
            else:
                outcomes[name] = (_score(name, model, scored, seed, n_samples),
                                  model.parameter_count(), train_time)
        return done

    try:
        fitted = {name: got for share in _forked(n_fit, fits)
                  for name, got in share.items()}
    finally:
        os.close(jobs)
    if fitted:
        scored = draw()

        def scores(r):
            stride = _Stride(scored.entries, scored.train_idx[r::n_score],
                             scored.test_idx[r::n_score])
            return [_score(name, model, stride, seed, n_samples)
                    for name, (model, _) in fitted.items()]

        strides = _forked(n_score, scores)
        for k, (name, (model, train_time)) in enumerate(fitted.items()):
            outcomes[name] = (_interleaved([share[k] for share in strides]),
                              model.parameter_count(), train_time)
    return outcomes


def _split_interval(samples, h: HarnessConfig, seed):
    """BCa 95 % interval for a split's mean; a one-point split (``n_test`` = 1)
    has nothing to resample, so its interval is the point itself."""
    if len(samples) == 1:
        return samples[0], samples[0]
    return bca_interval(samples, 0.95, h.bootstrap_b, seed)


def run_experiment(gen_cfg: GeneratorConfig, models, seed: int,
                   harness: HarnessConfig | None = None) -> ExperimentReport:
    """Generate data, train each requested model, evaluate, and assemble
    the metrics table.  The oracle row is always present, with W1 = M = 0
    by definition (it is the reference the others are scored against).

    The scored points are the training points and the task's test split,
    or else ``n_test`` points in balls around training inputs; each
    carries a fresh oracle draw, from one ``oracle_references`` call, that
    every model is scored against once.

    On Linux, with more than one usable CPU, the work runs in forked
    processes, this one included (``_in_processes``).  ``generate`` draws
    no target: each is drawn, by ``entry_seed``, in the process that first
    reads it, so the fits fork right after it, and a fit draws only the
    targets it reads.  They fork with two or more models besides the
    oracle, one of which trains ``_PARALLEL_MIN_ROWS`` rows or more
    (epochs times the training-set size); the scoring always runs in
    strides of the points, one per usable CPU.  Each fit, score and target
    is seeded on its own, so the report has the same bytes either way.
    With ``timings``, ``Train_Time`` is the fit's seconds, the draws of
    the targets it reads included, and ``Test_Time_Ratio`` the
    model's test-prediction seconds, timed as it is scored and summed over
    its strides, over the seconds of one oracle draw pass over the test
    points; each is timed in the process that ran it.  Bootstrap and
    report stay in this process, in model order.

    A run raises the first failure it meets.  In one process that is the
    first failing fit in model order, or else the first failing score;
    with forks, this process's own failure comes first, then the
    children's in fork order, and a child that dies without a result
    raises RuntimeError tagged ``[fork]``.  A target that fails to draw
    raises RuntimeError tagged ``[generate]`` in whichever fit or score
    reads it first, and a reference that fails, ``[reference]``.
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
    if "dnm" in models and h.n_centers >= len(data.train_idx):
        raise ValueError(f"n_centers ({h.n_centers}) must be smaller than the "
                         f"training set ({len(data.train_idx)})")

    @functools.cache
    def draw():
        points, test_idx = [x for x, _ in data.entries], data.test_idx
        try:
            if not test_idx:
                test_idx = range(len(points), len(points) + h.n_test)
                points += _ball_test_inputs(data, sampler, h.n_test, seed)
            references = oracle_references(points, sampler, gen_cfg.S, seed)
        except (ValueError, ArithmeticError) as exc:
            raise RuntimeError(f"[reference] {exc}") from exc
        return build_dataset(zip(points, references), data.train_idx, test_idx)

    names = [name for name in models if _MODELS[name] is not None]
    cpus = _usable_cpus()
    long_fits = (any(_trains(name, h) for name in names)
                 and h.epochs * len(data.train_idx) >= _PARALLEL_MIN_ROWS)
    n_points = len(data.train_idx) + (len(data.test_idx) or h.n_test)
    outcomes = _in_processes(names, min(cpus, len(names)) if long_fits else 1,
                             min(cpus, n_points), data, h, seed, gen_cfg.S,
                             draw)
    scored = draw()

    # oracle timing baseline: one prediction pass over the test split
    oracle_test_time = 1.0
    if h.timings:
        t0 = time.perf_counter()
        for i in scored.test_idx:
            mc_oracle(sampler, scored.entries[i][0], gen_cfg.S,
                      np.random.SeedSequence((seed, _STREAM_PRED, i)))
        oracle_test_time = max(time.perf_counter() - t0, 1e-12)

    rows = []
    for name in models:
        if name not in outcomes:
            rows.append((name, Metrics(
                w1=0.0, w1_lo=0.0, w1_hi=0.0, m=0.0, m_lo=0.0, m_hi=0.0,
                n_par=0, train_time=0.0,
                test_time_ratio=1.0 if h.timings else 0.0)))
            continue
        result, n_par, train_time = outcomes[name]
        w1_point, w1_samples = result.worst_w1()
        m_point, m_samples = result.worst_m()
        boot_seed = (seed, _STREAM_BOOT, models.index(name))
        w1_lo, w1_hi = _split_interval(
            w1_samples, h, np.random.SeedSequence(boot_seed).generate_state(1)[0])
        m_lo, m_hi = _split_interval(
            m_samples, h, np.random.SeedSequence(boot_seed).generate_state(2)[1])
        rows.append((name, Metrics(
            w1=w1_point, w1_lo=min(w1_lo, w1_point), w1_hi=max(w1_hi, w1_point),
            m=m_point, m_lo=min(m_lo, m_point), m_hi=max(m_hi, m_point),
            n_par=n_par,
            train_time=train_time if h.timings else 0.0,
            test_time_ratio=(sum(result.test_s) / oracle_test_time
                             if h.timings else 0.0))))

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
