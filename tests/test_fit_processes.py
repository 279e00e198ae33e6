"""``run_experiment`` fits long models in forked processes and scores
models in strides across the usable CPUs: the reports keep their bytes,
and a fit or score that fails in any process raises its own tagged error.
A failing run stops at once, the main process's failure first and then the
children's in fork order; a child that dies without a result fails tagged
``[fork]``.  No child outlives a run in either phase (``conftest`` checks
that after every test), nor its parent, and no failing run leaves a file
descriptor open (``_fds_unchanged``)."""

import contextlib
import dataclasses
import os
import select
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from urcd import harness
from urcd.cli import main
from urcd.datagen import (
    DropoutSampler,
    GeneratorConfig,
    HeteroscedasticSampler,
    LazyTarget,
)
from urcd.harness import HarnessConfig, emit_report, run_experiment

ALL_MODELS = ["dnm", "const", "mdn", "dgn", "mean"]
SIZE, BATCH = 20, 10
# tiny networks, but as many training rows per fit as the parallel path needs
LONG_EPOCHS = -(-harness._PARALLEL_MIN_ROWS // SIZE)
LONG = HarnessConfig(n_centers=2, hidden_dims=(4,), epochs=LONG_EPOCHS,
                     batch_size=BATCH, n_test=4, bootstrap_b=200,
                     mdn_components=2)
GEN = GeneratorConfig(task="heteroscedastic", d=2, size=SIZE, S=12)
# short fits, and dnm's exact W1 solves at D = 2 carry the scoring
GEN_2D = GeneratorConfig(task="mc_dropout", d=2, D=2, size=12, S=20,
                         base_width=5)
SHORT_2D = HarnessConfig(n_centers=5, hidden_dims=(4,), epochs=50, n_test=12,
                         bootstrap_b=200)
MODELS_2D = ["dnm", "const", "mean"]


@contextlib.contextmanager
def _fds_unchanged():
    """Asserts that the block leaves this process as many open file
    descriptors as it found."""
    fds = len(os.listdir("/proc/self/fd"))
    yield
    assert len(os.listdir("/proc/self/fd")) == fds


def _cpus(monkeypatch, n):
    monkeypatch.setattr(harness, "_usable_cpus", lambda: n)


def _counting_forks(monkeypatch):
    forks = []
    fork = os.fork

    def counting():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return forks


def _report_bytes(tmp_path, tag, harness_cfg=LONG, gen=GEN, models=ALL_MODELS):
    report = run_experiment(gen, models, seed=11, harness=harness_cfg)
    out = []
    for fmt in ("csv", "json"):
        path = tmp_path / f"{tag}.{fmt}"
        emit_report(report, fmt, path)
        out.append(path.read_bytes())
    return report, out


def _assert_forked_as_serial(tmp_path, monkeypatch, harness_cfg=LONG, gen=GEN):
    forks = _counting_forks(monkeypatch)
    _in_a_child(monkeypatch, tmp_path)
    _, parallel = _report_bytes(tmp_path, "parallel", harness_cfg, gen)
    # one fork to fit, one to score the child's models in strides
    assert len(forks) == 2
    _cpus(monkeypatch, 1)
    _, serial = _report_bytes(tmp_path, "serial", harness_cfg, gen)
    assert len(forks) == 2
    assert parallel == serial


def test_forked_fits_give_the_serial_bytes(tmp_path, monkeypatch):
    _assert_forked_as_serial(tmp_path, monkeypatch)


@pytest.mark.parametrize("size, n_test", [
    (SIZE + 1, 4),     # 25 points, and strides of unequal length per split
    (SIZE, 1),         # the child's stride of the test split is empty
])
def test_strided_scores_give_the_serial_bytes(tmp_path, monkeypatch, size,
                                              n_test):
    _assert_forked_as_serial(tmp_path, monkeypatch,
                             dataclasses.replace(LONG, n_test=n_test),
                             dataclasses.replace(GEN, size=size))


def test_forked_fits_report_their_train_times(tmp_path, monkeypatch):
    forks = _counting_forks(monkeypatch)
    _in_a_child(monkeypatch, tmp_path)
    parent, strided = os.getpid(), set()
    score = harness._score

    def recording(name, model, scored, *args):
        if os.getpid() == parent and isinstance(scored, harness._Stride):
            strided.add(name)
        return score(name, model, scored, *args)

    monkeypatch.setattr(harness, "_score", recording)
    report = run_experiment(GEN, ALL_MODELS, seed=11,
                            harness=dataclasses.replace(LONG, timings=True))
    assert len(forks) == 2
    times = {name: (m.train_time, m.test_time_ratio) for name, m in report.rows}
    assert times.pop("oracle") == (0.0, 1.0)
    # fits and test predictions alike are timed in their own process; a
    # child-fitted model's test time sums its strides'
    assert strided and strided < set(times), strided
    assert all(fit > 0 and test > 0 for fit, test in times.values()), times


@pytest.mark.parametrize("cpus", [1, 2])
def test_timed_runs_predict_each_scored_point_once(tmp_path, monkeypatch,
                                                   cpus):
    """A prediction is timed as it is scored, so with timings each model
    still predicts each scored point once, in whichever process scores it.
    Each call appends a line to one file, so every process's calls add up
    in it."""
    log = tmp_path / "predictions"

    def counting(predict, model_name):
        def wrapper(model, x):
            with open(log, "a") as fh:     # O_APPEND: one write per call
                fh.write(f"{model_name(model)} {x.tobytes().hex()}\n")
            return predict(model, x)
        return wrapper

    monkeypatch.setattr(harness, "dnm_predict", counting(
        harness.dnm_predict,
        lambda model: "const" if len(model.atoms) == 1 else "dnm"))
    monkeypatch.setattr(harness, "mean_dnn_predict_measure", counting(
        harness.mean_dnn_predict_measure, lambda model: "mean"))
    forks = _counting_forks(monkeypatch)
    if cpus == 2:
        _in_a_child(monkeypatch, tmp_path)
    else:
        _cpus(monkeypatch, 1)
    run_experiment(GEN, ["dnm", "const", "mean"], seed=11,
                   harness=dataclasses.replace(LONG, timings=True))
    # with two CPUs: one fork to fit, one to score in strides
    assert len(forks) == (2 if cpus == 2 else 0)
    calls = log.read_text().splitlines()
    assert len(set(calls)) == len(calls), "a point was predicted twice"
    assert Counter(call.split()[0] for call in calls) == {
        name: SIZE + LONG.n_test for name in ("dnm", "const", "mean")}


# the perfbench dropout-d10 workload: dnm's 20 centers of 100 training
# inputs, with 100 ball test points
DROPOUT_D10 = GeneratorConfig(task="mc_dropout", d=10, D=1, size=100, S=500,
                              base_width=5, dropout_rate=0.1)
DROPOUT_D10_H = HarnessConfig(n_centers=20, n_test=100)


def _kind(seed) -> str:
    """A draw's kind by its seed: a training target draws under
    ``entry_seed`` (two entropy words), a reference under ``_ref_seed``."""
    if len(seed.entropy) == 2:
        return "target"
    return "reference" if seed.entropy[1] == harness._STREAM_REF else "other"


def _logging_draws(monkeypatch, log, sampler=DropoutSampler):
    """Rebind ``sampler.draw`` to append one line per call, its process
    and its kind, to ``log``: every process's calls add up there."""
    draw = sampler.draw

    def logging(self, x, size, seed):
        with open(log, "a") as fh:     # O_APPEND: one write per call
            fh.write(f"{os.getpid()} {_kind(seed)}\n")
        return draw(self, x, size, seed)

    monkeypatch.setattr(sampler, "draw", logging)


def _logged(log) -> Counter:
    return Counter(tuple(line.split()) for line in log.read_text().splitlines())


def test_one_process_draws_only_the_center_targets(tmp_path, monkeypatch):
    """dnm reads its 20 center targets; const's one center is the first of
    them (the greedy medoid), already drawn."""
    log = tmp_path / "draws"
    _logging_draws(monkeypatch, log)
    _cpus(monkeypatch, 1)
    run_experiment(DROPOUT_D10, ["dnm", "const"], seed=7, harness=DROPOUT_D10_H)
    here = str(os.getpid())
    assert _logged(log) == {(here, "target"): 20, (here, "reference"): 200}


def test_each_process_draws_the_targets_its_fit_reads(tmp_path, monkeypatch):
    """The process that fits dnm draws its 20 centers and the one that fits
    const its one; the models come back with their atoms, so the scoring
    processes draw no target, and only this one draws the references."""
    log, fits = tmp_path / "draws", tmp_path / "fits"
    _logging_draws(monkeypatch, log)
    fit = harness._fit

    def logging_fit(name, *args):
        with open(fits, "a") as fh:
            fh.write(f"{name} {os.getpid()}\n")
        return fit(name, *args)

    monkeypatch.setattr(harness, "_fit", logging_fit)
    forks = _counting_forks(monkeypatch)
    _in_a_child(monkeypatch, tmp_path)
    forked = run_experiment(DROPOUT_D10, ["dnm", "const"], seed=7,
                            harness=DROPOUT_D10_H)
    # one fork to fit, one to score the child's model in strides
    assert len(forks) == 2
    fitted_in = dict(line.split() for line in fits.read_text().splitlines())
    here = str(os.getpid())
    assert set(fitted_in.values()) == {here, str(forks[0])}
    expected = Counter({(here, "reference"): 200})
    expected[fitted_in["dnm"], "target"] += 20
    expected[fitted_in["const"], "target"] += 1
    assert _logged(log) == expected
    _cpus(monkeypatch, 1)
    assert run_experiment(DROPOUT_D10, ["dnm", "const"], seed=7,
                          harness=DROPOUT_D10_H) == forked


class _Unreadable:
    """A sampler whose every draw fails."""

    def draw(self, x, size, seed):
        raise ValueError("math domain error")


@pytest.mark.parametrize("cpus", [1, 2])
def test_target_failing_to_draw_in_a_fit_is_a_generate_failure(
        tmp_path, monkeypatch, capsys, cpus):
    draw = HeteroscedasticSampler.draw

    def failing(self, x, size, seed):
        if _kind(seed) == "target":
            raise ValueError("math domain error")
        return draw(self, x, size, seed)

    monkeypatch.setattr(HeteroscedasticSampler, "draw", failing)
    _cpus(monkeypatch, cpus)
    with _fds_unchanged():
        assert _experiment(tmp_path) == 3
    err = capsys.readouterr().err
    assert err.startswith("failed: [generate] math domain error"), err


def test_target_failing_to_draw_in_a_score_is_a_generate_failure(
        tmp_path, monkeypatch, capsys):
    """A model whose atoms are still to be drawn draws them as it is
    scored."""
    train = harness.train_dnm

    def undrawn(data, *args):
        model, log = train(data, *args)
        atom = LazyTarget(_Unreadable(), data.entries[0][0], 2, 0,
                          data.output_dim)
        return dataclasses.replace(model, atoms=(atom,) * len(model.atoms)), log

    monkeypatch.setattr(harness, "train_dnm", undrawn)
    _cpus(monkeypatch, 1)
    assert _experiment(tmp_path) == 3
    err = capsys.readouterr().err
    assert err.startswith("failed: [generate] math domain error"), err


# runs whose fits are too short to fork: they fork only to score
SHORT_FIT_RUNS = [
    (GEN, ["dnm", "const"], dataclasses.replace(LONG, epochs=LONG_EPOCHS - 1)),
    (GEN, ["mean"], LONG),     # one model
    # a one-center DNM trains nothing, so neither model here trains
    (GEN, ["dnm", "const"], dataclasses.replace(LONG, n_centers=1)),
    # tiny D = 2 scoring
    (dataclasses.replace(GEN_2D, size=6, S=4), ["dnm", "const"],
     dataclasses.replace(SHORT_2D, n_test=2)),
]


def test_serial_path_never_forks(monkeypatch):
    def no_fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", no_fork)
    _cpus(monkeypatch, 1)
    run_experiment(GEN, ["dnm", "const"], seed=3, harness=LONG)
    for gen, models, h in SHORT_FIT_RUNS:
        run_experiment(gen, models, seed=3, harness=h)


def test_short_fits_fork_only_to_score(monkeypatch):
    forks = _counting_forks(monkeypatch)
    for gen, models, h in SHORT_FIT_RUNS:
        _cpus(monkeypatch, 2)
        forked = run_experiment(gen, models, seed=3, harness=h)
        assert len(forks) == 1
        forks.clear()
        _cpus(monkeypatch, 1)
        assert run_experiment(gen, models, seed=3, harness=h) == forked
        assert not forks


def test_one_long_fit_beside_const_forks_twice(tmp_path, monkeypatch):
    forks = _counting_forks(monkeypatch)
    _in_a_child(monkeypatch, tmp_path)
    forked = run_experiment(GEN, ["dnm", "const"], seed=3, harness=LONG)
    # one fork to fit, one to score the child's model in strides
    assert len(forks) == 2
    _cpus(monkeypatch, 1)
    assert run_experiment(GEN, ["dnm", "const"], seed=3, harness=LONG) == forked
    assert len(forks) == 2


def test_short_scoring_after_forked_fits_forks_twice(tmp_path, monkeypatch):
    # 60 scored points against 50-atom references at D = 1: little scoring,
    # but it is split all the same
    gen = GeneratorConfig(task="heteroscedastic", d=2, size=40, S=50)
    h = HarnessConfig(n_centers=5, hidden_dims=(4,), n_test=20,
                      bootstrap_b=200,
                      epochs=-(-harness._PARALLEL_MIN_ROWS // 40))
    forks = _counting_forks(monkeypatch)
    _in_a_child(monkeypatch, tmp_path)
    _, forked = _report_bytes(tmp_path, "forked", h, gen, ["dnm", "const"])
    # one fork to fit, one to score the child's model in strides
    assert len(forks) == 2
    _cpus(monkeypatch, 1)
    _, serial = _report_bytes(tmp_path, "serial", h, gen, ["dnm", "const"])
    assert len(forks) == 2
    assert forked == serial


def test_short_fits_with_long_scoring_fork_once_to_score(tmp_path,
                                                         monkeypatch):
    # dnm's exact W1 solves dominate the scoring; this process fits every
    # model, and a child scores its stride of each, dnm's included
    parent, fitted_in = os.getpid(), []
    train, score = harness.train_dnm, harness._score

    def fitting(*args, **kwargs):
        fitted_in.append(os.getpid())
        return train(*args, **kwargs)

    def scoring(name, model, scored, *args):
        if os.getpid() != parent:
            (tmp_path / f"strided-{name}").touch()
        return score(name, model, scored, *args)

    monkeypatch.setattr(harness, "train_dnm", fitting)
    monkeypatch.setattr(harness, "_score", scoring)
    forks = _counting_forks(monkeypatch)
    _cpus(monkeypatch, 2)
    _, forked = _report_bytes(tmp_path, "forked", SHORT_2D, GEN_2D, MODELS_2D)
    assert len(forks) == 1
    assert fitted_in == [parent, parent]      # dnm and const
    assert sorted(tmp_path.glob("strided-*")) == [
        tmp_path / f"strided-{name}" for name in sorted(MODELS_2D)]
    _cpus(monkeypatch, 1)
    _, serial = _report_bytes(tmp_path, "serial", SHORT_2D, GEN_2D, MODELS_2D)
    assert len(forks) == 1
    assert forked == serial


# Runs a forked experiment whose fits would take hours, and prints the pid
# of every child it forks.
_ORPHANING = """
import os
from urcd import harness
from urcd.datagen import GeneratorConfig
from urcd.harness import HarnessConfig, run_experiment

fork = os.fork


def announcing():
    pid = fork()
    if pid:
        print(pid, flush=True)
    return pid


os.fork = announcing
harness._usable_cpus = lambda: 2
run_experiment(GeneratorConfig(task="heteroscedastic", d=2, size=20, S=12),
               ["dnm", "mean"], seed=3,
               harness=HarnessConfig(n_centers=2, hidden_dims=(4,),
                                     epochs=10 ** 8, n_test=4))
"""


def _exited(pid):
    """Whether ``pid`` has exited; a zombie has, as nothing may reap it."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] in ("Z", "X")


def test_children_die_with_their_parent():
    src = str(Path(harness.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.Popen([sys.executable, "-c", _ORPHANING],
                            stdout=subprocess.PIPE, text=True, env=env)
    child = None
    try:
        assert select.select([proc.stdout], [], [], 60.0)[0], "no fork in 60 s"
        child = int(proc.stdout.readline())
        time.sleep(0.5)
        assert not _exited(child)
        proc.kill()
        proc.wait()
        deadline = time.monotonic() + 5.0
        while not _exited(child) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert _exited(child)
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        if child is not None and not _exited(child):
            os.kill(child, signal.SIGKILL)


def _wait_for(path):
    deadline = time.monotonic() + 30.0
    while not path.exists() and time.monotonic() < deadline:
        time.sleep(0.01)


def _in_a_child(monkeypatch, tmp_path, child_fit=None, parent_fit=None):
    """Rebind the fits of ``dnm`` and ``mean``: a child runs ``child_fit``
    or the real fit.  The parent's fit waits until a child has begun one,
    so that the child surely takes a model of its own, then runs
    ``parent_fit`` or the real fit."""
    parent, started = os.getpid(), tmp_path / "child-started"

    def wrap(fit):
        def wrapper(*args, **kwargs):
            if os.getpid() != parent:
                started.touch()
                return child_fit() if child_fit else fit(*args, **kwargs)
            _wait_for(started)
            return parent_fit() if parent_fit else fit(*args, **kwargs)
        return wrapper

    for name in ("train_dnm", "mean_dnn_fit"):
        monkeypatch.setattr(harness, name, wrap(getattr(harness, name)))
    _cpus(monkeypatch, 2)


def _scoring_in_a_child(monkeypatch, tmp_path, child_predict):
    """As ``_in_a_child`` with the real fits; a child's ``dnm`` and ``mean``
    predictions, which score its stride of the child-fitted model, run
    ``child_predict``."""
    parent = os.getpid()

    def wrap(predict):
        def wrapper(*args, **kwargs):
            if os.getpid() != parent:
                return child_predict()
            return predict(*args, **kwargs)
        return wrapper

    for name in ("dnm_predict", "mean_dnn_predict_measure"):
        monkeypatch.setattr(harness, name, wrap(getattr(harness, name)))
    _in_a_child(monkeypatch, tmp_path)


def _experiment(tmp_path):
    return main(["experiment", "--task", "heteroscedastic", "--d", "1",
                 "--size", str(SIZE), "--samples", "6", "--seed", "4",
                 "--models", "dnm,mean", "--hidden", "4", "--n-centers", "2",
                 "--batch", str(BATCH), "--epochs", str(LONG_EPOCHS),
                 "--n-test", "2", "--bootstrap", "100",
                 "--report", str(tmp_path / "r.csv")])


def test_fit_raising_in_a_child_fails_as_in_the_serial_loop(
        tmp_path, monkeypatch, capsys):
    def boom():
        raise ValueError("math domain error")

    _in_a_child(monkeypatch, tmp_path, boom)
    with _fds_unchanged():
        assert _experiment(tmp_path) == 3
    err = capsys.readouterr().err
    assert ("[train:dnm] math domain error" in err
            or "[train:mean] math domain error" in err), err


def test_failing_fit_here_stops_the_run_at_once(tmp_path, monkeypatch, capsys):
    def boom():
        raise ValueError("math domain error")

    # the child would sleep far longer than the test may take
    _in_a_child(monkeypatch, tmp_path, lambda: time.sleep(600), boom)
    t0 = time.monotonic()
    with _fds_unchanged():
        assert _experiment(tmp_path) == 3
    assert time.monotonic() - t0 < 60.0
    err = capsys.readouterr().err
    assert ("[train:dnm] math domain error" in err
            or "[train:mean] math domain error" in err), err


def _assert_lost_process(err):
    assert "failed: [fork] a forked process exited with status 1" in err, err
    assert "[train:" not in err and "[eval:" not in err, err


def test_child_exiting_while_fitting_fails_as_a_lost_process(
        tmp_path, monkeypatch, capsys):
    # the child fits one model and exits on its next one; this process
    # draws its references only then, so the child has taken both models
    parent, lost = os.getpid(), tmp_path / "child-lost"
    fit, references = harness._fit, harness.oracle_references
    fitted = []

    def fit_once(*args):
        if os.getpid() != parent and fitted:
            lost.touch()
            os._exit(1)
        fitted.append(args[0])
        return fit(*args)

    def waiting(*args, **kwargs):
        _wait_for(lost)
        return references(*args, **kwargs)

    monkeypatch.setattr(harness, "_fit", fit_once)
    monkeypatch.setattr(harness, "oracle_references", waiting)
    _cpus(monkeypatch, 2)
    with _fds_unchanged():
        assert _experiment(tmp_path) == 3
    assert lost.exists()
    _assert_lost_process(capsys.readouterr().err)


def test_score_raising_in_a_child_fails_as_in_the_serial_loop(
        tmp_path, monkeypatch, capsys):
    def boom():
        raise ValueError("math domain error")

    _scoring_in_a_child(monkeypatch, tmp_path, boom)
    with _fds_unchanged():
        assert _experiment(tmp_path) == 3
    err = capsys.readouterr().err
    assert ("[eval:dnm] math domain error" in err
            or "[eval:mean] math domain error" in err), err


def test_child_exiting_while_scoring_fails_as_a_lost_process(
        tmp_path, monkeypatch, capsys):
    _scoring_in_a_child(monkeypatch, tmp_path, lambda: os._exit(1))
    with _fds_unchanged():
        assert _experiment(tmp_path) == 3
    _assert_lost_process(capsys.readouterr().err)


def test_failed_fork_closes_its_pipe(tmp_path, monkeypatch, capsys):
    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    _cpus(monkeypatch, 2)
    with _fds_unchanged():
        for _ in range(3):
            assert _experiment(tmp_path) == 3
            err = capsys.readouterr().err
            assert err.startswith("failed: [fork] ")
            assert "Resource temporarily unavailable" in err


def test_reference_error_while_a_child_fits_fails_as_in_the_serial_loop(
        tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        _wait_for(tmp_path / "child-started")
        raise ValueError("math domain error")

    # the child would sleep far longer than the test may take
    _in_a_child(monkeypatch, tmp_path, lambda: time.sleep(600))
    monkeypatch.setattr(harness, "oracle_references", broken)
    t0 = time.monotonic()
    with _fds_unchanged():
        assert _experiment(tmp_path) == 3
    assert time.monotonic() - t0 < 60.0
    assert "[reference] math domain error" in capsys.readouterr().err


def test_interrupted_parent_reaps_its_children(tmp_path, monkeypatch):
    def interrupt():
        raise KeyboardInterrupt

    # the child would sleep far longer than the test may take
    _in_a_child(monkeypatch, tmp_path, lambda: time.sleep(600), interrupt)
    t0 = time.monotonic()
    with _fds_unchanged(), pytest.raises(KeyboardInterrupt):
        run_experiment(GEN, ["dnm", "mean"], seed=3, harness=LONG)
    assert time.monotonic() - t0 < 60.0


def test_interrupt_while_scoring_in_strides_reaps_the_children(
        tmp_path, monkeypatch):
    parent, scoring = os.getpid(), tmp_path / "child-scoring"

    def sleep():
        scoring.touch()
        time.sleep(600)

    # the child would sleep far longer than the test may take
    _scoring_in_a_child(monkeypatch, tmp_path, sleep)
    stride = harness._Stride

    def interrupted(*args):
        if os.getpid() == parent:
            _wait_for(scoring)
            raise KeyboardInterrupt
        return stride(*args)

    monkeypatch.setattr(harness, "_Stride", interrupted)
    t0 = time.monotonic()
    with _fds_unchanged(), pytest.raises(KeyboardInterrupt):
        run_experiment(GEN, ["dnm", "mean"], seed=3, harness=LONG)
    assert time.monotonic() - t0 < 60.0
