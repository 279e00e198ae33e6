"""``run_experiment`` fits long models in forked processes: the reports keep
their bytes, failures surface as in the serial loop, and no child outlives
a run."""

import dataclasses
import os
import time

import pytest

from urcd import harness
from urcd.cli import main
from urcd.datagen import GeneratorConfig
from urcd.harness import HarnessConfig, emit_report, run_experiment

ALL_MODELS = ["dnm", "const", "mdn", "dgn", "mean"]
SIZE, BATCH = 20, 10
# tiny networks, but as many training rows per fit as the parallel path needs
LONG_EPOCHS = -(-harness._PARALLEL_MIN_ROWS // SIZE)
LONG = HarnessConfig(n_centers=2, hidden_dims=(4,), epochs=LONG_EPOCHS,
                     batch_size=BATCH, n_test=4, bootstrap_b=200,
                     mdn_components=2)
GEN = GeneratorConfig(task="heteroscedastic", d=2, size=SIZE, S=12)


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


def _report_bytes(tmp_path, tag, harness_cfg=LONG):
    report = run_experiment(GEN, ALL_MODELS, seed=11, harness=harness_cfg)
    out = []
    for fmt in ("csv", "json"):
        path = tmp_path / f"{tag}.{fmt}"
        emit_report(report, fmt, path)
        out.append(path.read_bytes())
    return report, out


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_forked_fits_give_the_serial_bytes(tmp_path, monkeypatch):
    forks = _counting_forks(monkeypatch)
    _cpus(monkeypatch, 2)
    _, parallel = _report_bytes(tmp_path, "parallel")
    assert len(forks) == 1
    _cpus(monkeypatch, 1)
    _, serial = _report_bytes(tmp_path, "serial")
    assert len(forks) == 1
    assert parallel == serial
    _assert_no_children()


def test_forked_fits_report_their_train_times(tmp_path, monkeypatch):
    forks = _counting_forks(monkeypatch)
    _cpus(monkeypatch, 2)
    report = run_experiment(GEN, ALL_MODELS, seed=11,
                            harness=dataclasses.replace(LONG, timings=True))
    assert len(forks) == 1
    times = {name: (m.train_time, m.test_time_ratio) for name, m in report.rows}
    assert times.pop("oracle") == (0.0, 1.0)
    # fits and test predictions alike are timed in their own process
    assert all(fit > 0 and test > 0 for fit, test in times.values()), times
    _assert_no_children()


def test_serial_path_never_forks(monkeypatch):
    def no_fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", no_fork)
    _cpus(monkeypatch, 1)
    run_experiment(GEN, ["dnm", "const"], seed=3, harness=LONG)
    _cpus(monkeypatch, 2)
    short = dataclasses.replace(LONG, epochs=LONG_EPOCHS - 1)
    run_experiment(GEN, ["dnm", "const"], seed=3, harness=short)
    run_experiment(GEN, ["mean"], seed=3, harness=LONG)   # one model
    # a one-center DNM trains nothing, so neither model here trains
    run_experiment(GEN, ["dnm", "const"], seed=3,
                   harness=dataclasses.replace(LONG, n_centers=1))


def test_one_long_fit_beside_const_forks_once(monkeypatch):
    forks = _counting_forks(monkeypatch)
    _cpus(monkeypatch, 2)
    forked = run_experiment(GEN, ["dnm", "const"], seed=3, harness=LONG)
    assert len(forks) == 1
    _assert_no_children()
    _cpus(monkeypatch, 1)
    assert run_experiment(GEN, ["dnm", "const"], seed=3, harness=LONG) == forked
    assert len(forks) == 1


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
    predictions run ``child_predict``."""
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
    assert _experiment(tmp_path) == 3
    err = capsys.readouterr().err
    assert ("[train:dnm] math domain error" in err
            or "[train:mean] math domain error" in err), err
    _assert_no_children()


def test_child_exiting_without_a_result_names_its_model(
        tmp_path, monkeypatch, capsys):
    _in_a_child(monkeypatch, tmp_path, lambda: os._exit(1))
    assert _experiment(tmp_path) == 3
    err = capsys.readouterr().err
    assert ("[train:dnm] its fitting process exited with status 1" in err
            or "[train:mean] its fitting process exited with status 1" in err), err
    _assert_no_children()


def test_score_raising_in_a_child_fails_as_in_the_serial_loop(
        tmp_path, monkeypatch, capsys):
    def boom():
        raise ValueError("math domain error")

    _scoring_in_a_child(monkeypatch, tmp_path, boom)
    assert _experiment(tmp_path) == 3
    err = capsys.readouterr().err
    assert ("[eval:dnm] math domain error" in err
            or "[eval:mean] math domain error" in err), err
    _assert_no_children()


def test_child_exiting_while_scoring_names_its_model(
        tmp_path, monkeypatch, capsys):
    _scoring_in_a_child(monkeypatch, tmp_path, lambda: os._exit(1))
    assert _experiment(tmp_path) == 3
    err = capsys.readouterr().err
    assert ("[train:dnm] its fitting process exited with status 1" in err
            or "[train:mean] its fitting process exited with status 1" in err), err
    _assert_no_children()


def test_reference_error_while_a_child_fits_fails_as_in_the_serial_loop(
        tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        _wait_for(tmp_path / "child-started")
        raise ValueError("math domain error")

    # the child would sleep far longer than the test may take
    _in_a_child(monkeypatch, tmp_path, lambda: time.sleep(600))
    monkeypatch.setattr(harness, "oracle_references", broken)
    t0 = time.monotonic()
    assert _experiment(tmp_path) == 3
    assert time.monotonic() - t0 < 60.0
    assert "[reference] math domain error" in capsys.readouterr().err
    _assert_no_children()


def test_interrupted_parent_reaps_its_children(tmp_path, monkeypatch):
    def interrupt():
        raise KeyboardInterrupt

    # the child would sleep far longer than the test may take
    _in_a_child(monkeypatch, tmp_path, lambda: time.sleep(600), interrupt)
    t0 = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_experiment(GEN, ["dnm", "mean"], seed=3, harness=LONG)
    assert time.monotonic() - t0 < 60.0
    _assert_no_children()
