import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from urcd import cli, harness
from urcd.cli import main
from urcd.neural import NetConfig
from urcd.training import load_dataset, train_dnm

from diagnostics import parse_report_csv


def test_rates_neps(capsys):
    assert main(["rates", "--neps", "--eps", "1", "--d", "1"]) == 0
    assert capsys.readouterr().out.strip() == "16"
    # diam 0: one atom, even where the bound's inverse moduli underflow to 0
    assert main(["rates", "--neps", "--eps", "1e-300", "--hoelder-alpha", "0.5",
                 "--diam", "0"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_rates_nq(capsys):
    assert main(["rates", "--nq", "--eps", "0.4", "--dim-out", "2",
                 "--radius", "1"]) == 0
    assert capsys.readouterr().out.strip() == "2134"


def test_gen_train_eval_pipeline(tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    model = tmp_path / "model.json"
    assert main(["gen", "--task", "heteroscedastic", "--d", "1",
                 "--size", "10", "--samples", "8", "--seed", "1",
                 "--out", str(data), "--describe"]) == 0
    assert data.exists()
    assert (tmp_path / "data.jsonl.split.json").exists()
    capsys.readouterr()
    assert main(["train", "--data", str(data), "--n", "2",
                 "--out", str(model), "--epochs", "15", "--hidden", "6",
                 "--seed", "0"]) == 0
    assert model.exists()
    # the printed loss and accuracy are train_dnm's log for the same settings
    _, log = train_dnm(load_dataset(data), 2,
                       NetConfig(hidden_dims=(6,), epochs=15), 0)
    line = (f"trained on 10 points; final loss {log.final_loss:.6g}; "
            f"label accuracy {log.final_accuracy:.3f}; wrote {model}\n")
    assert capsys.readouterr().out == line == (
        f"trained on 10 points; final loss 0.573875; "
        f"label accuracy 0.800; wrote {model}\n")
    assert main(["eval", "--model", str(model), "--data", str(data)]) == 0
    out = capsys.readouterr().out
    assert "worst" in out


def test_experiment_writes_report(tmp_path):
    report = tmp_path / "report.csv"
    code = main(["experiment", "--task", "heteroscedastic", "--d", "1",
                 "--size", "8", "--samples", "8", "--seed", "2",
                 "--models", "dnm,mean", "--report", str(report),
                 "--epochs", "10", "--hidden", "4", "--n-centers", "2",
                 "--n-test", "3", "--bootstrap", "200"])
    assert code == 0
    rows = dict(parse_report_csv(report))
    assert set(rows) == {"oracle", "dnm", "mean"}
    assert rows["oracle"].w1 == 0.0


def test_empty_hidden_list_trains_no_hidden_layer(tmp_path):
    report = tmp_path / "report.csv"
    assert main(["experiment", "--task", "heteroscedastic", "--d", "2",
                 "--size", "8", "--samples", "8", "--seed", "2",
                 "--models", "dnm,const,mdn,dgn,mean", "--report", str(report),
                 "--epochs", "5", "--hidden", "", "--n-centers", "3",
                 "--n-test", "3", "--bootstrap", "200"]) == 0
    # one affine layer from R^2 to: 3 logits (dnm), 1 logit (const),
    # 3 x (1 + 2) mixture parameters (mdn), a mean and a 1 x 1 covariance
    # factor (dgn), a mean (mean)
    n_par = {name: m.n_par for name, m in parse_report_csv(report)}
    assert n_par == {"oracle": 0, "dnm": 9, "const": 3, "mdn": 27, "dgn": 6,
                     "mean": 3}


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("task = heteroscedastic\nsize = 8\nsamples = 8\n"
                   "seed = 3\nd = 1\n# comment line\n")
    out = tmp_path / "cfg_data.jsonl"
    assert main(["--config", str(cfg), "gen", "--out", str(out)]) == 0
    lines = [ln for ln in out.read_text().splitlines() if ln.strip()]
    assert len(lines) == 8
    rec = json.loads(lines[0])
    assert len(rec["samples"]) == 8


def test_config_file_task_accepts_hyphens(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("task = mc-dropout\nd = 3\nbase_width = 4\n"
                   "size = 6\nsamples = 5\nseed = 2\n")
    out = tmp_path / "drop.jsonl"
    assert main(["--config", str(cfg), "gen", "--out", str(out)]) == 0
    assert out.exists()


def test_flag_overrides_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("task = heteroscedastic\nsize = 8\nsamples = 5\nd = 1\n")
    out = tmp_path / "d.jsonl"
    assert main(["--config", str(cfg), "gen", "--size", "4",
                 "--out", str(out)]) == 0
    lines = [ln for ln in out.read_text().splitlines() if ln.strip()]
    assert len(lines) == 4


def test_exit_code_2_on_config_errors(tmp_path, capsys):
    out = tmp_path / "x.jsonl"
    # dropout rate outside [0, 1)
    assert main(["gen", "--task", "mc-dropout", "--dropout-rate", "1.5",
                 "--size", "8", "--samples", "5", "--out", str(out)]) == 2
    assert main(["--config", str(tmp_path / "missing.cfg"), "rates",
                 "--neps", "--eps", "1"]) == 2
    # settings the shared training config rejects
    experiment = ["experiment", "--task", "heteroscedastic", "--size", "8",
                  "--samples", "6", "--models", "mean", "--n-test", "2",
                  "--bootstrap", "200", "--report", str(tmp_path / "r.csv")]
    assert main(experiment + ["--epochs", "0"]) == 2
    assert main(experiment + ["--lr", "0"]) == 2
    for bad in (["--hidden", "0,4"], ["--hidden=-3"]):
        assert main(experiment + bad) == 2
        assert ("error: hidden layer widths must be positive"
                in capsys.readouterr().err)
    # a switch whose config text is not a boolean word, not read as off
    config = tmp_path / "switch.cfg"
    for text in ("ture", "2", "y"):
        config.write_text(f"timings = {text}\n")
        assert main(["--config", str(config)] + experiment) == 2
        assert (f"config key timings: {text!r} is not one of"
                in capsys.readouterr().err)
    # the experiment's own settings, rejected before anything runs
    assert main(experiment + ["--n-centers", "0"]) == 2
    assert main(experiment + ["--mdn-components", "0", "--models", "mdn"]) == 2
    assert main(experiment + ["--bootstrap", "50"]) == 2
    assert main(experiment + ["--n-test", "-1"]) == 2
    assert main(experiment + ["--models", "mean,bogus"]) == 2
    assert "unknown models requested: ['bogus']" in capsys.readouterr().err
    # more atom measures than training points: refused before anything trains
    assert main(experiment + ["--models", "dnm", "--n-centers", "10"]) == 2
    assert ("n_centers (10) must be smaller than the training set"
            in capsys.readouterr().err)
    # generator settings a task does not support, by gen and by experiment
    for bad in (["--task", "elm", "--d", "5"], ["--task", "elm", "--dim-out", "2"],
                ["--task", "sde", "--d", "1", "--dim-out", "2"],
                ["--task", "sde", "--sde-drift", "foo"],
                ["--task", "sde", "--sde-diffusion", "foo"]):
        assert main(experiment + bad) == 2
        assert main(["gen", "--size", "8", "--samples", "5",
                     "--out", str(out)] + bad) == 2
    assert "error" in capsys.readouterr().err
    # settings that are not finite, refused before anything runs
    for bad, field in ((["--lr", "nan"], "learning_rate"),
                       (["--lr", "inf"], "learning_rate"),
                       (["--task", "sde", "--t-max", "nan"], "t_max"),
                       (["--task", "sde", "--drift-a1", "inf"], "drift_a1")):
        assert main(experiment + bad) == 2
        assert f"error: {field} must be finite" in capsys.readouterr().err
    # centers have one rule: no flag or config key picks another
    train = ["train", "--data", str(out), "--n", "2",
             "--out", str(tmp_path / "m.json")]
    with pytest.raises(SystemExit) as exc:
        main(train + ["--strategy", "greedy_medoids"])
    assert exc.value.code == 2
    config = tmp_path / "strategy.cfg"
    config.write_text("strategy = greedy_medoids\n")
    assert main(["--config", str(config)] + train) == 2
    assert "unknown config key 'strategy'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, quantity", [
    (["--neps", "--eps", "1e-300", "--d", "3"], "N(eps) exceeds"),
    (["--nq", "--eps", "1e-300", "--dim-out", "3"], "N_Q exceeds"),
    (["--neps", "--eps", "1", "--hoelder-a", "inf"], "A must be finite"),
    (["--neps", "--eps", "1", "--diam", "inf"], "diam must be finite"),
    (["--neps", "--eps", "nan"], "eps must be positive and finite"),
    (["--nq", "--eps", "1", "--radius", "1e308"], "N_Q exceeds"),
])
def test_rates_out_of_range_exits_2(capsys, argv, quantity):
    assert main(["rates"] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and quantity in err


_RECORDS = [{"x": [i / 4], "samples": [[float(i)], [i + 0.5]]} for i in range(5)]
_BAD_SPLITS = {"split train not a list": {"train": 5},
               "split test not integers": {"test": [4.0]},
               "split index out of range": {"test": [9]},
               "split repeats an index": {"train": [0, 1, 1], "test": [2]}}
_BAD_MODELS = {
    "model without atoms": lambda m: m.pop("atoms"),
    "model atoms not objects": lambda m: m.update(atoms=[[0.0]]),
    "model atom weights null": lambda m: m["atoms"][0].update(weights=None),
    "model feature map not an object": lambda m: m.update(feature_map=[]),
    "model feature map affine": lambda m: m["feature_map"].update(
        kind="affine", matrix=[[1.0]], offset=[0.0]),
    "model feature map input_dim wrong":
        lambda m: m["feature_map"].update(input_dim=2),
    "model classifier not an object": lambda m: m.update(classifier="x"),
    "model weights not a list": lambda m: m["classifier"].update(weights=5),
    "model activation unknown":
        lambda m: m["classifier"].update(activation="bogus"),
    "model weight of the wrong shape":
        lambda m: m["classifier"]["biases"][0].pop(),
    "model layer_dims not integers":
        lambda m: m["classifier"].update(layer_dims=[1, "a", 2]),
}
# data of another input (d) or target (D) dimension than the model's
_MISMATCHED_DATA = {"eval d mismatch": {"x": [0.5, 0.5], "samples": [[1.0]]},
                    "eval D mismatch": {"x": [0.5], "samples": [[1.0, 2.0]]}}


@pytest.mark.parametrize("case, where", [
    ("record without x", "data.jsonl:3"),
    ("record without samples", "data.jsonl:3"),
    ("flat samples", "data.jsonl:3"),
    ("x not finite", "data.jsonl:3"),
    ("x empty", "data.jsonl:3"),
    ("x of another dimension", "data.jsonl:3"),
    ("x an object", "data.jsonl:3"),
    ("samples of another dimension", "data.jsonl:3"),
    ("one record", "data.jsonl"),
    ("split without train", "data.jsonl.split.json"),
    ("split without test", "data.jsonl.split.json"),
    ("split train not a list", "data.jsonl.split.json"),
    ("split test not integers", "data.jsonl.split.json"),
    ("split index out of range", "data.jsonl.split.json"),
    ("split repeats an index", "data.jsonl.split.json"),
    ("split not JSON", "data.jsonl.split.json"),
    *((case, "model.json") for case in _BAD_MODELS),
    *((case, "data.jsonl") for case in _MISMATCHED_DATA),
])
def test_malformed_input_file_exits_2(tmp_path, capsys, case, where):
    data, model = tmp_path / "data.jsonl", tmp_path / "model.json"
    records = [dict(r) for r in _RECORDS]
    if case == "record without x":
        del records[2]["x"]
    elif case == "record without samples":
        del records[2]["samples"]
    elif case == "flat samples":
        records[2]["samples"] = [1.0, 2.0, 3.0]
    elif case == "x not finite":
        records[2]["x"] = [float("nan")]
    elif case == "x empty":
        records[2]["x"] = []
    elif case == "x of another dimension":
        records[2]["x"] = [0.5, 0.5]
    elif case == "x an object":
        records[2]["x"] = {"a": 1}
    elif case == "samples of another dimension":
        records[2]["samples"] = [[1.0, 2.0]]
    elif case == "one record":
        records = records[:1]
    data.write_text("".join(json.dumps(r) + "\n" for r in records))
    if case.startswith("split"):
        split = {"train": [0, 1, 2, 3], "test": [4]}
        if case.startswith("split without"):
            del split[case.split()[-1]]
        elif case in _BAD_SPLITS:
            split.update(_BAD_SPLITS[case])
        text = "{" if case == "split not JSON" else json.dumps(split)
        (tmp_path / "data.jsonl.split.json").write_text(text)
    if case.startswith(("model", "eval")):
        assert main(["train", "--data", str(data), "--n", "2", "--epochs", "2",
                     "--hidden", "4", "--out", str(model)]) == 0
        if case in _MISMATCHED_DATA:
            data.write_text((json.dumps(_MISMATCHED_DATA[case]) + "\n") * 3)
        else:
            saved = json.loads(model.read_text())
            _BAD_MODELS[case](saved)
            model.write_text(json.dumps(saved))
        argv = ["eval", "--model", str(model), "--data", str(data)]
    else:
        argv = ["train", "--data", str(data), "--n", "2", "--epochs", "2",
                "--hidden", "4", "--out", str(model)]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path / where) in err
    if case in _MISMATCHED_DATA:
        assert str(model) in err


@pytest.mark.parametrize("line", ["batch = 0", "lr = -1", "n = 2",
                                  "bootstrap = 50", "epocs = 0", "S = 5",
                                  "elm_sparsity = 0.5"])
def test_unknown_config_key_exits_2(tmp_path, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("task = heteroscedastic\nsize = 8\n" + line + "\n")
    report = tmp_path / "r.csv"
    assert main(["--config", str(cfg), "experiment", "--samples", "6",
                 "--models", "mean", "--epochs", "5", "--hidden", "4",
                 "--bootstrap", "100", "--report", str(report)]) == 2
    key = line.split(" =")[0]
    assert f"unknown config key {key!r}" in capsys.readouterr().err
    assert not report.exists()


def test_config_value_outside_choices_exits_2_before_running(
        tmp_path, capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the experiment ran")

    monkeypatch.setattr(cli, "run_experiment", unreachable)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("task = heteroscedastic\nformat = xml\n")
    assert main(["--config", str(cfg), "experiment",
                 "--report", str(tmp_path / "r.xml")]) == 2
    assert "config key format: 'xml'" in capsys.readouterr().err


def test_config_file_shared_by_gen_and_experiment(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("task = heteroscedastic\nsize = 8\nsamples = 6\n"
                   "n_centers = 2\nbatch_size = 4\nlearning_rate = 0.01\n"
                   "epochs = 5\nhidden = 4\nbootstrap_b = 100\nmodels = mean\n")
    out = tmp_path / "d.jsonl"
    assert main(["--config", str(cfg), "gen", "--out", str(out)]) == 0
    report = tmp_path / "r.csv"
    assert main(["--config", str(cfg), "experiment",
                 "--report", str(report)]) == 0
    assert [name for name, _ in parse_report_csv(report)] == ["oracle", "mean"]


@pytest.mark.parametrize("n_test", ["0", "1"])
def test_experiment_accepts_tiny_test_split(tmp_path, n_test):
    report = tmp_path / "r.csv"
    assert main(["experiment", "--task", "heteroscedastic", "--size", "8",
                 "--samples", "6", "--models", "mean", "--epochs", "5",
                 "--hidden", "4", "--bootstrap", "100", "--n-test", n_test,
                 "--report", str(report)]) == 0
    assert report.exists()


def test_sde_ball_test_points_stay_in_the_time_domain(tmp_path, capsys):
    # the ball around a t = 0 grid point reaches t < 0 at this seed; on
    # this serial path the test points are drawn before any model is trained
    report = tmp_path / "r.csv"
    assert main(["experiment", "--task", "sde", "--size", "100",
                 "--samples", "50", "--seed", "5", "--report", str(report),
                 "--models", "dnm", "--epochs", "5", "--hidden", "4",
                 "--n-centers", "2", "--bootstrap", "100"]) == 0
    assert dict(parse_report_csv(report))["dnm"].w1 > 0.0


def test_numeric_failure_in_reference_draws_exits_3(tmp_path, capsys,
                                                    monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("math domain error")

    monkeypatch.setattr(harness, "oracle_references", broken)
    assert main(["experiment", "--task", "heteroscedastic", "--size", "8",
                 "--samples", "6", "--models", "mean", "--epochs", "5",
                 "--bootstrap", "100", "--report",
                 str(tmp_path / "r.csv")]) == 3
    assert "[reference] math domain error" in capsys.readouterr().err


def test_prediction_failure_on_a_train_point_exits_3(tmp_path, capsys,
                                                     monkeypatch):
    """A mixing model's prediction error is an eval-stage runtime failure,
    whichever point it happens on, the first training point included."""
    def broken(*args, **kwargs):
        raise ValueError("math domain error")

    monkeypatch.setattr(harness, "dnm_predict", broken)
    assert main(["experiment", "--task", "heteroscedastic", "--size", "8",
                 "--samples", "6", "--models", "dnm", "--epochs", "5",
                 "--hidden", "4", "--n-centers", "2", "--bootstrap", "100",
                 "--report", str(tmp_path / "r.csv")]) == 3
    assert "[eval:dnm] math domain error" in capsys.readouterr().err


# model: (its own flags, how its divergence shows)
_DIVERGING = {
    "mean": ([], "non-finite parameters after 2 Adam steps"),
    "dgn": ([], "non-finite parameters after 2 Adam steps"),
    # the logits overflow while the parameters are still finite
    "dnm": (["--n-centers", "2"],
            "softmax input must be non-empty and finite at Adam step 2"),
    "mdn": (["--mdn-components", "2"],
            "softmax input must be non-empty and finite at Adam step 2"),
}


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("model", list(_DIVERGING))
def test_diverged_fit_is_a_training_failure(tmp_path, capsys, model):
    """A fit that overflows fails at its training stage, naming the
    divergence, not later when its predictions are scored."""
    flags, cause = _DIVERGING[model]
    assert main(["experiment", "--task", "heteroscedastic", "--size", "10",
                 "--samples", "20", "--models", model, *flags, "--epochs", "2",
                 "--lr", "1e300", "--report", str(tmp_path / "r.csv")]) == 3
    assert (f"failed: [train:{model}] training diverged: {cause}"
            in capsys.readouterr().err)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_diverged_train_command_exits_3(tmp_path, capsys):
    """``urcd train`` reports a diverging fit as a runtime failure, as
    ``urcd experiment`` does."""
    data = tmp_path / "d.jsonl"
    assert main(["gen", "--task", "heteroscedastic", "--size", "10",
                 "--samples", "20", "--out", str(data)]) == 0
    capsys.readouterr()
    assert main(["train", "--data", str(data), "--n", "2", "--epochs", "2",
                 "--lr", "1e300", "--out", str(tmp_path / "m.json")]) == 3
    assert capsys.readouterr().err == (
        "failed: training diverged: softmax input must be non-empty and "
        "finite at Adam step 2\n")
    assert not (tmp_path / "m.json").exists()


_OVERFLOWING_SDE = ["--task", "sde", "--drift-a1", "1e300", "--size", "10",
                    "--samples", "20"]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_gen_whose_draw_fails_writes_no_file(tmp_path, capsys):
    """The dataset's targets are drawn as the file is written; a draw that
    fails leaves neither the records nor the split behind."""
    assert main(["gen", *_OVERFLOWING_SDE, "--out", str(tmp_path / "F")]) == 2
    assert capsys.readouterr().err == "error: point coordinates must be finite\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_experiment_whose_draws_fail_fails_on_its_references(tmp_path,
                                                             capsys):
    """The references are the run's first draws, so they meet the overflow
    before any fit reads a training target."""
    assert main(["experiment", *_OVERFLOWING_SDE, "--models", "dnm,const",
                 "--n-centers", "2", "--epochs", "2",
                 "--report", str(tmp_path / "r.csv")]) == 3
    assert (capsys.readouterr().err
            == "failed: [reference] point coordinates must be finite\n")


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_eval_of_a_model_with_non_finite_weights_exits_2(tmp_path, capsys):
    """Such a model is bad input, though its softmax raises the error that
    a diverging fit reports as a training failure."""
    data, model = tmp_path / "data.jsonl", tmp_path / "model.json"
    data.write_text("".join(json.dumps(r) + "\n" for r in _RECORDS))
    assert main(["train", "--data", str(data), "--n", "2", "--epochs", "2",
                 "--hidden", "4", "--out", str(model)]) == 0
    saved = json.loads(model.read_text())
    saved["classifier"]["weights"][0][0][0] = float("inf")
    model.write_text(json.dumps(saved))
    capsys.readouterr()
    assert main(["eval", "--model", str(model), "--data", str(data)]) == 2
    assert (capsys.readouterr().err
            == "error: softmax input must be non-empty and finite\n")


def test_exit_code_3_on_runtime_failure(tmp_path, capsys):
    report = tmp_path / "no_such_dir" / "report.csv"
    code = main(["experiment", "--task", "heteroscedastic", "--d", "1",
                 "--size", "8", "--samples", "6", "--seed", "4",
                 "--models", "mean", "--report", str(report),
                 "--epochs", "5", "--hidden", "4", "--n-centers", "2",
                 "--n-test", "2", "--bootstrap", "200"])
    assert code == 3
    assert "failed" in capsys.readouterr().err


def test_bad_usage_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["gen"])          # --out is required
    assert exc.value.code == 2


def _modules_after(code, package):
    """The modules of `package` a fresh interpreter has loaded after running
    `code`."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code += ("\nimport json, sys; print(json.dumps(sorted(m for m in sys.modules"
             f" if m == {package!r} or m.startswith({package + '.'!r}))))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def _scipy_modules_after(code):
    """The `scipy` modules a fresh interpreter has loaded after running `code`."""
    return _modules_after(code, "scipy")


def _loaded_by_cli_import(module):
    """Whether a fresh interpreter has the module `module` loaded after
    `import urcd.cli`."""
    return module in _modules_after("import urcd.cli", module.split(".")[0])


def test_import_loads_no_scipy():
    # bca_interval, w1_exact's assignment path and `rates --nq` import what
    # they need of scipy at their first call; `import urcd.cli` loads none
    assert _scipy_modules_after("import urcd.cli") == []


def test_gen_train_rates_load_no_scipy(tmp_path):
    data, model = tmp_path / "data.jsonl", tmp_path / "model.json"
    code = f"""
from urcd.cli import main
assert main(["gen", "--task", "heteroscedastic", "--d", "1", "--size", "10",
             "--samples", "8", "--seed", "1", "--out", {str(data)!r}]) == 0
assert main(["train", "--data", {str(data)!r}, "--n", "2", "--out",
             {str(model)!r}, "--epochs", "15", "--hidden", "6"]) == 0
assert main(["rates", "--neps", "--eps", "0.1", "--d", "2"]) == 0
"""
    assert _scipy_modules_after(code) == []
    assert model.exists()


def test_import_does_not_load_scipy_stats():
    # scipy.stats takes most of a second to import; the CLI needs none of it
    assert not _loaded_by_cli_import("scipy.stats")


def test_import_does_not_load_scipy_optimize():
    # w1_exact imports scipy.optimize only for the pairs it sends to
    # linear_sum_assignment; at module level it would add ~0.2 s here
    assert not _loaded_by_cli_import("scipy.optimize")


@pytest.mark.parametrize("module", ["multiprocessing", "concurrent"])
def test_import_loads_no_process_pool(module):
    # run_experiment forks its fitting processes with os.fork and pipes
    assert not _loaded_by_cli_import(module)
