"""The CLI surface: flag spellings, config keys and the settings they set.

Every setting that a config file can supply must build the same config
object by flag and by config key, and must set the field it names and no
other.  The captured objects come from monkeypatching the calls the
commands make (`generate`, `train_dnm`, `run_experiment`, `emit_report`,
`n_epsilon`, `n_quantizer`), so nothing is generated or trained.
"""

import argparse
import dataclasses

import pytest

from urcd import cli
from urcd.cli import build_parser, main

# (flag, config key, text, dataclass field, value), on top of --task mc_dropout
GEN_CASES = [
    ("--d", "d", "3", "d", 3),
    ("--dim-out", "dim_out", "2", "D", 2),
    ("--size", "size", "7", "size", 7),
    ("--samples", "samples", "7", "S", 7),
    ("-S", "samples", "9", "S", 9),
    ("--seed", "seed", "4", "seed", 4),
    ("--base-depth", "base_depth", "2", "base_depth", 2),
    ("--base-width", "base_width", "3", "base_width", 3),
    ("--dropout-rate", "dropout_rate", "0.25", "dropout_rate", 0.25),
    ("--elm-width", "elm_width", "5", "elm_width", 5),
    ("--elm-depth", "elm_depth", "2", "elm_depth", 2),
    ("--elm-lambda", "elm_lambda", "0.5", "elm_lambda", 0.5),
    ("--elm-m", "elm_m", "2.5", "elm_M", 2.5),
    ("--sde-drift", "sde_drift", "linear", "sde_drift", "linear"),
    ("--sde-diffusion", "sde_diffusion", "linear", "sde_diffusion", "linear"),
    ("--drift-a0", "drift_a0", "0.5", "drift_a0", 0.5),
    ("--drift-a1", "drift_a1", "-2.5", "drift_a1", -2.5),
    ("--diffusion-b0", "diffusion_b0", "0.5", "diffusion_b0", 0.5),
    ("--diffusion-b1", "diffusion_b1", "0.25", "diffusion_b1", 0.25),
    ("--n-steps", "n_steps", "7", "n_steps", 7),
    ("--t-max", "t_max", "2.5", "t_max", 2.5),
    ("--x-max", "x_max", "2.5", "x_max", 2.5),
]
# the network settings train and experiment share
NET_CASES = [
    ("--hidden", "hidden", "4,5", "hidden_dims", (4, 5)),
    ("--epochs", "epochs", "7", "epochs", 7),
    ("--batch", "batch_size", "8", "batch_size", 8),
    ("--lr", "learning_rate", "0.5", "learning_rate", 0.5),
]
TRAIN_CASES = NET_CASES + [
    ("--n", "n_centers", "3", "n_centers", 3),
    ("--activation", "activation", "tanh", "activation", "tanh"),
    ("--seed", "seed", "4", "seed", 4),
]
EXPERIMENT_CASES = NET_CASES + [
    ("--n-centers", "n_centers", "3", "n_centers", 3),
    ("--mdn-components", "mdn_components", "2", "mdn_components", 2),
    ("--n-test", "n_test", "3", "n_test", 3),
    ("--bootstrap", "bootstrap_b", "300", "bootstrap_b", 300),
]
# (flag, config key, text, RateParams field or n_quantizer argument, value)
RATES_CASES = [
    ("--d", "d", "2", "d", 2),
    ("--hoelder-a", "hoelder_a", "2.5", "A", 2.5),
    ("--hoelder-alpha", "hoelder_alpha", "0.5", "alpha", 0.5),
    ("--diam", "diam", "2.5", "diam", 2.5),
    ("--dim-out", "dim_out", "3", "D", 3),
    ("--radius", "radius", "2.5", "M", 2.5),
]


class Captured(Exception):
    """Raised by a patched call, carrying what the command passed to it."""


def _raise(*args, **kwargs):
    raise Captured(args, kwargs)


@pytest.fixture
def capture(monkeypatch, tmp_path):
    """Run argv (plus an optional config file) and return the arguments of
    the first patched call it reaches."""
    monkeypatch.setattr(cli, "generate", _raise)
    monkeypatch.setattr(cli, "train_dnm", _raise)
    monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: (a, k))
    monkeypatch.setattr(cli, "emit_report", _raise)
    monkeypatch.setattr(cli, "n_epsilon", _raise)
    monkeypatch.setattr(cli, "n_quantizer", _raise)

    def run(argv, config=None):
        pre = []
        if config is not None:
            path = tmp_path / "run.cfg"
            path.write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
            pre = ["--config", str(path)]
        with pytest.raises(Captured) as exc:
            main(pre + argv)
        return exc.value.args

    return run


@pytest.fixture(scope="module")
def data_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "d.jsonl"
    assert main(["gen", "--task", "heteroscedastic", "--size", "6",
                 "--samples", "4", "--out", str(path)]) == 0
    return str(path)


def _gen_cfg(captured):
    (gen_cfg,), _ = captured
    return gen_cfg


def _train_settings(captured):
    """{setting: value} of a captured train_dnm(data, n_centers, cfg, seed)."""
    (_, n_centers, cfg, seed), _ = captured
    return {**dataclasses.asdict(cfg), "n_centers": n_centers, "seed": seed}


def _experiment(captured):
    """(GeneratorConfig, model list, seed, HarnessConfig, report format)."""
    (((gen_cfg, models, seed, harness), _), fmt, _), _ = captured
    return gen_cfg, models, seed, harness, fmt


@pytest.mark.parametrize("flag, key, text, field, value", GEN_CASES)
def test_gen_flag_and_config_key_set_one_field(capture, flag, key, text,
                                               field, value):
    base = ["gen", "--task", "mc_dropout", "--out", "unused.jsonl"]
    default = _gen_cfg(capture(base))
    by_flag = _gen_cfg(capture(base + [flag, text]))
    by_key = _gen_cfg(capture(base, {key: text}))
    assert by_flag == by_key == dataclasses.replace(default, **{field: value})


@pytest.mark.parametrize("flag, key, text, field, value", GEN_CASES)
def test_experiment_generator_flags_match_gen(capture, flag, key, text,
                                              field, value):
    base = ["experiment", "--task", "mc_dropout", "--report", "unused.csv"]
    default = _experiment(capture(base))[0]
    by_flag = _experiment(capture(base + [flag, text]))[0]
    by_key = _experiment(capture(base, {key: text}))[0]
    assert by_flag == by_key == dataclasses.replace(default, **{field: value})


@pytest.mark.parametrize("text, task", [("mc-dropout", "mc_dropout"),
                                        ("mc_dropout", "mc_dropout"),
                                        ("heteroscedastic", "heteroscedastic")])
def test_task_by_flag_or_config_key(capture, text, task):
    base = ["gen", "--out", "unused.jsonl"]
    by_flag = _gen_cfg(capture(base + ["--task", text]))
    by_key = _gen_cfg(capture(base, {"task": text}))
    assert by_flag == by_key
    assert by_flag.task == task


@pytest.mark.parametrize("argv, d, D", [
    (["--task", "heteroscedastic"], 1, 1),
    (["--task", "mc_dropout"], 1, 1),
    (["--task", "elm"], 11, 1),
    (["--task", "sde"], 1, 1),
    (["--task", "sde", "--d", "3"], 3, 3),
    (["--task", "mc_dropout", "--d", "3"], 3, 1),
])
def test_task_dependent_defaults(capture, argv, d, D):
    cfg = _gen_cfg(capture(["gen", "--out", "unused.jsonl"] + argv))
    assert (cfg.d, cfg.D) == (d, D)
    cfg = _experiment(capture(["experiment", "--report", "r.csv"] + argv))[0]
    assert (cfg.d, cfg.D) == (d, D)


@pytest.mark.parametrize("flag, key, text, field, value", TRAIN_CASES)
def test_train_flag_and_config_key_set_one_field(capture, data_file, flag, key,
                                                 text, field, value):
    base = ["train", "--data", data_file, "--out", "unused.json"]
    n = [] if key == "n_centers" else ["--n", "2"]
    default = _train_settings(capture(base + ["--n", "2"]))
    by_flag = _train_settings(capture(base + n + [flag, text]))
    by_key = _train_settings(capture(base + n, {key: text}))
    assert by_flag == by_key == {**default, field: value}


@pytest.mark.parametrize("flag, key, text, field, value", EXPERIMENT_CASES + [
    ("--timings", "timings", None, "timings", True),
])
def test_experiment_flag_and_config_key_set_one_field(capture, flag, key, text,
                                                      field, value):
    base = ["experiment", "--task", "heteroscedastic", "--report", "r.csv"]
    default = _experiment(capture(base))[3]
    by_flag = _experiment(capture(base + [flag] + ([text] if text else [])))[3]
    by_key = _experiment(capture(base, {key: text or "true"}))[3]
    assert by_flag == by_key == dataclasses.replace(default, **{field: value})


def test_config_switch_words_in_any_case(capture):
    base = ["experiment", "--task", "heteroscedastic", "--report", "r.csv"]
    for text, value in (("1", True), ("True", True), ("YES", True),
                        ("on", True), ("0", False), ("false", False),
                        ("No", False), ("OFF", False)):
        assert _experiment(capture(base, {"timings": text}))[3].timings is value


def test_experiment_models_and_format(capture):
    base = ["experiment", "--task", "heteroscedastic", "--report", "r.csv"]
    _, models, seed, _, fmt = _experiment(capture(base))
    assert (models, seed, fmt) == (["dnm", "mdn", "dgn", "mean", "oracle"], 0,
                                   "csv")
    for captured in (capture(base + ["--models", "dnm, mean", "--format", "json",
                                     "--seed", "3"]),
                     capture(base, {"models": "dnm, mean", "format": "json",
                                    "seed": "3"})):
        _, models, seed, _, fmt = _experiment(captured)
        assert (models, seed, fmt) == (["dnm", "mean"], 3, "json")


@pytest.mark.parametrize("flag, key, text, field, value", RATES_CASES)
def test_rates_flag_and_config_key(capture, flag, key, text, field, value):
    if field in ("D", "M"):
        base = ["rates", "--nq", "--eps", "0.5"]
        default = dict(zip(("eps", "D", "M"), capture(base)[0]))
        by_flag = dict(zip(("eps", "D", "M"), capture(base + [flag, text])[0]))
        by_key = dict(zip(("eps", "D", "M"), capture(base, {key: text})[0]))
        assert default == {"eps": 0.5, "D": 1, "M": 1.0}
        assert by_flag == by_key == {**default, field: value}
        return
    base = ["rates", "--neps", "--eps", "0.5"]
    (default, eps), _ = capture(base)
    (by_flag, _), _ = capture(base + [flag, text])
    (by_key, _), _ = capture(base, {key: text})
    assert eps == 0.5
    assert (default.A, default.alpha, default.diam, default.d) == (
        1.0, 1.0, 1.0, 1)
    assert by_flag == by_key == dataclasses.replace(default, **{field: value})


@pytest.mark.parametrize("argv, config", [
    (["gen", "--task", "heteroscedastic", "--size", "x"], None),
    (["gen", "--task", "heteroscedastic"], {"size": "x"}),
    (["gen", "--task", "heteroscedastic", "--dropout-rate", "1.5"], None),
    (["gen", "--task", "heteroscedastic"], {"dropout_rate": "1.5"}),
    (["experiment", "--task", "heteroscedastic", "--hidden", "a"], None),
    (["experiment", "--task", "heteroscedastic"], {"hidden": "a"}),
    (["experiment", "--task", "heteroscedastic", "--bootstrap", "50"], None),
    (["experiment", "--task", "heteroscedastic"], {"bootstrap_b": "50"}),
    (["experiment", "--task", "heteroscedastic", "--format", "xml"], None),
    (["gen", "--task", "nope"], None),
    (["gen"], {"task": "nope"}),
    (["rates", "--neps", "--eps", "1", "--d", "x"], None),
    (["rates", "--neps", "--eps", "1"], {"d": "x"}),
])
def test_bad_value_by_flag_or_config_exits_2(tmp_path, capsys, argv, config):
    pre = []
    if config is not None:
        path = tmp_path / "run.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
        pre = ["--config", str(path)]
    if argv[0] == "gen":
        argv = argv + ["--out", str(tmp_path / "d.jsonl")]
    elif argv[0] == "experiment":
        argv = argv + ["--report", str(tmp_path / "r.csv")]
    try:
        code = main(pre + argv)
    except SystemExit as exc:          # argparse rejects the flag value
        code = exc.code
    assert code == 2


def _surface(parser):
    """{subcommand: sorted (option strings, dest, type, choices, help,
    required, default)} of every optional argument."""
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    out = {}
    for name, p in sub.choices.items():
        out[name] = sorted(
            (tuple(a.option_strings), a.dest,
             getattr(a.type, "__name__", a.type), a.choices, a.help,
             a.required, a.default, type(a).__name__)
            for a in p._actions if a.option_strings and a.dest != "help")
    return out


NONE = (None, None, False, None, "_StoreAction")
INT = ("int",) + NONE[:-1] + ("_StoreAction",)
FLOAT = ("float",) + NONE[:-1] + ("_StoreAction",)
STR = (None,) + NONE[:-1] + ("_StoreAction",)
TASK_CHOICES = ("heteroscedastic", "mc-dropout", "mc_dropout", "elm", "sde")
GEN_SURFACE = [
    (("--base-depth",), "base_depth", *INT),
    (("--base-width",), "base_width", *INT),
    (("--d",), "d", *INT),
    (("--diffusion-b0",), "diffusion_b0", *FLOAT),
    (("--diffusion-b1",), "diffusion_b1", *FLOAT),
    (("--dim-out",), "dim_out", *INT),
    (("--drift-a0",), "drift_a0", *FLOAT),
    (("--drift-a1",), "drift_a1", *FLOAT),
    (("--dropout-rate",), "dropout_rate", *FLOAT),
    (("--elm-depth",), "elm_depth", *INT),
    (("--elm-lambda",), "elm_lambda", *FLOAT),
    (("--elm-m",), "elm_m", *FLOAT),
    (("--elm-width",), "elm_width", *INT),
    (("--n-steps",), "n_steps", *INT),
    (("--samples", "-S"), "samples", *INT),
    (("--sde-diffusion",), "sde_diffusion", *STR),
    (("--sde-drift",), "sde_drift", *STR),
    (("--seed",), "seed", *INT),
    (("--size",), "size", *INT),
    (("--t-max",), "t_max", *FLOAT),
    (("--task",), "task", None, TASK_CHOICES, None, False, None,
     "_StoreAction"),
    (("--x-max",), "x_max", *FLOAT),
]
NET_SURFACE = [
    (("--batch",), "batch_size", *INT),
    (("--epochs",), "epochs", *INT),
    (("--hidden",), "hidden", *STR),
    (("--lr",), "learning_rate", *FLOAT),
]
SURFACE = {
    "gen": sorted(GEN_SURFACE + [
        (("--describe",), "describe", None, None,
         "print the generator parameterization", False, False,
         "_StoreTrueAction"),
        (("--out",), "out", None, None, None, True, None, "_StoreAction"),
    ]),
    "train": sorted(NET_SURFACE + [
        (("--activation",), "activation", *STR),
        (("--data",), "data", None, None, None, True, None, "_StoreAction"),
        (("--n",), "n_centers", *INT),
        (("--out",), "out", None, None, None, True, None, "_StoreAction"),
        (("--seed",), "seed", *INT),
    ]),
    "eval": [
        (("--data",), "data", None, None, None, True, None, "_StoreAction"),
        (("--model",), "model", None, None, None, True, None, "_StoreAction"),
    ],
    "experiment": sorted(GEN_SURFACE + NET_SURFACE + [
        (("--bootstrap",), "bootstrap_b", *INT),
        (("--format",), "format", None, ("csv", "json"), None, False, None,
         "_StoreAction"),
        (("--mdn-components",), "mdn_components", *INT),
        (("--models",), "models", None, None,
         "comma list: dnm,const,mdn,dgn,mean,oracle", False, None,
         "_StoreAction"),
        (("--n-centers",), "n_centers", *INT),
        (("--n-test",), "n_test", *INT),
        (("--report",), "report", None, None, None, True, None,
         "_StoreAction"),
        (("--timings",), "timings", None, None,
         "fill in wall-clock timing columns (makes reports non-reproducible)",
         False, None, "_StoreTrueAction"),
    ]),
    "rates": sorted([
        (("--d",), "d", *INT),
        (("--diam",), "diam", *FLOAT),
        (("--dim-out",), "dim_out", *INT),
        (("--eps",), "eps", "float", None, None, True, None, "_StoreAction"),
        (("--hoelder-a",), "hoelder_a", *FLOAT),
        (("--hoelder-alpha",), "hoelder_alpha", *FLOAT),
        (("--neps",), "neps", None, None, "atom count for a Hoelder target",
         False, False, "_StoreTrueAction"),
        (("--nq",), "nq", None, None,
         "quantizer atom count on a bounded support", False, False,
         "_StoreTrueAction"),
        (("--radius",), "radius", *FLOAT),
    ]),
}


def test_option_strings_types_choices_and_help_of_every_subcommand():
    parser = build_parser()
    assert _surface(parser) == SURFACE
    config = next(a for a in parser._actions if a.dest == "config")
    assert (config.option_strings, config.help) == (
        ["--config"], "flat key = value defaults file")


# `urcd eval` output for the dataset and model of the CLI pipeline test; the
# generator puts every entry in the training split, and without its split
# file the dataset falls back to the 80/20 head/tail split
EVAL_STDOUT = {
    True: "split,points,W1,M\n"
          "train,10,0.33771596900300904,0.22823150052079216\n"
          "worst,,0.33771596900300904,0.22823150052079216\n",
    False: "split,points,W1,M\n"
           "train,8,0.3391145095952347,0.2643442048303113\n"
           "test,2,0.3321218066341061,0.0837806832827156\n"
           "worst,,0.3391145095952347,0.2643442048303113\n",
}


@pytest.mark.parametrize("split_file", [True, False])
def test_eval_stdout_on_the_pipeline_dataset(tmp_path, capsys, split_file):
    data = tmp_path / "data.jsonl"
    model = tmp_path / "model.json"
    assert main(["gen", "--task", "heteroscedastic", "--d", "1",
                 "--size", "10", "--samples", "8", "--seed", "1",
                 "--out", str(data)]) == 0
    assert main(["train", "--data", str(data), "--n", "2",
                 "--out", str(model), "--epochs", "15", "--hidden", "6",
                 "--seed", "0"]) == 0
    if not split_file:
        (tmp_path / "data.jsonl.split.json").unlink()
    capsys.readouterr()
    assert main(["eval", "--model", str(model), "--data", str(data)]) == 0
    assert capsys.readouterr().out == EVAL_STDOUT[split_file]
