"""Command-line interface.

Subcommands: gen (write a dataset), train (fit a mixture model), eval
(score a saved model against a dataset's stored targets), experiment
(full benchmark run emitting a metrics table), rates (closed-form atom
counts).

Each setting is declared once, as a row of its command's table: its flag
spellings, its config key (the flag's dest), the keyword it fills and its
cast from text.  Every such setting can also be supplied through ``--config
FILE`` holding flat ``key = value`` lines; the key is the long flag name
without dashes, except for n_centers (``--n``), batch_size (``--batch``),
learning_rate (``--lr``) and bootstrap_b (``--bootstrap``).  Explicit flags
win, and a key that no command reads is an error.  Exit codes: 0 success, 2
configuration error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from typing import NamedTuple

import numpy as np

from urcd.datagen import TASKS, GeneratorConfig, generate
from urcd.dnm import (
    RateParams,
    dnm_predict,
    load_dnm,
    n_epsilon,
    n_quantizer,
    save_dnm,
)
from urcd.harness import (
    CSV_HEADER,
    KNOWN_MODELS,
    HarnessConfig,
    emit_report,
    eval_model,
    metrics_csv_row,
    run_experiment,
    worst_split,
)
from urcd.neural import NetConfig
from urcd.training import load_dataset, save_dataset, train_dnm


class ConfigError(Exception):
    pass


class Setting(NamedTuple):
    """A setting that a flag or a config-file key can supply."""

    flags: tuple        # option strings
    key: str            # config key and argparse dest
    name: str           # the config field or keyword it fills
    cast: object        # from text; argparse casts int and float flags itself
    extra: dict         # further add_argument keywords (choices, help)


def _row(flags: str, name: str, cast=str, key=None, **extra) -> Setting:
    flags = tuple(flags.split())
    return Setting(flags, key or flags[0][2:].replace("-", "_"), name, cast,
                   extra)


def _hidden(text) -> tuple:
    try:
        return tuple(int(t) for t in str(text).split(",") if t.strip())
    except ValueError as exc:
        raise ConfigError(f"bad hidden-layer list {text!r}") from exc


# rows that more than one table holds
_D, _DIM_OUT, _SEED = (_row("--d", "d", int), _row("--dim-out", "D", int),
                       _row("--seed", "seed", int))
# generator settings, read by gen and experiment
_GEN = (
    # each task by its name and, where that differs, with dashes for underscores
    _row("--task", "task", lambda t: t.replace("-", "_"),
         choices=tuple(spelling for task in TASKS for spelling in
                       dict.fromkeys((task.replace("_", "-"), task)))),
    _D, _DIM_OUT, _row("--size", "size", int), _row("--samples -S", "S", int),
    _SEED, _row("--base-depth", "base_depth", int),
    _row("--base-width", "base_width", int),
    _row("--dropout-rate", "dropout_rate", float),
    _row("--elm-width", "elm_width", int), _row("--elm-depth", "elm_depth", int),
    _row("--elm-lambda", "elm_lambda", float),
    _row("--elm-m", "elm_M", float),
    _row("--sde-drift", "sde_drift"), _row("--sde-diffusion", "sde_diffusion"),
    _row("--drift-a0", "drift_a0", float), _row("--drift-a1", "drift_a1", float),
    _row("--diffusion-b0", "diffusion_b0", float),
    _row("--diffusion-b1", "diffusion_b1", float),
    _row("--n-steps", "n_steps", int), _row("--t-max", "t_max", float),
    _row("--x-max", "x_max", float),
)
# network settings, read by train and experiment
_NET = (
    _row("--hidden", "hidden_dims", _hidden), _row("--epochs", "epochs", int),
    _row("--batch", "batch_size", int, key="batch_size"),
    _row("--lr", "learning_rate", float, key="learning_rate"),
)
_TRAIN = (_row("--n", "n_centers", int, key="n_centers"), *_NET,
          _row("--activation", "activation"), _SEED)
# the experiment's own settings; it reads the generator settings too
_EXPERIMENT = (
    _row("--models", "models",
         help="comma list: " + ",".join(KNOWN_MODELS)),
    _row("--format", "format", choices=("csv", "json")),
    _row("--n-centers", "n_centers", int),
    _row("--mdn-components", "mdn_components", int), *_NET,
    _row("--n-test", "n_test", int),
    _row("--bootstrap", "bootstrap_b", int, key="bootstrap_b"),
    _row("--timings", "timings", bool,
         help="fill in wall-clock timing columns "
              "(makes reports non-reproducible)"),
)
_RATES = (
    _D, _row("--hoelder-a", "A", float), _row("--hoelder-alpha", "alpha", float),
    _row("--diam", "diam", float), _DIM_OUT, _row("--radius", "M", float),
)


def _read_config(path) -> dict:
    values = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, val = line.split("=", 1)
                key = key.strip().replace("-", "_")
                if key not in _KNOWN_KEYS:
                    raise ConfigError(f"{path}:{lineno}: unknown config key "
                                      f"{key!r}")
                values[key] = val.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    return values


def _given(args, cfg: dict, table) -> dict:
    """{name: value} for the settings of the table set by flag or config file.

    A flag wins over the config file; text (an untyped flag or any
    config-file value) goes through the row's cast, and the row's choices
    bind config-file values as argparse binds flags.  Unset settings are
    left out, so the config object supplies its own default."""
    given = {}
    for s in table:
        raw = getattr(args, s.key)
        if raw is None:
            raw = cfg.get(s.key)
            choices = s.extra.get("choices")
            if raw is not None and choices and raw not in choices:
                raise ConfigError(f"config key {s.key}: {raw!r} is not one of "
                                  f"{choices}")
        if isinstance(raw, str):
            try:
                if s.cast is bool:
                    on, off = ("1", "true", "yes", "on"), ("0", "false", "no", "off")
                    if raw.lower() not in on + off:
                        raise ValueError(f"{raw!r} is not one of {on + off}")
                    raw = raw.lower() in on
                else:
                    raw = s.cast(raw)
            except ValueError as exc:
                raise ConfigError(f"config key {s.key}: {exc}") from exc
        if raw is not None:
            given[s.name] = raw
    return given


def _gen_config(args, cfg) -> GeneratorConfig:
    given = _given(args, cfg, _GEN)
    if "task" not in given:
        raise ConfigError("a task is required (--task)")
    return GeneratorConfig(**given)


def _cmd_gen(args, cfg) -> int:
    gen_cfg = _gen_config(args, cfg)
    if args.describe:
        print(gen_cfg.describe())
    data, _ = generate(gen_cfg)
    save_dataset(data, args.out)
    print(f"wrote {len(data.entries)} entries to {args.out}")
    return 0


def _cmd_train(args, cfg) -> int:
    given = _given(args, cfg, _TRAIN)
    if "n_centers" not in given:
        raise ConfigError("the atom count is required (--n)")
    n_centers, seed = given.pop("n_centers"), given.pop("seed", 0)
    net_cfg = NetConfig(**given)
    data = load_dataset(args.data)
    model, log = train_dnm(data, n_centers, net_cfg, seed)
    save_dnm(model, args.out)
    print(f"trained on {len(data.train_idx)} points; "
          f"final loss {log.final_loss:.6g}; "
          f"label accuracy {log.final_accuracy:.3f}; wrote {args.out}")
    return 0


def _cmd_eval(args, cfg) -> int:
    model = load_dnm(args.model)
    data = load_dataset(args.data)
    dims = (model.classifier.layer_dims[0], model.output_dim)
    if (data.input_dim, data.output_dim) != dims:
        raise ValueError(
            f"{args.model} maps R^{dims[0]} to measures on R^{dims[1]}, but "
            f"{args.data} has inputs in R^{data.input_dim} and targets in "
            f"R^{data.output_dim}")
    n_train = len(data.train_idx)
    w1s, ms, _ = eval_model(lambda x: dnm_predict(model, x), data.entries,
                            (*data.train_idx, *data.test_idx))
    print("split,points,W1,M")
    for split, w1, m in (("train", w1s[:n_train], ms[:n_train]),
                         ("test", w1s[n_train:], ms[n_train:])):
        if len(w1):
            print(f"{split},{len(w1)},{float(np.mean(w1))!r},"
                  f"{float(np.mean(m))!r}")
    print(f"worst,,{worst_split(w1s, n_train)[0]!r},"
          f"{worst_split(ms, n_train)[0]!r}")
    return 0


def _cmd_experiment(args, cfg) -> int:
    gen_cfg = _gen_config(args, cfg)
    given = _given(args, cfg, _EXPERIMENT)
    models = given.pop("models", "dnm,mdn,dgn,mean,oracle")
    fmt = given.pop("format", "csv")
    model_list = [m.strip() for m in models.split(",") if m.strip()]
    report = run_experiment(gen_cfg, model_list, gen_cfg.seed,
                            HarnessConfig(**given))
    emit_report(report, fmt, args.report)
    print(CSV_HEADER)
    for name, metrics in report.rows:
        print(metrics_csv_row(name, metrics))
    print(f"report written to {args.report}")
    return 0


def _cmd_rates(args, cfg) -> int:
    given = {"A": 1.0, "alpha": 1.0, "diam": 1.0, "d": 1, "D": 1, "M": 1.0,
             **_given(args, cfg, _RATES)}
    D, M = given.pop("D"), given.pop("M")
    if args.neps:
        print(n_epsilon(RateParams(**given), args.eps))
    else:
        print(n_quantizer(args.eps, D, M))
    return 0


# command: (run, help, settings a flag or the config file can supply)
_COMMANDS = {
    "gen": (_cmd_gen, "generate a dataset file", _GEN),
    "train": (_cmd_train, "train a mixture model", _TRAIN),
    "eval": (_cmd_eval, "score a model against a dataset", ()),
    "experiment": (_cmd_experiment, "run a full benchmark",
                   _GEN + _EXPERIMENT),
    "rates": (_cmd_rates, "closed-form model-size counts", _RATES),
}
_KNOWN_KEYS = {s.key for _, _, table in _COMMANDS.values() for s in table}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="urcd",
        description="Measure-valued regression models and benchmarks.")
    parser.add_argument("--config", help="flat key = value defaults file")
    sub = parser.add_subparsers(dest="command", required=True)
    cmd = {}
    for name, (_, help_text, table) in _COMMANDS.items():
        cmd[name] = sub.add_parser(name, help=help_text)
        for s in table:
            if s.cast is bool:
                kind = {"action": "store_true", "default": None}
            else:
                kind = {"type": s.cast if s.cast in (int, float) else None}
            cmd[name].add_argument(*s.flags, dest=s.key, **kind, **s.extra)

    cmd["gen"].add_argument("--out", required=True)
    cmd["gen"].add_argument("--describe", action="store_true",
                            help="print the generator parameterization")
    for name, flags in (("train", ("--data", "--out")),
                        ("eval", ("--model", "--data")),
                        ("experiment", ("--report",))):
        for flag in flags:
            cmd[name].add_argument(flag, required=True)
    mode = cmd["rates"].add_mutually_exclusive_group(required=True)
    mode.add_argument("--neps", action="store_true",
                      help="atom count for a Hoelder target")
    mode.add_argument("--nq", action="store_true",
                      help="quantizer atom count on a bounded support")
    cmd["rates"].add_argument("--eps", type=float, required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _read_config(args.config) if args.config else {}
        return _COMMANDS[args.command][0](args, cfg)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, OSError) as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
