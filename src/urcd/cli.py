"""Command-line interface.

Subcommands: gen (write a dataset), train (fit a mixture model), eval
(score a saved model against a dataset's stored targets), experiment
(full benchmark run emitting a metrics table), rates (closed-form atom
counts).

Every flag can also be supplied through ``--config FILE`` holding flat
``key = value`` lines (keys match the long flag names without dashes);
explicit flags win.  Exit codes: 0 success, 2 configuration error, 3
runtime failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from urcd.datagen import GeneratorConfig, generate
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
    HarnessConfig,
    emit_report,
    metrics_csv_row,
    run_experiment,
)
from urcd.measures import w1_cost
from urcd.training import TrainConfig, load_dataset, save_dataset, train_dnm


class ConfigError(Exception):
    pass


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
                values[key.strip().replace("-", "_")] = val.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    return values


def _pick(args, cfg: dict, key: str, default, cast=str):
    """Flag value, else config-file value, else the built-in default.

    Text (an untyped flag or any config-file value) goes through `cast`."""
    raw = getattr(args, key, None)
    if raw is None:
        raw = cfg.get(key)
    if not isinstance(raw, str):
        return default if raw is None else raw
    try:
        if cast is bool:
            return raw.lower() in ("1", "true", "yes", "on")
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"config key {key}: {exc}") from exc


def _given(args, cfg: dict, keys: dict) -> dict:
    """Keyword arguments for the keys set by flag or config file.

    keys maps a flag / config key to (field name, cast).  Unset keys are
    left out, so the dataclass supplies its own default."""
    given = {}
    for key, (name, cast) in keys.items():
        value = _pick(args, cfg, key, None, cast)
        if value is not None:
            given[name] = value
    return given


def _hidden(text) -> tuple:
    try:
        return tuple(int(t) for t in str(text).split(",") if t.strip())
    except ValueError as exc:
        raise ConfigError(f"bad hidden-layer list {text!r}") from exc


# flag / config key -> (dataclass field, cast from text)
_GEN_KEYS = {
    "size": ("size", int), "samples": ("S", int), "seed": ("seed", int),
    "base_depth": ("base_depth", int), "base_width": ("base_width", int),
    "dropout_rate": ("dropout_rate", float),
    "elm_width": ("elm_width", int), "elm_depth": ("elm_depth", int),
    "elm_lambda": ("elm_lambda", float), "elm_m": ("elm_M", float),
    "sde_drift": ("sde_drift", str), "sde_diffusion": ("sde_diffusion", str),
    "drift_a0": ("drift_a0", float), "drift_a1": ("drift_a1", float),
    "diffusion_b0": ("diffusion_b0", float),
    "diffusion_b1": ("diffusion_b1", float),
    "n_steps": ("n_steps", int), "t_max": ("t_max", float),
    "x_max": ("x_max", float),
}
# keys the train and experiment commands share
_SHARED_KEYS = {
    "hidden": ("hidden_dims", _hidden), "epochs": ("epochs", int),
    "batch_size": ("batch_size", int), "learning_rate": ("learning_rate", float),
    "n_centers": ("n_centers", int),
}
_TRAIN_KEYS = {
    **_SHARED_KEYS, "activation": ("activation", str), "seed": ("seed", int),
    "strategy": ("center_strategy", str),
}
_EXPERIMENT_KEYS = {
    **_SHARED_KEYS, "mdn_components": ("mdn_components", int),
    "n_test": ("n_test", int), "bootstrap_b": ("bootstrap_b", int),
    "timings": ("timings", bool),
}


def _gen_config(args, cfg) -> GeneratorConfig:
    task = _pick(args, cfg, "task", None)
    if task is None:
        raise ConfigError("a task is required (--task)")
    task = task.replace("-", "_")
    d = _pick(args, cfg, "d", 11 if task == "elm" else 1, int)
    D = _pick(args, cfg, "dim_out", d if task == "sde" else 1, int)
    return GeneratorConfig(task=task, d=d, D=D,
                           **_given(args, cfg, _GEN_KEYS))


def _add_gen_flags(p):
    p.add_argument("--task", choices=("heteroscedastic", "mc-dropout", "mc_dropout",
                                      "elm", "sde"))
    p.add_argument("--d", type=int)
    p.add_argument("--dim-out", dest="dim_out", type=int)
    p.add_argument("--size", type=int)
    p.add_argument("--samples", "-S", dest="samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--base-depth", dest="base_depth", type=int)
    p.add_argument("--base-width", dest="base_width", type=int)
    p.add_argument("--dropout-rate", dest="dropout_rate", type=float)
    p.add_argument("--elm-width", dest="elm_width", type=int)
    p.add_argument("--elm-depth", dest="elm_depth", type=int)
    p.add_argument("--elm-lambda", dest="elm_lambda", type=float)
    p.add_argument("--elm-m", dest="elm_m", type=float)
    p.add_argument("--sde-drift", dest="sde_drift")
    p.add_argument("--sde-diffusion", dest="sde_diffusion")
    p.add_argument("--drift-a0", dest="drift_a0", type=float)
    p.add_argument("--drift-a1", dest="drift_a1", type=float)
    p.add_argument("--diffusion-b0", dest="diffusion_b0", type=float)
    p.add_argument("--diffusion-b1", dest="diffusion_b1", type=float)
    p.add_argument("--n-steps", dest="n_steps", type=int)
    p.add_argument("--t-max", dest="t_max", type=float)
    p.add_argument("--x-max", dest="x_max", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="urcd",
        description="Measure-valued regression models and benchmarks.")
    parser.add_argument("--config", help="flat key = value defaults file")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a dataset file")
    _add_gen_flags(p_gen)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--describe", action="store_true",
                       help="print the generator parameterization")

    p_train = sub.add_parser("train", help="train a mixture model")
    p_train.add_argument("--data", required=True)
    p_train.add_argument("--n", dest="n_centers", type=int)
    p_train.add_argument("--out", required=True)
    p_train.add_argument("--hidden")
    p_train.add_argument("--activation")
    p_train.add_argument("--epochs", type=int)
    p_train.add_argument("--batch", dest="batch_size", type=int)
    p_train.add_argument("--lr", dest="learning_rate", type=float)
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--strategy",
                         choices=("greedy_medoids", "exhaustive"))

    p_eval = sub.add_parser("eval", help="score a model against a dataset")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--data", required=True)

    p_exp = sub.add_parser("experiment", help="run a full benchmark")
    _add_gen_flags(p_exp)
    p_exp.add_argument("--models", help="comma list: dnm,const,mdn,dgn,mean,oracle")
    p_exp.add_argument("--report", required=True)
    p_exp.add_argument("--format", choices=("csv", "json"))
    p_exp.add_argument("--n-centers", dest="n_centers", type=int)
    p_exp.add_argument("--mdn-components", dest="mdn_components", type=int)
    p_exp.add_argument("--hidden")
    p_exp.add_argument("--epochs", type=int)
    p_exp.add_argument("--batch", dest="batch_size", type=int)
    p_exp.add_argument("--lr", dest="learning_rate", type=float)
    p_exp.add_argument("--n-test", dest="n_test", type=int)
    p_exp.add_argument("--bootstrap", dest="bootstrap_b", type=int)
    p_exp.add_argument("--timings", action="store_true", default=None,
                       help="fill in wall-clock timing columns "
                            "(makes reports non-reproducible)")

    p_rates = sub.add_parser("rates", help="closed-form model-size counts")
    mode = p_rates.add_mutually_exclusive_group(required=True)
    mode.add_argument("--neps", action="store_true",
                      help="atom count for a Hoelder target")
    mode.add_argument("--nq", action="store_true",
                      help="quantizer atom count on a bounded support")
    p_rates.add_argument("--eps", type=float, required=True)
    p_rates.add_argument("--d", type=int)
    p_rates.add_argument("--hoelder-a", dest="hoelder_a", type=float)
    p_rates.add_argument("--hoelder-alpha", dest="hoelder_alpha", type=float)
    p_rates.add_argument("--hoelder-b", dest="hoelder_b", type=float)
    p_rates.add_argument("--hoelder-beta", dest="hoelder_beta", type=float)
    p_rates.add_argument("--diam", type=float)
    p_rates.add_argument("--dim-out", dest="dim_out", type=int)
    p_rates.add_argument("--radius", type=float)
    return parser


def _cmd_gen(args, cfg) -> int:
    gen_cfg = _gen_config(args, cfg)
    if args.describe:
        print(gen_cfg.describe())
    data, _ = generate(gen_cfg)
    save_dataset(data, args.out)
    print(f"wrote {len(data.entries)} entries to {args.out}")
    return 0


def _cmd_train(args, cfg) -> int:
    given = _given(args, cfg, _TRAIN_KEYS)
    if "n_centers" not in given:
        raise ConfigError("the atom count is required (--n)")
    train_cfg = TrainConfig(**given)
    data = load_dataset(args.data)
    model, log = train_dnm(data, train_cfg)
    save_dnm(model, args.out)
    print(f"trained on {len(data.train_idx)} points; "
          f"final loss {log.epoch_losses[-1]:.6g}; "
          f"label accuracy {log.final_accuracy:.3f}; wrote {args.out}")
    return 0


def _cmd_eval(args, cfg) -> int:
    model = load_dnm(args.model)
    data = load_dataset(args.data)
    print("split,points,W1,M")
    worst_w1 = worst_m = 0.0
    for split, idx in (("train", data.train_idx), ("test", data.test_idx)):
        if not idx:
            continue
        w1s, ms = [], []
        for i in idx:
            x, target = data.entries[i]
            pred = dnm_predict(model, x)
            w1s.append(w1_cost(pred, target))
            ms.append(float(np.linalg.norm(pred.mean() - target.mean())))
        w1_avg, m_avg = float(np.mean(w1s)), float(np.mean(ms))
        worst_w1, worst_m = max(worst_w1, w1_avg), max(worst_m, m_avg)
        print(f"{split},{len(idx)},{w1_avg!r},{m_avg!r}")
    print(f"worst,,{worst_w1!r},{worst_m!r}")
    return 0


def _cmd_experiment(args, cfg) -> int:
    gen_cfg = _gen_config(args, cfg)
    models = _pick(args, cfg, "models", "dnm,mdn,dgn,mean,oracle")
    model_list = [m.strip() for m in models.split(",") if m.strip()]
    harness = HarnessConfig(**_given(args, cfg, _EXPERIMENT_KEYS))
    report = run_experiment(gen_cfg, model_list, gen_cfg.seed, harness)
    fmt = _pick(args, cfg, "format", "csv")
    emit_report(report, fmt, args.report)
    print(CSV_HEADER)
    for name, metrics in report.rows:
        print(metrics_csv_row(name, metrics))
    print(f"report written to {args.report}")
    return 0


def _cmd_rates(args, cfg) -> int:
    if args.neps:
        params = RateParams(
            A=_pick(args, cfg, "hoelder_a", 1.0, float),
            alpha=_pick(args, cfg, "hoelder_alpha", 1.0, float),
            B=_pick(args, cfg, "hoelder_b", 1.0, float),
            beta=_pick(args, cfg, "hoelder_beta", 1.0, float),
            diam=_pick(args, cfg, "diam", 1.0, float),
            d=_pick(args, cfg, "d", 1, int),
        )
        print(n_epsilon(params, args.eps))
        return 0
    count = n_quantizer(args.eps,
                        _pick(args, cfg, "dim_out", 1, int),
                        _pick(args, cfg, "radius", 1.0, float))
    print(count)
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "experiment": _cmd_experiment,
    "rates": _cmd_rates,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _read_config(args.config) if args.config else {}
        return _COMMANDS[args.command](args, cfg)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, OSError) as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
