"""urcd benchmark: one experiment (``run_experiment`` + ``emit_report`` to CSV)
timed end to end, and a separate traced run that splits it by module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; urcd is imported from ``src/``.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics
named in ``BENCHMARK.json``, ``--trace 1`` the per-layer ones.  Details
(environment, per-experiment seeds, times and report SHA-256, failures,
the W1 shape histogram, spans) go to ``perfbench/out/``.

Experiment j of a run uses seed ``--seed + 1000 * j``, so ``--seed`` alone
fixes every input.  The timed run starts experiments until ``--seconds``
is used up.  Its times are scaled to a reference host speed measured while
they run (``speed.py``), because a shared host drifts by ±20 % over tens
of seconds; the wall times are printed alongside.  ``experiment_s`` is the
mean scaled time per experiment, i.e. the inverse of experiments completed
per second, because per-seed times of the exact-W1 workload vary too much
for a median of a few to be steady.  The median and tail percentile are
printed alongside.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
# One BLAS thread: the program is single-threaded Python, and a second BLAS
# thread on a 2-core machine only adds noise.  Set before numpy loads.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 3
SEED_STRIDE = 1000

# Harness fields not given here keep the HarnessConfig defaults.
WORKLOADS = {
    # criterion-6 desk experiment on the minibatch path: neural (Adam) and
    # baselines (MDN matching loop, EM) carry the run
    "hetero-minibatch": {
        "generator": dict(task="heteroscedastic", d=2, D=1, size=100, S=500),
        "harness": dict(n_centers=10, n_test=100, batch_size=16),
        "models": ("dnm", "const", "mdn", "dgn", "mean"),
        "traced": 1,
    },
    # criterion-7 data: DropoutSampler.draw's per-draw loop carries the run
    "dropout-d10": {
        "generator": dict(task="mc_dropout", d=10, D=1, size=100, S=500,
                          base_width=5, dropout_rate=0.1),
        "harness": dict(n_centers=20, n_test=100),
        "models": ("dnm", "const"),
        "traced": 2,
    },
    # D=2: measures.w1_exact on repeated-atom inputs carries the run; kept
    # small (and 50 epochs) so that a run holds ~20 experiments, since
    # solver time varies strongly from seed to seed
    "dropout-2d-exact": {
        "generator": dict(task="mc_dropout", d=2, D=2, size=12, S=20,
                          base_width=5),
        "harness": dict(n_centers=5, n_test=12, epochs=50),
        "models": ("dnm", "const", "mean"),
        "traced": 8,
    },
}


class _Probe(Exception):
    pass


STAGE = re.compile(r"\[(generate|train:[^\]]+|eval:[^\]]+)\]")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "machine": platform.machine(),
    }


def setup_seconds() -> float:
    """Wall seconds from starting a fresh interpreter to `import urcd.cli` done."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import urcd.cli"], env=env, cwd=ROOT,
                   check=True)
    return time.perf_counter() - t0


def failure_record(seed: int, exc: BaseException) -> dict:
    """The harness stage that failed and the exit code `urcd experiment` gives."""
    match = STAGE.match(str(exc))
    if isinstance(exc, ValueError):
        code = 2
    elif isinstance(exc, (RuntimeError, OSError)):
        code = 3
    else:
        code = 1          # uncaught by the CLI
    return {"seed": seed, "stage": match.group(1) if match else "harness",
            "exit": code, "error": f"{type(exc).__name__}: {exc}"}


def tail(values) -> tuple:
    """(p, value): the highest whole percentile with at least ten samples
    above it, or (None, None) when there are too few samples."""
    n = len(values)
    if n < 11:
        return None, None
    return math.floor(100 * (n - 10) / n), sorted(values)[n - 11]


class Bench:
    def __init__(self, args):
        import checks
        from urcd import harness
        from urcd.datagen import GeneratorConfig
        from urcd.harness import HarnessConfig

        self.args = args
        self.checks = checks
        self.wl = WORKLOADS[args.workload]
        self.harness = harness
        self.gen_config = GeneratorConfig
        self.harness_config = HarnessConfig(**self.wl["harness"])
        self.csv_path = OUT / f"{args.workload}-{args.seed}-report.csv"
        self.attempted = 0
        self.failures = []
        self.problems = []        # correctness checks that did not hold

    def seed(self, j: int) -> int:
        return self.args.seed + SEED_STRIDE * j

    def experiment(self, seed: int):
        """One timed experiment; returns (seconds, report bytes or None)."""
        self.attempted += 1
        gen = self.gen_config(seed=seed, **self.wl["generator"])
        t0 = time.perf_counter()
        try:
            report = self.harness.run_experiment(gen, self.wl["models"], seed,
                                                 self.harness_config)
            self.harness.emit_report(report, "csv", self.csv_path)
        except Exception as exc:   # counted, never retried
            self.failures.append(failure_record(seed, exc))
            return time.perf_counter() - t0, None
        seconds = time.perf_counter() - t0
        data = self.csv_path.read_bytes()
        problems = self.checks.report_problems(data, self.wl["models"])
        if problems:
            self.failures.append({"seed": seed, "stage": "check", "exit": 0,
                                  "error": "; ".join(problems)})
            self.problems += problems
        return seconds, data

    def timed(self) -> tuple:
        """Experiments until --seconds of them are used up: (metrics, details).

        Every timing is scaled to a reference host speed (see ``speed.py``),
        because the speed of a shared host drifts over tens of seconds.  The
        set-up samples are spread over the run."""
        from speed import Speedometer

        times, scaled, ok_scaled, shas = [], [], [], {}
        setup, setup_scaled = [], []
        with Speedometer() as speed:
            def sample_setup():
                since = speed.mark()
                seconds = setup_seconds()
                setup.append(seconds)
                setup_scaled.append(speed.scale(seconds, since))

            sample_setup()
            while True:
                seed = self.seed(len(times))
                since = speed.mark()
                seconds, data = self.experiment(seed)
                times.append(seconds)
                scaled.append(speed.scale(seconds, since))
                if data is not None:
                    ok_scaled.append(scaled[-1])
                    shas[seed] = hashlib.sha256(data).hexdigest()
                busy = sum(times)
                if len(setup) < min(SETUP_SAMPLES, SETUP_SAMPLES * busy / self.args.seconds):
                    sample_setup()
                # stop unless the next experiment should end within half an
                # experiment of the budget
                if busy > self.args.seconds - 0.5 * statistics.mean(times):
                    break
            while len(setup) < SETUP_SAMPLES:
                sample_setup()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ok_scaled = ok_scaled or scaled      # every experiment failed
        p, p_value = tail(ok_scaled)
        metrics = {
            "experiment_s": (statistics.mean(ok_scaled), "s"),
            "setup_s": (statistics.median(setup_scaled), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
            "fail_ratio": (len(self.failures) / self.attempted, "ratio"),
        }
        details = {
            "experiments": len(times),
            "experiment_median_s": statistics.median(ok_scaled),
            f"experiment_p{p}_s" if p is not None else "experiment_tail_s": p_value,
            "experiment_scaled_s": scaled,
            "experiment_wall_s": times,
            "setup_scaled_s": setup_scaled,
            "setup_wall_s": setup,
            "speed_samples": len(speed.samples),
            "report_sha256": shas,
        }
        return metrics, details

    def traced(self) -> tuple:
        """Each experiment untraced, then traced at the same seed: the two
        reports must be byte-identical.  Per-layer values are per experiment."""
        from tracer import SPAN_NAMES, Tracer
        from urcd.measures import w1_exact

        # rebinding must be undone also when the traced code raises
        probe = Tracer(self.args.seed)
        try:
            with probe.installed():
                raise _Probe
        except _Probe:
            pass
        if not probe.all_restored():
            self.problems.append("tracer left a name rebound after a raise")

        tracer = Tracer(self.args.seed)
        plain_s, traced_s, shas = [], [], {}
        identical = 0
        deadline = time.perf_counter() + 150.0     # stay inside the 180 s budget
        for j in range(self.wl["traced"]):
            seed = self.seed(j)
            seconds, plain = self.experiment(seed)
            tracer.experiment = j
            with tracer.installed():
                traced_seconds, traced = self.experiment(seed)
            if not tracer.all_restored():
                self.problems.append(f"seed {seed}: a traced name was not restored")
            if plain is not None and traced is not None:
                plain_s.append(seconds)
                traced_s.append(traced_seconds)
                shas[seed] = hashlib.sha256(plain).hexdigest()
                if plain == traced:
                    identical += 1
                else:
                    self.problems.append(f"seed {seed}: traced report differs from untraced")
            if time.perf_counter() > deadline:
                break
        n = max(len(plain_s), 1)
        cross = self.checks.cross_check(tracer.exact_pairs.items,
                                        tracer.line_pairs.items, w1_exact)
        self.problems += cross["problems"]

        self_s = {name: v / n for name, v in tracer.self_s.items()}
        calls = {name: c / n for name, c in tracer.calls.items()}
        ms = tracer.w1_exact_ms
        w1_calls = tracer.calls["measures.w1_exact"]
        metrics = {}
        for name in SPAN_NAMES:
            metrics[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
            metrics[f"{name}.calls"] = (calls.get(name, 0.0), "count")
        metrics.update({
            "measures.w1_exact.p50_ms": (statistics.median(ms) if ms else 0.0, "ms"),
            "measures.w1_exact.max_ms": (max(ms, default=0.0), "ms"),
            "measures.w1_exact.cells": (tracer.cells / n, "count"),
            "measures.w1_exact.uniform_square_share":
                (tracer.uniform_square / w1_calls if w1_calls else 0.0, "ratio"),
            "measures.w1_exact.dup_atoms_share":
                (tracer.dup_atoms / w1_calls if w1_calls else 0.0, "ratio"),
            "datagen.draw.samples": (tracer.draw_samples / n, "count"),
            "harness.trace_overhead_s":
                ((sum(traced_s) - sum(plain_s)) / n, "s"),
        })
        total_self = sum(self_s.values())
        modules = {}
        for name, v in self_s.items():
            module = name.split(".")[0]
            modules[module] = modules.get(module, 0.0) + v
        details = {
            "experiments": len(plain_s),
            "identical_reports": identical,
            "untraced_s": plain_s,
            "traced_s": traced_s,
            "module_self_share": {k: v / total_self for k, v in sorted(modules.items())}
                                 if total_self else {},
            "top_self_share": {k: v / total_self for k, v in
                               sorted(self_s.items(), key=lambda kv: -kv[1])[:6]}
                              if total_self else {},
            "w1_exact_shapes": {f"{k}x{m}": c for (k, m), c in sorted(tracer.shapes.items())},
            "cross_check": {k: v for k, v in cross.items() if k != "problems"},
            "report_sha256": shas,
        }
        tracer.write_spans(OUT / f"{self.args.workload}-{self.args.seed}-spans.csv")
        return metrics, details


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "urcd" / "__init__.py").is_file():
        print(f"error: urcd sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("error: --seconds must be positive and --seed non-negative",
              file=sys.stderr)
        return 2
    spec = load_spec()
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(SRC))
    import urcd

    if Path(urcd.__file__).resolve().parent != (SRC / "urcd").resolve():
        print(f"error: imported urcd from {urcd.__file__}, not {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    bench = Bench(args)
    metrics, details = bench.traced() if args.trace else bench.timed()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 2

    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": env, "details": details,
              "failures": bench.failures, "problems": bench.problems,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    out_file = OUT / f"{args.workload}-{args.seed}-trace{args.trace}.json"
    with open(out_file, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")

    print("environment: " + json.dumps(env, sort_keys=True))
    for key, value in details.items():
        print(f"{key}: {json.dumps(value, sort_keys=True)}")
    for failure in bench.failures:
        print(f"failed: {json.dumps(failure, sort_keys=True)}")
    for problem in bench.problems:
        print(f"check failed: {problem}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name} = {value!r} {unit}")
    print(f"details written to {out_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
