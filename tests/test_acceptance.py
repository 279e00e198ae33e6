"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with the measured quantities.

Run with ``pytest -s tests/test_acceptance.py`` to see every line, or
``pytest -v`` for the per-criterion verdicts.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np

import urcd
from urcd.datagen import GeneratorConfig, SdeSampler
from urcd.dnm import (
    RateParams,
    lambert_w,
    n_epsilon,
    n_quantizer,
)
from urcd.harness import HarnessConfig, bca_interval, run_experiment
from urcd.measures import (
    atom_pool,
    make_empirical,
    mixture,
    w1_1d,
    w1_exact,
)
from urcd.neural import NetConfig, forward_cache, init_mlp
from urcd.training import build_dataset, train_dnm

from diagnostics import grad_check, projection_slack
from lp_oracle import lp_oracle


def _report(criterion: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _random_measure(rng, max_atoms=8, dim=2):
    k = int(rng.integers(1, max_atoms + 1))
    w = rng.uniform(0.05, 1.0, size=k)
    return make_empirical(rng.uniform(-2, 2, size=(k, dim)), w / w.sum())


def test_criterion_1_transport_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst_lp = 0.0
    for _ in range(200):
        dim = int(rng.integers(1, 4))
        mu = _random_measure(rng, dim=dim)
        nu = _random_measure(rng, dim=dim)
        worst_lp = max(worst_lp, abs(w1_exact(mu, nu).cost - lp_oracle(mu, nu)))
    worst_1d = 0.0
    for _ in range(200):
        mu = _random_measure(rng, dim=1)
        nu = _random_measure(rng, dim=1)
        worst_1d = max(worst_1d, abs(w1_1d(mu, nu) - w1_exact(mu, nu).cost))
    elapsed = time.perf_counter() - start
    ok = worst_lp < 1e-8 and worst_1d < 1e-9 and elapsed < 30
    _report("criterion 1 (exact-transport oracle equivalence)", ok,
            f"max |ours - LP| = {worst_lp:.2e}, max |1d - exact| = "
            f"{worst_1d:.2e}, {elapsed:.1f}s")


def test_criterion_2_metric_axioms_and_mixture_lipschitz():
    rng = np.random.default_rng(1002)
    worst_axiom = 0.0
    for _ in range(200):
        dim = int(rng.integers(1, 4))
        mu, nu, rho = (_random_measure(rng, dim=dim) for _ in range(3))
        d_mn = w1_exact(mu, nu).cost
        worst_axiom = max(worst_axiom, -d_mn)
        worst_axiom = max(worst_axiom, abs(d_mn - w1_exact(nu, mu).cost))
        worst_axiom = max(worst_axiom,
                          d_mn - w1_exact(mu, rho).cost - w1_exact(rho, nu).cost)
    worst_lip = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 5))
        ms = [_random_measure(rng, max_atoms=4, dim=2) for _ in range(n)]
        beta, gamma = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
        pool = atom_pool(ms)
        d = w1_exact(mixture(beta, pool), mixture(gamma, pool)).cost
        worst_lip = max(worst_lip,
                        d - 2 * math.sqrt(n) * np.linalg.norm(beta - gamma))
    ok = worst_axiom < 1e-8 and worst_lip < 1e-8
    _report("criterion 2 (metric axioms + mixture Lipschitz bound)", ok,
            f"worst axiom violation = {worst_axiom:.2e}, "
            f"worst Lipschitz excess = {worst_lip:.2e}")


def test_criterion_3_gradient_checks():
    start = time.perf_counter()
    rng = np.random.default_rng(1003)
    worst = 0.0
    for trial in range(20):
        activation = "tanh" if trial % 2 == 0 else "relu"
        dims = [3, int(rng.integers(4, 8)), int(rng.integers(2, 5))]
        net = init_mlp(dims, activation=activation, rng=rng)
        while True:
            batch = []
            for _ in range(5):
                x = rng.normal(size=3)
                y = np.zeros(dims[-1])
                y[rng.integers(dims[-1])] = 1.0
                batch.append((x, y))
            if activation == "tanh":
                break
            X = np.array([b[0] for b in batch])
            _, pre, _ = forward_cache(net, X)
            if all(np.abs(z).min() >= 1e-3 for z in pre[:-1]):
                break
        worst = max(worst, grad_check(net, batch))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 10
    _report("criterion 3 (finite-difference gradient checks)", ok,
            f"worst relative error = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_4_rate_formulas():
    n_eps = n_epsilon(RateParams(A=1, alpha=1, diam=1, d=1), 1.0)
    n_q = n_quantizer(0.4, 2, 1.0)

    def bisect(branch, x):
        g = lambda w: w * math.exp(w)
        lo, hi = (-1.0, 60.0) if branch == "principal" else (-750.0, -1.0)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if branch == "principal":
                lo, hi = (mid, hi) if g(mid) < x else (lo, mid)
            else:
                lo, hi = (lo, mid) if g(mid) < x else (mid, hi)
        return 0.5 * (lo + hi)

    # the 1e-10 absolute-residual contract is representable in doubles for
    # |x| up to about 1e4; sample the branches there
    rng = np.random.default_rng(1004)
    worst_resid = worst_gap = 0.0
    xs = np.concatenate([rng.uniform(-math.exp(-1), 10.0, 500),
                         rng.uniform(10.0, 1e4, 500)])
    for x in xs:
        w = lambert_w("principal", float(x))
        worst_resid = max(worst_resid, abs(w * math.exp(w) - x))
        worst_gap = max(worst_gap, abs(w - bisect("principal", float(x))))
    xs = -np.exp(rng.uniform(math.log(1e-8), math.log(math.exp(-1.0)), 1000))
    for x in xs:
        w = lambert_w("minus_one", float(x))
        worst_resid = max(worst_resid, abs(w * math.exp(w) - x))
        worst_gap = max(worst_gap, abs(w - bisect("minus_one", float(x))))
    ok = (n_eps == 16 and n_q == 2134 and worst_resid < 1e-10
          and worst_gap < 1e-7)
    _report("criterion 4 (closed-form rate calculators)", ok,
            f"N(1)={n_eps} (want 16), N_Q={n_q} (want 2134), "
            f"max residual={worst_resid:.2e}, max bisection gap={worst_gap:.2e}")


def test_criterion_5_hull_projection_property():
    eps = 0.2
    resolution = 400
    slack = 2 * (2 * math.sqrt(2) / resolution)
    pool = atom_pool([make_empirical([(0.0,)]), make_empirical([(1.0,)])])
    failures = []
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        xs = np.sort(rng.uniform(0, 1, size=14))
        entries = [(np.array([x]), mixture((1 - float(x), float(x)), pool))
                   for x in xs]
        data = build_dataset(entries, train_idx=range(len(xs)), test_idx=())
        model, _ = train_dnm(data, 2, NetConfig(
            hidden_dims=(16,), epochs=300, learning_rate=0.05), seed=seed)
        sup_err, sup_hull = projection_slack(model, entries, resolution)
        if sup_err > sup_hull + eps / 2 + slack:
            failures.append((seed, sup_err, sup_hull))
    _report("criterion 5 (hull metric-projection property)", not failures,
            f"5 seeded instances, eps={eps}, grid slack={slack:.4f}, "
            f"failures={failures or 'none'}")


def test_criterion_6_heteroscedastic_desk_experiment():
    start = time.perf_counter()
    seed = 5
    gen = GeneratorConfig(task="heteroscedastic", d=2, size=100, S=500,
                          seed=seed)
    harness = HarnessConfig(n_centers=10, n_test=100)
    report = run_experiment(gen, ["dnm", "const", "mean"], seed=seed,
                            harness=harness)
    rows = dict(report.rows)
    ratio_w1 = rows["dnm"].w1 / rows["const"].w1
    ratio_m = rows["dnm"].m / rows["mean"].m
    elapsed = time.perf_counter() - start
    ok = ratio_w1 <= 0.8 and ratio_m <= 2.0 and elapsed < 300
    _report("criterion 6 (heteroscedastic desk experiment)", ok,
            f"W1 ratio vs constant predictor = {ratio_w1:.3f} (<= 0.8), "
            f"M ratio vs mean regressor = {ratio_m:.3f} (<= 2), {elapsed:.0f}s")


def test_criterion_7_dropout_desk_experiment():
    start = time.perf_counter()
    outcomes = []
    for seed in (11, 12, 13):
        gen = GeneratorConfig(task="mc_dropout", d=10, D=1, size=100, S=500,
                              base_depth=1, base_width=5, dropout_rate=0.1,
                              seed=seed)
        harness = HarnessConfig(n_centers=20, n_test=100)
        report = run_experiment(gen, ["dnm", "const"], seed=seed,
                                harness=harness)
        rows = dict(report.rows)
        outcomes.append((seed, rows["dnm"].w1, rows["const"].w1))
    elapsed = time.perf_counter() - start
    ok = all(d < c for _, d, c in outcomes) and elapsed < 300
    detail = ", ".join(f"seed {s}: {d:.3f} < {c:.3f}" for s, d, c in outcomes)
    _report("criterion 7 (dropout desk experiment)", ok,
            f"{detail}, {elapsed:.0f}s")


def test_criterion_8_bca_coverage():
    start = time.perf_counter()
    covered = 0
    trials = 200
    for t in range(trials):
        x = np.random.default_rng(2000 + t).normal(size=100)
        lo, hi = bca_interval(x, level=0.95, n_boot=1000, seed=t)
        covered += lo <= 0.0 <= hi
    elapsed = time.perf_counter() - start
    rate = covered / trials
    ok = rate >= 0.9 and elapsed < 30
    _report("criterion 8 (bootstrap interval coverage)", ok,
            f"coverage {covered}/{trials} = {rate:.3f} (>= 0.90), {elapsed:.1f}s")


def test_criterion_9_sde_moments():
    theta, sigma, x0, t = 1.0, 1.0, 1.0, 1.0
    s, n_steps = 2000, 200
    sampler = SdeSampler(drift="ou", diffusion="constant", a0=0.0, a1=-theta,
                         b0=sigma, b1=0.0, n_steps=n_steps)
    pts = sampler.draw(np.array([t, x0]), s, seed=1009)
    mean_err = abs(pts.mean() - x0 * math.exp(-theta * t))
    var_err = abs(pts.var() - sigma ** 2 * (1 - math.exp(-2 * theta * t))
                  / (2 * theta))
    tol = 5 / math.sqrt(s) + 10 / n_steps
    ok = mean_err < tol and var_err < tol
    _report("criterion 9 (diffusion marginal moments)", ok,
            f"mean error {mean_err:.4f}, variance error {var_err:.4f} "
            f"(tolerance {tol:.4f})")


def test_criterion_10_end_to_end_determinism(tmp_path):
    args = ["experiment", "--task", "heteroscedastic", "--d", "1",
            "--size", "10", "--samples", "12", "--seed", "9",
            "--models", "dnm,mean,oracle", "--epochs", "20", "--hidden", "6",
            "--n-centers", "2", "--n-test", "4", "--bootstrap", "200"]
    # the subprocess imports the same urcd package as this test
    src = os.path.dirname(os.path.dirname(urcd.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    reports = []
    for run in ("a", "b"):
        path = tmp_path / f"report_{run}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "urcd.cli"] + args + ["--report", str(path)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        reports.append(path.read_bytes())
    ok = reports[0] == reports[1]
    _report("criterion 10 (byte-identical reports per seed)", ok,
            f"two CLI runs, {len(reports[0])} bytes each, identical={ok}")
