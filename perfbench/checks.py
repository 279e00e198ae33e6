"""Correctness checks on experiment reports and on sampled W1 evaluations.

Each check returns a list of problems; an empty list means it passed.
The references are independent of urcd's own solvers: HiGHS for the
transport LP and scipy's 1-D Wasserstein distance on the line.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse
from scipy.optimize import linprog
from scipy.stats import wasserstein_distance

CSV_HEADER = ("model,W1-95L,W1,W1-95R,M-95L,M,M-95R,"
              "N_Par,Train_Time,Test_Time_Ratio")
LP_GAP = 1e-8        # acceptance criterion 1 bound against the LP
LINE_GAP = 1e-9      # acceptance criterion 1 bound for the 1-D sweep
# HiGHS's default 1e-7 tolerances let the LP itself drift by ~1e-6 on
# degenerate inputs (repeated atoms), which would flag a correct solver.
# Presolve is off because at these tolerances it calls problems with
# atoms of weight ~1e-23 infeasible.
LP_OPTIONS = {"presolve": False, "primal_feasibility_tolerance": 1e-10,
              "dual_feasibility_tolerance": 1e-10}
# w1_exact runs on a sampled 1-D pair only when it is this small (k*m cells)
LINE_EXACT_MAX_CELLS = 5000


def report_problems(csv_bytes: bytes, models) -> list:
    """Header, one row per model (oracle first), every number finite,
    W1 and M non-negative with their intervals around them."""
    lines = csv_bytes.decode().splitlines()
    expected = ["oracle"] + [m for m in models if m != "oracle"]
    if not lines or lines[0] != CSV_HEADER:
        return ["unexpected report header"]
    names = [ln.split(",", 1)[0] for ln in lines[1:]]
    if names != expected:
        return [f"report rows {names} != {expected}"]
    problems = []
    for ln in lines[1:]:
        name, *fields = ln.split(",")
        values = [float(f) for f in fields]
        if not all(math.isfinite(v) for v in values):
            problems.append(f"non-finite value in row {name}")
            continue
        w1_lo, w1, w1_hi, m_lo, m, m_hi = values[:6]
        if not (0.0 <= w1_lo <= w1 <= w1_hi and 0.0 <= m_lo <= m <= m_hi):
            problems.append(f"row {name}: W1/M interval out of order or negative")
    return problems


def lp_w1(mu, nu) -> float:
    """W1 as the transportation LP, solved by HiGHS at tight tolerances."""
    k, m = mu.n_atoms, nu.n_atoms
    cost = np.linalg.norm(mu.atoms[:, None, :] - nu.atoms[None, :, :], axis=2)
    a_eq = sparse.vstack([sparse.kron(sparse.eye(k), np.ones((1, m))),
                          sparse.kron(np.ones((1, k)), sparse.eye(m))]).tocsr()
    res = linprog(cost.ravel(), A_eq=a_eq,
                  b_eq=np.concatenate([mu.weights, nu.weights]),
                  bounds=(0, None), method="highs", options=LP_OPTIONS)
    if res.status != 0:
        raise RuntimeError(f"HiGHS status {res.status}: {res.message}")
    return float(res.fun)


def cross_check(exact_pairs, line_pairs, w1_exact) -> dict:
    """Compare sampled evaluations against the references.

    exact_pairs : (mu, nu, w1_exact cost) — checked against the LP
    line_pairs  : (mu, nu, w1_1d value)   — checked against scipy's 1-D
                  distance, and against ``w1_exact`` on pairs of at most
                  LINE_EXACT_MAX_CELLS cells
    """
    out = {"lp_pairs": 0, "lp_worst_gap": 0.0,
           "line_pairs": 0, "line_worst_gap": 0.0,
           "line_exact_pairs": 0, "line_exact_worst_gap": 0.0,
           "problems": []}
    for mu, nu, cost in exact_pairs:
        try:
            gap = abs(cost - lp_w1(mu, nu))
        except RuntimeError as exc:
            out["problems"].append(f"LP reference failed: {exc}")
            continue
        out["lp_pairs"] += 1
        out["lp_worst_gap"] = max(out["lp_worst_gap"], gap)
    for mu, nu, value in line_pairs:
        ref = wasserstein_distance(mu.atoms[:, 0], nu.atoms[:, 0],
                                   mu.weights, nu.weights)
        out["line_pairs"] += 1
        out["line_worst_gap"] = max(out["line_worst_gap"], abs(value - ref))
        if mu.n_atoms * nu.n_atoms <= LINE_EXACT_MAX_CELLS:
            out["line_exact_pairs"] += 1
            out["line_exact_worst_gap"] = max(out["line_exact_worst_gap"],
                                              abs(value - w1_exact(mu, nu).cost))
    if out["lp_worst_gap"] > LP_GAP:
        out["problems"].append(f"w1_exact vs LP gap {out['lp_worst_gap']:.3e} > {LP_GAP}")
    if out["line_worst_gap"] > LINE_GAP:
        out["problems"].append(f"w1_1d vs scipy gap {out['line_worst_gap']:.3e} > {LINE_GAP}")
    if out["line_exact_worst_gap"] > LINE_GAP:
        out["problems"].append(
            f"w1_1d vs w1_exact gap {out['line_exact_worst_gap']:.3e} > {LINE_GAP}")
    return out
