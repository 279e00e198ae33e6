"""The HiGHS linear program as an independent oracle for exact W1.

Presolve is off and the tolerances are tight, as in ``perfbench/checks.py``:
HiGHS's default 1e-7 tolerances let the LP drift by ~1e-6 on repeated
atoms, and its presolve calls problems with atoms of weight ~1e-23
infeasible.
"""

import numpy as np
from scipy.optimize import linprog

LP_OPTIONS = {"presolve": False, "primal_feasibility_tolerance": 1e-10,
              "dual_feasibility_tolerance": 1e-10}


def lp_oracle(mu, nu) -> float:
    """W1 between two empirical measures as the transportation LP."""
    k, m = mu.n_atoms, nu.n_atoms
    cost = np.linalg.norm(mu.atoms[:, None, :] - nu.atoms[None, :, :], axis=2)
    a_eq = np.vstack([np.kron(np.eye(k), np.ones((1, m))),
                      np.kron(np.ones((1, k)), np.eye(m))])
    res = linprog(cost.ravel(), A_eq=a_eq,
                  b_eq=np.concatenate([mu.weights, nu.weights]),
                  bounds=(0, None), method="highs", options=LP_OPTIONS)
    assert res.status == 0, res.message
    return float(res.fun)
