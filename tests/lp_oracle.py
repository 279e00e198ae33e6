"""The HiGHS linear program as an independent oracle for exact W1.

Presolve is off and the tolerances are tight, as in ``perfbench/checks.py``:
HiGHS's default 1e-7 tolerances let the LP drift by ~1e-6 on repeated
atoms, and its presolve calls problems with atoms of weight ~1e-23
infeasible.
"""

import numpy as np
import scipy.sparse
from scipy.optimize import linprog

LP_OPTIONS = {"presolve": False, "primal_feasibility_tolerance": 1e-10,
              "dual_feasibility_tolerance": 1e-10}


def lp_transport(a, b, cost) -> float:
    """The optimal cost of the transportation LP with marginals a, b and a
    (k, m) cost matrix.  The constraint matrix is sparse, since HiGHS
    reads it as such anyway."""
    k, m = cost.shape
    a_eq = scipy.sparse.vstack([scipy.sparse.kron(scipy.sparse.eye(k), np.ones((1, m))),
                                scipy.sparse.kron(np.ones((1, k)), scipy.sparse.eye(m))])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([a, b]),
                  bounds=(0, None), method="highs", options=LP_OPTIONS)
    assert res.status == 0, res.message
    return float(res.fun)


def lp_oracle(mu, nu) -> float:
    """W1 between two empirical measures as the transportation LP."""
    cost = np.linalg.norm(mu.atoms[:, None, :] - nu.atoms[None, :, :], axis=2)
    return lp_transport(mu.weights, nu.weights, cost)
