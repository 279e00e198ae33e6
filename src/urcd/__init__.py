"""Measure-valued regression: classifier-gated mixtures of empirical measures.

Core entry points:

- ``measures``  : empirical measures and Wasserstein-1 distances
- ``neural``    : dense networks, backprop, Adam
- ``dnm``       : the mixture model and its rate calculators
- ``training``  : decoupled center-selection / classification training
- ``baselines`` : MDN, Gaussian-head and mean regressors, MC oracle
- ``datagen``   : synthetic measure-valued target generators
- ``harness``   : experiment orchestration, metrics and reports
"""

from urcd.measures import (
    EmpiricalMeasure,
    TransportPlan,
    atom_pool,
    make_empirical,
    mixture,
    w1_1d,
    w1_cost,
    w1_exact,
)

__all__ = [
    "EmpiricalMeasure",
    "TransportPlan",
    "atom_pool",
    "make_empirical",
    "mixture",
    "w1_1d",
    "w1_cost",
    "w1_exact",
]

__version__ = "0.1.0"
