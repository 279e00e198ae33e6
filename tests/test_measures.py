import numpy as np
import pytest

from urcd.measures import atom_pool, make_empirical, mixture, w1_1d, w1_exact

from diagnostics import measures_equal
from lp_oracle import lp_oracle


def random_measure(rng, max_atoms=8, dim=2):
    k = int(rng.integers(1, max_atoms + 1))
    atoms = rng.uniform(-2, 2, size=(k, dim))
    w = rng.uniform(0.05, 1.0, size=k)
    return make_empirical(atoms, w / w.sum())


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_make_empirical_default_uniform():
    mu = make_empirical([(0.0,), (2.0,)])
    assert np.allclose(mu.weights, [0.5, 0.5])


def test_make_empirical_dirac():
    mu = make_empirical([(1.0, 1.0)])
    assert mu.n_atoms == 1
    assert np.allclose(mu.weights, [1.0])


def test_make_empirical_keeps_coincident_atoms():
    mu = make_empirical([(0.0,), (0.0,)], (0.3, 0.7))
    assert mu.n_atoms == 2
    assert np.allclose(mu.weights, [0.3, 0.7])


def test_make_empirical_rejects_bad_input():
    with pytest.raises(ValueError):
        make_empirical([])
    with pytest.raises(ValueError):
        make_empirical([(0.0,), (1.0, 2.0)])
    with pytest.raises(ValueError):
        make_empirical([(0.0,), (1.0,)], (0.2, 0.2))
    with pytest.raises(ValueError):
        make_empirical([(np.inf,)])


# ---------------------------------------------------------------------------
# exact Wasserstein-1
# ---------------------------------------------------------------------------

def test_w1_exact_identical_measures_zero():
    rng = np.random.default_rng(0)
    mu = random_measure(rng)
    assert w1_exact(mu, mu).cost <= 1e-12


def test_w1_exact_diracs_euclidean():
    mu = make_empirical([(0.0, 0.0)])
    nu = make_empirical([(3.0, 4.0)])
    assert abs(w1_exact(mu, nu).cost - 5.0) < 1e-12


def test_w1_exact_two_point_shift():
    # frozen from the dense LP oracle (and by hand: move half the mass 1 -> 2)
    mu = make_empirical([(0.0,), (1.0,)])
    nu = make_empirical([(0.0,), (2.0,)])
    plan = w1_exact(mu, nu)
    assert abs(plan.cost - 0.5) < 1e-12
    assert abs(plan.cost - lp_oracle(mu, nu)) < 1e-10


def test_w1_exact_matches_lp_oracle_random():
    rng = np.random.default_rng(7)
    for _ in range(60):
        dim = int(rng.integers(1, 4))
        mu = random_measure(rng, dim=dim)
        nu = random_measure(rng, dim=dim)
        plan = w1_exact(mu, nu)
        assert abs(plan.cost - lp_oracle(mu, nu)) < 1e-8


def test_w1_exact_plan_feasibility():
    rng = np.random.default_rng(11)
    for _ in range(40):
        mu = random_measure(rng, dim=3)
        nu = random_measure(rng, dim=3)
        plan = w1_exact(mu, nu)
        assert plan.coupling.min() >= -1e-12
        assert np.abs(plan.coupling.sum(axis=1) - mu.weights).max() < 1e-8
        assert np.abs(plan.coupling.sum(axis=0) - nu.weights).max() < 1e-8
        cost = np.linalg.norm(
            mu.atoms[:, None, :] - nu.atoms[None, :, :], axis=2)
        assert abs(plan.cost - np.sum(plan.coupling * cost)) < 1e-8


def test_w1_exact_dimension_mismatch():
    with pytest.raises(ValueError):
        w1_exact(make_empirical([(0.0,)]), make_empirical([(0.0, 0.0)]))


def test_w1_exact_zero_weight_atoms():
    mu = make_empirical([(0.0,), (5.0,)], (1.0, 0.0))
    nu = make_empirical([(1.0,)])
    plan = w1_exact(mu, nu)
    assert abs(plan.cost - 1.0) < 1e-12
    assert plan.coupling[1].sum() == 0.0


def test_w1_metric_axioms():
    rng = np.random.default_rng(21)
    for _ in range(200):
        dim = int(rng.integers(1, 4))
        mu = random_measure(rng, dim=dim)
        nu = random_measure(rng, dim=dim)
        rho = random_measure(rng, dim=dim)
        d_mn = w1_exact(mu, nu).cost
        d_nm = w1_exact(nu, mu).cost
        d_mr = w1_exact(mu, rho).cost
        d_rn = w1_exact(rho, nu).cost
        assert d_mn >= 0
        assert abs(d_mn - d_nm) < 1e-9
        assert d_mn <= d_mr + d_rn + 1e-8


def test_w1_zero_iff_equal_multisets():
    rng = np.random.default_rng(22)
    for _ in range(50):
        mu = random_measure(rng, dim=2)
        # same measure with atoms permuted and one atom split in two
        perm = rng.permutation(mu.n_atoms)
        atoms = list(mu.atoms[perm])
        weights = list(mu.weights[perm])
        atoms.append(atoms[0])
        weights.append(weights[0] / 2)
        weights[0] /= 2
        nu = make_empirical(atoms, weights)
        assert measures_equal(mu, nu, tol=1e-9)
        assert w1_exact(mu, nu).cost < 1e-9
        # genuinely different measure
        moved = mu.atoms.copy()
        moved[0] = moved[0] + 0.5
        rho = make_empirical(moved, mu.weights)
        if not measures_equal(mu, rho, tol=1e-9):
            assert w1_exact(mu, rho).cost > 1e-9


def test_kantorovich_rubinstein_bound():
    # |int g dmu - int g dnu| <= W1 for any 1-Lipschitz g
    rng = np.random.default_rng(23)
    for _ in range(50):
        dim = int(rng.integers(1, 4))
        mu = random_measure(rng, dim=dim)
        nu = random_measure(rng, dim=dim)
        slopes = rng.normal(size=(4, dim))
        slopes /= np.maximum(np.linalg.norm(slopes, axis=1, keepdims=True), 1.0)
        offsets = rng.normal(size=4)

        def g(y):
            return float(np.max(slopes @ y + offsets))

        gap = abs(mu.weights @ [g(a) for a in mu.atoms]
                  - nu.weights @ [g(a) for a in nu.atoms])
        assert gap <= w1_exact(mu, nu).cost + 1e-8


# ---------------------------------------------------------------------------
# 1-D closed form
# ---------------------------------------------------------------------------

def test_w1_1d_identical():
    mu = make_empirical([(0.0,), (1.0,), (1.0,)])
    assert w1_1d(mu, mu) == 0.0


def test_w1_1d_frozen_values():
    mu = make_empirical([(0.0,), (1.0,)])
    nu = make_empirical([(0.0,), (2.0,)])
    assert abs(w1_1d(mu, nu) - 0.5) < 1e-12
    dirac = make_empirical([(2.0,)])
    spread = make_empirical([(1.0,), (3.0,)])
    assert abs(w1_1d(dirac, spread) - 1.0) < 1e-12


def test_w1_1d_matches_exact():
    rng = np.random.default_rng(31)
    for _ in range(200):
        mu = random_measure(rng, dim=1)
        nu = random_measure(rng, dim=1)
        assert abs(w1_1d(mu, nu) - w1_exact(mu, nu).cost) < 1e-9


def test_w1_1d_requires_dim_one():
    mu = make_empirical([(0.0, 0.0)])
    with pytest.raises(ValueError):
        w1_1d(mu, mu)


# ---------------------------------------------------------------------------
# mixture
# ---------------------------------------------------------------------------

def test_mixture_degenerate_returns_component():
    mu = make_empirical([(0.0,), (1.0,)], (0.25, 0.75))
    nu = make_empirical([(5.0,)])
    mix = mixture((1.0, 0.0), atom_pool([mu, nu]))
    assert measures_equal(mix, mu)


def test_mixture_of_diracs_is_uniform():
    mix = mixture((0.5, 0.5), atom_pool([make_empirical([(0.0,)]),
                                         make_empirical([(1.0,)])]))
    uniform = make_empirical([(0.0,), (1.0,)])
    assert measures_equal(mix, uniform)


def test_mixture_integral_linearity():
    rng = np.random.default_rng(51)
    for _ in range(20):
        ms = [random_measure(rng, dim=2) for _ in range(3)]
        beta = rng.dirichlet(np.ones(3))
        coef = rng.normal(size=2)

        def g(y):
            return float(coef @ y + np.sin(y[0]))

        mix = mixture(beta, atom_pool(ms))
        lhs = mix.weights @ [g(a) for a in mix.atoms]
        rhs = sum(b * (m.weights @ [g(a) for a in m.atoms])
                  for b, m in zip(beta, ms))
        assert abs(lhs - rhs) < 1e-10


def test_mixture_lipschitz_bound():
    # W1(mix(beta), mix(gamma)) <= 2 sqrt(N) ||beta - gamma||_2
    rng = np.random.default_rng(52)
    for _ in range(200):
        n = int(rng.integers(2, 5))
        ms = [random_measure(rng, max_atoms=4, dim=2) for _ in range(n)]
        beta = rng.dirichlet(np.ones(n))
        gamma = rng.dirichlet(np.ones(n))
        pool = atom_pool(ms)
        d = w1_exact(mixture(beta, pool), mixture(gamma, pool)).cost
        assert d <= 2 * np.sqrt(n) * np.linalg.norm(beta - gamma) + 1e-8
