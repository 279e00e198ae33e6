import math

import numpy as np
import pytest

from urcd.dnm import (
    DnmModel,
    RateParams,
    dnm_from_dict,
    dnm_predict,
    dnm_to_dict,
    lambert_w,
    load_dnm,
    n_epsilon,
    n_epsilon_raw,
    n_quantizer,
    n_quantizer_raw,
    predict_weights,
    save_dnm,
)
from urcd.measures import make_empirical, mixture, w1_exact
from urcd.neural import Mlp, init_mlp

from diagnostics import covering_radius, measures_equal, projection_slack


def _affine_classifier(w, b):
    w = np.atleast_2d(np.asarray(w, dtype=float))
    b = np.asarray(b, dtype=float)
    return Mlp(layer_dims=(w.shape[0], w.shape[1]), weights=(w,), biases=(b,),
               activation="identity")


def _model(atoms, classifier=None, d=1):
    n = len(atoms)
    if classifier is None:
        classifier = _affine_classifier(np.zeros((d, n)), np.zeros(n))
    return DnmModel(classifier=classifier, atoms=tuple(atoms))


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------

def test_predict_single_atom_is_constant():
    atom = make_empirical([(0.0,), (3.0,)], (0.25, 0.75))
    model = _model([atom], classifier=_affine_classifier([[2.0]], [0.5]))
    for x in (-4.0, 0.0, 17.0):
        assert measures_equal(dnm_predict(model, [x]), atom)


def test_predict_zero_logits_uniform_mixture():
    atoms = [make_empirical([(0.0,)]), make_empirical([(1.0,)]),
             make_empirical([(2.0,)])]
    model = _model(atoms)
    pred = dnm_predict(model, [0.7])
    assert measures_equal(pred, make_empirical([(0.0,), (1.0,), (2.0,)]))


def test_predict_hand_computed_two_atom():
    # logits (x, -x) at x = 0.5 give softmax weight 1/(1+e) on the second atom
    atoms = [make_empirical([(0.0,)]), make_empirical([(1.0,)])]
    model = _model(atoms, classifier=_affine_classifier([[1.0, -1.0]], [0.0, 0.0]))
    pred = dnm_predict(model, [0.5])
    expected_second = 1.0 / (1.0 + math.e)
    assert abs(pred.mean()[0] - expected_second) < 1e-12


def test_prediction_weights_in_simplex():
    rng = np.random.default_rng(0)
    atoms = [make_empirical(rng.normal(size=(3, 2))) for _ in range(4)]
    model = _model(atoms, classifier=init_mlp([2, 8, 4], rng=rng), d=2)
    for _ in range(20):
        x = rng.normal(size=2)
        pred = dnm_predict(model, x)
        assert abs(pred.weights.sum() - 1.0) < 1e-9
        assert pred.weights.min() >= 0.0


def test_model_shape_validation():
    atoms = (make_empirical([(0.0,)]), make_empirical([(1.0,)]))
    with pytest.raises(ValueError):
        DnmModel(classifier=_affine_classifier([[1.0]], [0.0]), atoms=atoms)


# ---------------------------------------------------------------------------
# covering radius and hull projection
# ---------------------------------------------------------------------------

def test_covering_radius_zero_when_atoms_cover():
    ms = [make_empirical([(float(i),)]) for i in range(3)]
    assert covering_radius(ms, ms) == 0.0


def test_covering_radius_single_distances():
    atoms = [make_empirical([(0.0,)])]
    targets = [make_empirical([(0.0,)]), make_empirical([(3.0,)])]
    assert abs(covering_radius(atoms, targets) - 3.0) < 1e-12


def test_covering_radius_matches_double_loop():
    rng = np.random.default_rng(1)
    atoms = [make_empirical(rng.normal(size=(3, 2))) for _ in range(4)]
    targets = [make_empirical(rng.normal(size=(4, 2))) for _ in range(5)]
    got = covering_radius(atoms, targets)
    brute = max(min(w1_exact(t, a).cost for a in atoms) for t in targets)
    assert abs(got - brute) < 1e-12


def test_projection_slack_exact_model():
    atoms = [make_empirical([(0.0,)]), make_empirical([(5.0,)])]
    # saturated classifier: inputs below 2.5 pick atom 0, above pick atom 1
    clf = _affine_classifier([[-40.0, 40.0]], [100.0, -100.0])
    model = _model(atoms, classifier=clf)
    targets = [([0.0], atoms[0]), ([5.0], atoms[1])]
    sup_err, sup_hull = projection_slack(model, targets, grid_resolution=100)
    assert sup_err < 1e-9
    assert sup_hull < 1e-12


def test_projection_slack_singleton_hull():
    atom = make_empirical([(0.0,)])
    model = _model([atom])
    targets = [([0.0], make_empirical([(2.0,)])), ([1.0], make_empirical([(0.5,)]))]
    _, sup_hull = projection_slack(model, targets, grid_resolution=10)
    assert abs(sup_hull - 2.0) < 1e-12


def test_projection_slack_grid_refinement():
    rng = np.random.default_rng(2)
    atoms = [make_empirical(rng.uniform(-1, 1, size=(3, 1))) for _ in range(2)]
    model = _model(atoms, classifier=init_mlp([1, 4, 2], rng=rng))
    targets = [(rng.uniform(-1, 1, size=1),
                mixture(rng.dirichlet(np.ones(2)), model.pool)) for _ in range(3)]
    _, coarse = projection_slack(model, targets, grid_resolution=1000)
    _, fine = projection_slack(model, targets, grid_resolution=4000)
    assert abs(coarse - fine) <= 2 * (2 * math.sqrt(2) / 1000)


def test_projection_slack_refuses_large_atom_count():
    atoms = [make_empirical([(float(i),)]) for i in range(4)]
    model = _model(atoms)
    with pytest.raises(ValueError):
        projection_slack(model, [([0.0], atoms[0])], grid_resolution=10)


# ---------------------------------------------------------------------------
# rate calculators
# ---------------------------------------------------------------------------

def test_n_epsilon_hand_value():
    p = RateParams(A=1.0, alpha=1.0, diam=1.0, d=1)
    # 2^{5/2} / (sqrt(2) * 0.25) = 16 exactly
    assert n_epsilon(p, 1.0) == 16


def test_n_epsilon_monotone_in_eps():
    p = RateParams(A=1.0, alpha=0.7, diam=3.0, d=2)
    values = [n_epsilon_raw(p, eps) for eps in np.linspace(0.05, 2.0, 25)]
    assert all(a > b for a, b in zip(values, values[1:]))
    ints = [n_epsilon(p, eps) for eps in np.linspace(0.05, 2.0, 25)]
    assert all(a >= b for a, b in zip(ints, ints[1:]))


def test_n_epsilon_diam_homogeneity():
    for d in (1, 2, 3):
        p1 = RateParams(A=1.0, alpha=1.0, diam=1.0, d=d)
        p2 = RateParams(A=1.0, alpha=1.0, diam=2.0, d=d)
        ratio = n_epsilon_raw(p2, 0.5) / n_epsilon_raw(p1, 0.5)
        assert abs(ratio - 2.0 ** d) < 1e-9


def test_n_epsilon_rejects_nonpositive_eps():
    p = RateParams(A=1.0, alpha=1.0, diam=1.0, d=1)
    with pytest.raises(ValueError):
        n_epsilon(p, 0.0)


def _lambert_bisect(branch, x, iters=200):
    """Independent oracle: bisection on w exp(w) = x."""
    g = lambda w: w * math.exp(w)
    lo, hi = (-1.0, 60.0) if branch == "principal" else (-750.0, -1.0)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if branch == "principal":
            lo, hi = (mid, hi) if g(mid) < x else (lo, mid)
        else:
            # w e^w is increasing toward 0 as w -> -inf on this branch
            lo, hi = (lo, mid) if g(mid) < x else (mid, hi)
    return 0.5 * (lo + hi)


def test_lambert_trivial_points():
    assert lambert_w("principal", 0.0) == 0.0
    assert abs(lambert_w("principal", math.e) - 1.0) < 1e-12
    assert lambert_w("principal", -math.exp(-1.0)) == -1.0
    assert lambert_w("minus_one", -math.exp(-1.0)) == -1.0


def test_lambert_minus_one_frozen_value():
    want = _lambert_bisect("minus_one", -0.1)
    got = lambert_w("minus_one", -0.1)
    assert abs(got - want) < 1e-9
    assert abs(got - (-3.577152)) < 1e-5


def test_lambert_residuals_both_branches():
    rng = np.random.default_rng(3)
    xs_p = np.concatenate([rng.uniform(-math.exp(-1.0), 5.0, 500),
                           rng.uniform(5.0, 1e4, 500)])
    for x in xs_p:
        w = lambert_w("principal", float(x))
        assert abs(w * math.exp(w) - x) < 1e-10
    xs_m = -np.exp(rng.uniform(np.log(1e-8), np.log(math.exp(-1.0)), 1000))
    for x in xs_m:
        w = lambert_w("minus_one", float(x))
        assert abs(w * math.exp(w) - x) < 1e-10
        assert w <= -1.0


def test_lambert_near_branch_point():
    # the two branches part as +-sqrt(2(e x + 1)) just above -1/e
    for d in (1e-12, 1e-10, 1e-8, 1e-6, 1e-4):
        x = -math.exp(-1.0) + d
        for branch in ("principal", "minus_one"):
            assert abs(lambert_w(branch, x) - _lambert_bisect(branch, x)) < 1e-9


def test_lambert_domain_errors():
    with pytest.raises(ValueError):
        lambert_w("principal", -1.0)
    with pytest.raises(ValueError):
        lambert_w("minus_one", 0.5)
    with pytest.raises(ValueError):
        lambert_w("other", 0.5)


def test_n_quantizer_hand_value():
    # 4 * sqrt(1/3) * 2 / 0.1 = 46.188...; squared and ceiled = 2134
    assert n_quantizer(0.4, 2, 1.0) == 2134


def test_n_quantizer_eps_scaling_d2():
    r = n_quantizer_raw(0.2, 2, 1.0) / n_quantizer_raw(0.4, 2, 1.0)
    assert abs(r - 4.0) < 1e-9


def test_n_quantizer_d1_matches_bisection_oracle():
    eps, M = 0.1, 1.0
    r = 4.0 * M * math.sqrt(1.0 / 4.0)
    arg = -math.e * (eps / 4.0) / r
    w = _lambert_bisect("minus_one", arg)
    expected = math.ceil(-(r / (eps / 4.0)) * w)
    assert n_quantizer(eps, 1, M) == expected


def test_n_quantizer_domain_violation():
    # large eps drives the Lambert argument below -1/e
    with pytest.raises(ValueError):
        n_quantizer(10.0, 1, 0.5)


def test_n_quantizer_monotone_in_m():
    vals = [n_quantizer_raw(0.3, 2, m) for m in (0.5, 1.0, 2.0, 4.0)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_n_quantizer_monotone_in_eps():
    for dim in (1, 2, 3):
        vals = [n_quantizer_raw(eps, dim, 1.0)
                for eps in np.linspace(0.05, 0.8, 20)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_dnm_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    atoms = [make_empirical(rng.normal(size=(3, 2)), rng.dirichlet(np.ones(3)))
             for _ in range(2)]
    model = _model(atoms, classifier=init_mlp([2, 6, 2], rng=rng), d=2)
    path = tmp_path / "model.json"
    save_dnm(model, path)
    loaded = load_dnm(path)
    x = rng.normal(size=2)
    assert np.array_equal(predict_weights(model, x), predict_weights(loaded, x))
    for a, b in zip(model.atoms, loaded.atoms):
        assert np.array_equal(a.atoms, b.atoms)
        assert np.array_equal(a.weights, b.weights)


def test_dnm_serialization_version_check():
    rng = np.random.default_rng(8)
    atoms = [make_empirical([(0.0,)])]
    model = _model(atoms, classifier=init_mlp([1, 1], rng=rng))
    data = dnm_to_dict(model)
    data["version"] = 2
    with pytest.raises(ValueError):
        dnm_from_dict(data)
