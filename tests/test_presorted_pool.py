"""1-D W1 over presorted measures, and mixtures over a model's atom pool,
give bit for bit what sorting the concatenation and mixing afresh gave.

``_w1_1d_sorting_union`` and ``_mixture_concatenating`` copy earlier
versions of ``measures.w1_1d`` and ``measures.mixture``, which sorted the
union of each pair and concatenated the atom measures on every call; every
comparison with them is ``==`` (or equal bytes), never a tolerance.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from urcd.dnm import DnmModel, dnm_predict, predict_weights
from urcd.measures import atom_pool, check_simplex, make_empirical, mixture, w1_1d
from urcd.neural import Mlp


def _w1_1d_sorting_union(mu, nu):
    xs = np.concatenate([mu.atoms[:, 0], nu.atoms[:, 0]])
    dmu = np.concatenate([mu.weights, np.zeros(nu.n_atoms)])
    dnu = np.concatenate([np.zeros(mu.n_atoms), nu.weights])
    order = np.argsort(xs, kind="stable")
    xs = xs[order]
    gap = np.diff(xs)
    cdf_gap = np.cumsum(dmu[order] - dnu[order])[:-1]
    return float(np.abs(cdf_gap) @ gap)


def _mixture_concatenating(beta, measures):
    beta = check_simplex(beta)
    measures = list(measures)
    atoms = np.concatenate([m.atoms for m in measures], axis=0)
    weights = np.concatenate([bn * m.weights for bn, m in zip(beta, measures)])
    keep = weights > 0.0
    return make_empirical(atoms[keep], weights[keep])


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_float(a: float, b: float) -> bool:
    return a == b and np.signbit(a) == np.signbit(b)


# few distinct values, so atoms tie within and across measures; both zeros
_COORDS = st.sampled_from([-0.0, 0.0, 1.0, -1.0, 0.5, 2.5, 1e-300, -3.0, 7.25])
_SPREAD = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False,
                    width=64).map(lambda v: round(v, 1))


@st.composite
def _line_measure(draw, max_atoms=12, dim=1):
    k = draw(st.integers(1, max_atoms))
    coords = st.one_of(_COORDS, _SPREAD)
    points = [[draw(coords) for _ in range(dim)] for _ in range(k)]
    kind = draw(st.sampled_from(["uniform", "counts", "floats"]))
    if kind == "uniform":
        return make_empirical(points)
    # zero weights included; float weights make the order of a tie's
    # increments show in the last bits of the cumulative sums
    values = st.integers(0, 4) if kind == "counts" else st.one_of(
        st.just(0.0), st.floats(1e-3, 1.0))
    raw = draw(st.lists(values, min_size=k, max_size=k))
    if sum(raw) == 0:
        raw[draw(st.integers(0, k - 1))] = 1
    weights = np.array(raw, dtype=float)
    return make_empirical(points, weights / weights.sum())


@settings(max_examples=400, deadline=None)
@given(_line_measure(), _line_measure())
def test_merged_w1_1d_equals_sorting_the_union(mu, nu):
    expected = _w1_1d_sorting_union(mu, nu)
    assert _same_float(w1_1d(mu, nu), expected)
    # the second call reads the cached views, and gives the same bits
    assert _same_float(w1_1d(mu, nu), expected)
    assert _same_float(w1_1d(nu, mu), _w1_1d_sorting_union(nu, mu))


def test_merged_w1_1d_fixed_ties_and_signed_zeros():
    cases = [
        ([[0.0]], [[-0.0]]),
        ([[-0.0], [0.0], [-0.0]], [[0.0], [-0.0]]),
        ([[1.0], [1.0], [1.0]], [[1.0]]),
        ([[2.0]], [[2.0], [-1.0], [2.0], [5.0]]),
        ([[0.0], [1.0], [1.0], [3.0]], [[1.0], [1.0], [0.0], [3.0]]),
    ]
    for a, b in cases:
        skew = np.arange(1.0, len(a) + 1)
        for w in (None, skew / skew.sum()):
            mu, nu = make_empirical(a, w), make_empirical(b)
            assert _same_float(w1_1d(mu, nu), _w1_1d_sorting_union(mu, nu))
            assert _same_float(w1_1d(nu, mu), _w1_1d_sorting_union(nu, mu))


def test_line_view_is_a_derived_read_only_cache():
    mu = make_empirical([[2.0], [-1.0], [2.0], [0.0]], [0.1, 0.2, 0.3, 0.4])
    xs, ws = mu.line_view
    assert mu.line_view is mu.line_view
    assert xs.tolist() == [-1.0, 0.0, 2.0, 2.0]
    assert ws.tolist() == [0.2, 0.4, 0.1, 0.3]     # tied atoms keep index order
    assert not xs.flags.writeable and not ws.flags.writeable
    assert set(dataclasses.asdict(mu)) == {"atoms", "weights"}
    assert [f.name for f in dataclasses.fields(mu)] == ["atoms", "weights"]


# ---------------------------------------------------------------------------
# mixtures over a pool
# ---------------------------------------------------------------------------

def _model(atom_measures, bias, slope):
    """A one-input model whose logits are slope * x + bias: a bias of about
    -745 or less makes that measure's softmax weight exactly 0."""
    n = len(atom_measures)
    classifier = Mlp(layer_dims=(1, n),
                     weights=(np.asarray(slope, dtype=float).reshape(1, n),),
                     biases=(np.asarray(bias, dtype=float),),
                     activation="identity")
    return DnmModel(classifier=classifier, atoms=tuple(atom_measures))


_BIASES = st.sampled_from([0.0, 0.0, 1.5, -2.0, 30.0, -745.0, -800.0, -1e4])


@st.composite
def _model_and_inputs(draw, dim):
    n = draw(st.integers(1, 5))
    atom_measures = [draw(_line_measure(max_atoms=6, dim=dim)) for _ in range(n)]
    bias = draw(st.lists(_BIASES, min_size=n, max_size=n))
    slope = draw(st.lists(st.sampled_from([0.0, 1.0, -3.0]), min_size=n, max_size=n))
    xs = draw(st.lists(st.sampled_from([0.0, 0.25, -1.0, 2.0]), min_size=1,
                       max_size=3))
    return _model(atom_measures, bias, slope), [np.array([x]) for x in xs]


def _check_prediction(model, x, reference):
    beta = predict_weights(model, x)
    expected = _mixture_concatenating(beta, model.atoms)
    pred = dnm_predict(model, x)
    assert _same_bits(pred.atoms, expected.atoms)      # same atoms, same order
    assert _same_bits(pred.weights, expected.weights)
    assert _same_bits(pred.mean(), expected.mean())
    mixed = mixture(beta, atom_pool(model.atoms))
    assert _same_bits(mixed.atoms, expected.atoms)
    assert _same_bits(mixed.weights, expected.weights)
    if model.output_dim == 1:
        # the view handed over by the pool is the one sorting would give
        assert "line_view" in vars(pred)
        fresh = make_empirical(pred.atoms, pred.weights, renormalize=False)
        for got, want in zip(pred.line_view, fresh.line_view):
            assert _same_bits(got, want)
        assert _same_float(w1_1d(pred, reference),
                           _w1_1d_sorting_union(expected, reference))
        assert _same_float(w1_1d(reference, pred),
                           _w1_1d_sorting_union(reference, expected))
    return beta


@settings(max_examples=200, deadline=None)
@given(_model_and_inputs(dim=1), _line_measure())
def test_dnm_predict_over_the_pool_matches_mixing_afresh_1d(model_inputs, reference):
    model, xs = model_inputs
    for x in xs:
        _check_prediction(model, x, reference)
    assert model.pool is model.pool


@settings(max_examples=100, deadline=None)
@given(_model_and_inputs(dim=2))
def test_dnm_predict_over_the_pool_matches_mixing_afresh_2d(model_inputs):
    model, xs = model_inputs
    assert model.pool.order is None
    for x in xs:
        _check_prediction(model, x, None)


def test_underflowed_weights_drop_their_atoms_and_their_view():
    a = make_empirical([[3.0], [1.0]])
    b = make_empirical([[2.0], [1.0], [0.0]])
    c = make_empirical([[1.0]])
    model = _model([a, b, c], bias=[0.0, -1e4, 0.0], slope=[0.0, 0.0, 0.0])
    beta = _check_prediction(model, np.array([0.0]), make_empirical([[1.0], [2.5]]))
    assert beta[1] == 0.0
    pred = dnm_predict(model, np.array([0.0]))
    assert pred.atoms[:, 0].tolist() == [3.0, 1.0, 1.0]
    assert pred.line_view[0].tolist() == [1.0, 1.0, 3.0]
    assert pred.line_view[1].tolist() == [0.25, 0.5, 0.25]
