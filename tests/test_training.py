import ast
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import urcd.measures
import urcd.training
from urcd.dnm import dnm_predict, predict_weights
from urcd.measures import make_empirical
from urcd.neural import (
    NetConfig,
    cross_entropy_grad,
    fit_epochs,
    forward_cache,
    init_mlp,
    mean_nll,
    softmax,
)
from urcd.training import (
    Dataset,
    assign_labels,
    build_dataset,
    load_dataset,
    save_dataset,
    select_centers,
    train_dnm,
)

from diagnostics import covering_radius, measures_equal, medoid_centers


def _toy_dataset(rng, n=12, d=1, s=5):
    entries = []
    for _ in range(n):
        x = rng.uniform(0, 1, size=d)
        samples = rng.normal(loc=x.sum(), scale=0.1, size=(s, 1))
        entries.append((x, make_empirical(samples)))
    return build_dataset(entries, train_idx=range(n), test_idx=())


# ---------------------------------------------------------------------------
# center selection
# ---------------------------------------------------------------------------

def test_select_centers_one_per_cluster():
    inputs = [(0.0,), (0.0,), (0.0,), (10.0,), (10.0,), (10.0,)]
    picked = select_centers(inputs, 2)
    values = sorted(inputs[i][0] for i in picked)
    assert values == [0.0, 10.0]


def test_select_centers_greedy_vs_exhaustive():
    rng = np.random.default_rng(0)
    equal = 0
    for _ in range(50):
        n = int(rng.integers(4, 9))
        k = int(rng.integers(1, 4))
        inputs = rng.normal(size=(n, 2))
        dist = np.linalg.norm(inputs[:, None, :] - inputs[None, :, :], axis=2)

        def objective(subset):
            return dist[:, list(subset)].min(axis=1).sum()

        greedy = select_centers(inputs, k)
        exact = medoid_centers(inputs, k)
        assert len(set(greedy)) == k
        assert objective(greedy) >= objective(exact) - 1e-12
        if abs(objective(greedy) - objective(exact)) < 1e-12:
            equal += 1
    assert equal >= 25


def test_select_centers_validation():
    inputs = [(0.0,), (1.0,)]
    with pytest.raises(ValueError):
        select_centers(inputs, 2)
    with pytest.raises(ValueError):
        select_centers(inputs, 0)


# ---------------------------------------------------------------------------
# labeling
# ---------------------------------------------------------------------------

def test_assign_labels_center_is_its_own_label():
    inputs = [(0.0,), (5.0,), (9.0,)]
    labels = assign_labels(inputs, [0, 2])
    assert np.array_equal(labels[0], [1.0, 0.0])
    assert np.array_equal(labels[2], [0.0, 1.0])


def test_assign_labels_nearest():
    inputs = [(0.0,), (1.0,), (10.0,)]
    labels = assign_labels(inputs, [0, 2])
    assert np.array_equal(labels, [[1, 0], [1, 0], [0, 1]])


def test_select_centers_peak_memory_at_two_thousand_inputs():
    # the whole (n, n, d) array of input differences peaked at 768 MB here;
    # the centers are the ones it chose
    inputs = np.random.default_rng(2000).normal(size=(2000, 11))
    tracemalloc.start()
    try:
        picked = select_centers(inputs, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert picked == [1495, 1629, 1838, 209, 1948, 1366, 1034, 776, 349, 1960]
    assert peak < 200e6


def test_assign_labels_tie_break_lowest_index():
    inputs = [(0.0,), (2.0,), (1.0,)]     # the third point is equidistant
    labels = assign_labels(inputs, [0, 1])
    assert np.array_equal(labels[2], [1.0, 0.0])
    with pytest.raises(ValueError):
        assign_labels(inputs, [])


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def test_train_single_center_constant_model():
    rng = np.random.default_rng(2)
    data = _toy_dataset(rng, n=6)
    model, log = train_dnm(data, 1, NetConfig(hidden_dims=(4,), epochs=5), seed=0)
    center_measure = data.train_entries()[log.center_indices[0]][1]
    for x, _ in data.train_entries():
        assert measures_equal(dnm_predict(model, x), center_measure)
    assert log.final_loss < 1e-12


def test_train_two_separated_clusters():
    rng = np.random.default_rng(3)
    entries = []
    for cx, loc in ((0.0, -5.0), (10.0, 5.0)):
        for _ in range(10):
            x = np.array([cx + rng.uniform(-0.5, 0.5)])
            samples = np.full((4, 1), loc)
            entries.append((x, make_empirical(samples)))
    data = build_dataset(entries, train_idx=range(16), test_idx=range(16, 20))
    cfg = NetConfig(hidden_dims=(8,), epochs=200, learning_rate=0.05)
    model, log = train_dnm(data, 2, cfg, seed=1)
    assert log.final_accuracy == 1.0
    # test-split classification also perfect: argmax weight picks the atom
    # whose cluster the input belongs to
    for x, target in data.test_entries():
        picked_atom = model.atoms[int(predict_weights(model, x).argmax())]
        assert picked_atom.mean()[0] == target.mean()[0]
        pred = dnm_predict(model, x)
        assert abs(pred.mean()[0] - target.mean()[0]) < 0.5


def test_train_loss_decreases_seed_averaged():
    rng = np.random.default_rng(4)
    deltas = []
    for seed in range(5):
        data = _toy_dataset(rng, n=10)
        losses = [train_dnm(data, 3, NetConfig(hidden_dims=(8,), epochs=epochs,
                                               learning_rate=0.02),
                            seed=seed)[1].final_loss
                  for epochs in (1, 60)]
        deltas.append(losses[1] - losses[0])
    assert np.mean(deltas) < 0


def test_train_deterministic_per_seed():
    rng = np.random.default_rng(5)
    data = _toy_dataset(rng, n=8)
    cfg = NetConfig(hidden_dims=(6,), epochs=20, batch_size=3)
    m1, l1 = train_dnm(data, 2, cfg, seed=7)
    m2, l2 = train_dnm(data, 2, cfg, seed=7)
    assert l1 == l2
    for a, b in zip(m1.classifier.weights, m2.classifier.weights):
        assert np.array_equal(a, b)


def _train_dnm_full_loop(data, n_centers, cfg, seed):
    """The classifier fit of train_dnm with no shortcut: every epoch of
    minibatch Adam, then one forward pass for the loss and the accuracy.
    Kept as the reference for train_dnm's skipped one-center fit."""
    inputs = data.train_inputs()
    rng = np.random.default_rng(seed)
    centers = select_centers(inputs, n_centers)
    labels = assign_labels(inputs, centers)
    net = init_mlp([data.input_dim, *cfg.hidden_dims, n_centers],
                   activation=cfg.activation, rng=rng)

    def loss_grad(net, rows):
        return cross_entropy_grad(net, inputs[rows], labels[rows])

    net = fit_epochs(net, loss_grad, len(inputs), cfg, rng)
    logits, _, _ = forward_cache(net, inputs)
    loss = mean_nll(softmax(logits), labels)
    accuracy = float((logits.argmax(axis=1) == labels.argmax(axis=1)).mean())
    return net, loss, accuracy


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def _assert_fit_is_full_loop(data, n_centers, cfg, seed):
    model, log = train_dnm(data, n_centers, cfg, seed)
    net, loss, accuracy = _train_dnm_full_loop(data, n_centers, cfg, seed)
    assert np.array_equal(_bits(model.classifier.params), _bits(net.params))
    assert np.array_equal(_bits(log.final_loss), _bits(loss))
    assert np.array_equal(_bits(log.final_accuracy), _bits(accuracy))


_ACTIVATION = st.sampled_from(["relu", "tanh", "sigmoid", "identity"])


@settings(max_examples=40)
@given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(1, 3),
       st.lists(st.integers(1, 6), max_size=2), _ACTIVATION,
       st.one_of(st.none(), st.integers(1, 14)), st.integers(1, 6),
       st.sampled_from([1e-3, 2e-2, 0.5]))
def test_one_center_fit_equals_full_loop(seed, n, d, hidden, activation,
                                         batch_size, epochs, lr):
    cfg = NetConfig(hidden_dims=tuple(hidden), activation=activation,
                    batch_size=batch_size, epochs=epochs, learning_rate=lr)
    _assert_fit_is_full_loop(_toy_dataset(np.random.default_rng(seed), n, d),
                             1, cfg, seed)


@settings(max_examples=40)
@given(st.integers(0, 2**32 - 1), st.integers(3, 12), st.integers(1, 3),
       st.integers(2, 3), st.lists(st.integers(1, 6), max_size=2), _ACTIVATION,
       st.one_of(st.none(), st.integers(1, 14)), st.integers(1, 6))
def test_fit_logs_full_loop_losses(seed, n, d, n_centers, hidden, activation,
                                   batch_size, epochs):
    cfg = NetConfig(hidden_dims=tuple(hidden), activation=activation,
                    batch_size=batch_size, epochs=epochs, learning_rate=2e-2)
    _assert_fit_is_full_loop(_toy_dataset(np.random.default_rng(seed), n, d),
                             min(n_centers, n - 1), cfg, seed)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("batch_size", [None, 2])
def test_one_center_fit_on_an_infinite_input_fails_as_the_full_loop(batch_size):
    # a dataset file may hold Infinity; tanh keeps the logits finite, but the
    # gradient inf * 0 is NaN, so the full loop fails on a non-finite logit
    data = _toy_dataset(np.random.default_rng(15), n=6, d=2)
    entries = list(data.entries)
    entries[3] = (np.array([np.inf, 0.5]), entries[3][1])
    data = build_dataset(entries, train_idx=range(6), test_idx=())
    cfg = NetConfig(hidden_dims=(3,), activation="tanh", epochs=2,
                    batch_size=batch_size)
    for fit in (train_dnm, _train_dnm_full_loop):
        with pytest.raises(ValueError, match="finite"):
            fit(data, 1, cfg, 2)


def test_argmax_weight_matches_label_at_full_accuracy():
    rng = np.random.default_rng(6)
    entries = []
    for cx in (0.0, 4.0, 8.0):
        for _ in range(4):
            x = np.array([cx + rng.uniform(-0.3, 0.3)])
            entries.append((x, make_empirical(rng.normal(cx, 0.1, (3, 1)))))
    data = build_dataset(entries, train_idx=range(12), test_idx=())
    cfg = NetConfig(hidden_dims=(12,), epochs=300, learning_rate=0.05)
    model, log = train_dnm(data, 3, cfg, seed=2)
    if log.final_accuracy == 1.0:
        labels = assign_labels(data.train_inputs(), list(log.center_indices))
        for i, (x, _) in enumerate(data.train_entries()):
            assert predict_weights(model, x).argmax() == labels[i].argmax()


def test_covering_radius_non_increasing_over_nested_greedy_sets():
    rng = np.random.default_rng(7)
    diffs = []
    for _ in range(20):
        data = _toy_dataset(rng, n=10)
        inputs = data.train_inputs()
        train = data.train_entries()
        targets = [m for _, m in train]
        radii = []
        for n_centers in (1, 2, 4):
            idx = select_centers(inputs, n_centers)
            atoms = [train[i][1] for i in idx]
            radii.append(covering_radius(atoms, targets))
        diffs.append(radii[0] - radii[1])
        diffs.append(radii[1] - radii[2])
    assert np.mean(diffs) >= 0


# ---------------------------------------------------------------------------
# decoupling: training must never touch the transport solvers
# ---------------------------------------------------------------------------

def test_training_needs_no_transport_calls(monkeypatch):
    calls = {"n": 0}

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls["n"] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("w1_exact", "w1_1d", "w1_cost"):
        monkeypatch.setattr(urcd.measures, name,
                            counting(getattr(urcd.measures, name)))
    rng = np.random.default_rng(8)
    data = _toy_dataset(rng, n=8)
    train_dnm(data, 2, NetConfig(hidden_dims=(4,), epochs=5), seed=0)
    assert calls["n"] == 0


def test_training_module_does_not_import_solvers():
    src = pathlib.Path(urcd.training.__file__).read_text()
    tree = ast.parse(src)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "urcd.measures":
            imported |= {a.name for a in node.names}
    assert not imported & {"w1_exact", "w1_1d", "w1_cost"}


# ---------------------------------------------------------------------------
# dataset files
# ---------------------------------------------------------------------------

def test_dataset_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    data = _toy_dataset(rng, n=10)
    path = tmp_path / "data.jsonl"
    save_dataset(data, path)
    loaded = load_dataset(path)
    assert loaded.train_idx == data.train_idx
    assert loaded.test_idx == data.test_idx
    for (x1, m1), (x2, m2) in zip(data.entries, loaded.entries):
        assert np.array_equal(x1, x2)
        assert np.array_equal(m1.atoms, m2.atoms)


def test_dataset_default_split_is_80_20(tmp_path):
    rng = np.random.default_rng(10)
    data = _toy_dataset(rng, n=10)
    path = tmp_path / "data.jsonl"
    save_dataset(data, path)
    (tmp_path / "data.jsonl.split.json").unlink()
    loaded = load_dataset(path)          # no companion file
    assert loaded.train_idx == tuple(range(8))
    assert loaded.test_idx == (8, 9)


def test_dataset_requires_two_training_entries():
    with pytest.raises(ValueError):
        Dataset(entries=((np.zeros(1), make_empirical([(0.0,)])),),
                train_idx=(0,), test_idx=())
