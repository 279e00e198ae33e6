"""Measures made without weights share one read-only 1/k vector per atom
count, and a uniform measure's sorted view reuses it; every other measure
keeps weights of its own.  Sharing changes no bit: each comparison with a
measure of freshly allocated weights is ``==`` on the bytes, never a
tolerance.  A ``tracemalloc`` guard keeps per-measure weight vectors from
coming back."""

import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urcd.datagen import GeneratorConfig, generate
from urcd.dnm import load_dnm, save_dnm
from urcd.harness import oracle_references
from urcd.measures import (
    EmpiricalMeasure,
    atom_pool,
    make_empirical,
    mixture,
    w1_1d,
    w1_cost,
    w1_exact,
)
from urcd.neural import NetConfig
from urcd.training import load_dataset, save_dataset, train_dnm


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _fresh(measure):
    """``measure`` with weights of its own, allocated as they used to be."""
    k = measure.n_atoms
    return EmpiricalMeasure(measure.atoms, np.full(k, 1 / k))


def _read_only(array) -> bool:
    try:
        array[0] = 0.5
    except ValueError:
        return True
    return False


def test_uniform_measures_of_one_size_share_one_read_only_vector():
    mu = make_empirical([[0.0], [2.0], [1.0]])
    nu = make_empirical([[5.0, 1.0], [5.0, 1.0], [-1.0, 0.0]])
    assert nu.weights is mu.weights
    assert _read_only(mu.weights)
    assert _same_bits(mu.weights, np.full(3, 1 / 3))
    assert make_empirical([[0.0], [1.0]]).weights is not mu.weights


def test_generated_and_loaded_targets_share_the_vector(tmp_path):
    data, _ = generate(GeneratorConfig(task="heteroscedastic", d=2, size=6,
                                       S=7))
    path = tmp_path / "d.jsonl"
    save_dataset(data, path)
    loaded = load_dataset(path)
    shared = make_empirical(np.zeros((7, 1))).weights
    for (_, drawn), (_, read) in zip(data.entries, loaded.entries):
        assert drawn.weights is shared
        assert read.weights is shared
        assert _same_bits(read.atoms, drawn.atoms)


def test_given_weights_mixtures_and_loaded_atoms_keep_their_own(tmp_path):
    points = [[0.0], [3.0], [1.0], [1.0]]
    shared = make_empirical(points).weights
    assert make_empirical(points, np.full(4, 0.25)).weights is not shared
    assert make_empirical(points, [0.25] * 4,
                          renormalize=False).weights is not shared
    mu, nu = make_empirical([[0.0], [1.0]]), make_empirical([[2.0], [3.0]])
    mix = mixture((0.5, 0.5), atom_pool([mu, nu]))
    assert mix.weights is not shared
    assert mix.weights is not mu.weights

    data, _ = generate(GeneratorConfig(task="heteroscedastic", d=2, size=8,
                                       S=4))
    model, _ = train_dnm(data, 2, NetConfig(hidden_dims=(4,), epochs=3))
    path = tmp_path / "m.json"
    save_dnm(model, path)
    shared = make_empirical(np.zeros((4, 1))).weights
    assert all(m.weights is shared for m in model.atoms)
    for m in load_dnm(path).atoms:
        assert m.weights is not shared
        assert _same_bits(m.weights, shared)


def test_line_view_of_a_uniform_measure_is_its_weights():
    mu = make_empirical([[2.0], [0.0], [1.0], [0.0]])
    xs, ws = mu.line_view
    assert ws is mu.weights
    assert _same_bits(xs, [0.0, 0.0, 1.0, 2.0])
    assert _read_only(xs)
    # given weights are gathered into the sorted order
    nu = make_empirical(mu.atoms, [0.1, 0.2, 0.3, 0.4])
    assert _same_bits(nu.line_view[1], [0.2, 0.4, 0.3, 0.1])
    assert _read_only(nu.line_view[1])


def test_unpickled_measure_gives_the_same_bits():
    """A forked child sends its measures back pickled: their weights are an
    equal vector of their own, and the sorted view gathers it."""
    data, sampler = generate(GeneratorConfig(task="mc_dropout", d=3, D=1,
                                             size=2, S=40, base_width=5))
    mu, nu = oracle_references([x for x, _ in data.entries], sampler, 40, 1)
    back = pickle.loads(pickle.dumps(mu))
    assert back.weights is not mu.weights
    assert _same_bits(back.weights, mu.weights)
    assert back.line_view[1] is not back.weights
    assert _same_bits(back.line_view[1], mu.line_view[1])
    assert _same_bits(back.mean(), mu.mean())
    assert w1_1d(back, nu) == w1_1d(mu, nu)
    assert w1_1d(nu, back) == w1_1d(nu, mu)
    assert w1_exact(back, nu).cost == w1_exact(mu, nu).cost
    assert w1_exact(back, nu).cost > 0.0


# few distinct values, so atoms tie within and across measures
_COORD = st.sampled_from([-1.0, 0.0, 0.5, 2.0, 1e-300, 3.25])


@st.composite
def _uniform_pair(draw, dim):
    sizes = st.integers(1, 8)
    return tuple(
        make_empirical([[draw(_COORD) for _ in range(dim)]
                        for _ in range(draw(sizes))])
        for _ in range(2))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 2).flatmap(_uniform_pair))
def test_shared_weights_give_the_bits_of_fresh_ones(pair):
    mu, nu = pair
    fresh_mu, fresh_nu = _fresh(mu), _fresh(nu)
    assert w1_cost(mu, nu) == w1_cost(fresh_mu, fresh_nu)
    assert w1_cost(nu, mu) == w1_cost(fresh_nu, fresh_mu)
    assert _same_bits(mu.mean(), fresh_mu.mean())
    assert _same_bits(nu.mean(), fresh_nu.mean())
    if mu.dim == 1:
        for got, want in zip(mu.line_view, fresh_mu.line_view):
            assert _same_bits(got, want)


# the perfbench dropout-d10 references: 200 inputs, 500 draws, D = 1
_D10 = GeneratorConfig(task="mc_dropout", d=10, D=1, size=200, S=500,
                       base_width=5, dropout_rate=0.1)


@pytest.fixture
def _traced():
    tracemalloc.start()
    try:
        yield lambda: tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_references_hold_little_beside_their_atoms(_traced):
    """Uniform weights are one vector for all the references, and their
    sorted views add only the sorted coordinates."""
    data, sampler = generate(_D10)
    points = [x for x, _ in data.entries]
    before = _traced()
    references = oracle_references(points, sampler, _D10.S, seed=5)
    atom_bytes = sum(m.atoms.nbytes for m in references)
    assert atom_bytes == 200 * 500 * 8
    held = _traced() - before
    assert held <= 1.25 * atom_bytes, held / atom_bytes
    for m in references:
        m.line_view
    held = _traced() - before
    assert held <= 2.25 * atom_bytes, held / atom_bytes
