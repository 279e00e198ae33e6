"""Bit-level contract of the trainers.

``tests/data/golden_fits.json`` pins the SHA-256 of the trained parameter
bytes (every weight, then every bias, of each network in order) that
``train_dnm``, ``mdn_fit``, ``dgn_fit`` and ``mean_dnn_fit`` return on tiny
generated data.  Every case trains with a batch smaller than the training
set, so the per-epoch shuffle is on.  The MDN cases cover D = 2 and targets
with fewer atoms than mixture components, whose padded components tie
exactly in the target matching.

The same file pins ``train_dnm``'s training log: the bytes of every epoch
loss and of the final label accuracy (as ``float.hex`` strings), with the
parameter hash, for a full-batch fit, a minibatch fit and the one-center
``const`` model (minibatch relu, full-batch relu and minibatch tanh).

Regenerate the golden file (only when a change to the trained parameters
is intended and said so) with ``PYTHONPATH=src python tests/test_golden_fits.py``.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from urcd.baselines import FitConfig, dgn_fit, mdn_fit, mean_dnn_fit
from urcd.datagen import GeneratorConfig, generate
from urcd.training import TrainConfig, train_dnm

GOLDEN = Path(__file__).parent / "data" / "golden_fits.json"

# name -> (trainer, generator settings, fit settings)
_CASES = {
    "dnm_hetero_d2": ("dnm", dict(task="heteroscedastic", d=2, size=14, S=20,
                                  seed=1, base_width=6),
                      dict(hidden_dims=(5,), epochs=12, batch_size=4,
                           learning_rate=2e-2, seed=3, n_centers=3)),
    "mdn_hetero_K3": ("mdn", dict(task="heteroscedastic", d=1, size=14, S=20,
                                  seed=2, base_width=6),
                      dict(hidden_dims=(6,), epochs=12, batch_size=4,
                           learning_rate=2e-2, seed=4, n_components=3)),
    "mdn_dropout_D2_K4": ("mdn", dict(task="mc_dropout", d=2, D=2, size=14,
                                      S=20, seed=3, base_width=5),
                          dict(hidden_dims=(6, 5), activation="tanh",
                               epochs=10, batch_size=5, learning_rate=1e-2,
                               seed=5, n_components=4)),
    # two atoms per target and three components: the padded third
    # component repeats the second, so predicted-to-target distances tie
    "mdn_two_atoms_K3": ("mdn", dict(task="heteroscedastic", d=1, size=14,
                                     S=2, seed=4, base_width=6),
                         dict(hidden_dims=(6,), epochs=12, batch_size=3,
                              learning_rate=2e-2, seed=6, n_components=3)),
    "mdn_sde_D2_two_atoms_K3": ("mdn", dict(task="sde", d=2, D=2, size=12,
                                            S=2, seed=5, n_steps=20),
                                dict(hidden_dims=(4,), epochs=8, batch_size=4,
                                     learning_rate=2e-2, seed=7,
                                     n_components=3)),
    "dgn_dropout_D2": ("dgn", dict(task="mc_dropout", d=2, D=2, size=14, S=20,
                                   seed=6, base_width=5),
                       dict(hidden_dims=(6,), epochs=12, batch_size=4,
                            learning_rate=2e-2, seed=8)),
    "mean_hetero": ("mean", dict(task="heteroscedastic", d=1, size=14, S=20,
                                 seed=7, base_width=6),
                    dict(hidden_dims=(6, 4), epochs=12, batch_size=4,
                         learning_rate=2e-2, seed=9)),
}


# name -> (generator settings, train_dnm settings); the training log is pinned
_LOG_CASES = {
    "dnm_log_full_batch": (dict(task="mc_dropout", d=3, size=14, S=20, seed=8,
                                base_width=5),
                           dict(hidden_dims=(5,), epochs=10,
                                learning_rate=2e-2, seed=10, n_centers=3)),
    "dnm_log_minibatch": (dict(task="heteroscedastic", d=2, size=14, S=20,
                               seed=9, base_width=6),
                          dict(hidden_dims=(6, 4), activation="tanh",
                               epochs=10, batch_size=4, learning_rate=2e-2,
                               seed=11, n_centers=4)),
    "dnm_log_const": (dict(task="heteroscedastic", d=1, size=14, S=20, seed=10,
                           base_width=6),
                      dict(hidden_dims=(4,), epochs=6, batch_size=5,
                           learning_rate=2e-2, seed=12, n_centers=1)),
    "dnm_log_const_full_batch": (dict(task="mc_dropout", d=2, size=14, S=20,
                                      seed=11, base_width=5),
                                 dict(hidden_dims=(5,), epochs=7,
                                      learning_rate=2e-2, seed=13,
                                      n_centers=1)),
    "dnm_log_const_tanh": (dict(task="heteroscedastic", d=2, size=14, S=20,
                                seed=12, base_width=6),
                           dict(hidden_dims=(6, 4), activation="tanh",
                                epochs=5, batch_size=4, learning_rate=1e-2,
                                seed=14, n_centers=1)),
}


def _networks(kind: str, data, fit: dict):
    fit = dict(fit)
    if kind == "dnm":
        model, _ = train_dnm(data, TrainConfig(**fit))
        return (model.classifier,)
    if kind == "mdn":
        k = fit.pop("n_components")
        model = mdn_fit(data, k, FitConfig(**fit))
        return (model.trunk, model.head)
    fitter = {"dgn": dgn_fit, "mean": mean_dnn_fit}[kind]
    return (fitter(data, FitConfig(**fit)).net,)


def _params_hash(nets) -> str:
    digest = hashlib.sha256()
    for net in nets:
        for arr in (*net.weights, *net.biases):
            digest.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    return digest.hexdigest()


def _fit_hash(kind: str, gen: dict, fit: dict) -> str:
    data, _ = generate(GeneratorConfig(**gen))
    batch = fit["batch_size"]
    assert batch < len(data.train_entries()), "the shuffle must be on"
    return _params_hash(_networks(kind, data, fit))


def _log_entry(gen: dict, fit: dict) -> dict:
    data, _ = generate(GeneratorConfig(**gen))
    model, log = train_dnm(data, TrainConfig(**fit))
    return {"config": {"trainer": "dnm", "generator": gen, "fit": fit},
            "sha256": _params_hash((model.classifier,)),
            "epoch_losses": [float(v).hex() for v in log.epoch_losses],
            "final_accuracy": float(log.final_accuracy).hex()}


def _as_json(value):
    return json.loads(json.dumps(value))


def test_golden_fit_bytes():
    golden = json.loads(GOLDEN.read_text())
    assert set(golden) == set(_CASES) | set(_LOG_CASES)
    for name, (kind, gen, fit) in _CASES.items():
        assert golden[name]["config"] == _as_json(
            {"trainer": kind, "generator": gen, "fit": fit})
        assert _fit_hash(kind, gen, fit) == golden[name]["sha256"], name


def test_golden_training_log_bytes():
    golden = json.loads(GOLDEN.read_text())
    for name, (gen, fit) in _LOG_CASES.items():
        assert _as_json(_log_entry(gen, fit)) == golden[name], name


if __name__ == "__main__":
    out = {name: {"config": {"trainer": kind, "generator": gen, "fit": fit},
                  "sha256": _fit_hash(kind, gen, fit)}
           for name, (kind, gen, fit) in _CASES.items()}
    out.update({name: _log_entry(gen, fit)
                for name, (gen, fit) in _LOG_CASES.items()})
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
