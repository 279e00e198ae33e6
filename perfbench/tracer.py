"""Spans around calls into urcd's public functions, recorded from outside.

The program is not edited.  ``Tracer.installed()`` rebinds every traced
function in each ``urcd`` module that holds it (so calls made through a
module-level name, such as ``urcd.training.adam_step``, go through the
wrapper) and replaces each sampler class's ``draw``; leaving the block puts
every original back, also when the block raises.

A span's self time is its duration minus the time covered by its child
spans.  Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# module -> public functions whose calls get a span named "<module>.<function>"
TRACED = {
    "urcd.measures": ("w1_cost", "w1_exact", "w1_1d", "mixture", "make_empirical"),
    "urcd.datagen": ("generate",),
    "urcd.baselines": ("mc_oracle", "mdn_fit", "em_fit_gmm", "dgn_fit",
                       "mean_dnn_fit"),
    "urcd.training": ("train_dnm", "select_centers"),
    "urcd.neural": ("adam_step", "forward_cache", "backprop",
                    "cross_entropy_grad", "softmax"),
    "urcd.dnm": ("dnm_predict",),
    "urcd.harness": ("run_experiment", "oracle_references", "eval_model",
                     "bca_interval"),
}
# every sampler's draw(x, size, seed) shares the span name "datagen.draw"
SAMPLER_CLASSES = ("HeteroscedasticSampler", "DropoutSampler", "ElmSampler",
                   "SdeSampler")
KEEP_PAIRS = 40   # W1 evaluations kept per kind for the cross-check
SPAN_NAMES = tuple(f"{module.split('.', 1)[1]}.{function}"
                   for module, functions in TRACED.items()
                   for function in functions) + ("datagen.draw",)


class Reservoir:
    """Uniform sample of at most `size` items from a stream (Algorithm R)."""

    def __init__(self, size: int, rng: np.random.Generator):
        self.size = size
        self.rng = rng
        self.seen = 0
        self.items = []

    def offer(self, item):
        if self.seen < self.size:
            self.items.append(item)
        else:
            r = int(self.rng.integers(0, self.seen + 1))
            if r < self.size:
                self.items[r] = item
        self.seen += 1


def _has_duplicate_atoms(measure) -> bool:
    return np.unique(measure.atoms, axis=0).shape[0] < measure.n_atoms


def _is_uniform(measure) -> bool:
    return bool(np.all(measure.weights == measure.weights[0]))


class Tracer:
    def __init__(self, seed: int):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.spans = []           # (experiment, span id, parent id, name, start, end)
        self.experiment = 0
        self._stack = []          # [span id, time covered by children]
        self._next_id = 0
        self._saved = []          # (owner, attribute, original), not yet restored
        self._rebound = []        # every rebinding of the last installation
        # measures.w1_exact input properties
        self.w1_exact_ms = []
        self.shapes = Counter()   # (k, m) -> calls
        self.cells = 0
        self.uniform_square = 0
        self.dup_atoms = 0
        self.draw_samples = 0
        rng = np.random.default_rng(seed)
        self.exact_pairs = Reservoir(KEEP_PAIRS, rng)   # (mu, nu, cost)
        self.line_pairs = Reservoir(KEEP_PAIRS, rng)    # (mu, nu, w1_1d value)

    # -- observers: run after the span has ended ---------------------------

    def _observe_w1_exact(self, seconds, result, mu, nu, *_):
        k, m = mu.n_atoms, nu.n_atoms
        self.w1_exact_ms.append(seconds * 1e3)
        self.shapes[(k, m)] += 1
        self.cells += k * m
        if k == m and _is_uniform(mu) and _is_uniform(nu):
            self.uniform_square += 1
        if _has_duplicate_atoms(mu) or _has_duplicate_atoms(nu):
            self.dup_atoms += 1
        self.exact_pairs.offer((mu, nu, result.cost))

    def _observe_w1_1d(self, seconds, result, mu, nu, *_):
        self.line_pairs.offer((mu, nu, result))

    def _observe_draw(self, seconds, result, sampler, x, size, *_):
        self.draw_samples += int(size)

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name: str, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else -1
            frame = [span_id, 0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - start
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[1]
                tracer.spans.append((tracer.experiment, span_id, parent, name,
                                     start, end))
            if observe is not None:
                observe(duration, result, *args, *kwargs.values())
            if tracer._stack:
                # the tracer's own bookkeeping is no part of the caller's self time
                tracer._stack[-1][1] += time.perf_counter() - end
            return result

        return traced

    def _rebind(self, owner, attribute: str, replacement):
        entry = (owner, attribute, getattr(owner, attribute))
        self._saved.append(entry)
        self._rebound.append(entry)
        setattr(owner, attribute, replacement)

    def _install(self):
        modules = [mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == "urcd" or name.startswith("urcd."))]
        observers = {"measures.w1_exact": self._observe_w1_exact,
                     "measures.w1_1d": self._observe_w1_1d}
        for module_name, functions in TRACED.items():
            home = sys.modules[module_name]
            short = module_name.split(".", 1)[1]
            for function in functions:
                original = getattr(home, function)
                name = f"{short}.{function}"
                wrapper = self._wrap(name, original, observers.get(name))
                for mod in modules:
                    for attribute, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, attribute, wrapper)
        datagen = sys.modules["urcd.datagen"]
        for class_name in SAMPLER_CLASSES:
            cls = getattr(datagen, class_name)
            self._rebind(cls, "draw", self._wrap("datagen.draw", cls.draw,
                                                 self._observe_draw))

    def _restore(self):
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    @contextlib.contextmanager
    def installed(self):
        """Trace calls made inside the block; originals are back afterwards."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        self._rebound = []
        try:
            self._install()
            yield self
        finally:
            self._restore()

    def all_restored(self) -> bool:
        """True when every name the last installation rebound is the original again."""
        return all(getattr(owner, attribute) is original
                   for owner, attribute, original in self._rebound)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("experiment,span,parent,name,start_s,end_s\n")
            for exp, span_id, parent, name, start, end in self.spans:
                fh.write(f"{exp},{span_id},{parent},{name},{start!r},{end!r}\n")
