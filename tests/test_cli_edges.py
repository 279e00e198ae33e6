"""Tiny ``urcd experiment`` runs at the edges of their settings: one or two
samples per target, one test point, as many centers as the training set
allows, and learning rates at the ends of the double range.  Each run
succeeds, refuses its settings (exit 2) or fails at a tagged stage (exit
3); none ends in a traceback."""

import contextlib
import io
import re
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from urcd.cli import main
from urcd.datagen import TASKS, GeneratorConfig, generate

_TAGGED = re.compile(r"failed: \[(generate|reference|fork|train:\w+|eval:\w+)\] ")


def _train_size(task: str, size: int) -> int:
    return len(generate(GeneratorConfig(task=task, size=size, S=2))[0].train_idx)


@settings(max_examples=25, deadline=None)
@given(task=st.sampled_from(TASKS), samples=st.sampled_from([1, 2]),
       size=st.integers(3, 5), lr=st.sampled_from(["1e300", "1e-300"]),
       models=st.sampled_from(["dnm,const", "mdn,dgn,mean",
                               "dnm,const,mdn,dgn,mean"]))
def test_edge_settings_exit_cleanly(task, samples, size, lr, models):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = main(["experiment", "--task", task, "--size", str(size),
                     "--samples", str(samples), "--n-test", "1",
                     "--n-centers", str(_train_size(task, size) - 1),
                     "--models", models, "--lr", lr, "--epochs", "2",
                     "--hidden", "4", "--bootstrap", "100",
                     "--report", str(Path(tmp) / "r.csv")])
    text = err.getvalue()
    assert code in (0, 2, 3), (code, text)
    assert "Traceback" not in text, text
    if code == 3:
        assert _TAGGED.match(text), text
