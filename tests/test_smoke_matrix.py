"""Task x model x output dimension smoke matrix, through the CLI.

Every combination of a generator task, one model and D in {1, 2} runs a
tiny ``urcd experiment``: minibatches smaller than the training set (so the
shuffle is on), few epochs, small samples.  A combination the tasks support
must finish with a finite report row for every model it ran; the others are
configuration errors: exit code 2 and a message that names the output
dimension.
"""

import math

import pytest

from urcd.cli import main
from urcd.harness import KNOWN_MODELS

from diagnostics import parse_report_csv

TASKS = ("heteroscedastic", "mc_dropout", "elm", "sde")
MODELS = tuple(m for m in KNOWN_MODELS if m != "oracle")
# the heteroscedastic and ELM tasks are scalar-valued
UNSUPPORTED = {("heteroscedastic", 2), ("elm", 2)}


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("D", (1, 2))
@pytest.mark.parametrize("task", TASKS)
def test_experiment_finishes_or_fails_clearly(task, D, model, tmp_path, capsys):
    report = tmp_path / "r.csv"
    argv = ["experiment", "--task", task, "--dim-out", str(D), "--size", "10",
            "--samples", "6", "--seed", "1", "--models", model,
            "--epochs", "3", "--hidden", "4", "--batch", "4",
            "--n-centers", "2", "--mdn-components", "3", "--n-test", "2",
            "--bootstrap", "100", "--report", str(report)]
    if task == "sde":
        argv += ["--d", str(D), "--n-steps", "10"]
    elif task == "elm":
        argv += ["--elm-width", "4"]
    code = main(argv)
    err = capsys.readouterr().err
    if (task, D) in UNSUPPORTED:
        assert code == 2
        assert err.startswith("error: ") and "D" in err
        assert not report.exists()
        return
    assert code == 0, err
    rows = parse_report_csv(report)
    assert [name for name, _ in rows] == ["oracle", model]
    for name, m in rows:
        values = (m.w1_lo, m.w1, m.w1_hi, m.m_lo, m.m, m.m_hi)
        assert all(math.isfinite(v) for v in values), name
