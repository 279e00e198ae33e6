import json

import pytest

from urcd.cli import main
from urcd.harness import parse_report_csv


def test_rates_neps(capsys):
    assert main(["rates", "--neps", "--eps", "1", "--d", "1"]) == 0
    assert capsys.readouterr().out.strip() == "16"


def test_rates_nq(capsys):
    assert main(["rates", "--nq", "--eps", "0.4", "--dim-out", "2",
                 "--radius", "1"]) == 0
    assert capsys.readouterr().out.strip() == "2134"


def test_gen_train_eval_pipeline(tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    model = tmp_path / "model.json"
    assert main(["gen", "--task", "heteroscedastic", "--d", "1",
                 "--size", "10", "--samples", "8", "--seed", "1",
                 "--out", str(data), "--describe"]) == 0
    assert data.exists()
    assert (tmp_path / "data.jsonl.split.json").exists()
    assert main(["train", "--data", str(data), "--n", "2",
                 "--out", str(model), "--epochs", "15", "--hidden", "6",
                 "--seed", "0"]) == 0
    assert model.exists()
    assert main(["eval", "--model", str(model), "--data", str(data)]) == 0
    out = capsys.readouterr().out
    assert "worst" in out


def test_experiment_writes_report(tmp_path):
    report = tmp_path / "report.csv"
    code = main(["experiment", "--task", "heteroscedastic", "--d", "1",
                 "--size", "8", "--samples", "8", "--seed", "2",
                 "--models", "dnm,mean", "--report", str(report),
                 "--epochs", "10", "--hidden", "4", "--n-centers", "2",
                 "--n-test", "3", "--bootstrap", "200"])
    assert code == 0
    rows = dict(parse_report_csv(report))
    assert set(rows) == {"oracle", "dnm", "mean"}
    assert rows["oracle"].w1 == 0.0


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("task = heteroscedastic\nsize = 8\nsamples = 8\n"
                   "seed = 3\nd = 1\n# comment line\n")
    out = tmp_path / "cfg_data.jsonl"
    assert main(["--config", str(cfg), "gen", "--out", str(out)]) == 0
    lines = [ln for ln in out.read_text().splitlines() if ln.strip()]
    assert len(lines) == 8
    rec = json.loads(lines[0])
    assert len(rec["samples"]) == 8


def test_config_file_task_accepts_hyphens(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("task = mc-dropout\nd = 3\nbase_width = 4\n"
                   "size = 6\nsamples = 5\nseed = 2\n")
    out = tmp_path / "drop.jsonl"
    assert main(["--config", str(cfg), "gen", "--out", str(out)]) == 0
    assert out.exists()


def test_flag_overrides_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("task = heteroscedastic\nsize = 8\nsamples = 5\nd = 1\n")
    out = tmp_path / "d.jsonl"
    assert main(["--config", str(cfg), "gen", "--size", "4",
                 "--out", str(out)]) == 0
    lines = [ln for ln in out.read_text().splitlines() if ln.strip()]
    assert len(lines) == 4


def test_exit_code_2_on_config_errors(tmp_path, capsys):
    out = tmp_path / "x.jsonl"
    # dropout rate outside [0, 1)
    assert main(["gen", "--task", "mc-dropout", "--dropout-rate", "1.5",
                 "--size", "8", "--samples", "5", "--out", str(out)]) == 2
    assert main(["--config", str(tmp_path / "missing.cfg"), "rates",
                 "--neps", "--eps", "1"]) == 2
    # settings the shared training config rejects
    experiment = ["experiment", "--task", "heteroscedastic", "--size", "8",
                  "--samples", "6", "--models", "mean", "--n-test", "2",
                  "--bootstrap", "200", "--report", str(tmp_path / "r.csv")]
    assert main(experiment + ["--epochs", "0"]) == 2
    assert main(experiment + ["--lr", "0"]) == 2
    assert "error" in capsys.readouterr().err


def test_exit_code_3_on_runtime_failure(tmp_path, capsys):
    report = tmp_path / "no_such_dir" / "report.csv"
    code = main(["experiment", "--task", "heteroscedastic", "--d", "1",
                 "--size", "8", "--samples", "6", "--seed", "4",
                 "--models", "mean", "--report", str(report),
                 "--epochs", "5", "--hidden", "4", "--n-centers", "2",
                 "--n-test", "2", "--bootstrap", "200"])
    assert code == 3
    assert "failed" in capsys.readouterr().err


def test_bad_usage_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["gen"])          # --out is required
    assert exc.value.code == 2
