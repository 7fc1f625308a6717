import dataclasses
import json
import logging
import os

import pytest

from bdmadapt import ExperimentConfig, fit_slope, run_experiment
from bdmadapt.cli import _build_parser, main
from bdmadapt.experiments import CSV_COLUMNS


def tiny_config(out, **kw):
    base = dict(experiment="smooth", p_list=(1,), mode="uniform",
                iterations=3, out=out, initial_elements=8)
    base.update(kw)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(p_list=(4,))
    with pytest.raises(ValueError):
        ExperimentConfig(theta=1.5)
    with pytest.raises(ValueError):
        ExperimentConfig(iterations=0)
    with pytest.raises(ValueError):
        ExperimentConfig(mode="sideways")
    with pytest.raises(ValueError, match="marker"):
        ExperimentConfig(marker="bogus")
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"unknown_key": 1})


def test_run_experiment_artifacts(tmp_path):
    out = str(tmp_path / "res")
    summary = run_experiment(tiny_config(out, iterations=4))
    assert summary["io_errors"] == []
    csv_path = os.path.join(out, "convergence_p1.csv")
    with open(csv_path) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 5  # header + 4 iterations
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "8"
    assert float(first[3]) > 0  # eta
    with open(os.path.join(out, "log_p1.json")) as fh:
        log = json.load(fh)
    assert len(log["iterations"]) == 4
    with open(os.path.join(out, "report_p1_final.json")) as fh:
        rep = json.load(fh)
    assert rep["n_elements"] == 512
    with open(os.path.join(out, "summary.json")) as fh:
        stored = json.load(fh)
    slope = stored["per_degree"]["1"]["slopes"]["err_L2_nu"]
    assert slope is not None and slope < -1.5
    assert stored["fit_policy"] == "drop first 2 meshes"


def test_run_experiment_logs_one_record_per_degree(tmp_path, caplog):
    with caplog.at_level(logging.INFO, logger="bdmadapt.experiments"):
        run_experiment(tiny_config(str(tmp_path / "log"), p_list=(1, 2),
                                   iterations=1))
    messages = [r.getMessage() for r in caplog.records
                if r.name == "bdmadapt.experiments"]
    assert messages == ["[smooth] p=1 mode=uniform ...",
                        "[smooth] p=2 mode=uniform ..."]
    assert all(r.levelno == logging.INFO for r in caplog.records)


def test_fit_window_is_per_experiment(tmp_path):
    # the slope-fit window is fixed by the experiment, not a config key
    with pytest.raises(ValueError, match="fit_window"):
        ExperimentConfig.from_dict({"fit_window": "tail6"})
    summary = run_experiment(tiny_config(
        str(tmp_path / "res"), experiment="advdiff", mode="adaptive",
        iterations=2))
    assert summary["fit_policy"] == "final 6 iterations"


def test_run_experiment_deterministic(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    run_experiment(tiny_config(out1))
    run_experiment(tiny_config(out2))
    with open(os.path.join(out1, "convergence_p1.csv"), "rb") as fh:
        blob1 = fh.read()
    with open(os.path.join(out2, "convergence_p1.csv"), "rb") as fh:
        blob2 = fh.read()
    assert blob1 == blob2


def test_mesh_dumps_at_snapshot_iterations(tmp_path):
    out = str(tmp_path / "res")
    run_experiment(tiny_config(out, iterations=6, dump_meshes=True,
                               experiment="smooth", mode="adaptive",
                               initial_elements=8))
    assert os.path.exists(os.path.join(out, "mesh_p1_iter0.nodes"))
    assert os.path.exists(os.path.join(out, "mesh_p1_iter5.elems"))
    assert os.path.exists(os.path.join(out, "mesh_p1_iter0.json"))
    assert not os.path.exists(os.path.join(out, "mesh_p1_iter10.nodes"))


def test_fit_slope_policy():
    nel = [8, 32, 128, 512]
    vals = [1.0, 0.25, 0.0625, 0.015625]  # exact slope -2 vs sqrt(Nel)
    assert abs(fit_slope(nel, vals) + 2.0) < 1e-12
    assert abs(fit_slope(nel, vals, tail=3) + 2.0) < 1e-12
    assert fit_slope(nel, [1.0, 1.0], drop=2) is None
    # nonpositive entries are skipped; the two positive points remain
    assert abs(fit_slope(nel, [1.0, -1.0, 2.0, 0.0], drop=0) - 0.5) < 1e-12
    assert fit_slope(nel, [0.0, -1.0, 0.0, 2.0], drop=0) is None


def test_cli_run_with_config_and_override(tmp_path, capsys):
    cfg_path = str(tmp_path / "cfg.json")
    out = str(tmp_path / "cli_out")
    with open(cfg_path, "w") as fh:
        json.dump({"experiment": "smooth", "p_list": [1], "mode": "uniform",
                   "iterations": 2, "initial_elements": 8,
                   "out": str(tmp_path / "ignored")}, fh)
    code = main(["run", "--config", cfg_path, "--out", out, "--iters", "3"])
    assert code == 0
    assert os.path.exists(os.path.join(out, "convergence_p1.csv"))
    with open(os.path.join(out, "summary.json")) as fh:
        summary = json.load(fh)
    assert summary["iterations"] == 3  # flag overrode the config file
    captured = capsys.readouterr()
    assert "artifacts written" in captured.out


def test_cli_run_has_a_flag_per_config_field():
    args = _build_parser().parse_args(["run"])
    missing = [f.name for f in dataclasses.fields(ExperimentConfig)
               if not hasattr(args, f.name)]
    assert not missing


def _rejected_run(tmp_path, capsys, *flags):
    """stderr of a run whose flags fail the config checks: exit 2 with a
    usage message, before the output directory exists."""
    out = tmp_path / "zero"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--experiment", "smooth", "--mode", "uniform", "--p", "1",
              "--iters", "1", *flags, "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "usage:" in err and "Traceback" not in err
    return err


def test_cli_rejects_zero_initial_elements(tmp_path, capsys):
    err = _rejected_run(tmp_path, capsys, "--initial-elements", "0")
    assert "initial_elements must be >= 1, got 0" in err


@pytest.mark.parametrize("flag, name", [("--iters", "iterations"),
                                        ("--max-elements", "max_elements")])
def test_cli_rejects_zero_counts(tmp_path, capsys, flag, name):
    err = _rejected_run(tmp_path, capsys, flag, "0")
    assert f"{name} must be >= 1, got 0" in err


def test_cli_verify(tmp_path, capsys):
    out = str(tmp_path / "verify.json")
    code = main(["verify", "--out", out])
    assert code == 0
    captured = capsys.readouterr()
    assert "[PASS]" in captured.out and "[FAIL]" not in captured.out
    with open(out) as fh:
        report = json.load(fh)
    assert report["passed"]


def test_cli_fortin(tmp_path, capsys):
    out = str(tmp_path / "fortin.json")
    code = main(["fortin", "--samples", "20", "--out", out])
    assert code == 0
    with open(out) as fh:
        report = json.load(fh)
    assert report["det_A"] > 0
    captured = capsys.readouterr()
    assert "biorthogonality" in captured.out


@pytest.mark.parametrize("samples", ["0", "-2"])
def test_cli_fortin_rejects_empty_sample(tmp_path, capsys, samples):
    out = tmp_path / "fortin.json"
    with pytest.raises(SystemExit) as exc:
        main(["fortin", "--samples", samples, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "n_samples must be at least 1" in err and "Traceback" not in err
    assert not out.exists()
