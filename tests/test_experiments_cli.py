import dataclasses
import json
import logging
import os
import weakref

import numpy as np
import pytest

from bdmadapt import ExperimentConfig, fit_slope, run_experiment
from bdmadapt import adaptivity, cli, estimators, experiments, fortin, verify
from bdmadapt.cli import _build_parser, main
from bdmadapt.experiments import CSV_COLUMNS
from bdmadapt.mesh import load_mesh
from bdmadapt.solver import SingularSystemError

from artifact_checks import assert_round_trip


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
    assert_round_trip(os.path.join(out, "summary.json"), summary)
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


def test_run_experiment_makes_one_oscillation_pass_per_degree(
        tmp_path, monkeypatch):
    # only the final report of each degree is written, and only it reads
    # the oscillation bound
    real = estimators.oscillation_bound
    calls = []

    def counted(problem, mesh, p):
        calls.append((p, mesh.n_triangles))
        return real(problem, mesh, p)

    monkeypatch.setattr(estimators, "oscillation_bound", counted)
    summary = run_experiment(tiny_config(str(tmp_path / "osc"),
                                         p_list=(1, 2), iterations=4))
    final = [summary["per_degree"][p]["final_elements"] for p in ("1", "2")]
    assert calls == [(1, final[0]), (2, final[1])]
    with open(tmp_path / "osc" / "report_p2_final.json") as fh:
        assert json.load(fh)["osc"] > 0.0


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
    out1, out2 = tmp_path / "a", tmp_path / "b"
    config = dict(p_list=(1, 2), mode="adaptive", dump_meshes=True)
    run_experiment(tiny_config(str(out1), **config))
    run_experiment(tiny_config(str(out2), **config))
    names = sorted(path.name for path in out1.iterdir())
    assert names == sorted(path.name for path in out2.iterdir())
    for kind in ("convergence_p1.csv", "log_p2.json", "report_p1_final.json",
                 "summary.json", "mesh_p2_iter0.json"):
        assert kind in names
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_log_round_trips_exactly(tmp_path, monkeypatch):
    runs = {}
    real = experiments.run_adaptive

    def keep(problem, p, **kw):
        runs[p] = real(problem, p, **kw)
        return runs[p]

    monkeypatch.setattr(experiments, "run_adaptive", keep)
    out = tmp_path / "res"
    run_experiment(tiny_config(str(out), p_list=(1, 2), mode="adaptive"))
    for p, run in runs.items():
        assert_round_trip(out / f"log_p{p}.json", run.to_dict())
        assert_round_trip(out / f"report_p{p}_final.json",
                          run.records[-1].report.to_dict())


def test_failed_summary_write_records_its_full_path(tmp_path, monkeypatch):
    out = str(tmp_path / "res")
    summary_path = os.path.join(out, "summary.json")
    real = experiments.write_json

    def write_json(path, obj):
        if path == summary_path:
            raise OSError("disk full")
        real(path, obj)

    monkeypatch.setattr(experiments, "write_json", write_json)
    summary = run_experiment(tiny_config(out, iterations=1))
    assert summary["io_errors"] == [{"path": summary_path,
                                     "error": "disk full"}]
    assert not os.path.exists(summary_path)
    assert os.path.exists(os.path.join(out, "log_p1.json"))


def test_mesh_dumps_at_snapshot_iterations(tmp_path):
    out = str(tmp_path / "res")
    run_experiment(tiny_config(out, iterations=6, dump_meshes=True,
                               experiment="smooth", mode="adaptive",
                               initial_elements=8))
    assert os.path.exists(os.path.join(out, "mesh_p1_iter0.nodes"))
    assert os.path.exists(os.path.join(out, "mesh_p1_iter5.elems"))
    assert os.path.exists(os.path.join(out, "mesh_p1_iter0.json"))
    assert not os.path.exists(os.path.join(out, "mesh_p1_iter10.nodes"))


def test_run_experiment_holds_only_the_current_mesh(tmp_path, monkeypatch):
    # the loop needs only the current mesh: while one is solved, every mesh
    # assembled before it, of this degree or an earlier one, has been freed
    meshes, held = [], []
    real_assemble, real_solve = adaptivity.assemble, adaptivity.solve

    def assemble(mesh, p, problem):
        meshes.append(weakref.ref(mesh))
        return real_assemble(mesh, p, problem)

    def solve(system):
        held.append([i for i, ref in enumerate(meshes[:-1])
                     if ref() is not None])
        return real_solve(system)

    monkeypatch.setattr(adaptivity, "assemble", assemble)
    monkeypatch.setattr(adaptivity, "solve", solve)
    out = tmp_path / "held"
    summary = run_experiment(tiny_config(str(out), p_list=(1, 2),
                                         mode="adaptive", iterations=4))
    assert held == [[]] * 8
    assert [summary["per_degree"][p]["n_iterations"] for p in "12"] == [4, 4]
    assert (out / "report_p2_final.json").exists()

    # --dump-meshes holds no more: it rebuilds the snapshots of iterations
    # 0, 5 and 10 after the run, and they are the meshes that were solved
    meshes.clear()
    held.clear()
    solved = {}

    def solve_and_keep(system):
        solved[len(meshes) - 1] = (system.flux_space.mesh.vertices.copy(),
                                   system.flux_space.mesh.triangles.copy())
        return solve(system)

    monkeypatch.setattr(adaptivity, "solve", solve_and_keep)
    out = tmp_path / "dump"
    run_experiment(tiny_config(str(out), p_list=(1, 2), mode="adaptive",
                               iterations=11, dump_meshes=True))
    assert held == [[]] * 22
    for it in (0, 5, 10):
        mesh = load_mesh(str(out / f"mesh_p2_iter{it}"))
        vertices, triangles = solved[11 + it]
        assert np.array_equal(mesh.vertices, vertices)
        assert np.array_equal(mesh.triangles, triangles)
    assert not (out / "mesh_p1_iter1.nodes").exists()

    # a solver failure drops the last report before the failing solve: the
    # degree writes its table, log and summary entry, and no final report
    calls = []

    def flaky(system):
        calls.append(1)
        if len(calls) >= 3:
            raise SingularSystemError("synthetic failure")
        return real_solve(system)

    monkeypatch.setattr(adaptivity, "solve", flaky)
    out = tmp_path / "abort"
    summary = run_experiment(tiny_config(str(out), mode="adaptive",
                                         iterations=6))
    assert summary["per_degree"]["1"]["aborted"]
    assert summary["per_degree"]["1"]["n_iterations"] == 2
    assert summary["io_errors"] == []
    log = json.loads((out / "log_p1.json").read_text())
    assert log["aborted"] and "synthetic" in log["abort_reason"]
    assert len(log["iterations"]) == 2
    with open(out / "convergence_p1.csv") as fh:
        assert len(fh.read().splitlines()) == 3
    assert json.loads((out / "summary.json").read_text()) == summary
    assert sorted(path.name for path in out.iterdir()) == [
        "convergence_p1.csv", "log_p1.json", "summary.json"]


def test_fit_slope_policy():
    nel = [8, 32, 128, 512]
    vals = [1.0, 0.25, 0.0625, 0.015625]  # exact slope -2 vs sqrt(Nel)
    assert abs(fit_slope(nel, vals) + 2.0) < 1e-12
    assert abs(fit_slope(nel, vals, tail=3) + 2.0) < 1e-12
    assert fit_slope(nel, [1.0, 1.0]) is None
    # nonpositive entries are skipped; the two positive points remain
    assert abs(fit_slope(nel, [1.0, -1.0, 2.0, 0.0], tail=4) - 0.5) < 1e-12
    assert fit_slope(nel, [0.0, -1.0, 0.0, 2.0], tail=4) is None


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


def _usage_error(tmp_path, capsys, *args):
    """stderr of a run rejected with exit 2 and a usage message, before the
    output directory exists."""
    out = tmp_path / "zero"
    with pytest.raises(SystemExit) as exc:
        main(["run", *args, "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "usage:" in err and "Traceback" not in err
    return err


def _rejected_run(tmp_path, capsys, *flags):
    """stderr of a run whose flags fail the config checks."""
    return _usage_error(tmp_path, capsys, "--experiment", "smooth", "--mode",
                        "uniform", "--p", "1", "--iters", "1", *flags)


def test_cli_rejects_zero_initial_elements(tmp_path, capsys):
    err = _rejected_run(tmp_path, capsys, "--initial-elements", "0")
    assert "initial_elements must be >= 1, got 0" in err


@pytest.mark.parametrize("flag, name", [("--iters", "iterations"),
                                        ("--max-elements", "max_elements")])
def test_cli_rejects_zero_counts(tmp_path, capsys, flag, name):
    err = _rejected_run(tmp_path, capsys, flag, "0")
    assert f"{name} must be >= 1, got 0" in err


@pytest.mark.parametrize("text, message", [
    (None, "cannot read config file {path}: No such file or directory"),
    ("iterations: 3", "config file {path} is not JSON"),
    ("[1, 2]", "config file {path} must hold a JSON object, got list"),
    ('{"p_list": 2}', "p_list must be a list of degrees, got 2"),
], ids=["missing", "not-json", "not-object", "scalar-p_list"])
def test_cli_rejects_bad_config(tmp_path, capsys, text, message):
    path = tmp_path / "cfg.json"
    if text is not None:
        path.write_text(text)
    err = _usage_error(tmp_path, capsys, "--config", str(path))
    assert message.format(path=path) in err


_BAD_DEGREES = [
    pytest.param([], "p_list must name at least one degree, got []",
                 id="empty"),
    pytest.param([1, 1], "p_list repeats a degree: [1, 1]", id="repeated"),
    pytest.param([1.5], "polynomial degrees must be integers, got 1.5 in "
                 "p_list", id="fraction"),
    pytest.param([True], "polynomial degrees must be integers, got True in "
                 "p_list", id="bool"),
    pytest.param([2.0, 3], "polynomial degrees must be integers, got 2.0 in "
                 "p_list", id="integral-float"),
]


@pytest.mark.parametrize("p_list, message", _BAD_DEGREES)
def test_config_rejects_bad_degree_list(p_list, message):
    with pytest.raises(ValueError) as exc:
        ExperimentConfig(p_list=tuple(p_list))
    assert str(exc.value) == message


@pytest.mark.parametrize("p_list, message", _BAD_DEGREES)
def test_cli_rejects_bad_degree_list(tmp_path, capsys, p_list, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"p_list": p_list}))
    err = _usage_error(tmp_path, capsys, "--config", str(path))
    assert message in err


_BAD_SCALARS = [
    pytest.param({"iterations": "3"}, "iterations must be an integer, got '3'",
                 id="string-iterations"),
    pytest.param({"iterations": True}, "iterations must be an integer, got "
                 "True", id="bool-iterations"),
    pytest.param({"initial_elements": 8.0}, "initial_elements must be an "
                 "integer, got 8.0", id="float-initial_elements"),
    pytest.param({"max_elements": "100"}, "max_elements must be an integer, "
                 "got '100'", id="string-max_elements"),
    pytest.param({"theta": None}, "theta must be a real number, got None",
                 id="null-theta"),
    pytest.param({"theta": "0.5"}, "theta must be a real number, got '0.5'",
                 id="string-theta"),
    pytest.param({"theta": True}, "theta must be a real number, got True",
                 id="bool-theta"),
    pytest.param({"dump_meshes": "yes"}, "dump_meshes must be a boolean, got "
                 "'yes'", id="string-dump_meshes"),
    pytest.param({"dump_meshes": 1}, "dump_meshes must be a boolean, got 1",
                 id="int-dump_meshes"),
    pytest.param({"experiment": ["smooth"]}, "experiment must be a string, "
                 "got ['smooth']", id="list-experiment"),
    pytest.param({"mode": None}, "mode must be a string, got None",
                 id="null-mode"),
    pytest.param({"marker": 1}, "marker must be a string, got 1",
                 id="int-marker"),
    pytest.param({"out": 5}, "out must be a string, got 5", id="int-out"),
]


@pytest.mark.parametrize("settings, message", _BAD_SCALARS)
def test_config_rejects_bad_scalar_types(settings, message):
    with pytest.raises(ValueError) as exc:
        ExperimentConfig.from_dict(settings)
    assert str(exc.value) == message


@pytest.mark.parametrize("settings, message", _BAD_SCALARS)
def test_cli_rejects_bad_scalar_types(tmp_path, capsys, monkeypatch,
                                      settings, message):
    # run from an empty directory without --out, so that a config "out" is
    # not overridden and no output directory may appear anywhere
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    (tmp_path / "cfg.json").write_text(json.dumps(settings))
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(tmp_path / "cfg.json")])
    assert exc.value.code == 2
    assert list(work.iterdir()) == []
    err = capsys.readouterr().err
    assert "usage:" in err and "Traceback" not in err
    assert message in err


def test_config_keeps_numpy_integer_counts():
    config = ExperimentConfig(iterations=np.int64(2),
                              initial_elements=np.int32(8),
                              max_elements=np.uint16(100),
                              theta=np.float32(0.25))
    assert (config.iterations, config.initial_elements,
            config.max_elements, config.theta) == (2, 8, 100, 0.25)
    assert all(type(v) is int for v in (config.iterations,
                                        config.initial_elements,
                                        config.max_elements))
    assert type(config.theta) is float


def test_cli_rejects_repeated_degree_flag(tmp_path, capsys):
    err = _usage_error(tmp_path, capsys, "--p", "1", "1")
    assert "p_list repeats a degree: [1, 1]" in err


def test_config_keeps_numpy_integer_degrees():
    config = ExperimentConfig(p_list=(np.int64(3), np.int32(1)))
    assert config.p_list == (3, 1)
    assert all(type(p) is int for p in config.p_list)
    assert ExperimentConfig(p_list=np.array([2])).p_list == (2,)


# the module each subcommand reads its runner from when it runs
_RUNNER_MODULE = {"run_verification": verify, "fortin_report": fortin}


def _keep_report(monkeypatch, name):
    """Replace the runner <name> by a wrapper that keeps its reports."""
    kept = []
    owner = _RUNNER_MODULE[name]
    real = getattr(owner, name)

    def keep(**kw):
        kept.append(real(**kw))
        return kept[-1]

    monkeypatch.setattr(owner, name, keep)
    return kept


def test_cli_verify(tmp_path, capsys, monkeypatch):
    kept = _keep_report(monkeypatch, "run_verification")
    out = str(tmp_path / "verify.json")
    code = main(["verify", "--out", out])
    assert code == 0
    captured = capsys.readouterr()
    assert "[PASS]" in captured.out and "[FAIL]" not in captured.out
    with open(out) as fh:
        report = json.load(fh)
    assert report["passed"]
    assert_round_trip(out, kept[0])


def test_cli_fortin(tmp_path, capsys, monkeypatch):
    kept = _keep_report(monkeypatch, "fortin_report")
    out = str(tmp_path / "fortin.json")
    code = main(["fortin", "--samples", "20", "--out", out])
    assert code == 0
    with open(out) as fh:
        report = json.load(fh)
    assert report["det_A"] > 0
    assert_round_trip(out, kept[0])
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


@pytest.mark.parametrize("where", ["empty", "file", "below-file", "config"])
def test_cli_run_rejects_unusable_out(tmp_path, capsys, monkeypatch, where):
    # an output path that cannot be a directory is a usage error naming
    # it, before any solve
    monkeypatch.setattr(experiments, "run_experiment", None)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = {"empty": "", "file": str(blocker)}.get(where, str(blocker / "sub"))
    argv = ["run", "--iters", "1"]
    if where == "config":
        (tmp_path / "cfg.json").write_text(json.dumps({"out": out}))
        argv += ["--config", str(tmp_path / "cfg.json")]
    else:
        argv += ["--out", out]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and repr(out) in err and "Traceback" not in err


def test_cli_verify_reports_unwritable_out(tmp_path, capsys, monkeypatch):
    # the checks pass, but the report cannot be written: exit 1, and the
    # message names the path
    report = {"passed": True,
              "checks": [{"name": "stub", "passed": True, "detail": ""}]}
    monkeypatch.setattr(verify, "run_verification", lambda **kw: report)
    (tmp_path / "blocker").write_text("")
    out = str(tmp_path / "blocker" / "verify.json")
    assert main(["verify", "--out", out]) == 1
    err = capsys.readouterr().err
    assert f"cannot write {out}: " in err and "Traceback" not in err


def test_cli_fortin_reports_unwritable_out(tmp_path, capsys):
    (tmp_path / "blocker").write_text("")
    out = str(tmp_path / "blocker" / "fortin.json")
    assert main(["fortin", "--samples", "2", "--out", out]) == 1
    err = capsys.readouterr().err
    assert f"cannot write {out}: " in err and "Traceback" not in err


@pytest.mark.parametrize("command, runner", [("verify", "run_verification"),
                                             ("fortin", "fortin_report")])
def test_cli_rejects_negative_seed(capsys, monkeypatch, command, runner):
    # numpy's generators take non-negative seeds only: a usage error naming
    # the flag, before any work
    monkeypatch.setattr(_RUNNER_MODULE[runner], runner, None)
    with pytest.raises(SystemExit) as exc:
        main([command, "--seed", "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "argument --seed: must be a non-negative " \
        "integer, got '-1'" in err and "Traceback" not in err
