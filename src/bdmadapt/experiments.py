"""Batch experiment driver: convergence tables, logs, and mesh dumps.

Convergence quantities are reported against sqrt(Nel), matching the axes of
the desk-scale studies this package reproduces.  Slope fits exclude the first
two meshes (pre-asymptotic); strongly layered problems instead use a trailing
window, recorded per run in the summary.
"""

import logging
import numbers
import os
from dataclasses import dataclass

import numpy as np

from . import estimators
from .adaptivity import AdaptiveRun, _refine, run_adaptive
from .artifacts import write_json
from .mesh import build_initial_mesh, save_mesh
from .problems import preset
from .solver import ProblemSpec

CSV_COLUMNS = ("iter", "Nel", "sqrtNel", "eta", "eta_tilde", "err_full",
               "err_L2_u", "err_L2_nu", "delta", "effectivity")

_MESH_DUMP_ITERATIONS = (0, 5, 10)

logger = logging.getLogger(__name__)


def _degree_list(p_list) -> tuple:
    """p_list as a tuple of distinct ints in {1, 2, 3}, else ValueError."""
    if isinstance(p_list, np.ndarray):
        p_list = p_list.tolist()
    if not isinstance(p_list, (list, tuple)):
        raise ValueError(f"p_list must be a list of degrees, got {p_list!r}")
    if len(p_list) == 0:
        raise ValueError("p_list must name at least one degree, got []")
    for p in p_list:
        if isinstance(p, bool) or not isinstance(p, numbers.Integral):
            raise ValueError(
                f"polynomial degrees must be integers, got {p!r} in p_list")
    degrees = tuple(int(p) for p in p_list)
    if len(set(degrees)) < len(degrees):
        raise ValueError(f"p_list repeats a degree: {list(degrees)}")
    if any(p not in (1, 2, 3) for p in degrees):
        raise ValueError("polynomial degrees must lie in {1, 2, 3}, "
                         f"got {list(degrees)}")
    return degrees


@dataclass
class ExperimentConfig:
    experiment: str = "smooth"
    p_list: tuple = (1, 2, 3)
    mode: str = "uniform"
    theta: float = 0.5
    iterations: int = 5
    out: str = "results"
    marker: str = "eta"
    dump_meshes: bool = False
    initial_elements: int | None = None
    max_elements: int | None = None

    def __post_init__(self):
        for name in ("experiment", "mode", "marker", "out"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(
                    f"{name} must be a string, got {getattr(self, name)!r}")
        if not isinstance(self.dump_meshes, bool):
            raise ValueError(
                f"dump_meshes must be a boolean, got {self.dump_meshes!r}")
        if isinstance(self.theta, bool) or not isinstance(self.theta,
                                                          numbers.Real):
            raise ValueError(f"theta must be a real number, got {self.theta!r}")
        self.theta = float(self.theta)
        for name in ("iterations", "initial_elements", "max_elements"):
            value = getattr(self, name)
            if value is None and name != "iterations":
                continue
            if isinstance(value, bool) or not isinstance(value,
                                                         numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
            setattr(self, name, int(value))
        if self.experiment not in ("smooth", "lshape", "advdiff", "custom"):
            raise ValueError(f"unknown experiment {self.experiment!r}")
        self.p_list = _degree_list(self.p_list)
        if not 0.0 < self.theta < 1.0:
            raise ValueError(f"theta must lie in (0, 1), got {self.theta}")
        if self.mode not in ("uniform", "adaptive"):
            raise ValueError("mode must be 'uniform' or 'adaptive'")
        if self.marker not in ("eta", "eta_tilde"):
            raise ValueError("marker must be 'eta' or 'eta_tilde'")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f for f in cls.__dataclass_fields__}
        bad = set(data) - known
        if bad:
            raise ValueError(f"unknown config keys: {sorted(bad)}")
        return cls(**data)


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def record_row(rec) -> list:
    err = rec.errors or {}
    return [str(rec.iteration), str(rec.n_elements),
            _fmt(np.sqrt(rec.n_elements)), _fmt(rec.eta), _fmt(rec.eta_tilde),
            _fmt(err.get("full")), _fmt(err.get("u_L2")),
            _fmt(err.get("nu_L2")), _fmt(rec.delta), _fmt(rec.effectivity)]


def write_convergence_csv(run: AdaptiveRun, path: str):
    with open(path, "w") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for rec in run.records:
            fh.write(",".join(record_row(rec)) + "\n")


def fit_slope(n_elements, values, tail: int | None = None) -> float | None:
    """Least-squares slope of log(value) against log(sqrt(Nel)).

    The first two (pre-asymptotic) meshes are dropped; tail instead keeps
    only the final `tail` points.  Nonpositive or missing values are
    skipped; None is returned when fewer than two usable points remain.
    """
    x = np.sqrt(np.asarray(n_elements, dtype=float))
    y = np.asarray([np.nan if v is None else v for v in values], dtype=float)
    if tail is not None:
        x, y = x[-tail:], y[-tail:]
    else:
        x, y = x[2:], y[2:]
    good = np.isfinite(y) & (y > 0)
    if good.sum() < 2:
        return None
    coef = np.polyfit(np.log(x[good]), np.log(y[good]), 1)
    return float(coef[0])


def run_slopes(run: AdaptiveRun, tail: int | None = None) -> dict:
    nel = run.element_counts()
    series = {
        "eta": [r.eta for r in run.records],
        "eta_tilde": [r.eta_tilde for r in run.records],
    }
    if run.records and run.records[0].errors is not None:
        for key, col in (("err_full", "full"), ("err_L2_u", "u_L2"),
                         ("err_L2_nu", "nu_L2"), ("err_1h", "one_h"),
                         ("err_q_0h", "q_0h")):
            series[key] = [r.errors.get(col) if r.errors else None
                           for r in run.records]
    return {k: fit_slope(nel, v, tail=tail) for k, v in series.items()}


def experiment_problem(config: ExperimentConfig) -> ProblemSpec:
    if config.experiment == "custom":
        raise ValueError("custom experiments must supply a ProblemSpec "
                         "explicitly via run_experiment(problem=...)")
    return preset(config.experiment)


def _run_degree(config: ExperimentConfig, problem: ProblemSpec, p: int,
                tail: int | None, io_errors: list) -> dict:
    """Run degree p, write its artifacts and return its summary entry.

    Only the last record keeps its report, and nothing of the run outlives
    the call; the meshes of dump_meshes are rebuilt afterwards by
    replaying the recorded marked sets.  A degree whose solve aborted has
    no final report, so it writes no report file.
    """
    logger.info("[%s] p=%d mode=%s ...", config.experiment, p, config.mode)
    run = run_adaptive(
        problem, p, theta=config.theta, iterations=config.iterations,
        marker=config.marker, uniform=(config.mode == "uniform"),
        initial_elements=config.initial_elements,
        max_elements=config.max_elements, keep_meshes=False)
    _write = [
        (os.path.join(config.out, f"convergence_p{p}.csv"),
         lambda path: write_convergence_csv(run, path)),
        (os.path.join(config.out, f"log_p{p}.json"), run.to_json),
    ]
    final = run.records[-1].report if run.records else None
    if final is not None:
        if final.has_exact:
            # through the module, where benchmarks/tracing.py patches it
            final.osc_K = estimators.oscillation_bound(problem, final.mesh, p)
        _write.append(
            (os.path.join(config.out, f"report_p{p}_final.json"), final.save))
    if config.dump_meshes:
        mesh = build_initial_mesh(problem.domain, config.initial_elements)
        for it in range(min(run.n_iterations, _MESH_DUMP_ITERATIONS[-1] + 1)):
            if it:
                mesh = _refine(mesh, run.records[it - 1].marked, run.uniform)
            if it in _MESH_DUMP_ITERATIONS:
                _write.append(
                    (os.path.join(config.out, f"mesh_p{p}_iter{it}"),
                     lambda path, m=mesh: save_mesh(m, path)))
    for path, writer in _write:
        try:
            writer(path)
        except OSError as exc:
            io_errors.append({"path": path, "error": str(exc)})
    return {
        "n_iterations": run.n_iterations,
        "final_elements": run.records[-1].n_elements if run.records else 0,
        "aborted": run.aborted,
        "slopes": run_slopes(run, tail=tail),
    }


def run_experiment(config: ExperimentConfig,
                   problem: ProblemSpec | None = None) -> dict:
    """Run one experiment for every degree and write all artifacts.

    Returns the summary dictionary (also written to <out>/summary.json);
    artifact I/O failures are collected per file and never abort the numeric
    run.  Progress goes to this module's logger, one INFO record per degree.
    """
    problem = problem if problem is not None else experiment_problem(config)
    os.makedirs(config.out, exist_ok=True)
    io_errors = []
    tail = (6 if config.experiment == "advdiff" and config.mode == "adaptive"
            else None)
    summary = {
        "experiment": config.experiment,
        "mode": config.mode,
        "theta": config.theta,
        "iterations": config.iterations,
        "marker": config.marker,
        "fit_policy": (f"final {tail} iterations" if tail is not None
                       else "drop first 2 meshes"),
        "per_degree": {},
    }
    for p in config.p_list:
        summary["per_degree"][str(p)] = _run_degree(config, problem, p, tail,
                                                    io_errors)
    summary["io_errors"] = io_errors
    path = os.path.join(config.out, "summary.json")
    try:
        write_json(path, summary)
    except OSError as exc:
        io_errors.append({"path": path, "error": str(exc)})
    return summary
