import dataclasses
import itertools
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bdmadapt import dorfler_mark, preset, run_adaptive
from bdmadapt import fields

from conftest import centroids, make_linear_problem


def test_dorfler_minimal_set_enumeration_oracle():
    eta = np.array([3.0, 1.0, 1.0, 1.0])
    theta = 0.6
    marked = dorfler_mark(eta, theta)
    assert marked.tolist() == [0]
    # exhaustive subset oracle: no smaller satisfying set exists, and the
    # returned one satisfies the bulk criterion
    total = np.sum(eta ** 2)
    assert np.sum(eta[marked] ** 2) >= theta * total - 1e-12
    best = min((len(s) for r in range(1, 5)
                for s in itertools.combinations(range(4), r)
                if np.sum(eta[list(s)] ** 2) >= theta * total), default=4)
    assert len(marked) == best


def test_dorfler_all_equal_theta_near_one():
    eta = np.ones(7)
    marked = dorfler_mark(eta, 1.0 - 1e-12)
    assert len(marked) == 7


def test_dorfler_single_nonzero():
    eta = np.zeros(5)
    eta[3] = 0.1
    assert dorfler_mark(eta, 0.4).tolist() == [3]


def test_dorfler_all_zero_returns_empty():
    assert len(dorfler_mark(np.zeros(4), 0.5)) == 0


def test_dorfler_validates_inputs():
    with pytest.raises(ValueError):
        dorfler_mark(np.array([-1.0, 2.0]), 0.5)
    with pytest.raises(ValueError):
        dorfler_mark(np.array([1.0]), 1.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_dorfler_rejects_nonfinite_indicators(bad):
    # a NaN used to make the cumulative sum never reach the target, so
    # every element was marked
    with pytest.raises(ValueError, match="finite"):
        dorfler_mark(np.array([1.0, bad, 0.5]), 0.5)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=1,
                max_size=24),
       st.floats(min_value=0.05, max_value=0.95))
# two equal indicators just past half the total: a slack of 1e-3 on the
# cut would mark one element, short of the bulk
@example([1.0, 1.0], 0.5002)
def test_dorfler_bulk_criterion_and_minimality(vals, theta):
    eta = np.asarray(vals)
    marked = dorfler_mark(eta, theta)
    total = float(np.sum(eta ** 2))
    if total == 0.0:
        assert len(marked) == 0
        return
    got = float(np.sum(eta[marked] ** 2))
    assert got >= theta * total * (1 - 1e-9)
    # greedy minimality: dropping the weakest marked element breaks the bound
    if len(marked) > 0:
        weakest = marked[np.argmin(eta[marked])]
        rest = got - float(eta[weakest] ** 2)
        assert rest < theta * total * (1 + 1e-9)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=2,
                max_size=16),
       st.floats(min_value=0.1, max_value=0.5))
def test_dorfler_monotone_in_theta(vals, theta):
    eta = np.asarray(vals)
    small = set(dorfler_mark(eta, theta).tolist())
    large = set(dorfler_mark(eta, min(theta * 1.8, 0.95)).tolist())
    assert small <= large


def test_dorfler_deterministic_tie_break():
    eta = np.array([1.0, 2.0, 2.0, 1.0])
    marked = dorfler_mark(eta, 0.5)
    assert marked.tolist() == [1, 2]


def test_adaptive_smooth_quasi_uniform():
    smooth = preset("smooth")
    run = run_adaptive(smooth, 1, theta=0.5, iterations=6,
                       initial_elements=32)
    final_mesh = run.records[-1].report.mesh
    ratio = final_mesh.h_K.max() / final_mesh.h_K.min()
    assert ratio <= 8.0
    nel = run.element_counts()
    assert all(b >= a for a, b in zip(nel, nel[1:]))


def test_adaptive_terminates_on_exact_solution():
    lin = make_linear_problem()
    run = run_adaptive(lin, 1, theta=0.5, iterations=8, initial_elements=8,
                       eta_tol=1e-12)
    assert run.n_iterations == 1
    assert not run.aborted


def test_uniform_mode_squares_count():
    smooth = preset("smooth")
    run = run_adaptive(smooth, 1, iterations=3, uniform=True,
                       initial_elements=8, with_errors=False,
                       with_theta=False)
    assert run.element_counts() == [8, 32, 128]


def test_uniform_records_describe_the_solved_mesh():
    smooth = preset("smooth")
    run = run_adaptive(smooth, 1, iterations=2, uniform=True,
                       initial_elements=32, with_errors=False)
    rec = run.records[0]
    assert rec.n_elements == 32
    assert np.array_equal(rec.marked, np.arange(32))
    centers = centroids(rec.report.mesh)
    assert np.array_equal(centers[rec.marked], centers)


def test_one_stiffness_build_per_iteration(monkeypatch):
    # postprocess, estimator, exact errors and saturation share one factor
    real = fields.stiffness_tensors
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("bdmadapt") and \
                getattr(module, "stiffness_tensors", None) is real:
            monkeypatch.setattr(module, "stiffness_tensors", counted)
    run = run_adaptive(preset("smooth"), 1, iterations=1, initial_elements=32,
                       with_errors=True, with_theta=True)
    rec = run.records[0]
    assert rec.errors is not None and rec.delta is not None
    assert len(calls) == 1


@dataclasses.dataclass
class _Scaled:
    """x -> scale * x_0; a dataclass with eq and without frozen is
    unhashable."""

    scale: float

    def __call__(self, x):
        return self.scale * x[:, 0]


def test_unhashable_boundary_data_runs():
    # any callable is valid boundary data: nothing keys a cache on it
    smooth = preset("smooth")
    u_D = _Scaled(0.0)
    with pytest.raises(TypeError, match="unhashable"):
        hash(u_D)
    kwargs = dict(iterations=3, theta=0.5, initial_elements=32)
    want = run_adaptive(smooth, 1, **kwargs)
    got = run_adaptive(dataclasses.replace(smooth, u_D=u_D), 1, **kwargs)
    assert not got.aborted and got.n_iterations == 3
    assert [r.eta for r in got.records] == [r.eta for r in want.records]


def test_builtin_indicator_marker_switch():
    smooth = preset("smooth")
    run = run_adaptive(smooth, 1, theta=0.5, iterations=3, initial_elements=8,
                       marker="eta_tilde", keep_meshes=True)
    assert run.marker == "eta_tilde"
    rec = run.records[0]
    marked = dorfler_mark(rec.report.eta_tilde_K, 0.5)
    assert np.array_equal(np.sort(rec.marked), marked)
    with pytest.raises(ValueError, match="marker"):
        run_adaptive(smooth, 1, marker="other")


def test_lshape_full_error_decreases_monotonically():
    lshape = preset("lshape")
    run = run_adaptive(lshape, 2, theta=0.5, iterations=10,
                       initial_elements=96)
    full = [r.errors["full"] for r in run.records]
    assert all(b < a for a, b in zip(full[2:], full[3:]))


def test_run_without_exact_solution_has_no_error_block():
    from bdmadapt import DomainSpec, ProblemSpec
    prob = ProblemSpec(domain=DomainSpec.unit_square(),
                       f=lambda x: np.ones(len(x)),
                       u_D=lambda x: np.zeros(len(x)), name="source")
    run = run_adaptive(prob, 1, theta=0.5, iterations=3, initial_elements=8)
    assert all(r.errors is None for r in run.records)
    assert all(r.delta is None for r in run.records)
    assert run.records[-1].eta > 0


def test_solver_failure_returns_partial_run(monkeypatch):
    smooth = preset("smooth")
    import bdmadapt.adaptivity as adaptivity_mod
    calls = {"n": 0}
    real_solve = adaptivity_mod.solve

    def flaky(system):
        calls["n"] += 1
        if calls["n"] >= 3:
            from bdmadapt.solver import SingularSystemError
            raise SingularSystemError("synthetic failure")
        return real_solve(system)

    monkeypatch.setattr(adaptivity_mod, "solve", flaky)
    run = run_adaptive(smooth, 1, theta=0.5, iterations=6, initial_elements=8)
    assert run.aborted
    assert "synthetic" in run.abort_reason
    assert run.n_iterations == 2


def test_max_elements_stops_loop():
    smooth = preset("smooth")
    run = run_adaptive(smooth, 1, iterations=10, uniform=True,
                       initial_elements=8, max_elements=100,
                       with_errors=False, with_theta=False)
    assert run.records[-1].n_elements <= 100
    assert run.aborted
    assert run.abort_reason == "max_elements reached"


def test_run_log_serialization(tmp_path):
    smooth = preset("smooth")
    run = run_adaptive(smooth, 1, theta=0.5, iterations=3, initial_elements=8)
    path = str(tmp_path / "log.json")
    run.to_json(path)
    import json
    with open(path) as fh:
        data = json.load(fh)
    assert data["problem"] == "smooth"
    assert len(data["iterations"]) == run.n_iterations
    assert data["iterations"][0]["errors"]["full"] > 0


@pytest.mark.parametrize("uniform", [False, True], ids=["adaptive",
                                                        "uniform"])
@pytest.mark.parametrize("theta", [1.5, 0.0, float("nan")])
def test_bad_theta_is_rejected_before_the_first_solve(monkeypatch, uniform,
                                                      theta):
    import bdmadapt.adaptivity as adaptivity_mod

    def unexpected(*args):
        raise AssertionError("assemble called")

    monkeypatch.setattr(adaptivity_mod, "assemble", unexpected)
    with pytest.raises(ValueError, match="theta"):
        run_adaptive(preset("smooth"), 1, theta=theta, iterations=2,
                     uniform=uniform, initial_elements=8)


def test_zero_initial_elements_is_rejected():
    # 0 is not "use the default": it must reach build_initial_mesh and fail
    with pytest.raises(ValueError, match="target_count"):
        run_adaptive(preset("smooth"), 1, iterations=1, initial_elements=0)
