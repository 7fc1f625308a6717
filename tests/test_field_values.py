"""Problem callables are evaluated only through fields.field_values.

Each entry point that reads a user field, and the interpolant oracle of the
tests, must reject a transposed (2, n) return, a scalar return and a NaN
with a ValueError that names the field.
"""

import dataclasses

import numpy as np
import pytest

from bdmadapt import (BdmSpace, assemble, build_biorthogonal,
                      build_initial_mesh, error_norms, fortin_apply,
                      oscillation_bound, postprocess_resmin, preset,
                      run_adaptive, solve)
from bdmadapt import fields
from bdmadapt.fortin import random_shape_regular_triangles

from conftest import interpolate

KINDS = ["transposed", "scalar", "nan"]


def bad_field(kind, vector=False, good=None, good_calls=0):
    """A callable returning the wrong kind of values, after good_calls calls
    that return good(x)."""
    calls = {"n": 0}

    def fn(x):
        calls["n"] += 1
        if calls["n"] <= good_calls:
            return good(x)
        if kind == "transposed":
            return np.zeros((2, len(x)))
        if kind == "scalar":
            return 1.0
        return np.full((len(x), 2) if vector else len(x), np.nan)
    return fn


@pytest.fixture(scope="module")
def smooth_state():
    problem = preset("smooth")
    mesh = build_initial_mesh(problem.domain, 8)
    sol = solve(assemble(mesh, 1, problem))
    return problem, mesh, sol, postprocess_resmin(sol)


def raises_for(name):
    return pytest.raises(ValueError, match=rf"^{name} returned")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", ["f", "u_D"])
def test_assemble_rejects_bad_data(smooth_state, name, kind):
    problem, mesh, _, _ = smooth_state
    bad = dataclasses.replace(problem, **{name: bad_field(kind)})
    with raises_for(name):
        assemble(mesh, 1, bad)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name, vector", [("exact_q", True),
                                          ("exact_u", False),
                                          ("quad_region", False)])
def test_error_norms_rejects_bad_exact_fields(smooth_state, name, vector,
                                              kind):
    problem, _, sol, post = smooth_state
    bad = dataclasses.replace(problem, **{name: bad_field(kind, vector)})
    solution = dataclasses.replace(sol, problem=bad)
    with raises_for(name):
        error_norms(dataclasses.replace(post, solution=solution))


@pytest.mark.parametrize("kind", KINDS)
def test_oscillation_bound_rejects_bad_flux(smooth_state, kind):
    problem, mesh, _, _ = smooth_state
    bad = dataclasses.replace(problem, exact_q=bad_field(kind, True))
    with raises_for("exact_q"):
        oscillation_bound(bad, mesh, 1)


@pytest.mark.parametrize("kind", KINDS)
def test_indicator_rejects_bad_boundary_data(smooth_state, kind):
    # the indicator's boundary traces are taken by the postprocessing
    problem, _, sol, _ = smooth_state
    bad = dataclasses.replace(problem, u_D=bad_field(kind))
    with raises_for("u_D"):
        postprocess_resmin(dataclasses.replace(sol, problem=bad))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("good_calls", [0, 1], ids=["edges", "interior"])
def test_interpolate_rejects_bad_field(smooth_state, kind, good_calls):
    # the interpolant is a test oracle; it reads its field the same way, so
    # a malformed field cannot pass as reference data
    problem, mesh, _, _ = smooth_state
    q = bad_field(kind, True, problem.exact_q, good_calls)
    with raises_for("q"):
        interpolate(BdmSpace(mesh, 2), q)


@pytest.mark.parametrize("kind", KINDS)
def test_fortin_apply_rejects_bad_field(kind):
    mesh = random_shape_regular_triangles(3, seed=0)
    with raises_for("v"):
        fortin_apply(bad_field(kind), build_biorthogonal(), mesh)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name, vector", [("exact_q", True),
                                          ("exact_u", False)])
def test_validate_exact_rejects_bad_fields(name, vector, kind):
    problem = preset("smooth")
    bad = dataclasses.replace(problem, **{name: bad_field(kind, vector)})
    with raises_for(name):
        bad.validate_exact(np.random.default_rng(0).uniform(size=(5, 2)))


def test_nan_source_raises_instead_of_aborting():
    problem = dataclasses.replace(preset("smooth"), f=bad_field("nan"))
    with pytest.raises(ValueError, match="f returned non-finite values"):
        run_adaptive(problem, 1, iterations=2, initial_elements=8)


def test_values_keep_the_point_layout():
    pts = np.random.default_rng(1).uniform(size=(3, 4, 2))
    u = fields.field_values(lambda x: x[:, 0] * x[:, 1], pts, "u")
    q = fields.field_values(lambda x: 2.0 * x, pts, "q", vector=True)
    assert np.array_equal(u, pts[..., 0] * pts[..., 1])
    assert np.array_equal(q, 2.0 * pts)
    with pytest.raises(ValueError, match=r"shape \(12, 1\) for 12 points; "
                                         r"expected \(12,\)"):
        fields.field_values(lambda x: x[:, :1], pts, "u")
