"""Batched kernels against their einsum oracles, and a guard on einsum use.

The oracles in conftest are the kernels written as single einsum calls; the
program evaluates them as matrix products and batched 2x2 products.  Both must
agree to round-off on a mesh with jittered vertices and both edge
orientations.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdmadapt import TriMesh, build_initial_mesh, preset, solve_problem
from bdmadapt.basis import quad_rule
from bdmadapt.bdm import (BdmSpace, DgSpace, element_advection_matrices,
                          element_mass_matrices)
from bdmadapt.estimators import eta_improved, error_norms, full_report
from bdmadapt.fields import (coeff_contract, mapped_points, nu_jump_terms,
                             stiffness_tensors)
from bdmadapt.postprocess import _local_ingredients, postprocess_resmin
from bdmadapt.solver import assemble, solve

from conftest import (einsum_element_advection_matrices,
                      einsum_element_mass_matrices, einsum_error_norms,
                      einsum_flux_values, einsum_load_vector,
                      einsum_local_ingredients, einsum_mapped_points,
                      einsum_mismatch_sq, einsum_nu_jump_terms,
                      einsum_stiffness_tensors)

RTOL = 1e-12


def assert_matches(new, old, rtol=RTOL):
    new, old = np.asarray(new), np.asarray(old)
    assert new.shape == old.shape
    scale = np.max(np.abs(old))
    assert np.max(np.abs(new - old)) <= rtol * scale


@pytest.fixture(scope="module")
def advdiff():
    return preset("advdiff")


@pytest.fixture(scope="module")
def perturbed_mesh(advdiff):
    """Partly refined unit-square mesh with its interior vertices jittered."""
    rng = np.random.default_rng(11)
    base = build_initial_mesh(advdiff.domain, 32)
    base = base.refine(np.arange(0, base.n_triangles, 3))
    base = base.refine(np.arange(0, base.n_triangles, 2))
    v = base.vertices.copy()
    inside = ((v > 1e-12) & (v < 1.0 - 1e-12)).all(axis=1)
    shift = 0.15 * base.tri_edge_lengths.min()
    v[inside] += rng.uniform(-shift, shift, (inside.sum(), 2))
    mesh = TriMesh(v, base.triangles, domain_name=base.domain_name)
    assert mesh.elem_edge_aligned.any() and not mesh.elem_edge_aligned.all()
    assert not np.allclose(mesh.det_jacobians, mesh.det_jacobians[0])
    return mesh


@pytest.fixture(scope="module")
def solved(perturbed_mesh, advdiff):
    """p -> (solution, postprocess) of advdiff on the perturbed mesh."""
    out = {}
    for p in (1, 2, 3):
        sol = solve_problem(perturbed_mesh, p, advdiff)
        out[p] = sol, postprocess_resmin(sol)
    return out


def test_mapped_points_matches_einsum(perturbed_mesh):
    pts = quad_rule(12, "triangle").points
    ids = np.arange(1, perturbed_mesh.n_triangles, 3)
    assert_matches(mapped_points(perturbed_mesh, pts),
                   einsum_mapped_points(perturbed_mesh, pts))
    assert_matches(mapped_points(perturbed_mesh, pts, ids),
                   einsum_mapped_points(perturbed_mesh, pts, ids))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_flux_values_matches_einsum(perturbed_mesh, p):
    rng = np.random.default_rng(p)
    space = BdmSpace(perturbed_mesh, p)
    coeffs = rng.standard_normal(space.n_dofs)
    pts = quad_rule(2 * p + 8, "triangle").points
    ids = np.sort(rng.choice(perturbed_mesh.n_triangles, 17, replace=False))
    assert_matches(space.flux_values(coeffs, pts),
                   einsum_flux_values(space, coeffs, pts))
    assert_matches(space.flux_values(coeffs, pts, ids),
                   einsum_flux_values(space, coeffs, pts, ids))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_element_matrices_match_einsum(perturbed_mesh, advdiff, p):
    assert_matches(stiffness_tensors(perturbed_mesh, p + 2, 2 * (p + 2)),
                   einsum_stiffness_tensors(perturbed_mesh, p + 2, 2 * (p + 2)))
    space = BdmSpace(perturbed_mesh, p)
    scalar = DgSpace(perturbed_mesh, p - 1)
    assert_matches(element_mass_matrices(space),
                   einsum_element_mass_matrices(space))
    assert_matches(
        element_advection_matrices(space, scalar, advdiff.beta),
        einsum_element_advection_matrices(space, scalar, advdiff.beta))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_load_vector_matches_einsum(perturbed_mesh, advdiff, p):
    scalar = DgSpace(perturbed_mesh, p - 1)
    assert_matches(scalar.load_vector(advdiff.f, 2 * p + 8),
                   einsum_load_vector(scalar, advdiff.f, 2 * p + 8))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_local_ingredients_match_einsum(solved, p):
    solution, _ = solved[p]
    S22, rhs = _local_ingredients(solution)
    S22_ref, rhs_ref = einsum_local_ingredients(solution)
    assert_matches(S22, S22_ref)
    assert_matches(rhs, rhs_ref)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_estimator_terms_match_einsum(solved, advdiff, p):
    solution, post = solved[p]
    report = eta_improved(post, solution, advdiff.u_D)
    assert_matches(report.mismatch_K ** 2, einsum_mismatch_sq(post, solution))
    jump_ref, bnd_ref = einsum_nu_jump_terms(post.mesh, post.nu, advdiff.u_D,
                                             p + 5)
    jump_K, bnd_K = nu_jump_terms(post.mesh, post.nu, advdiff.u_D, p + 5)
    assert_matches(jump_K, jump_ref)
    assert_matches(bnd_K, bnd_ref)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_error_block_matches_einsum(solved, advdiff, p):
    solution, post = solved[p]
    new = error_norms(advdiff, solution, post)
    ref = einsum_error_norms(advdiff, solution, post)
    for name in ("grad_nu_K", "grad_theta_K", "one_h_K", "q_L2_K",
                 "q_trace_K", "q_star_K", "u_L2", "nu_L2"):
        assert_matches(getattr(new, name), getattr(ref, name))


# -- the contraction primitive -------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 7), nq=st.integers(1, 6), s=st.integers(1, 11),
       tail=st.sampled_from([(), (2,), (2, 3)]), seed=st.integers(0, 2**32 - 1))
def test_coeff_contract_is_the_einsum(n, nq, s, tail, seed):
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((n, s))
    table = rng.standard_normal((nq, s) + tail)
    out = coeff_contract(coeffs, table)
    assert out.shape == (n, nq) + tail
    assert_matches(out, np.einsum("ni,qi...->nq...", coeffs, table), 1e-13)


# -- guard ---------------------------------------------------------------------


def _warm_iteration(advdiff):
    """(n_triangles, iteration): one p = 2 assemble -> solve -> postprocess ->
    full_report on the 512-element advdiff mesh, already run once so that
    the cached reference tables are filled."""
    mesh = build_initial_mesh(advdiff.domain, 512)
    assert mesh.n_triangles == 512

    def iteration():
        solution = solve(assemble(mesh, 2, advdiff))
        return full_report(advdiff, solution, postprocess_resmin(solution))

    iteration()
    return mesh.n_triangles, iteration


def test_loop_passes_no_element_batch_through_einsum(monkeypatch, advdiff):
    """Only the 2x2 geometry factors (at most 4 entries per element) may go
    through einsum in assemble -> solve -> postprocess -> full_report."""
    nt, iteration = _warm_iteration(advdiff)
    real = np.einsum
    offending = []

    def watched(subscripts, *operands, **kwargs):
        for op in operands:
            shape = np.shape(op)
            if shape and shape[0] == nt and np.size(op) > 4 * nt:
                offending.append((subscripts, shape))
        return real(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", watched)
    iteration()
    assert offending == []


def test_loop_factors_each_element_stiffness_once(monkeypatch, advdiff):
    """One Cholesky of the element stiffnesses, one inverse of its factors and
    one of the mixed element blocks; no dense solve in the loop."""
    _, iteration = _warm_iteration(advdiff)
    calls = {"solve": 0, "cholesky": 0, "inv": 0}
    for name in calls:
        real = getattr(np.linalg, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    iteration()
    assert calls == {"solve": 0, "cholesky": 1, "inv": 2}
