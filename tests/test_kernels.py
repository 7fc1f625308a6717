"""Batched kernels against their einsum oracles, and guards on einsum use, on
the batch sizes of the dense factorizations and on rebuilt reference tables.

The oracles in conftest are the kernels written as single einsum calls, per
element; the program evaluates them as matrix products and batched 2x2
products, and builds the element blocks and factors once per shape class.
Both must agree to round-off on two meshes with both edge orientations: one
with jittered vertices, where every element is its own class, and an
ear-clipped one, where newest-vertex bisection merges 304 elements into 6
classes (17 with the advdiff beta).  The point maps must give the bits of
their oracles; the class products, one batched GEMM over class chunks, agree
with the per-class loop to round-off.
"""

import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from bdmadapt import (DomainSpec, TriMesh, bdm, build_initial_mesh,
                      estimators, fields, postprocess, preset)
from bdmadapt.basis import (RefScalarBasis, basis_size, edge_ref_points,
                            quad_rule)
from bdmadapt.bdm import BdmSpace, load_vector
from bdmadapt.estimators import eta_improved, error_norms, full_report
from bdmadapt.fields import (ElementClasses, edge_points, mapped_points,
                             nu_jump_terms, ref_tables, stiffness_tensors,
                             tabulate)
from bdmadapt.postprocess import postprocess_resmin, residual_load
from bdmadapt.solver import assemble, solve

from conftest import (broadcast_edge_points, einsum_element_blocks,
                      einsum_error_norms, einsum_flux_values,
                      einsum_load_vector, einsum_local_ingredients,
                      einsum_mapped_points, einsum_mismatch_sq,
                      einsum_nu_jump_terms, einsum_stiffness_tensors,
                      loop_class_matmul, reference_grads,
                      reference_shape_divs, reference_shape_values)

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")

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
    mesh = TriMesh(v, base.triangles)
    assert mesh.elem_edge_aligned.any() and not mesh.elem_edge_aligned.all()
    assert not np.allclose(mesh.det_jacobians, mesh.det_jacobians[0])
    return mesh


@pytest.fixture(scope="module")
def merged_mesh(advdiff):
    """Ear-clipped unit square bisected to 304 elements in few classes."""
    square = DomainSpec(((0, 0), (0.6, 0), (1, 0), (1, 1), (0, 1)))
    mesh = build_initial_mesh(square, 150)
    counts = np.bincount(ElementClasses(mesh).id)
    assert mesh.n_triangles == 304 and len(counts) == 6 and counts.min() == 1
    assert len(ElementClasses(mesh, advdiff.beta).reps) == 17
    return mesh


@pytest.fixture(scope="module")
def meshes(perturbed_mesh, merged_mesh):
    assert len(ElementClasses(perturbed_mesh).reps) == \
        perturbed_mesh.n_triangles
    return perturbed_mesh, merged_mesh


@pytest.fixture(scope="module")
def solved(meshes, advdiff):
    """p -> [(solution, postprocess)] of advdiff on both meshes."""
    out = {}
    for p in (1, 2, 3):
        out[p] = []
        for mesh in meshes:
            sol = solve(assemble(mesh, p, advdiff))
            out[p].append((sol, postprocess_resmin(sol)))
    return out


def test_mapped_points_matches_einsum(perturbed_mesh):
    pts = quad_rule(12, "triangle").points
    ids = np.random.default_rng(5).permutation(perturbed_mesh.n_triangles)
    for sel in (slice(None), ids[::3], ids[[0, 4, 4, 1]]):
        assert np.array_equal(mapped_points(perturbed_mesh, pts, sel),
                              einsum_mapped_points(perturbed_mesh, pts, sel))


def test_edge_points_match_broadcast(perturbed_mesh):
    t = quad_rule(11, "edge").points
    ids = np.random.default_rng(6).permutation(perturbed_mesh.n_edges)[::4]
    for sel in (slice(None), ids):
        assert np.array_equal(edge_points(perturbed_mesh, sel, t),
                              broadcast_edge_points(perturbed_mesh, sel, t))


def _disjoint_triangles(apex):
    """Mesh of the disjoint triangles (0, 0), (1, 0), apex_k, translated
    apart; with beta = 0 the classes are the distinct apexes.  The
    coordinates are dyadic, so equal apexes give bitwise equal keys."""
    n = len(apex)
    tris = np.zeros((n, 3, 2))
    tris[:, 1, 0] = 1.0
    tris[:, 2] = apex
    tris[..., 0] += 4.0 * np.arange(n)[:, None]
    return TriMesh(tris.reshape(-1, 2), np.arange(3 * n).reshape(n, 3))


@pytest.fixture(scope="module")
def class_layouts(merged_mesh, advdiff):
    """ElementClasses of: the shuffled merged mesh with the advdiff beta (17
    classes), one uniform class, one class of n - 20 elements plus 20
    singletons, and all singletons."""
    rng = np.random.default_rng(7)
    perm = rng.permutation(merged_mesh.n_triangles)
    shuffled = TriMesh(merged_mesh.vertices, merged_mesh.triangles[perm])
    odd = np.column_stack([0.25 + np.arange(40) / 64.0, np.ones(40)])
    one_large = np.vstack([np.tile([0.5, 0.75], (280, 1)), odd[:20]])
    layouts = [ElementClasses(shuffled, advdiff.beta),
               ElementClasses(build_initial_mesh(advdiff.domain, 32)),
               ElementClasses(_disjoint_triangles(rng.permutation(one_large))),
               ElementClasses(_disjoint_triangles(odd))]
    counts = [np.bincount(c.id) for c in layouts]
    assert [len(c) for c in counts] == [17, 1, 21, 40]
    assert counts[2].max() == 280 and counts[3].max() == 1
    return layouts


def _class_operands(classes, seed=7):
    rng = np.random.default_rng(seed)
    mats = rng.standard_normal((len(classes.reps), 5, 9))
    return mats, rng.standard_normal((len(classes.id), 12))


def test_class_matmul_matches_loop(class_layouts):
    """The batched chunk GEMM agrees with a gather and scatter per class to
    round-off (the GEMM may block rows differently from the per-class
    products) on every layout, for strided and contiguous rows, and its
    padding stays within 2 n + n_classes rows of at most 2 n_classes
    chunks."""
    for classes in class_layouts:
        n, n_classes = len(classes.id), len(classes.reps)
        mats, x = _class_operands(classes)
        for rows in (x[:, :9], np.ascontiguousarray(x[:, 3:])):
            assert_matches(classes.matmul(mats, rows),
                           loop_class_matmul(classes, mats, rows))
        if n_classes > 1:
            n_chunks = len(classes.chunk_class)
            assert n_chunks <= 2 * n_classes
            assert n_chunks * classes.chunk_rows <= 2 * n + n_classes
            assert np.array_equal(classes.source[classes.slot],
                                  np.arange(n))


def test_class_matmul_is_one_gemm(class_layouts, monkeypatch):
    """One product over the 17 advdiff classes makes one np.matmul call."""
    classes = class_layouts[0]
    mats, x = _class_operands(classes)
    calls = []
    real = np.matmul

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", counted)
    classes.matmul(mats, x[:, :9])
    assert len(calls) == 1


def test_class_matmul_memory_is_linear(class_layouts):
    """A product's peak allocation is a fixed multiple of its operands and
    result, also with one large class beside many singletons."""
    for classes in class_layouts:
        mats, x = _class_operands(classes)
        x = x[:, :9].copy()
        tracemalloc.start()
        try:
            out = classes.matmul(mats, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * (x.nbytes + out.nbytes + mats.nbytes)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_flux_values_matches_einsum(perturbed_mesh, p):
    rng = np.random.default_rng(p)
    space = BdmSpace(perturbed_mesh, p)
    coeffs = rng.standard_normal(space.n_dofs)
    pts = quad_rule(2 * p + 8, "triangle").points
    Nh = tabulate(p, pts)[2]
    ids = np.sort(rng.choice(perturbed_mesh.n_triangles, 17, replace=False))
    assert_matches(space.flux_values(coeffs, Nh),
                   einsum_flux_values(space, coeffs, pts))
    assert_matches(space.flux_values(coeffs, Nh, ids),
                   einsum_flux_values(space, coeffs, pts, ids))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_element_matrices_match_einsum(meshes, advdiff, p):
    """Each element's signed class block, and its inverse, against the
    element's own einsum blocks, for beta = 0 and beta != 0."""
    for mesh in meshes:
        assert_matches(stiffness_tensors(p, mesh.metric),
                       einsum_stiffness_tensors(mesh, p + 2,
                                                2 * (p + 2))[:, 1:, 1:])
        for problem in (preset("smooth"), advdiff):
            system = assemble(mesh, p, problem)
            ids, flux = system.classes.id, system.flux_space
            # Sigma_K = diag(flux signs, 1): the scalar dofs carry no sign
            signs = np.ones((len(ids), system.blocks.shape[1]))
            signs[:, :flux.local_dim] = flux.signs
            ref = einsum_element_blocks(system.flux_space, problem.beta)
            got = signs[:, :, None] * system.blocks[ids] * signs[:, None, :]
            assert_matches(got, ref)
            inv = signs[:, :, None] * system.inverse[ids] * signs[:, None, :]
            # scaled like a backward error: advective blocks are ill conditioned
            resid = np.abs(inv @ ref - np.eye(ref.shape[1])).max(axis=(1, 2))
            scale = np.abs(inv).max(axis=(1, 2)) * np.abs(ref).max(axis=(1, 2))
            assert np.all(resid <= RTOL * scale)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_load_vector_matches_einsum(perturbed_mesh, advdiff, p):
    assert_matches(load_vector(perturbed_mesh, p, advdiff.f),
                   einsum_load_vector(perturbed_mesh, p, advdiff.f, 2 * p + 8))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_local_ingredients_match_einsum(solved, p):
    """The residual load, and each element's class factor G = L^{-1}
    against the inverse Cholesky factor of the element's own stiffness."""
    for solution, post in solved[p]:
        S22_ref, rhs_ref = einsum_local_ingredients(solution)
        assert_matches(residual_load(solution), rhs_ref)
        G_ref = np.linalg.inv(np.linalg.cholesky(S22_ref))
        assert_matches(post.chol_inv[solution.classes.id], G_ref)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_estimator_terms_match_einsum(solved, advdiff, p):
    for solution, post in solved[p]:
        report = eta_improved(post)
        assert_matches(report.mismatch_K ** 2,
                       einsum_mismatch_sq(post, solution))
        mesh = solution.flux_space.mesh
        jump_ref, bnd_ref = einsum_nu_jump_terms(mesh, post.nu, advdiff.u_D,
                                                 p + 5)
        jump_K, bnd_K = nu_jump_terms(mesh, post.nu, advdiff.u_D, p)
        assert_matches(jump_K, jump_ref)
        assert_matches(bnd_K, bnd_ref)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_error_block_matches_einsum(solved, advdiff, p):
    for solution, post in solved[p]:
        new = error_norms(post)
        ref = einsum_error_norms(advdiff, solution, post)
        for name in ("grad_nu_K", "grad_theta_K", "one_h_K", "q_L2_K",
                     "q_trace_K", "q_star_K", "u_L2", "nu_L2"):
            assert_matches(getattr(new, name), getattr(ref, name))


# -- the reference tables -----------------------------------------------------


def _point_sets(p):
    """(kind, quad_rule variant, exactness) of every point set the loop
    tabulates at degree p."""
    return [("local", "triangle", 2 * (p + 2)),
            ("data", "triangle", 2 * p + 8),
            ("region", "subdivided triangle", 2 * p + 8),
            ("singular", "graded triangle", 2 * p + 8),
            ("edge", "edge", 2 * p + 9)]


@pytest.mark.parametrize("p", [1, 2, 3])
def test_ref_tables_are_the_einsum(p):
    """Every table of every point set is coefficient-major, read-only and
    contiguous, and a degree-k field contracted on its leading row slice
    equals the einsum over the point-major basis at the same points, for
    every degree k the table reaches.  Each kind's points and weights are
    those of its quad_rule variant and exactness."""
    rng = np.random.default_rng(p)
    basis = RefScalarBasis(p + 2)
    for kind, variant, exactness in _point_sets(p):
        T = ref_tables(p, kind)
        pts = T.points
        nq, nloc = len(pts), 2 * basis_size(p)
        rule = quad_rule(exactness, variant)
        assert np.array_equal(T.weights, rule.weights)
        if kind == "edge":
            t = rule.points
            assert np.array_equal(pts, np.vstack([
                edge_ref_points(j, u) for j in range(3) for u in (t, 1 - t)]))
            assert abs(T.weights.sum() - 1.0) <= 1e-14
        else:
            assert np.array_equal(pts, rule.points)
            # exact for every monomial up to the exactness
            for a in range(exactness + 1):
                for b in range(exactness + 1 - a):
                    exact = (math.factorial(a) * math.factorial(b)
                             / math.factorial(a + b + 2))
                    got = T.weights @ (pts[:, 0] ** a * pts[:, 1] ** b)
                    assert abs(got - exact) <= 1e-14
        shapes = {"V": (basis.size, nq), "D": (basis.size, 2 * nq),
                  "N": (nloc, 2 * nq), "div": (nloc, nq)}
        for name, shape in shapes.items():
            table = getattr(T, name)
            assert table.shape == shape and table.flags.c_contiguous
            assert not table.flags.writeable
        V, G = basis.values(pts), reference_grads(basis, pts)
        for k in range(p + 3):
            s = basis_size(k)
            c = rng.standard_normal((5, s))
            assert_matches(c @ T.V[:s], np.einsum("ni,qi->nq", c, V[:, :s]),
                           1e-13)
            assert_matches((c @ T.D[:s]).reshape(5, nq, 2),
                           np.einsum("ni,qia->nqa", c, G[:, :s]), 1e-13)
        c = rng.standard_normal((5, nloc))
        assert_matches((c @ T.N).reshape(5, nq, 2), np.einsum(
            "nl,qla->nqa", c, reference_shape_values(p, pts)), 1e-13)
        assert_matches(c @ T.div, np.einsum(
            "nl,ql->nq", c, reference_shape_divs(p, pts)), 1e-13)


def test_ref_tables_are_built_once():
    assert ref_tables(2, "data") is ref_tables(2, "data")
    with pytest.raises(ValueError, match="point set"):
        ref_tables(2, "square")


class _TableView(np.ndarray):
    """A cached table as the kernels see it: views of it stay _TableView,
    every other result is a plain array, and each matrix product records
    whether its table operand still shares memory with the cached table
    and is contiguous, so that BLAS reads it in place."""

    reads = []

    def __array_finalize__(self, obj):
        self.cached = getattr(obj, "cached", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            _TableView.reads.extend(
                np.shares_memory(x, x.cached)
                and (x.flags.c_contiguous or x.flags.f_contiguous)
                for x in inputs if isinstance(x, _TableView))
        inputs = [x.view(np.ndarray) if isinstance(x, _TableView) else x
                  for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


def test_contractions_read_views_of_cached_tables(monkeypatch, advdiff):
    """assemble -> solve -> postprocess -> full_report contracts element
    rows with the cached tables themselves: every product reads a view of
    the cached array, never a reshaped copy."""
    real = fields.ref_tables

    def viewed(*args):
        T = real(*args)

        def view(a):
            out = a.view(_TableView)
            out.cached = a
            return out
        return fields.RefTables(*(view(a) for a in vars(T).values()))

    mesh = build_initial_mesh(advdiff.domain, 32).refine(range(0, 32, 3))

    def run():
        for p in (1, 2, 3):
            solution = solve(assemble(mesh, p, advdiff))
            full_report(postprocess_resmin(solution))

    run()  # the tables derived from the cached ones are cached as well
    for module in (fields, bdm, estimators, postprocess):
        monkeypatch.setattr(module, "ref_tables", viewed)
    monkeypatch.setattr(_TableView, "reads", [])
    run()
    # per degree: load vector, eta_improved (2), error groups (2 x 5) and
    # the 6 edge variants of the traces of nu
    assert len(_TableView.reads) >= 3 * 14
    assert all(_TableView.reads)


def test_cold_run_tabulates_each_point_set_once():
    """A cold p = 1..3 run of smooth and advdiff evaluates the scalar basis
    once per (degree, point set): values, gradients and BDM shapes of a
    point set come from one run of the recurrence."""
    script = (
        "import collections\n"
        "import numpy as np\n"
        "from bdmadapt import RefScalarBasis, preset, run_adaptive\n"
        "seen = collections.Counter()\n"
        "real = RefScalarBasis.tabulate\n"
        "def counted(self, pts):\n"
        "    pts = np.asarray(pts, dtype=float)\n"
        "    seen[self.degree, pts.shape, pts.tobytes()] += 1\n"
        "    return real(self, pts)\n"
        "RefScalarBasis.tabulate = counted\n"
        "for name in ('smooth', 'advdiff'):\n"
        "    for p in (1, 2, 3):\n"
        "        run = run_adaptive(preset(name), p, iterations=3,\n"
        "                           keep_meshes=True)\n"
        "        run.records[-1].report.to_dict()\n"
        "print(len(seen), max(seen.values()))\n")
    out = subprocess.run([sys.executable, "-c", script], check=True,
                         capture_output=True, text=True, timeout=300,
                         env={**os.environ, "PYTHONPATH": SRC})
    n_sets, most = map(int, out.stdout.split())
    assert most == 1 and n_sets >= 3 * 4


# -- guard ---------------------------------------------------------------------


def _warm_iteration(advdiff):
    """(n_triangles, iteration): one p = 2 assemble -> solve -> postprocess ->
    full_report on the 512-element advdiff mesh, already run once so that
    the cached reference tables are filled."""
    mesh = build_initial_mesh(advdiff.domain, 512)
    assert mesh.n_triangles == 512

    def iteration():
        solution = solve(assemble(mesh, 2, advdiff))
        return full_report(postprocess_resmin(solution))

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
    """One Cholesky of the class stiffnesses, one inverse of its factors and
    one of the mixed class blocks, each batched over the solver's shape
    classes and not over the 512 elements; no dense solve in the loop.
    Every element of the uniform mesh is right isosceles with its peak at
    the right angle, so T = B^T B / J = I, and the advection key B^T beta
    tells the two orientations apart: two classes, which the postprocessing
    reuses."""
    _, iteration = _warm_iteration(advdiff)
    calls = {"solve": [], "cholesky": [], "inv": []}
    for name in calls:
        real = getattr(np.linalg, name)

        def counted(a, *args, _name=name, _real=real, **kwargs):
            calls[_name].append(len(a))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    iteration()
    assert calls == {"solve": [], "cholesky": [2], "inv": [2, 2]}


def test_loop_builds_reference_tables_once(monkeypatch, advdiff):
    """After one warm full_report, the full_report of a refined mesh (base
    and quad_region groups again) evaluates no reference basis: every point
    table comes from a cache."""
    nt, iteration = _warm_iteration(advdiff)
    mesh = build_initial_mesh(advdiff.domain, nt).refine(range(0, nt, 5))
    solution = solve(assemble(mesh, 2, advdiff))
    post = postprocess_resmin(solution)
    calls = []

    def counting(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    counting(RefScalarBasis, "tabulate")
    report = full_report(post)
    assert report.has_exact and mesh.n_triangles > nt
    assert calls == []
