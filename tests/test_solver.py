import ctypes.util
import dataclasses
import os
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy
from scipy.sparse.linalg import splu

import bdmadapt.solver as solver_mod
from bdmadapt import (DomainSpec, ProblemSpec, SingularSystemError, assemble,
                      build_initial_mesh, interpolate_boundary_term, preset,
                      solve)
from bdmadapt.basis import make_scalar_basis, quad_rule
from bdmadapt.bdm import BdmSpace, load_vector
from bdmadapt.fields import mapped_points

from conftest import (advection_matrix, bdm_mass_matrix, coo_schur,
                      divergence_matrix, eval_flux, interpolate,
                      make_linear_problem, saddle_system, scipy_schur,
                      single_element_mesh)
from factor_cases import multiplier_cases


def zero_problem():
    return ProblemSpec(domain=DomainSpec.unit_square(),
                       f=lambda x: np.zeros(len(x)),
                       u_D=lambda x: np.zeros(len(x)), name="zero")


def test_homogeneous_problem_gives_zero():
    mesh = build_initial_mesh(DomainSpec.unit_square(), 8)
    sol = solve(assemble(mesh, 2, zero_problem()))
    assert np.abs(sol.flux).max() <= 1e-12
    assert np.abs(sol.scalar).max() <= 1e-12


@pytest.mark.parametrize("p", [1, 2, 3])
def test_linear_solution_exact(p):
    lin = make_linear_problem()
    mesh = build_initial_mesh(lin.domain, 8)
    sol = solve(assemble(mesh, p, lin))
    assert sol.diagnostics["rel_residual"] <= 1e-10
    # q_h = (-1, 0) everywhere
    pts = np.array([[0.2, 0.3], [0.5, 0.1], [0.3, 0.6]])
    for k in range(mesh.n_triangles):
        vals = eval_flux(sol.flux_space, sol.flux, k, pts)
        assert np.abs(vals - [-1.0, 0.0]).max() <= 1e-10
    # u_h is the elementwise L2 projection of x
    rule = quad_rule(2 * p + 8, "triangle")
    V = make_scalar_basis(p - 1).values(rule.points)
    phys = mapped_points(mesh, rule.points)
    proj = np.einsum("q,nq,qi->ni", rule.weights, phys[:, :, 0], V)
    assert np.abs(sol.scalar - proj).max() <= 1e-10


def test_divergence_equation_holds_exactly():
    # (div q_h - f, v_h) = 0 for every scalar test function
    smooth = preset("smooth")
    mesh = build_initial_mesh(smooth.domain, 32).refine(range(32))
    p = 2
    sol = solve(assemble(mesh, p, smooth))
    B = divergence_matrix(sol.flux_space)
    F = load_vector(mesh, p, smooth.f).ravel()
    resid = B @ sol.flux - F
    assert np.abs(resid).max() <= 1e-10 * max(1.0, np.abs(F).max())


def test_galerkin_orthogonality_random_tests(rng):
    smooth = preset("smooth")
    mesh = build_initial_mesh(smooth.domain, 32)
    p = 2
    sol = solve(assemble(mesh, p, smooth))
    M = bdm_mass_matrix(sol.flux_space)
    B = divergence_matrix(sol.flux_space)
    g = interpolate_boundary_term(sol.flux_space, smooth.u_D)
    resid = M @ sol.flux - B.T @ sol.scalar.ravel() - g
    scale = max(np.abs(sol.flux).max(), 1.0)
    for _ in range(20):
        ph = rng.standard_normal(sol.flux_space.n_dofs)
        assert abs(ph @ resid) <= 1e-10 * scale * np.linalg.norm(ph)


def test_advection_one_element_sanity(rng):
    # (beta . N_l, 1)_K equals beta . (integral of N_l), componentwise oracle
    mesh = single_element_mesh()
    p = 2
    space = BdmSpace(mesh, p)
    beta = (0.7, -1.3)
    C = advection_matrix(space, beta).toarray()
    rule = quad_rule(2 * p + 6, "triangle")
    coeffs = rng.standard_normal(space.n_dofs)
    vals = eval_flux(space, coeffs, 0, rule.points)
    integral = mesh.det_jacobians[0] * np.einsum("q,qa->a", rule.weights, vals)
    got = (C @ coeffs)[0] / np.sqrt(2.0)  # constant test function is sqrt(2)
    want = float(np.dot(beta, integral))
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_advection_residual_decreases_under_refinement():
    adv = preset("advdiff")
    norms = []
    mesh = build_initial_mesh(adv.domain, 32)
    for _ in range(3):
        system = saddle_system(mesh, 1, adv)
        flux = interpolate(system.flux_space, adv.exact_q)
        rule = quad_rule(10, "triangle")
        V = make_scalar_basis(0).values(rule.points)
        phys = mapped_points(mesh, rule.points)
        uvals = np.asarray(adv.exact_u(phys.reshape(-1, 2))).reshape(
            phys.shape[:2])
        proj = np.einsum("q,nq,qi->ni", rule.weights, uvals, V)
        x = np.concatenate([flux, proj.ravel()])
        resid = system.matrix @ x - system.rhs
        norms.append(np.linalg.norm(resid) / np.linalg.norm(system.rhs))
        mesh = mesh.refine(range(mesh.n_triangles))
        mesh = mesh.refine(range(mesh.n_triangles))
    assert norms[1] < norms[0] and norms[2] < norms[1]


def test_dense_lu_oracle_small_mesh():
    smooth = preset("smooth")
    mesh = build_initial_mesh(smooth.domain, 8)
    system = saddle_system(mesh, 1, smooth)
    assert system.matrix.shape[0] <= 200
    sol = solve(assemble(mesh, 1, smooth))
    dense = np.linalg.solve(system.matrix.toarray(), system.rhs)
    x = np.concatenate([sol.flux, sol.scalar.ravel()])
    assert np.abs(x - dense).max() <= 1e-9 * max(1.0, np.abs(dense).max())


def test_schur_complement_positive_definite():
    smooth = preset("smooth")
    mesh = build_initial_mesh(smooth.domain, 32)
    system = saddle_system(mesh, 1, smooth)
    M = bdm_mass_matrix(system.flux_space).toarray()
    B = divergence_matrix(system.flux_space).toarray()
    S = B @ np.linalg.solve(M, B.T)
    evals = np.linalg.eigvalsh(0.5 * (S + S.T))
    assert evals.min() > 0


def test_empty_mesh_rejected():
    smooth = preset("smooth")
    with pytest.raises(ValueError):
        from bdmadapt.mesh import TriMesh
        TriMesh(np.zeros((0, 2)), np.zeros((0, 3), dtype=int))


def test_exact_pair_validation_catches_mismatch():
    bad = ProblemSpec(
        domain=DomainSpec.unit_square(),
        f=lambda x: np.zeros(len(x)),
        u_D=lambda x: np.zeros(len(x)),
        exact_u=lambda x: x[:, 0] ** 2,
        exact_q=lambda x: np.stack([x[:, 0], np.zeros(len(x))], axis=1),
        name="bad")
    with pytest.raises(ValueError, match="inconsistent"):
        bad.validate_exact(np.array([[0.3, 0.4], [0.6, 0.2]]))


@pytest.mark.parametrize("changes, error", [
    ({"beta": (np.nan, 0.0)}, ValueError),
    ({"beta": (np.inf, 0.0)}, ValueError),
    ({"beta": (1.0,)}, ValueError),
    ({"beta": None}, ValueError),
    ({"quad_singular_point": (0.0, np.nan)}, ValueError),
    ({"quad_singular_point": (0.0, 0.0, 0.0)}, ValueError),
    ({"f": None}, TypeError),
    ({"u_D": 0.0}, TypeError),
    ({"exact_u": "x ** 2"}, TypeError),
    ({"exact_q": np.zeros(2)}, TypeError),
    ({"quad_region": True}, TypeError),
], ids=["nan-beta", "inf-beta", "short-beta", "no-beta", "nan-point",
        "3d-point", "no-f", "number-u_D", "string-exact_u", "array-exact_q",
        "bool-quad_region"])
def test_bad_problem_constants_rejected(changes, error):
    with pytest.raises(error):
        dataclasses.replace(zero_problem(), **changes)


def test_problem_constants_stored_as_float_pairs():
    spec = dataclasses.replace(zero_problem(), beta=np.array([1, 2]),
                               quad_singular_point=[0, 1])
    assert spec.beta == (1.0, 2.0) and spec.quad_singular_point == (0.0, 1.0)
    assert all(type(v) is float for v in spec.beta + spec.quad_singular_point)


@pytest.mark.parametrize("name, beta_scale", [
    ("smooth", 1), ("lshape", 1), ("advdiff", 1), ("advdiff", 10)],
    ids=["smooth", "lshape", "advdiff", "advdiff-10beta"])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_hybrid_matches_saddle_lu(name, beta_scale, p):
    # one unpivoted factorization serves beta = 0 and both advection sizes
    problem = preset(name)
    problem = dataclasses.replace(
        problem, beta=tuple(beta_scale * b for b in problem.beta))
    count = 96 if name == "lshape" else 32
    mesh = build_initial_mesh(problem.domain, count).refine(range(count))
    sol = solve(assemble(mesh, p, problem))
    oracle = saddle_system(mesh, p, problem)
    x = splu(oracle.matrix).solve(oracle.rhs)
    nq = oracle.flux_space.n_dofs
    for got, want in ((sol.flux, x[:nq]), (sol.scalar.ravel(), x[nq:])):
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def test_multiplier_system_size_and_diagnostics():
    adv = preset("advdiff")
    mesh = build_initial_mesh(adv.domain, 32)
    p = 2
    system = assemble(mesh, p, adv)
    n_interior = int((~mesh.boundary_edge).sum())
    assert system.schur.shape == (n_interior * (p + 1),) * 2
    sol = solve(system)
    diag = sol.diagnostics
    assert diag["n_dofs"] == n_interior * (p + 1)
    assert diag["nnz"] == system.schur.nnz
    assert diag["fill"] >= diag["n_dofs"]
    assert diag["factor_seconds"] >= 0.0
    assert diag["rel_residual"] <= 1e-13


def test_fill_is_read_from_the_factor_without_copies(monkeypatch):
    # solve() may only solve with the factor and read its size: building
    # L and U as matrices would copy the whole fill
    real_factor = solver_mod._factor
    seen = []

    class Guard:
        def __init__(self, lu):
            self._lu = lu

        def __getattr__(self, name):
            if name not in ("solve", "nnz", "shape"):
                raise AssertionError(f"solve() read the factor's {name!r}")
            return getattr(self._lu, name)

    def guarded(system, single):
        lu = real_factor(system, single)
        seen.append(lu)
        return Guard(lu)

    monkeypatch.setattr(solver_mod, "_factor", guarded)
    adv = preset("advdiff")
    sol = solve(assemble(build_initial_mesh(adv.domain, 32), 2, adv))
    assert sol.diagnostics["fill"] == seen[0].nnz
    # and nothing else could build them: the factor has no matrix type
    for name in ("L", "U"):
        with pytest.raises(RuntimeError, match="copy the whole fill"):
            getattr(seen[0], name)


def _sloppy_factor(monkeypatch):
    """Make every multiplier solve off by half."""
    real_gstrf = solver_mod._superlu.gstrf

    class Sloppy:
        def __init__(self, lu):
            self.lu, self.nnz = lu, lu.nnz

        def solve(self, b):
            return 1.5 * self.lu.solve(b)

    monkeypatch.setattr(solver_mod, "_superlu", SimpleNamespace(
        gstrf=lambda *a, **k: Sloppy(real_gstrf(*a, **k))))


def test_inaccurate_factor_raises(monkeypatch):
    _sloppy_factor(monkeypatch)
    smooth = preset("smooth")
    mesh = build_initial_mesh(smooth.domain, 32)
    with pytest.raises(SingularSystemError, match="residual"):
        solve(assemble(mesh, 1, smooth))


def test_rel_residual_is_that_of_the_mixed_equations(monkeypatch):
    _sloppy_factor(monkeypatch)
    monkeypatch.setattr(solver_mod, "RESIDUAL_TOL", np.inf)
    adv = preset("advdiff")
    mesh = build_initial_mesh(adv.domain, 32)
    sol = solve(assemble(mesh, 2, adv))
    oracle = saddle_system(mesh, 2, adv)
    x = np.concatenate([sol.flux, sol.scalar.ravel()])
    want = (np.linalg.norm(oracle.matrix @ x - oracle.rhs)
            / np.linalg.norm(oracle.rhs))
    assert want > 1e-3
    assert sol.diagnostics["rel_residual"] == pytest.approx(want, rel=1e-9)


def _record_factors(monkeypatch):
    """The precisions solve() factors in, single (True) or double."""
    real_factor = solver_mod._factor
    precisions = []

    def recorder(system, single):
        precisions.append(single)
        return real_factor(system, single)

    monkeypatch.setattr(solver_mod, "_factor", recorder)
    return precisions


def test_residual_over_tolerance_raises_after_a_double_retry(monkeypatch):
    # element blocks off by 1e-3 relative from the inverted ones: the
    # refinement step leaves 3.3e-6, between RESIDUAL_TOL and 1e-2 (the
    # residual falls as the square of the perturbation, so 1e-6 leaves
    # 3e-12, under RESIDUAL_TOL); the single-precision factor misses the
    # tolerance, the double-precision retry too, and solve() raises
    smooth = preset("smooth")
    system = assemble(build_initial_mesh(smooth.domain, 32), 1, smooth)
    noise = np.random.default_rng(0).standard_normal(system.blocks.shape)
    system = dataclasses.replace(system,
                                 blocks=system.blocks * (1 + 1e-3 * noise))
    precisions = _record_factors(monkeypatch)
    with pytest.raises(SingularSystemError,
                       match=r"relative residual \d\.\d+e-06 "):
        solve(system)
    assert precisions == [True, False]


def test_failed_single_precision_factor_falls_back_to_double(monkeypatch):
    # where SuperLU's sgstrf fails, solve() factors S in double precision:
    # the solution is that of the double-precision factor, bit for bit
    smooth = preset("smooth")
    system = assemble(build_initial_mesh(smooth.domain, 32), 2, smooth)
    want, rel = solver_mod._recover(
        system, solver_mod._factor(system, False), False)
    single = solve(system)
    assert single.diagnostics["factor_precision"] == "single"
    got = np.concatenate([single.flux, single.scalar.ravel()])
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    real_gstrf = solver_mod._superlu.gstrf

    def gstrf(n, nnz, data, *args, **kwargs):
        if data.dtype == np.float32:
            raise RuntimeError("Factor is exactly singular")
        return real_gstrf(n, nnz, data, *args, **kwargs)

    monkeypatch.setattr(solver_mod, "_superlu", SimpleNamespace(gstrf=gstrf))
    precisions = _record_factors(monkeypatch)
    sol = solve(system)
    assert precisions == [True, False]
    assert sol.diagnostics["factor_precision"] == "double"
    assert sol.diagnostics["rel_residual"] == rel
    got = np.concatenate([sol.flux, sol.scalar.ravel()])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_single_element_needs_no_multipliers(p):
    sol = solve(assemble(single_element_mesh(), p, make_linear_problem()))
    assert sol.diagnostics["n_dofs"] == 0
    vals = eval_flux(sol.flux_space, sol.flux, 0, np.array([[0.2, 0.3]]))
    assert np.abs(vals - [-1.0, 0.0]).max() <= 1e-12


@pytest.fixture(scope="module")
def multiplier_systems():
    return {name: assemble(mesh, p, problem)
            for name, problem, mesh, p in multiplier_cases()}


@pytest.mark.parametrize("name", ["advdiff", "smooth", "lshape"])
def test_schur_equals_coo_oracle_bitwise(multiplier_systems, name):
    # each entry of S sums at most two triplets, so forming the triplets
    # once from int32 numbers changes no bit of S or of its index arrays
    # scipy's coo_matrix.tocsc() is the oracle of the sparsetools calls
    system = multiplier_systems[name]
    S, multiplier = coo_schur(system)
    got = system.schur
    assert got.indices.dtype == np.intc and got.indptr.dtype == np.intc
    assert got.data.dtype == np.float64
    assert got.shape == S.shape and got.nnz == S.nnz
    # sorted row indices, no duplicates: they strictly increase in a column
    steps = np.diff(got.indices)
    steps[got.indptr[1:-1] - 1] = 1  # a new column may start anywhere
    assert np.all(steps > 0) and S.has_sorted_indices
    assert np.array_equal(got.indptr, S.indptr)
    assert np.array_equal(got.indices, S.indices)
    assert np.array_equal(got.data.view(np.uint64), S.data.view(np.uint64))
    assert np.array_equal(system.multiplier, multiplier)


# The traced peak of assemble over the memory its result holds.  Assembly
# with int64 triplets, gathered through a mask and converted by copies,
# measured 2.60, 2.48 and 2.80 on these cases; the triplets formed once
# measure 1.92, 1.88 and 1.90 (numpy 2.4, scipy 1.17).
ASSEMBLE_PEAK_RATIO = 2.2


@pytest.mark.parametrize("name, initial, p", [("smooth", 50, 3),
                                              ("lshape", 150, 1),
                                              ("advdiff", 50, 2)])
def test_assemble_peak_is_bounded_by_its_result(name, initial, p):
    # 3,200, 9,600 and 3,200 elements: S dominates the result, and the COO
    # -> CSC conversion, which holds the triplets and the CSC arrays at
    # once, sets the peak
    problem = preset(name)
    mesh = build_initial_mesh(problem.domain, initial)
    for _ in range(6):
        mesh = mesh.refine(np.arange(mesh.n_triangles))
    # a first call builds the cached tables and the mesh's lazy geometry,
    # so that the traced call allocates only its own work
    assemble(mesh, p, problem)
    tracemalloc.start()
    try:
        system = assemble(mesh, p, problem)
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert system.schur.nnz > 0
    assert peak <= ASSEMBLE_PEAK_RATIO * live, peak / live


# splu's arguments for the factor of S, which solver._factor passes to gstrf
PINNED_SPLU = {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.0,
               "relax": 1, "panel_size": 1,
               "options": {"SymmetricMode": True}}


@pytest.mark.parametrize("name", ["advdiff", "smooth", "lshape"])
def test_one_column_panels_keep_ordering_and_fill(multiplier_systems, name,
                                                  rng):
    # the panel width only schedules the column updates: against SuperLU's
    # default panel the ordering and the fill are the same, the solution
    # the same to round-off.  scipy's public splu is the oracle, and with
    # the pinned arguments it is the direct call, bit for bit, in either
    # precision: splu factors in the precision of the matrix it is given
    system = multiplier_systems[name]
    for single in (True, False):
        lu = solver_mod._factor(system, single)
        dtype = np.float32 if single else np.float64
        S = scipy_schur(system).astype(dtype)
        b = rng.standard_normal(S.shape[0]).astype(dtype)
        pinned = splu(S, **PINNED_SPLU)
        assert np.array_equal(lu.perm_c, pinned.perm_c)
        assert np.array_equal(lu.perm_r, pinned.perm_r)
        assert lu.nnz == pinned.nnz
        assert lu.solve(b).dtype == dtype
        assert np.array_equal(lu.solve(b), pinned.solve(b))
        default_panel = {k: v for k, v in PINNED_SPLU.items()
                         if k != "panel_size"}
        ref = splu(S, **default_panel)
        assert np.array_equal(lu.perm_c, ref.perm_c)
        assert np.array_equal(lu.perm_r, ref.perm_r)
        assert lu.nnz == ref.nnz
        want = ref.solve(b)
        # round-off: 1e-12 in double precision, and the same count of units
        # in the last place in single precision (5.4e-4; measured 1.4e-7 to
        # 9.0e-6 on these systems)
        tol = 1e-12 * np.finfo(dtype).eps / np.finfo(np.float64).eps
        assert (np.linalg.norm(lu.solve(b) - want)
                <= tol * np.linalg.norm(want))


def test_factor_call_is_pinned(monkeypatch):
    # beta = 0 factors a float32 copy of S, which makes gstrf run SuperLU's
    # single-precision sgstrf; beta != 0 factors S itself
    calls = []
    real_gstrf = solver_mod._superlu.gstrf

    def recorder(*args, **kwargs):
        calls.append((args, kwargs))
        return real_gstrf(*args, **kwargs)

    monkeypatch.setattr(solver_mod, "_superlu",
                        SimpleNamespace(gstrf=recorder))
    for name, p, precision in (("smooth", 1, "single"),
                               ("advdiff", 2, "double")):
        problem = preset(name)
        system = assemble(build_initial_mesh(problem.domain, 32), p, problem)
        calls.clear()
        sol = solve(system)
        assert sol.diagnostics["factor_precision"] == precision
        S = system.schur
        [(args, kwargs)] = calls
        assert args[:2] == (S.shape[0], S.nnz)
        if precision == "double":
            assert args[2] is S.data
        else:
            assert args[2].dtype == np.float32
            assert np.array_equal(args[2], S.data.astype(np.float32))
        assert args[3] is S.indices and args[4] is S.indptr
        assert len(args) == 5
        assert kwargs == {
            "csc_construct_func": solver_mod._no_factor_matrices,
            "ilu": False,
            "options": {"ColPerm": "MMD_AT_PLUS_A", "DiagPivotThresh": 0.0,
                        "Relax": 1, "PanelSize": 1, "SymmetricMode": True}}


@pytest.mark.parametrize("name, functions", [
    ("sparse._no_such_module", ("gstrf",)),
    ("sparse._sparsetools", ("coo_tocsr", "no_such_function"))])
def test_missing_scipy_extension_names_version_and_path(name, functions):
    # no fallback to splu: another scipy layout fails at import, and says
    # which scipy and where it looked
    with pytest.raises(ImportError) as info:
        solver_mod._scipy_extension(name, functions)
    message = str(info.value)
    assert f"scipy {scipy.__version__} " in message
    assert os.path.join(os.path.dirname(scipy.__file__), "sparse") in message


def _subprocess_env(**extra):
    """The environment of a child Python that imports bdmadapt from this
    tree and the test helpers from tests/."""
    src = os.path.dirname(os.path.dirname(solver_mod.__file__))
    paths = [src, os.path.dirname(__file__), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)),
                **extra)


# the direct factor before and after scipy.sparse.linalg imports the same
# SuperLU extension: scipy's import must not disturb the one bdmadapt made
_IMPORT_GUARD = """
import sys
heavy = ("scipy.sparse", "scipy.sparse.linalg", "scipy.linalg", "orjson")
driver = ("bdmadapt.experiments", "bdmadapt.fortin", "bdmadapt.verify",
          "logging")
import bdmadapt
loaded = [m for m in heavy + driver + ("json",) if m in sys.modules]
assert not loaded, ("bdmadapt", loaded)
from bdmadapt import preset, run_adaptive
run_adaptive(preset("advdiff"), p=1, iterations=3)
loaded = [m for m in driver + ("numpy.ma",) if m in sys.modules]
assert not loaded, ("run_adaptive", loaded)
import bdmadapt.cli
loaded = [m for m in heavy + driver if m in sys.modules]
assert not loaded, ("bdmadapt.cli", loaded)
assert "fortin_report" in dir(bdmadapt)
from bdmadapt import fortin_report
lazy = {"experiments": ("ExperimentConfig", "fit_slope", "run_experiment"),
        "fortin": ("BiorthogonalSet", "build_biorthogonal", "fortin_apply",
                   "fortin_report", "scaled_trace_inequality_check")}
for module, names in lazy.items():
    for name in names:
        value = getattr(bdmadapt, name)
        assert value is getattr(sys.modules["bdmadapt." + module], name), name
assert fortin_report is bdmadapt.fortin.fortin_report
try:
    bdmadapt.nope
except AttributeError as exc:
    assert "nope" in str(exc), exc
else:
    raise AssertionError("bdmadapt.nope did not raise AttributeError")
import numpy as np
from bdmadapt import assemble, solver
from factor_cases import multiplier_cases
systems = [assemble(mesh, p, problem)
           for name, problem, mesh, p in multiplier_cases()]
loads = [np.random.default_rng(0).standard_normal(s.schur.shape[0])
         for s in systems]
# solve() factors in single precision when beta = 0
single = [not any(s.problem.beta) for s in systems]
loads = [b.astype(np.float32) if sp else b for b, sp in zip(loads, single)]
before = [solver._factor(s, sp).solve(b)
          for s, sp, b in zip(systems, single, loads)]
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu
for s, sp, b, x in zip(systems, single, loads, before):
    S = s.schur
    data = S.data.astype(np.float32) if sp else S.data
    ref = splu(csc_matrix((data, S.indices, S.indptr), shape=S.shape),
               permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, relax=1,
               panel_size=1, options={"SymmetricMode": True})
    assert x.dtype == b.dtype
    assert np.array_equal(x, ref.solve(b))
    assert np.array_equal(solver._factor(s, sp).solve(b), x)
assert sorted(single) == [False, True, True], single
"""


def test_import_loads_neither_scipy_sparse_nor_linalg():
    # import bdmadapt and the command line without the __init__ of
    # scipy.sparse (its array-API layer imports numpy.f2py and
    # numpy.testing), scipy.sparse.linalg and scipy.linalg: about 0.2 s and
    # 26 MB per process; a short adaptive run does not load numpy.ma (a
    # bare np.unique does, about 30 ms and 0.6 MB), nor the batch driver,
    # logging or the trace-system checks, which load on first use (about
    # 10 ms), and neither does the command line, whose subcommands each
    # import what they run; the factor still agrees with scipy's splu
    proc = subprocess.run([sys.executable, "-c", _IMPORT_GUARD],
                          env=_subprocess_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


_MALLOC_DEBUG = ctypes.util.find_library("c_malloc_debug")
# two passes: with address randomization one pass of a wide panel escapes
# the checks in about 1 run of 30, two passes escaped in none of 40
_HEAP_GUARD = """
from bdmadapt import assemble, solve
from factor_cases import multiplier_cases
cases = multiplier_cases()
for _ in range(2):
    for name, problem, mesh, p in cases:
        solve(assemble(mesh, p, problem))
"""


@pytest.mark.skipif(_MALLOC_DEBUG is None,
                    reason="glibc's debug allocator is not installed")
def test_factor_heap_is_intact_under_debug_allocator():
    # wide SuperLU panels (panel_size >= 24 on these systems) corrupt the
    # heap, which glibc's checking allocator turns into an abort; the
    # pinned factor, the direct gstrf call on the sparsetools conversion,
    # must run all three presets cleanly
    preload = [_MALLOC_DEBUG, os.environ.get("LD_PRELOAD")]
    env = _subprocess_env(MALLOC_CHECK_="3", OPENBLAS_NUM_THREADS="1",
                          OMP_NUM_THREADS="1",
                          LD_PRELOAD=" ".join(filter(None, preload)))
    proc = subprocess.run([sys.executable, "-c", _HEAP_GUARD], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


# peak RSS of the child alone: exec resets VmHWM, while ru_maxrss carries
# the high-water mark of the larger pytest parent into the child
_HEAP_GROWTH = """
def peak_mb():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
from bdmadapt import preset, run_adaptive
problem = preset("lshape")
start = peak_mb()
run = run_adaptive(problem, p=1, theta=0.5, iterations=200, eta_tol=3e-4,
                   with_errors=False, with_theta=False, keep_meshes=False,
                   initial_elements=150)
assert not run.aborted and run.records[-1].eta <= 3e-4, run.abort_reason
print(peak_mb() - start)
"""


@pytest.mark.skipif(solver_mod._malloc_trim is None,
                    reason="the C library has no malloc_trim")
def test_factor_starts_on_a_trimmed_heap():
    # the lshape p = 1 loop of the lshape-method benchmark (27 solves, up to
    # 9,052 elements): the child's peak grows 22.6-22.9 MB past its peak
    # after the import when each factor starts on a trimmed heap, and
    # 25.0 MB without the trim (with the double-precision factor: 26.9 and
    # 33.7 MB)
    env = _subprocess_env(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _HEAP_GROWTH], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert float(proc.stdout) <= 23.8, proc.stdout
