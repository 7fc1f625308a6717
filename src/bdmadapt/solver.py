"""Hybridized solution of the mixed systems.

The flux/scalar pair (q_h, u_h) in BDM_p x DG_{p-1} satisfies

    (q_h, p_h) - (div p_h, u_h) = -<u_D, p_h . n>      for all p_h,
    (div q_h - beta . q_h, v_h) = (f, v_h)             for all v_h.

The solve is hybridized (Arnold & Brezzi 1985): the normal continuity of
BDM is broken and imposed by one Lagrange multiplier per (interior edge,
Legendre moment), which are the edge degrees of freedom BDM already has.
The element blocks A_K = [[M_K, -B_K^T], [B_K - C_K, 0]] depend on the
element only through its shape class and its orientation signs,
A_K = Sigma_K A_c Sigma_K (fields.ElementClasses), so one block per class is
built and inverted, and every local solve is one matrix product per class.
Only the multiplier system S = sum_K E_K A_K^{-1} E_K^T is factorized, by
one sparse LU for every beta; S is symmetric positive definite when beta = 0.
S is assembled from COO triplets formed once, so that the factor, not
assembly, sets the memory peak of a solve.
Boundary edges carry no multiplier, since u_D enters through the load.
(q_h, u_h) are recovered class by class, followed by one refinement
step on the residual of the full mixed equations.  The global saddle matrix
is never formed; it lives only in the tests, as the oracle.

S is converted to compressed columns and factored by two of scipy's compiled
modules, sparsetools and SuperLU (Demmel et al. 1999), called directly:
they are loaded from their files, so the __init__ of scipy.sparse and of
scipy.sparse.linalg never runs.  Those two would add about 0.2 s and 26 MB
of peak memory to every process (the array-API layer of scipy.sparse
imports numpy.f2py and numpy.testing; scipy.sparse.linalg imports
scipy.linalg), and nothing in them is needed for one factor and its solves.
"""

import importlib.machinery
import importlib.util
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .bdm import BdmSpace, DgSpace, interpolate_boundary_term, mixed_blocks
from .fields import ElementClasses, field_values
from .mesh import DomainSpec, TriMesh

# relative residual of the full mixed equations above which solve() fails
RESIDUAL_TOL = 1e-8


def _scipy_extension(name: str, functions: tuple):
    """scipy's compiled module scipy.<name>, loaded from its file so that
    the __init__ of none of its packages runs; it must define functions.

    These modules are private to scipy, so their place and their calls are
    checked against the scipy version that pyproject.toml asks for; on
    another layout the import fails here, naming the version and the path.
    """
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise ImportError("bdmadapt needs scipy, which is not installed")
    package, _, module = name.rpartition(".")
    directory = os.path.join(scipy_spec.submodule_search_locations[0],
                             *package.split("."))
    spec = importlib.machinery.PathFinder.find_spec(f"scipy.{name}",
                                                    [directory])
    if spec is not None:
        ext = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(ext)
        if all(hasattr(ext, fn) for fn in functions):
            return ext
    from importlib.metadata import version  # 0.05 s, 35 modules: only here
    raise ImportError(
        f"scipy {version('scipy')} has no compiled module "
        f"{module} with {', '.join(functions)} in {directory}; bdmadapt "
        f"calls it directly (see pyproject.toml for the scipy it was "
        f"checked with)")


_sparsetools = _scipy_extension(
    "sparse._sparsetools",
    ("coo_tocsr", "csr_sort_indices", "csr_sum_duplicates"))
_superlu = _scipy_extension("sparse.linalg._dsolve._superlu", ("gstrf",))


class SingularSystemError(RuntimeError):
    """Raised when the mixed system cannot be solved: a singular element
    block or multiplier system, or a residual over RESIDUAL_TOL."""


@dataclass
class ProblemSpec:
    """Data of one boundary value problem.

    f, u_D and the optional exact_u, exact_q and quad_region are called on
    one (n, 2) point array and must return n finite values: shape (n,), or
    (n, 2) for the flux exact_q.  fields.field_values makes every call and
    raises ValueError naming the field otherwise.  beta is a finite constant
    advection vector, (0, 0) for pure diffusion.  Exact integrals use the
    graded rules (basis.quad_rule) on elements and edges touching
    quad_singular_point, a mesh vertex where the exact solution has
    r^(k/3) terms (a re-entrant corner), and subdivide the rule once on
    elements with a vertex in quad_region.
    """

    domain: DomainSpec
    f: object
    u_D: object
    beta: tuple = (0.0, 0.0)
    exact_u: object = None
    exact_q: object = None
    name: str = "custom"
    quad_singular_point: tuple | None = None
    quad_region: object = None

    def __post_init__(self):
        for key in ("f", "u_D", "exact_u", "exact_q", "quad_region"):
            fn = getattr(self, key)
            if not (callable(fn) or fn is None and key not in ("f", "u_D")):
                raise TypeError(f"{key} must be callable, got {fn!r}")
        for key in ("beta", "quad_singular_point"):
            value = getattr(self, key)
            if value is None and key != "beta":
                continue
            pair = np.asarray(value, dtype=float)
            if pair.shape != (2,) or not np.all(np.isfinite(pair)):
                raise ValueError(
                    f"{key} must be a finite 2-vector, got {value!r}")
            setattr(self, key, tuple(pair.tolist()))

    @property
    def has_exact(self) -> bool:
        return self.exact_u is not None and self.exact_q is not None

    def validate_exact(self, points):
        """Check q = -grad u at points by central differences, to 1e-8."""
        if not self.has_exact:
            return
        h = 1e-6
        steps = h * np.array([[1, 0], [-1, 0], [0, 1], [0, -1]])
        u = field_values(self.exact_u, points + steps[:, None], "exact_u")
        q = field_values(self.exact_q, points, "exact_q", vector=True)
        scale = max(1.0, float(np.abs(q).max()))
        err = np.hypot(*(q + (u[0::2] - u[1::2]).T / (2 * h)).T).max()
        if err > 1e-8 * scale:
            raise ValueError(
                f"exact pair inconsistent: max |q + grad u| = {err:.3e}")


@dataclass
class CscMatrix:
    """Square sparse matrix in compressed sparse columns: column j holds the
    rows indices[indptr[j]:indptr[j + 1]], sorted and without duplicates,
    with the values data[indptr[j]:indptr[j + 1]]; indices and indptr are
    int32, the index type of SuperLU."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray

    @property
    def shape(self) -> tuple:
        n = len(self.indptr) - 1
        return n, n

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])


@dataclass
class MixedSystem:
    """Element blocks of the mixed system, condensed onto edge multipliers.

    classes groups the elements by shape; blocks (n_classes, m, m), m = flux
    + scalar local dims, are the class blocks in the local orientation and
    inverse their inverses.  With signs (n_elements, m) the orientation
    signs of the local dofs (1 on scalar dofs), element K's block in the
    global edge orientation is signs[K] * blocks[id_K] * signs[K]^T, and its
    inverse likewise.  rhs is the global right side (-g_D, F).  multiplier
    (n_elements, 3(p+1)) numbers the local edge dofs' multipliers (-1 on
    boundary edges); edge_sign is signs[:, :3(p+1)] times +-1 for the
    aligned/opposite element of the edge, and owned marks the one element
    that holds each shared flux dof when local values are gathered.
    """

    classes: ElementClasses
    blocks: np.ndarray
    inverse: np.ndarray
    signs: np.ndarray
    rhs: np.ndarray
    schur: CscMatrix
    multiplier: np.ndarray
    edge_sign: np.ndarray
    owned: np.ndarray
    mesh: TriMesh
    p: int
    flux_space: BdmSpace
    scalar_space: DgSpace
    problem: ProblemSpec


@dataclass
class MixedSolution:
    """Discrete mixed solution, its problem, the shape classes, diagnostics."""

    flux: np.ndarray
    scalar: np.ndarray
    mesh: TriMesh
    p: int
    flux_space: BdmSpace
    scalar_space: DgSpace
    classes: ElementClasses
    problem: ProblemSpec
    diagnostics: dict = field(default_factory=dict)

    @property
    def scalar_by_element(self) -> np.ndarray:
        return self.scalar_space.coeffs_by_element(self.scalar)

    @property
    def n_dofs(self) -> int:
        return self.flux_space.n_dofs + self.scalar_space.n_dofs


def assemble(mesh: TriMesh, p: int, problem: ProblemSpec) -> MixedSystem:
    """Invert the class blocks and assemble the multiplier system S."""
    flux = BdmSpace(mesh, p)
    scalar = DgSpace(mesh, p - 1)
    nt, nq = mesh.n_triangles, flux.local_dim
    classes = ElementClasses(mesh, problem.beta)
    blocks = mixed_blocks(flux, classes.reps, problem.beta)
    try:
        inverse = np.linalg.inv(blocks)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"singular element block: {exc}") from exc
    signs = np.ones((nt, blocks.shape[1]))
    signs[:, :nq] = flux.signs
    g = interpolate_boundary_term(flux, problem.u_D)
    F = scalar.load_vector(problem.f)

    interior = ~mesh.boundary_edge
    n_mult = int(interior.sum()) * (p + 1)
    edge_mult = np.full(mesh.n_edges, -1, dtype=np.int32)
    edge_mult[interior] = np.arange(n_mult // (p + 1), dtype=np.int32)
    local_mult = edge_mult[mesh.elem_edges][:, :, None]
    moments = np.arange(p + 1, dtype=np.int32)
    multiplier = np.where(local_mult >= 0, local_mult * (p + 1) + moments,
                          -1).reshape(nt, -1)
    side = np.repeat(np.where(mesh.elem_edge_aligned, 1.0, -1.0), p + 1,
                     axis=1)
    ne = 3 * (p + 1)
    # the aligned element owns an interior edge, the only one a boundary edge
    owned = np.ones((nt, nq), dtype=bool)
    owned[:, :ne] = (side > 0) | (multiplier < 0)
    # multiplier side times the dof's orientation sign
    edge_sign = side * signs[:, :ne]
    S = _multiplier_matrix(inverse[:, :ne, :ne], classes, multiplier,
                           edge_sign, n_mult)
    return MixedSystem(classes, blocks, inverse, signs, np.concatenate([g, F]),
                       S, multiplier, edge_sign, owned, mesh, p, flux, scalar,
                       problem)


def _multiplier_matrix(inverse, classes: ElementClasses, multiplier,
                       edge_sign, n_mult: int) -> CscMatrix:
    """S = sum_K E_K A_K^{-1} E_K^T from the edge blocks inverse
    (n_classes, ne, ne) of the class inverses.

    Each COO triplet array is formed once: the values from the signed
    element blocks, which are dropped before the indices are gathered, the
    indices from the int32 multiplier numbers.  sparsetools converts them
    as scipy's coo_matrix.tocsc() does (rows bucketed by column, sorted,
    duplicates summed in place), so S is that conversion bit for bit.  An
    entry of S sums at most two triplets, those of the two elements of an
    interior edge, so the order of the summation cannot change a bit.  As in
    scipy's conversion, data and indices are views of buffers of the
    triplet count, about 1.2 nnz.
    """
    S_loc = inverse[classes.id]
    S_loc *= edge_sign[:, :, None]
    S_loc *= edge_sign[:, None, :]
    keep = multiplier >= 0
    pair = keep[:, :, None] & keep[:, None, :]
    data = S_loc[pair]
    del S_loc
    rows = np.broadcast_to(multiplier[:, :, None], pair.shape)[pair]
    cols = np.broadcast_to(multiplier[:, None, :], pair.shape)[pair]
    del pair
    # the columns of S are the rows of the CSR form of S^T
    indptr = np.empty(n_mult + 1, dtype=np.int32)
    indices = np.empty_like(rows)
    values = np.empty_like(data)
    _sparsetools.coo_tocsr(n_mult, n_mult, len(data), cols, rows, data,
                           indptr, indices, values)
    _sparsetools.csr_sort_indices(n_mult, indptr, indices, values)
    _sparsetools.csr_sum_duplicates(n_mult, n_mult, indptr, indices, values)
    nnz = int(indptr[-1])
    return CscMatrix(values[:nnz], indices[:nnz], indptr)


def _no_factor_matrices(*args):
    raise RuntimeError("the LU factor of S is used only to solve; building "
                       "L and U would copy the whole fill")


def _factor(system: MixedSystem):
    """Sparse LU of S by SuperLU's gstrf: symmetric ordering, no pivoting,
    for every beta.  This is the call scipy's splu makes with
    permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, relax=1,
    panel_size=1 and options={"SymmetricMode": True}, on S as it is: S is
    in canonical CSC form with int32 indices, so splu would neither convert
    nor copy it.  The result is scipy's SuperLU object; its L and U are
    never built (_no_factor_matrices).

    S is nonsymmetric when beta != 0; skipping pivoting is safe because
    solve() raises SingularSystemError when the residual of the mixed
    equations exceeds RESIDUAL_TOL.  relax=1 turns off SuperLU's relaxed
    supernodes, which under the minimum degree ordering of S slow the
    factorization by 3-8x at equal fill.

    panel_size=1 factors one column per panel.  The supernodes of the
    MMD-ordered S are small, and a wider panel works on the union of its
    columns' sparse structures with n x width of work storage, so one
    column does less work in less memory.  The ordering and the fill do not
    depend on the panel width (perm_c and lu.nnz are identical on all 87
    multiplier matrices of the three benchmark workloads, seed 1); only the
    schedule of the column updates changes, at round-off.  splu summed
    over those matrices, median of 8 alternating repetitions (2-vCPU Xeon
    VM, one BLAS thread); widths 2..8 and relax=2 are no faster:

        workload    default panel   panel_size=1
        lshape         0.506 s         0.363 s
        smooth         0.227 s         0.166 s
        advdiff        0.141 s         0.114 s

    Under glibc's debug allocator (MALLOC_CHECK_=3) widths 1..20 factor
    all 87 matrices cleanly; 24, 32 and 40 corrupt the heap.
    """
    S = system.schur
    try:
        # splu passes its arguments to gstrf under these keys
        return _superlu.gstrf(
            S.shape[0], S.nnz, S.data, S.indices, S.indptr,
            csc_construct_func=_no_factor_matrices, ilu=False,
            options={"ColPerm": "MMD_AT_PLUS_A", "DiagPivotThresh": 0.0,
                     "Relax": 1, "PanelSize": 1, "SymmetricMode": True})
    except RuntimeError as exc:  # SuperLU signals exact singularity this way
        raise SingularSystemError(
            f"multiplier factorization failed on {S.shape[0]} dofs "
            f"({S.nnz} nonzeros): {exc}") from exc


def _local(system: MixedSystem, x: np.ndarray) -> np.ndarray:
    """Per-element (flux, scalar) coefficients of a global vector."""
    nq = system.flux_space.n_dofs
    return np.concatenate(
        [x[:nq][system.flux_space.l2g],
         system.scalar_space.coeffs_by_element(x[nq:])], axis=1)


def _apply(system: MixedSystem, x: np.ndarray) -> np.ndarray:
    """Global saddle matrix times x, computed class by class."""
    flux = system.flux_space
    x_loc = _local(system, x)
    x_loc *= system.signs
    Ax = system.classes.matmul(system.blocks, x_loc)
    Ax *= system.signs
    out_q = np.bincount(flux.l2g.ravel(), Ax[:, :flux.local_dim].ravel(),
                        minlength=flux.n_dofs)
    return np.concatenate([out_q, Ax[:, flux.local_dim:].ravel()])


def _hybrid_solve(system: MixedSystem, lu, r: np.ndarray) -> np.ndarray:
    """Solution of the global saddle system with right side r.

    Each shared flux row of r goes to its owner's element load; the element
    equations A_K x_K + E_K^T lambda = r_K and continuity sum_K E_K x_K = 0
    give S lambda = sum_K E_K A_K^{-1} r_K and x_K = A_K^{-1} (r_K - E_K^T
    lambda).  Both local solves run on the signed rows signs * r_K, one
    matrix product per class.
    """
    flux = system.flux_space
    ne = 3 * (system.p + 1)
    mult, edge_sign = system.multiplier, system.edge_sign
    r_loc = _local(system, r)
    r_loc[:, :flux.local_dim] *= system.owned
    r_loc *= system.signs
    # the load needs only the edge rows of A_K^{-1} r_K
    z = system.classes.matmul(system.inverse[:, :ne], r_loc)
    z *= edge_sign
    keep = mult >= 0
    lam = lu.solve(
        np.bincount(mult[keep], z[keep], minlength=system.schur.shape[0]))
    # index -1 (boundary edge) picks the appended zero
    r_loc[:, :ne] -= edge_sign * np.append(lam, 0.0)[mult]
    x_loc = system.classes.matmul(system.inverse, r_loc)
    x_loc *= system.signs
    q = np.zeros(flux.n_dofs)
    q[flux.l2g[system.owned]] = x_loc[:, :flux.local_dim][system.owned]
    return np.concatenate([q, x_loc[:, flux.local_dim:].ravel()])


def solve(system: MixedSystem) -> MixedSolution:
    """Factor S, recover (q_h, u_h), refine once; fails on a large residual."""
    S = system.schur
    t0 = time.perf_counter()
    lu = _factor(system)
    elapsed = time.perf_counter() - t0
    x = _hybrid_solve(system, lu, system.rhs)
    resid = system.rhs - _apply(system, x)
    x += _hybrid_solve(system, lu, resid)
    resid = system.rhs - _apply(system, x)
    scale = max(float(np.linalg.norm(system.rhs)), 1e-300)
    rel = float(np.linalg.norm(resid)) / scale
    if not rel <= RESIDUAL_TOL:  # also catches a non-finite solution
        raise SingularSystemError(
            f"relative residual {rel:.3e} of the mixed equations exceeds "
            f"{RESIDUAL_TOL:.0e} ({S.shape[0]} multipliers)")
    nq = system.flux_space.n_dofs
    return MixedSolution(
        flux=x[:nq], scalar=x[nq:], mesh=system.mesh, p=system.p,
        flux_space=system.flux_space, scalar_space=system.scalar_space,
        classes=system.classes, problem=system.problem,
        # fill: the entries SuperLU stores for L and U, read without copying
        # them (lu.L and lu.U would build CSC copies of the whole fill)
        diagnostics={"rel_residual": rel, "n_dofs": int(S.shape[0]),
                     "nnz": int(S.nnz),
                     "fill": int(lu.nnz),
                     "factor_seconds": elapsed})


def solve_problem(mesh: TriMesh, p: int, problem: ProblemSpec) -> MixedSolution:
    return solve(assemble(mesh, p, problem))

