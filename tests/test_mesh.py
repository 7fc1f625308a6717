import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdmadapt import (DomainSpec, ProblemSpec, TriMesh, build_initial_mesh,
                      load_mesh, preset, run_adaptive, save_mesh)
from bdmadapt.basis import make_scalar_basis
from bdmadapt.fields import nu_jump_terms
from bdmadapt.mesh import _earclip

from artifact_checks import assert_round_trip
from conftest import (areas, centroids, domain_area, edge_elements,
                      inradius, refine_loop, validate)


def edge_hash_audit(mesh):
    """Independent adjacency oracle: count edges via a plain dict; the edge
    table lists them in lexicographic (lo, hi) order."""
    counts = {}
    for tri in mesh.triangles:
        for a, b in ((tri[1], tri[2]), (tri[2], tri[0]), (tri[0], tri[1])):
            counts[(min(a, b), max(a, b))] = counts.get(
                (min(a, b), max(a, b)), 0) + 1
    assert set(counts.values()) <= {1, 2}
    n_bnd = sum(1 for v in counts.values() if v == 1)
    assert n_bnd == int(mesh.boundary_edge.sum())
    assert len(counts) == mesh.n_edges
    assert [tuple(e) for e in mesh.edges.tolist()] == sorted(counts)
    ends = np.sort(mesh.triangles[:, [[1, 2], [2, 0], [0, 1]]], axis=2)
    assert np.array_equal(mesh.edges[mesh.elem_edges], ends)


def assert_same_mesh(got, want):
    for name in ("vertices", "triangles"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def assert_bisection_geometry(mesh, out, marked):
    """out = mesh.refine(marked) against geometry alone.

    The triangles without a new vertex are exactly the unsplit triangles of
    mesh, vertex triples and all, and no marked triangle is among them.
    Every other triangle is a child: its centroid lies in exactly one split
    triangle, whose area its children fill in halves or quarters.
    """
    child = (out.triangles >= mesh.n_vertices).any(axis=1)
    old_id = {tuple(t): k for k, t in enumerate(mesh.triangles.tolist())}
    kept = [old_id.get(tuple(t), -1) for t in out.triangles[~child].tolist()]
    assert -1 not in kept and len(set(kept)) == len(kept)
    assert not set(marked) & set(kept)
    split = np.setdiff1d(np.arange(mesh.n_triangles), kept)
    v0, inv = mesh.tri_coords[split, 0], mesh.inv_jacobians[split]
    c = centroids(out)[child]
    owner = np.empty(len(c), dtype=np.int64)
    for lo in range(0, len(c), 256):
        # barycentric coordinates of each centroid in each split triangle
        lam = np.einsum("sij,scj->sci", inv,
                        c[None, lo:lo + 256] - v0[:, None])
        inside = (lam > 0).all(axis=2) & (lam.sum(axis=2) < 1)
        assert np.all(inside.sum(axis=0) == 1)
        owner[lo:lo + 256] = split[inside.argmax(axis=0)]
    ratio = areas(out)[child] / areas(mesh)[owner]
    assert np.all(np.isclose(ratio, 0.5, rtol=1e-9, atol=0.0)
                  | np.isclose(ratio, 0.25, rtol=1e-9, atol=0.0))
    fill = np.bincount(owner, areas(out)[child], minlength=mesh.n_triangles)
    assert np.allclose(fill[split], areas(mesh)[split], rtol=1e-12, atol=0.0)


PENTAGON = ((0, 0), (2, 0), (2, 1), (1, 1.5), (0, 1))

# start meshes for random marked sets: an unrefined grid, an L-shape that
# is already partly refined, and an ear-clipped pentagon
RANDOM_START = {
    "square": build_initial_mesh(DomainSpec.unit_square(), 32),
    "lshape": build_initial_mesh(DomainSpec.l_shape(), 24).refine([0, 7, 15]),
    "earclip": build_initial_mesh(DomainSpec(loop=PENTAGON), 20),
}


def test_initial_lshape_count():
    mesh = build_initial_mesh(DomainSpec.l_shape(), 96)
    assert mesh.n_triangles == 96
    assert abs(areas(mesh).sum() - 3.0) < 1e-14
    validate(mesh)


def test_initial_square_two_triangles():
    mesh = build_initial_mesh(DomainSpec.unit_square(), 2)
    assert mesh.n_triangles == 2
    assert mesh.n_vertices == 4
    # the two triangles share one interior edge: a diagonal of the square
    interior = np.nonzero(~mesh.boundary_edge)[0]
    assert len(interior) == 1
    lo, hi = mesh.edges[interior[0]]
    d = np.abs(mesh.vertices[hi] - mesh.vertices[lo])
    assert np.allclose(d, [1.0, 1.0])


def test_initial_advection_grid_count():
    mesh = build_initial_mesh(DomainSpec.unit_square(), 32)
    assert mesh.n_triangles == 32


def test_refine_empty_is_identity():
    mesh = build_initial_mesh(DomainSpec.unit_square(), 8)
    out = mesh.refine(set())
    assert out is mesh


def test_refine_all_at_least_doubles():
    mesh = build_initial_mesh(DomainSpec.unit_square(), 8)
    out = mesh.refine(range(mesh.n_triangles))
    assert out.n_triangles >= 2 * mesh.n_triangles
    validate(out)
    edge_hash_audit(out)


def test_refine_invalid_ids_rejected():
    mesh = build_initial_mesh(DomainSpec.unit_square(), 2)
    with pytest.raises(ValueError):
        mesh.refine([5])


def test_refine_takes_integer_ids_only():
    mesh = build_initial_mesh(DomainSpec.unit_square(), 32)
    everything = mesh.refine(np.arange(32))
    assert everything.n_triangles == 64
    assert mesh.refine(range(32)).n_triangles == 64
    # repeats and order do not matter
    assert np.array_equal(mesh.refine(np.array([5, 0, 5])).triangles,
                          mesh.refine([0, 5]).triangles)
    # a boolean mask is not a set of ids {0, 1}, nor are float ids truncated
    with pytest.raises(ValueError):
        mesh.refine(np.ones(32, dtype=bool))
    with pytest.raises(ValueError):
        mesh.refine([0.7, 2.9])


def test_refine_reads_id_arrays_without_boxing():
    class Unboxable(np.ndarray):
        def __iter__(self):
            raise AssertionError("array ids went through a list")

    mesh = build_initial_mesh(DomainSpec.unit_square(), 32)
    ids = np.array([5, 0, 5]).view(Unboxable)
    assert np.array_equal(mesh.refine(ids).triangles,
                          mesh.refine([0, 5]).triangles)
    with pytest.raises(ValueError, match="integers"):
        mesh.refine(np.ones(4, dtype=bool).view(Unboxable))


def test_closure_single_marked_two_triangles():
    mesh = build_initial_mesh(DomainSpec.unit_square(), 2)
    out = mesh.refine([0])
    # the neighbor shares the refinement diagonal, so it must split too
    assert out.n_triangles == 4
    validate(out)
    edge_hash_audit(out)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_refine_random_sets_stay_conforming(data):
    # conforming, area-preserving, bitwise equal to the loop oracle, and
    # with children that fill the split triangles
    mesh = RANDOM_START[data.draw(st.sampled_from(sorted(RANDOM_START)))]
    marked = data.draw(st.sets(
        st.integers(min_value=0, max_value=mesh.n_triangles - 1), max_size=12))
    out = mesh.refine(marked)
    validate(out)
    edge_hash_audit(out)
    area = areas(mesh).sum()
    assert abs(areas(out).sum() - area) <= 1e-12 * area
    if marked:
        assert out.n_triangles > mesh.n_triangles
    assert_same_mesh(out, refine_loop(mesh, marked))
    assert_bisection_geometry(mesh, out, marked)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_earclip_emits_counter_clockwise_triangles(data):
    # the ear-clipped triangles of the positively oriented loop that
    # DomainSpec stores are positively oriented themselves, so the initial
    # mesh of a custom polygon needs no orientation flip: random polygons,
    # star-shaped about the origin (vertices at multiples of 10 degrees,
    # no angular gap over 120 degrees)
    slots = sorted({0, 12, 24} | data.draw(
        st.sets(st.integers(min_value=0, max_value=35), max_size=9)))
    radii = data.draw(st.lists(st.floats(min_value=0.2, max_value=1.0),
                               min_size=len(slots), max_size=len(slots)))
    angles = np.radians(10.0 * np.array(slots))
    loop = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    domain = DomainSpec(loop=tuple(map(tuple, loop)))
    tris = _earclip(domain.loop)
    assert len(tris) == len(slots) - 2
    t = domain.vertices[np.asarray(tris)]
    cross = ((t[:, 1, 0] - t[:, 0, 0]) * (t[:, 2, 1] - t[:, 0, 1])
             - (t[:, 1, 1] - t[:, 0, 1]) * (t[:, 2, 0] - t[:, 0, 0]))
    assert np.all(cross > 0), cross


@pytest.mark.parametrize("name, kwargs", [
    ("smooth", {"uniform": True, "iterations": 4}),
    ("lshape", {"iterations": 12}),
    ("advdiff", {"iterations": 12}),
], ids=["smooth", "lshape", "advdiff"])
def test_refine_matches_loop_oracle_on_adaptive_traces(name, kwargs):
    run = run_adaptive(preset(name), 1, with_errors=False, **kwargs)
    steps = [(rec.report.mesh, rec.marked) for rec in run.records[:-1]]
    assert len(steps) == kwargs["iterations"] - 1
    if kwargs.get("uniform"):
        # the second sweep of each uniform step
        steps += [(fine, np.arange(fine.n_triangles))
                  for fine in (m.refine(marked) for m, marked in steps)]
    for mesh, marked in steps:
        out = mesh.refine(marked)
        assert_same_mesh(out, refine_loop(mesh, marked))
        assert_bisection_geometry(mesh, out, marked)


def test_area_preserved_over_generations(rng):
    mesh = build_initial_mesh(DomainSpec.l_shape(), 24)
    area0 = areas(mesh).sum()
    for _ in range(5):
        marked = rng.choice(mesh.n_triangles,
                            size=max(1, mesh.n_triangles // 4), replace=False)
        mesh = mesh.refine(marked)
        assert abs(areas(mesh).sum() - area0) <= 1e-12 * area0
    validate(mesh)


def test_min_angle_bound(rng):
    mesh = build_initial_mesh(DomainSpec.unit_square(), 8)
    floor = 0.5 * mesh.min_angles.min()
    for _ in range(6):
        marked = rng.choice(mesh.n_triangles,
                            size=max(1, mesh.n_triangles // 3), replace=False)
        mesh = mesh.refine(marked)
    assert mesh.min_angles.min() >= floor - 1e-12


def test_children_strictly_smaller():
    mesh = build_initial_mesh(DomainSpec.unit_square(), 8)
    h0 = mesh.h_K.max()
    out = mesh.refine(range(mesh.n_triangles))
    assert out.h_K.max() < h0


def test_edge_lengths_match_endpoints():
    mesh = build_initial_mesh(DomainSpec.l_shape(), 24).refine([0, 5])
    d = mesh.vertices[mesh.edges[:, 1]] - mesh.vertices[mesh.edges[:, 0]]
    assert np.allclose(mesh.edge_lengths, np.hypot(d[:, 0], d[:, 1]),
                       rtol=0, atol=1e-15)


def test_shape_regularity_bounded_under_refinement(rng):
    mesh = build_initial_mesh(DomainSpec.unit_square(), 8)
    ratio0 = (mesh.h_K / inradius(mesh)).max()
    for _ in range(5):
        marked = rng.choice(mesh.n_triangles,
                            size=max(1, mesh.n_triangles // 3), replace=False)
        mesh = mesh.refine(marked)
    assert (mesh.h_K / inradius(mesh)).max() <= 4.0 * ratio0


def test_jump_trace_pairs_two_triangles():
    # edge_elements holds (K+, K-) and their local edges, the pairs
    # nu_jump_terms differences across each interior edge
    mesh = build_initial_mesh(DomainSpec.unit_square(), 2)
    edge_tris, edge_local = edge_elements(mesh)
    interior = np.nonzero(~mesh.boundary_edge)[0]
    e = int(interior[0])
    kp, km = edge_tris[e]
    lp, lm = edge_local[e]
    assert {kp, km} == {0, 1}
    assert mesh.elem_edge_aligned[kp, lp] and not mesh.elem_edge_aligned[km, lm]
    assert mesh.elem_edges[kp, lp] == e and mesh.elem_edges[km, lm] == e
    # normal points from K+ into K-
    mid = 0.5 * (mesh.vertices[mesh.edges[e, 0]] + mesh.vertices[mesh.edges[e, 1]])
    n = mesh.edge_normals[e]
    assert np.dot(centroids(mesh)[km] - mid, n) > 0
    assert np.dot(centroids(mesh)[kp] - mid, n) < 0


def test_jump_of_continuous_field_vanishes():
    mesh = build_initial_mesh(DomainSpec.unit_square(), 8)
    # a globally affine field expressed elementwise is continuous
    from bdmadapt.fields import edge_ref_points

    def eval_on_edge(k, j, t):
        pts = edge_ref_points(j, t)
        v0 = mesh.tri_coords[k, 0]
        phys = v0[None, :] + pts @ mesh.jacobians[k].T
        return 2.0 * phys[:, 0] - 0.7 * phys[:, 1] + 0.3

    t = np.linspace(0.1, 0.9, 5)
    edge_tris, edge_local = edge_elements(mesh)
    for e in np.nonzero(~mesh.boundary_edge)[0]:
        kp, km = edge_tris[e]
        lp, lm = edge_local[e]
        # same physical points on both sides: global parameter t
        ap = mesh.elem_edge_aligned[kp, lp]
        am = mesh.elem_edge_aligned[km, lm]
        vp = eval_on_edge(kp, lp, t if ap else 1 - t)
        vm = eval_on_edge(km, lm, t if am else 1 - t)
        assert np.allclose(vp - vm, 0.0, atol=1e-13)


def test_jump_of_indicator_is_one():
    mesh = build_initial_mesh(DomainSpec.unit_square(), 2)
    e = int(np.nonzero(~mesh.boundary_edge)[0][0])
    kp, km = edge_elements(mesh)[0][e]
    # the indicator of K+ as degree-0 coefficient rows, one per element
    coeffs = np.zeros((mesh.n_triangles, 1))
    coeffs[kp] = 1.0 / np.sqrt(2)
    pts = np.array([[0.3, 0.3], [0.5, 0.2]])
    V = make_scalar_basis(0).values(pts)
    assert np.allclose(V @ coeffs[kp] - V @ coeffs[km], 1.0, atol=1e-14)
    # h_F^{-1} ||[v]||_F^2 = 1, split evenly between K+ and K-
    jump_K, _ = nu_jump_terms(mesh, coeffs, lambda x: np.zeros(len(x)), 1)
    assert np.allclose(jump_K, 0.5, rtol=1e-14)


def test_nonsimple_polygon_rejected():
    crossing = ((0, 0), (3, 0), (3, 2), (1, -1), (0, 2))
    with pytest.raises(ValueError, match="simple"):
        DomainSpec(loop=crossing)
    bowtie = ((0, 0), (1, 1), (1, 0), (0, 1))  # zero signed area
    with pytest.raises(ValueError):
        DomainSpec(loop=bowtie)
    closed = ((0, 0), (2, 0), (2, 2), (0, 2), (0, 0))  # closing first vertex
    with pytest.raises(ValueError, match=r"repeats vertex \(0\.0, 0\.0\)"):
        DomainSpec(loop=closed)
    doubled = ((0, 0), (2, 0), (2, 0), (2, 2), (0, 2))
    with pytest.raises(ValueError, match=r"repeats vertex \(2\.0, 0\.0\)"):
        DomainSpec(loop=doubled)


@pytest.mark.parametrize("domain", [
    DomainSpec(loop=((0, 0), (2, 0), (2, 2), (0, 2))),
    DomainSpec(loop=((0, 0), (0, -2), (2, -2), (2, 2), (-2, 2), (-2, 0))),
], ids=["square-of-side-2", "l-shape-of-side-4"])
def test_initial_mesh_covers_its_domain(domain):
    mesh = build_initial_mesh(domain, 24)
    validate(mesh)
    area = domain_area(domain)
    assert abs(areas(mesh).sum() - area) < 1e-12 * area


def test_validate_catches_flipped_alignment():
    mesh = build_initial_mesh(DomainSpec.unit_square(), 8)
    mesh.elem_edge_aligned = ~mesh.elem_edge_aligned
    with pytest.raises(AssertionError, match="normal"):
        validate(mesh)


def test_custom_polygon_mesh():
    dom = DomainSpec(loop=PENTAGON)
    mesh = build_initial_mesh(dom, 20)
    assert mesh.n_triangles >= 20
    validate(mesh)
    area = domain_area(dom)
    assert abs(areas(mesh).sum() - area) < 1e-12 * area


def test_the_polygon_decides_the_initial_mesh():
    # a preset's loop written out, from any vertex and in either direction,
    # gets the preset's layout and default size (32 on the unit square, 96
    # on the L-shape); any other polygon the ear-clipped default target 64,
    # which the pentagon reaches at 72
    square = ((0, 0), (1, 0), (1, 1), (0, 1))
    lshape = ((0, 0), (0, -1), (1, -1), (1, 1), (-1, 1), (-1, 0))
    for loop, preset_domain in ((square, DomainSpec.unit_square()),
                                (lshape, DomainSpec.l_shape())):
        want = build_initial_mesh(preset_domain)
        for k in range(len(loop)):
            for written in (loop[k:] + loop[:k], (loop[k:] + loop[:k])[::-1]):
                got = build_initial_mesh(DomainSpec(loop=written))
                assert np.array_equal(got.vertices, want.vertices), written
                assert np.array_equal(got.triangles, want.triangles), written
    counts = []
    for loop in (square, lshape, PENTAGON):
        problem = ProblemSpec(domain=DomainSpec(loop=loop),
                              f=lambda x: np.ones(len(x)),
                              u_D=lambda x: np.zeros(len(x)))
        run = run_adaptive(problem, 1, iterations=1, with_errors=False)
        counts.append(run.records[0].n_elements)
    assert counts == [32, 96, 72]


def test_export_roundtrip(tmp_path):
    mesh = build_initial_mesh(DomainSpec.l_shape(), 24).refine([0, 1])
    prefix = str(tmp_path / "mesh")
    save_mesh(mesh, prefix)
    with open(prefix + ".nodes") as fh:
        lines = fh.read().strip().splitlines()
    assert len(lines) == mesh.n_vertices
    assert all(len(line.split()) == 2 for line in lines)
    with open(prefix + ".elems") as fh:
        elines = fh.read().strip().splitlines()
    assert len(elines) == mesh.n_triangles
    with open(prefix + ".json") as fh:
        meta = json.load(fh)
    assert sorted(meta) == ["boundary_edges", "n_triangles", "n_vertices"]
    assert meta["n_triangles"] == mesh.n_triangles
    assert len(meta["boundary_edges"]) == int(mesh.boundary_edge.sum())
    assert_round_trip(prefix + ".json", {
        "n_vertices": mesh.n_vertices, "n_triangles": mesh.n_triangles,
        "boundary_edges": mesh.edges[mesh.boundary_edge]})
    back = load_mesh(prefix)
    assert np.allclose(back.vertices, mesh.vertices)
    assert np.array_equal(back.triangles, mesh.triangles)


def test_load_mesh_reads_files_with_the_bisection_history(tmp_path):
    # files written before the mesh dropped its history carry a domain
    # name and each triangle's generation and parent; they load unchanged
    mesh = build_initial_mesh(DomainSpec.l_shape(), 24).refine([0, 1])
    prefix = str(tmp_path / "mesh")
    save_mesh(mesh, prefix)
    with open(prefix + ".json") as fh:
        meta = json.load(fh)
    meta.update(domain="l_shape", generation=[1] * mesh.n_triangles,
                parent=list(range(mesh.n_triangles)))
    with open(prefix + ".json", "w") as fh:
        json.dump(meta, fh)
    back = load_mesh(prefix)
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.triangles, mesh.triangles)


UNIT_TRI = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize("vertices, triangles, kwargs, match", [
    ([[0.0, 0.0], [1.0, 0.0], [np.nan, 1.0]], [[0, 1, 2]], {}, "finite"),
    ([[0.0, 0.0], [1.0, 0.0], [np.inf, 1.0]], [[0, 1, 2]], {}, "finite"),
    (UNIT_TRI, [[0, 1, -1]], {}, "vertex ids"),
    (UNIT_TRI, [[0, 1, 3]], {}, "vertex ids"),
    ([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [[0, 1, 2]], {},
     r"\(n, 2\)"),
    (UNIT_TRI, [[0, 1, 2, 0]], {}, r"\(nt, 3\)"),
    (UNIT_TRI, [[0.4, 1.9, 2.2]], {}, "triangles must hold integers"),
    (UNIT_TRI, [[0.0, 1.0, np.inf]], {}, "triangles must hold integers"),
    (UNIT_TRI, [[0.0, 1.0, 1e30]], {}, "triangles must hold integers"),
    (UNIT_TRI, [[False, True, True]], {}, "triangles must hold integers"),
    (UNIT_TRI, [["0", "1", "2"]], {}, "triangles must hold integers"),
    (UNIT_TRI, [[0, 1, None]], {}, "triangles must hold integers"),
    (UNIT_TRI, [[0, 1, 2 + 0j]], {}, "triangles must hold integers"),
    # both positively oriented, both traverse the shared edge 0 -> 1
    ([[0.0, 0.0], [1.0, 0.0], [0.2, 1.0], [0.8, 1.0]], [[0, 1, 2], [0, 1, 3]],
     {}, "inconsistent orientation"),
    # the edge 0 -- 1 bounds three triangles
    ([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [0.5, 2.0]],
     [[0, 1, 2], [1, 0, 3], [0, 1, 4]], {}, "multiplicity"),
], ids=["nan-vertex", "inf-vertex", "negative-id", "id-too-large",
        "three-columns", "four-vertex-ids", "fractional-ids", "inf-id",
        "huge-id", "bool-ids", "string-ids", "object-ids", "complex-ids",
        "overlapping-triangles", "edge-in-three-triangles"])
def test_malformed_mesh_rejected(vertices, triangles, kwargs, match):
    with pytest.raises(ValueError, match=match):
        TriMesh(vertices, triangles, **kwargs)


def test_integral_float_ids_accepted():
    mesh = TriMesh(UNIT_TRI, [[0.0, 1.0, 2.0]])
    assert mesh.triangles.dtype == np.int64
    assert mesh.triangles.tolist() == [[0, 1, 2]]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_polygon_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        DomainSpec(loop=((0, 0), (1, 0), (1, bad), (0, 1)))


def test_load_mesh_rejects_malformed_files(tmp_path):
    for suffix, line, match in ((".nodes", "nan 0.0", "finite"),
                                (".elems", "0 1.5 2",
                                 "triangles must hold integers")):
        prefix = str(tmp_path / suffix[1:])
        save_mesh(build_initial_mesh(DomainSpec.unit_square(), 2), prefix)
        with open(prefix + suffix) as fh:
            lines = fh.read().splitlines()
        lines[0] = line
        with open(prefix + suffix, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=match):
            load_mesh(prefix)
