import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdmadapt import (DomainSpec, TriMesh, build_initial_mesh, load_mesh,
                      save_mesh)
from bdmadapt.basis import make_scalar_basis
from bdmadapt.fields import nu_jump_terms


def edge_hash_audit(mesh):
    """Independent adjacency oracle: count edges via a plain dict."""
    counts = {}
    for tri in mesh.triangles:
        for a, b in ((tri[1], tri[2]), (tri[2], tri[0]), (tri[0], tri[1])):
            counts[(min(a, b), max(a, b))] = counts.get(
                (min(a, b), max(a, b)), 0) + 1
    assert set(counts.values()) <= {1, 2}
    n_bnd = sum(1 for v in counts.values() if v == 1)
    assert n_bnd == int(mesh.boundary_edge.sum())
    assert len(counts) == mesh.n_edges


def test_initial_lshape_count():
    mesh = build_initial_mesh(DomainSpec.l_shape(), 96)
    assert mesh.n_triangles == 96
    assert abs(mesh.areas.sum() - 3.0) < 1e-14
    mesh.validate()


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
    out.validate()
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


def test_closure_single_marked_two_triangles():
    mesh = build_initial_mesh(DomainSpec.unit_square(), 2)
    out = mesh.refine([0])
    # the neighbor shares the refinement diagonal, so it must split too
    assert out.n_triangles == 4
    out.validate()
    edge_hash_audit(out)


@settings(max_examples=15, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=31), max_size=12))
def test_refine_random_sets_stay_conforming(marked):
    mesh = build_initial_mesh(DomainSpec.unit_square(), 32)
    out = mesh.refine(marked)
    out.validate()
    edge_hash_audit(out)
    area = mesh.areas.sum()
    assert abs(out.areas.sum() - area) <= 1e-12 * area
    if marked:
        assert out.n_triangles > mesh.n_triangles


def test_area_preserved_over_generations(rng):
    mesh = build_initial_mesh(DomainSpec.l_shape(), 24)
    area0 = mesh.areas.sum()
    for _ in range(5):
        marked = rng.choice(mesh.n_triangles,
                            size=max(1, mesh.n_triangles // 4), replace=False)
        mesh = mesh.refine(marked)
        assert abs(mesh.areas.sum() - area0) <= 1e-12 * area0
    mesh.validate()


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
    ratio0 = (mesh.h_K / mesh.inradius).max()
    for _ in range(5):
        marked = rng.choice(mesh.n_triangles,
                            size=max(1, mesh.n_triangles // 3), replace=False)
        mesh = mesh.refine(marked)
    assert (mesh.h_K / mesh.inradius).max() <= 4.0 * ratio0


def test_jump_trace_pairs_two_triangles():
    # edge_tris/edge_local hold (K+, K-) and their local edges, the pairs
    # nu_jump_terms differences across each interior edge
    mesh = build_initial_mesh(DomainSpec.unit_square(), 2)
    interior = np.nonzero(~mesh.boundary_edge)[0]
    e = int(interior[0])
    kp, km = mesh.edge_tris[e]
    lp, lm = mesh.edge_local[e]
    assert {kp, km} == {0, 1}
    assert mesh.elem_edge_aligned[kp, lp] and not mesh.elem_edge_aligned[km, lm]
    assert mesh.elem_edges[kp, lp] == e and mesh.elem_edges[km, lm] == e
    # normal points from K+ into K-
    mid = 0.5 * (mesh.vertices[mesh.edges[e, 0]] + mesh.vertices[mesh.edges[e, 1]])
    n = mesh.edge_normals[e]
    assert np.dot(mesh.centroids[km] - mid, n) > 0
    assert np.dot(mesh.centroids[kp] - mid, n) < 0


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
    for e in np.nonzero(~mesh.boundary_edge)[0]:
        kp, km = mesh.edge_tris[e]
        lp, lm = mesh.edge_local[e]
        # same physical points on both sides: global parameter t
        ap = mesh.elem_edge_aligned[kp, lp]
        am = mesh.elem_edge_aligned[km, lm]
        vp = eval_on_edge(kp, lp, t if ap else 1 - t)
        vm = eval_on_edge(km, lm, t if am else 1 - t)
        assert np.allclose(vp - vm, 0.0, atol=1e-13)


def test_jump_of_indicator_is_one():
    mesh = build_initial_mesh(DomainSpec.unit_square(), 2)
    e = int(np.nonzero(~mesh.boundary_edge)[0][0])
    kp, km = mesh.edge_tris[e]
    # the indicator of K+ as degree-0 coefficient rows, one per element
    coeffs = np.zeros((mesh.n_triangles, 1))
    coeffs[kp] = 1.0 / np.sqrt(2)
    pts = np.array([[0.3, 0.3], [0.5, 0.2]])
    V = make_scalar_basis(0).values(pts)
    assert np.allclose(V @ coeffs[kp] - V @ coeffs[km], 1.0, atol=1e-14)
    # h_F^{-1} ||[v]||_F^2 = 1, split evenly between K+ and K-
    jump_K, _ = nu_jump_terms(mesh, coeffs, lambda x: np.zeros(len(x)), 3)
    assert np.allclose(jump_K, 0.5, rtol=1e-14)


def test_nonsimple_polygon_rejected():
    crossing = ((0, 0), (3, 0), (3, 2), (1, -1), (0, 2))
    with pytest.raises(ValueError, match="simple"):
        DomainSpec(loop=crossing)
    bowtie = ((0, 0), (1, 1), (1, 0), (0, 1))  # zero signed area
    with pytest.raises(ValueError):
        DomainSpec(loop=bowtie)


def test_custom_polygon_mesh():
    dom = DomainSpec(loop=((0, 0), (2, 0), (2, 1), (1, 1.5), (0, 1)),
                     name="pentagon")
    mesh = build_initial_mesh(dom, 20)
    assert mesh.n_triangles >= 20
    mesh.validate()
    assert abs(mesh.areas.sum() - dom.area) < 1e-12 * dom.area


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
    assert meta["n_triangles"] == mesh.n_triangles
    assert len(meta["boundary_edges"]) == int(mesh.boundary_edge.sum())
    assert meta["generation"] == mesh.generation.tolist()
    back = load_mesh(prefix)
    assert np.allclose(back.vertices, mesh.vertices)
    assert np.array_equal(back.triangles, mesh.triangles)
    assert np.any(mesh.parent >= 0)
    assert np.array_equal(back.parent, mesh.parent)
    assert np.array_equal(back.generation, mesh.generation)


UNIT_TRI = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize("vertices, triangles, kwargs", [
    ([[0.0, 0.0], [1.0, 0.0], [np.nan, 1.0]], [[0, 1, 2]], {}),
    ([[0.0, 0.0], [1.0, 0.0], [np.inf, 1.0]], [[0, 1, 2]], {}),
    (UNIT_TRI, [[0, 1, -1]], {}),
    (UNIT_TRI, [[0, 1, 3]], {}),
    ([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [[0, 1, 2]], {}),
    (UNIT_TRI, [[0, 1, 2, 0]], {}),
    (UNIT_TRI, [[0, 1, 2]], {"generation": [0, 0]}),
    (UNIT_TRI, [[0, 1, 2]], {"parent": [-1, -1]}),
    (UNIT_TRI, [[0, 1, 2]], {"parent": 1}),
], ids=["nan-vertex", "inf-vertex", "negative-id", "id-too-large",
        "three-columns", "four-vertex-ids", "generation-length",
        "parent-length", "scalar-parent"])
def test_malformed_mesh_rejected(vertices, triangles, kwargs):
    with pytest.raises(ValueError):
        TriMesh(vertices, triangles, **kwargs)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_polygon_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        DomainSpec(loop=((0, 0), (1, 0), (1, bad), (0, 1)))


def test_load_mesh_rejects_malformed_files(tmp_path):
    prefix = str(tmp_path / "mesh")
    save_mesh(build_initial_mesh(DomainSpec.unit_square(), 2), prefix)
    with open(prefix + ".json") as fh:
        meta = json.load(fh)
    meta["parent"] = meta["parent"][:1]
    with open(prefix + ".json", "w") as fh:
        json.dump(meta, fh)
    with pytest.raises(ValueError, match="parent"):
        load_mesh(prefix)
    with open(prefix + ".nodes") as fh:
        nodes = fh.read().splitlines()
    nodes[0] = "nan 0.0"
    with open(prefix + ".nodes", "w") as fh:
        fh.write("\n".join(nodes) + "\n")
    with pytest.raises(ValueError, match="finite"):
        load_mesh(prefix)


def test_generation_tracking():
    mesh = build_initial_mesh(DomainSpec.unit_square(), 2)
    out = mesh.refine([0])
    assert out.generation.max() == 1
    out2 = out.refine(range(out.n_triangles))
    assert out2.generation.max() >= 2
    assert np.all(out2.parent >= 0)
