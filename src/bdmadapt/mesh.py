"""Conforming triangular meshes with newest-vertex bisection refinement.

Triangles are stored as vertex triples (peak, a, b) with positive orientation;
the refinement edge is always the local edge 0, i.e. (a, b), opposite the
peak.  Bisection inserts the midpoint of (a, b) as the new peak of both
children, whose refinement edges are the two remaining parent edges, so the
scheme is the standard newest-vertex rule.  A marked refinement propagates
through a closure loop until no hanging node remains.

Interior edges carry a global orientation from the lower to the higher vertex
index; the stored unit normal is the right-hand normal of that direction and
points from the element traversing the edge in the global direction (K+) into
the other one (K-).  Meshes are immutable after construction; refinement
returns a new mesh.
"""

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

_LOCAL_EDGE_VERTS = ((1, 2), (2, 0), (0, 1))  # local edge j is opposite vertex j


@dataclass(frozen=True)
class DomainSpec:
    """Polygonal domain given by one simple, positively oriented vertex loop."""

    loop: tuple
    name: str = "custom"

    def __post_init__(self):
        loop = np.asarray(self.loop, dtype=float)
        if loop.ndim != 2 or loop.shape[0] < 3 or loop.shape[1] != 2:
            raise ValueError("polygon loop must be an (n>=3, 2) array")
        if not np.all(np.isfinite(loop)):
            raise ValueError("polygon loop has non-finite coordinates")
        if abs(_polygon_area(loop)) < 1e-14:
            raise ValueError("degenerate polygon")
        if not _is_simple_polygon(loop):
            raise ValueError("polygon is not simple (self-intersecting)")
        if _polygon_area(loop) < 0:
            loop = loop[::-1]
        object.__setattr__(self, "loop", tuple(map(tuple, loop)))

    @classmethod
    def unit_square(cls):
        return cls(loop=((0, 0), (1, 0), (1, 1), (0, 1)), name="unit_square")

    @classmethod
    def l_shape(cls):
        """(-1,1)^2 minus (-1,0)^2, re-entrant corner at the origin."""
        return cls(loop=((0, 0), (0, -1), (1, -1), (1, 1), (-1, 1), (-1, 0)),
                   name="l_shape")

    @property
    def vertices(self):
        return np.asarray(self.loop, dtype=float)

    @property
    def area(self):
        return _polygon_area(self.vertices)


def _polygon_area(loop):
    x, y = loop[:, 0], loop[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _segments_cross(p1, p2, q1, q2):
    """Proper or improper intersection of open segments, touching endpoints excluded."""
    def orient(a, b, c):
        v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        return 0 if abs(v) < 1e-14 else (1 if v > 0 else -1)

    o1, o2 = orient(p1, p2, q1), orient(p1, p2, q2)
    o3, o4 = orient(q1, q2, p1), orient(q1, q2, p2)
    if o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4):
        return True
    def on_open_segment(a, b, c):
        if orient(a, b, c) != 0:
            return False
        t = np.dot(np.subtract(c, a), np.subtract(b, a)) / max(
            np.dot(np.subtract(b, a), np.subtract(b, a)), 1e-300)
        return 1e-12 < t < 1 - 1e-12
    return any(on_open_segment(p1, p2, q) for q in (q1, q2)) or \
        any(on_open_segment(q1, q2, p) for p in (p1, p2))


def _is_simple_polygon(loop):
    n = len(loop)
    for i in range(n):
        a1, a2 = loop[i], loop[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            b1, b2 = loop[j], loop[(j + 1) % n]
            if _segments_cross(a1, a2, b1, b2):
                return False
    return True


class TriMesh:
    """Immutable conforming triangulation with full edge adjacency."""

    def __init__(self, vertices, triangles, generation=None, parent=None,
                 domain_name=None):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        nt = len(self.triangles)
        self.generation = (np.zeros(nt, dtype=np.int64) if generation is None
                           else np.asarray(generation, dtype=np.int64))
        self.parent = (np.full(nt, -1, dtype=np.int64) if parent is None
                       else np.asarray(parent, dtype=np.int64))
        self.domain_name = domain_name
        if nt == 0:
            raise ValueError("empty mesh")
        self._check_input()
        self._check_orientation()
        self._build_edges()
        self.vertices.setflags(write=False)
        self.triangles.setflags(write=False)

    # -- construction -----------------------------------------------------

    def _check_input(self):
        verts, tris = self.vertices, self.triangles
        if (verts.ndim != 2 or verts.shape[1] != 2
                or not np.all(np.isfinite(verts))):
            raise ValueError("vertices must form a finite (n, 2) array")
        if tris.ndim != 2 or tris.shape[1] != 3:
            raise ValueError("triangles must form an (nt, 3) array")
        if tris.min() < 0 or tris.max() >= len(verts):
            raise ValueError(f"vertex ids must lie in [0, {len(verts)})")
        nt = len(tris)
        if self.generation.shape != (nt,) or self.parent.shape != (nt,):
            raise ValueError("need one generation and one parent entry per "
                             "triangle")

    def _check_orientation(self):
        t = self.vertices[self.triangles]
        cross = ((t[:, 1, 0] - t[:, 0, 0]) * (t[:, 2, 1] - t[:, 0, 1])
                 - (t[:, 1, 1] - t[:, 0, 1]) * (t[:, 2, 0] - t[:, 0, 0]))
        if not np.all(cross > 0):
            bad = int(np.argmin(cross))
            raise ValueError(f"triangle {bad} is not positively oriented")

    def _build_edges(self):
        tris = self.triangles
        nt = len(tris)
        pairs = np.stack([tris[:, [1, 2]], tris[:, [2, 0]], tris[:, [0, 1]]],
                         axis=1).reshape(-1, 2)
        sorted_pairs = np.sort(pairs, axis=1)
        edges, inverse = np.unique(sorted_pairs, axis=0, return_inverse=True)
        counts = np.bincount(inverse, minlength=len(edges))
        if counts.max() > 2 or counts.min() < 1:
            raise ValueError("non-conforming triangulation (bad edge multiplicity)")
        self.edges = edges
        self.elem_edges = inverse.reshape(nt, 3)
        # traversal of local edge j agrees with the stored global direction?
        first = pairs.reshape(nt, 3, 2)[:, :, 0]
        self.elem_edge_aligned = first == edges[self.elem_edges, 0]
        ne = len(edges)
        edge_tris = np.full((ne, 2), -1, dtype=np.int64)
        edge_local = np.full((ne, 2), -1, dtype=np.int64)
        for k, e in enumerate(inverse):
            t, j = divmod(k, 3)
            side = 0 if self.elem_edge_aligned[t, j] else 1
            if edge_tris[e, side] != -1:
                raise ValueError("two triangles traverse one edge the same way "
                                 "(inconsistent orientation)")
            edge_tris[e, side] = t
            edge_local[e, side] = j
        boundary = counts == 1
        # boundary edges keep their single element in slot 0
        swap = boundary & (edge_tris[:, 0] == -1)
        edge_tris[swap, 0], edge_tris[swap, 1] = edge_tris[swap, 1], -1
        edge_local[swap, 0], edge_local[swap, 1] = edge_local[swap, 1], -1
        self.edge_tris = edge_tris
        self.edge_local = edge_local
        self.boundary_edge = boundary
        for arr in (self.edges, self.elem_edges, self.elem_edge_aligned,
                    self.edge_tris, self.edge_local, self.boundary_edge):
            arr.setflags(write=False)

    # -- geometry ----------------------------------------------------------

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_triangles(self):
        return len(self.triangles)

    @property
    def n_edges(self):
        return len(self.edges)

    @cached_property
    def tri_coords(self):
        return self.vertices[self.triangles]

    @cached_property
    def jacobians(self):
        """Affine maps x = v0 + B xhat; B columns are the two edge vectors."""
        t = self.tri_coords
        return np.stack([t[:, 1] - t[:, 0], t[:, 2] - t[:, 0]], axis=2)

    @cached_property
    def det_jacobians(self):
        B = self.jacobians
        return B[:, 0, 0] * B[:, 1, 1] - B[:, 0, 1] * B[:, 1, 0]

    @cached_property
    def inv_jacobians(self):
        B, J = self.jacobians, self.det_jacobians
        inv = np.empty_like(B)
        inv[:, 0, 0] = B[:, 1, 1]
        inv[:, 0, 1] = -B[:, 0, 1]
        inv[:, 1, 0] = -B[:, 1, 0]
        inv[:, 1, 1] = B[:, 0, 0]
        return inv / J[:, None, None]

    @cached_property
    def areas(self):
        return 0.5 * self.det_jacobians

    @cached_property
    def edge_lengths(self):
        d = self.vertices[self.edges[:, 1]] - self.vertices[self.edges[:, 0]]
        return np.hypot(d[:, 0], d[:, 1])

    @cached_property
    def tri_edge_lengths(self):
        return self.edge_lengths[self.elem_edges]

    @cached_property
    def h_K(self):
        """Element diameters (longest edge)."""
        return self.tri_edge_lengths.max(axis=1)

    @cached_property
    def inradius(self):
        return 2.0 * self.areas / self.tri_edge_lengths.sum(axis=1)

    @cached_property
    def centroids(self):
        return self.tri_coords.mean(axis=1)

    @cached_property
    def edge_normals(self):
        """Unit normals in the global edge orientation (right of lo->hi)."""
        d = self.vertices[self.edges[:, 1]] - self.vertices[self.edges[:, 0]]
        n = np.stack([d[:, 1], -d[:, 0]], axis=1)
        return n / self.edge_lengths[:, None]

    @cached_property
    def outward_normals(self):
        """Outward unit normal per (triangle, local edge); shape (nt, 3, 2)."""
        t = self.tri_coords
        out = np.empty((len(t), 3, 2))
        for j, (a, b) in enumerate(_LOCAL_EDGE_VERTS):
            d = t[:, b] - t[:, a]
            n = np.stack([d[:, 1], -d[:, 0]], axis=1)
            out[:, j] = n / np.hypot(d[:, 0], d[:, 1])[:, None]
        return out

    @cached_property
    def min_angles(self):
        """Smallest interior angle per triangle, in radians."""
        L = np.sort(self.tri_edge_lengths, axis=1)
        a, b, c = L[:, 0], L[:, 1], L[:, 2]
        cosA = np.clip((b * b + c * c - a * a) / (2 * b * c), -1.0, 1.0)
        return np.arccos(cosA)

    # -- refinement ---------------------------------------------------------

    def refine(self, marked) -> "TriMesh":
        """Bisect the marked triangles (integer ids, repeats ignored), closing
        the mesh (no hanging nodes)."""
        marked = np.asarray(list(marked))
        if marked.size == 0:
            return self
        if marked.dtype.kind not in "iu":
            raise ValueError(f"marked ids must be integers, not {marked.dtype}")
        marked = np.unique(marked)
        if marked.min() < 0 or marked.max() >= self.n_triangles:
            raise ValueError("marked set contains invalid triangle ids")
        edge_marked = np.zeros(self.n_edges, dtype=bool)
        edge_marked[self.elem_edges[marked, 0]] = True
        while True:
            has_marked = edge_marked[self.elem_edges].any(axis=1)
            need = has_marked & ~edge_marked[self.elem_edges[:, 0]]
            if not need.any():
                break
            edge_marked[self.elem_edges[need, 0]] = True

        split_ids = np.nonzero(edge_marked)[0]
        new_vid = np.full(self.n_edges, -1, dtype=np.int64)
        new_vid[split_ids] = self.n_vertices + np.arange(len(split_ids))
        mids = 0.5 * (self.vertices[self.edges[split_ids, 0]]
                      + self.vertices[self.edges[split_ids, 1]])
        verts = np.vstack([self.vertices, mids])

        tris, gen, par = [], [], []
        tri_arr, edg_arr = self.triangles, self.elem_edges
        for t in range(self.n_triangles):
            e0, e1, e2 = edg_arr[t]
            if not edge_marked[e0]:
                tris.append(tri_arr[t])
                gen.append(self.generation[t])
                par.append(self.parent[t])
                continue
            p, a, b = tri_arr[t]
            m = new_vid[e0]
            g, pid = self.generation[t], t
            # children (m, p, a) with refinement edge e2=(p,a) and
            # (m, b, p) with refinement edge e1=(b,p)
            for child, opp_edge in (((m, p, a), e2), ((m, b, p), e1)):
                if edge_marked[opp_edge]:
                    cp, ca, cb = child
                    mm = new_vid[opp_edge]
                    tris.extend([(mm, cp, ca), (mm, cb, cp)])
                    gen.extend([g + 2, g + 2])
                    par.extend([pid, pid])
                else:
                    tris.append(child)
                    gen.append(g + 1)
                    par.append(pid)
        return TriMesh(verts, np.asarray(tris, dtype=np.int64), generation=gen,
                       parent=par, domain_name=self.domain_name)

    # -- audits -------------------------------------------------------------

    def validate(self):
        """Raise if any structural invariant fails; returns self when clean."""
        self._check_orientation()
        counts = np.where(self.boundary_edge, 1, 2)
        have = (self.edge_tris >= 0).sum(axis=1)
        if not np.array_equal(counts, have):
            raise AssertionError("edge adjacency inconsistent with boundary flags")
        lens = self.edge_lengths
        d = self.vertices[self.edges[:, 1]] - self.vertices[self.edges[:, 0]]
        if not np.allclose(lens, np.hypot(d[:, 0], d[:, 1]), rtol=0, atol=0):
            raise AssertionError("edge length table stale")
        # stored normal points from K+ into K- on interior edges
        interior = ~self.boundary_edge
        kp, km = self.edge_tris[interior, 0], self.edge_tris[interior, 1]
        mid = 0.5 * (self.vertices[self.edges[interior, 0]]
                     + self.vertices[self.edges[interior, 1]])
        to_minus = self.centroids[km] - mid
        if np.any(np.einsum("ij,ij->i", to_minus, self.edge_normals[interior]) <= 0):
            raise AssertionError("an interior edge normal does not point K+ -> K-")
        return self


# -- initial meshes ---------------------------------------------------------


def _grid_block(store, x0, y0, nx, ny, h):
    """Append 2 CCW triangles per cell, refinement edge on the SW-NE diagonal."""
    def vid(i, j):
        key = (round((x0 + i * h) / h), round((y0 + j * h) / h))
        if key not in store["index"]:
            store["index"][key] = len(store["verts"])
            store["verts"].append((x0 + i * h, y0 + j * h))
        return store["index"][key]

    for i in range(nx):
        for j in range(ny):
            ll, lr = vid(i, j), vid(i + 1, j)
            ur, ul = vid(i + 1, j + 1), vid(i, j + 1)
            store["tris"].append((lr, ur, ll))  # peak at the right angle
            store["tris"].append((ul, ll, ur))


def _earclip(loop):
    """Ear-clipping triangulation of a simple CCW polygon (vertex indices)."""
    idx = list(range(len(loop)))
    tris = []
    def convex(a, b, c):
        return ((loop[b][0] - loop[a][0]) * (loop[c][1] - loop[a][1])
                - (loop[b][1] - loop[a][1]) * (loop[c][0] - loop[a][0])) > 1e-14
    def inside(p, a, b, c):
        for u, v in ((a, b), (b, c), (c, a)):
            if ((loop[v][0] - loop[u][0]) * (p[1] - loop[u][1])
                    - (loop[v][1] - loop[u][1]) * (p[0] - loop[u][0])) < -1e-14:
                return False
        return True
    guard = 0
    while len(idx) > 3:
        guard += 1
        if guard > 10000:
            raise ValueError("ear clipping failed (is the polygon simple?)")
        n = len(idx)
        for k in range(n):
            a, b, c = idx[(k - 1) % n], idx[k], idx[(k + 1) % n]
            if not convex(a, b, c):
                continue
            if any(inside(loop[m], a, b, c) for m in idx
                   if m not in (a, b, c)):
                continue
            tris.append((a, b, c))
            del idx[k]
            break
    tris.append(tuple(idx))
    return tris


def _orient_longest_edge(verts, tris):
    """Reorder each triangle so the longest edge is the refinement edge (a, b)."""
    out = []
    for (i, j, k) in tris:
        pts = verts[[i, j, k]]
        cross = ((pts[1, 0] - pts[0, 0]) * (pts[2, 1] - pts[0, 1])
                 - (pts[1, 1] - pts[0, 1]) * (pts[2, 0] - pts[0, 0]))
        if cross < 0:
            i, j, k = i, k, j
        tri = (i, j, k)
        pts = verts[list(tri)]
        lens = [np.linalg.norm(pts[(m + 2) % 3] - pts[(m + 1) % 3]) for m in range(3)]
        peak = int(np.argmax(lens))  # edge opposite the peak is longest
        order = {0: (tri[0], tri[1], tri[2]),
                 1: (tri[1], tri[2], tri[0]),
                 2: (tri[2], tri[0], tri[1])}[peak]
        out.append(order)
    return out


def build_initial_mesh(domain: DomainSpec, target_count: int) -> TriMesh:
    """Conforming mesh of the domain with element count close to target_count.

    Presets get deterministic structured layouts (2*n^2 triangles on the unit
    square, 6*n^2 on the L-shape); other polygons are ear-clipped and
    uniformly bisected until the target is reached.
    """
    if target_count < 1:
        raise ValueError("target_count must be positive")
    store = {"verts": [], "tris": [], "index": {}}
    if domain.name == "unit_square":
        n = max(1, round((target_count / 2.0) ** 0.5))
        _grid_block(store, 0.0, 0.0, n, n, 1.0 / n)
    elif domain.name == "l_shape":
        n = max(1, round((target_count / 6.0) ** 0.5))
        h = 1.0 / n
        _grid_block(store, 0.0, -1.0, n, n, h)
        _grid_block(store, 0.0, 0.0, n, n, h)
        _grid_block(store, -1.0, 0.0, n, n, h)
    else:
        verts = domain.vertices
        tris = _orient_longest_edge(verts, _earclip([tuple(v) for v in verts]))
        mesh = TriMesh(verts, np.asarray(tris), domain_name=domain.name)
        while mesh.n_triangles < target_count:
            mesh = mesh.refine(range(mesh.n_triangles))
        return mesh
    return TriMesh(np.asarray(store["verts"], dtype=float),
                   np.asarray(store["tris"], dtype=np.int64),
                   domain_name=domain.name)


# -- export -----------------------------------------------------------------


def save_mesh(mesh: TriMesh, prefix: str):
    """Write <prefix>.nodes / <prefix>.elems (plain text) and <prefix>.json.

    Nodes: one "x y" per line.  Elements: one "i j k" per line, 0-based, in
    storage order (peak first).  The JSON block records boundary edges, the
    bisection generation and the parent of every triangle.
    """
    with open(f"{prefix}.nodes", "w") as fh:
        for x, y in mesh.vertices:
            fh.write(f"{float(x)!r} {float(y)!r}\n")
    with open(f"{prefix}.elems", "w") as fh:
        for i, j, k in mesh.triangles:
            fh.write(f"{i} {j} {k}\n")
    meta = {
        "n_vertices": int(mesh.n_vertices),
        "n_triangles": int(mesh.n_triangles),
        "domain": mesh.domain_name,
        "boundary_edges": mesh.edges[mesh.boundary_edge].tolist(),
        "generation": mesh.generation.tolist(),
        "parent": mesh.parent.tolist(),
    }
    with open(f"{prefix}.json", "w") as fh:
        json.dump(meta, fh, indent=1)


def load_mesh(prefix: str) -> TriMesh:
    verts = np.loadtxt(f"{prefix}.nodes", ndmin=2)
    tris = np.loadtxt(f"{prefix}.elems", dtype=np.int64, ndmin=2)
    with open(f"{prefix}.json") as fh:
        meta = json.load(fh)
    return TriMesh(verts, tris, generation=meta.get("generation"),
                   parent=meta.get("parent"), domain_name=meta.get("domain"))
