"""Conforming triangular meshes with newest-vertex bisection refinement.

Triangles are stored as vertex triples (peak, a, b) with positive orientation;
the refinement edge is always the local edge 0, i.e. (a, b), opposite the
peak.  Bisection inserts the midpoint of (a, b) as the new peak of both
children, whose refinement edges are the two remaining parent edges, so the
scheme is the standard newest-vertex rule.  A marked refinement propagates
through a closure loop; the children then fill a fixed four-slot table per
triangle, as in refineNVB (Funken, Praetorius & Wissgott 2011).

Interior edges carry a global orientation from the lower to the higher vertex
index; the stored unit normal is the right-hand normal of that direction and
points from the element traversing the edge in the global direction (K+) into
the other one (K-).  Meshes are immutable after construction; refinement
returns a new mesh.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .artifacts import write_json

_LOCAL_EDGE_VERTS = ((1, 2), (2, 0), (0, 1))  # local edge j is opposite vertex j


# the preset loops as DomainSpec stores them, for build_initial_mesh to match
_UNIT_SQUARE = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))
_L_SHAPE = ((-1.0, 0.0), (0.0, 0.0), (0.0, -1.0), (1.0, -1.0), (1.0, 1.0),
            (-1.0, 1.0))


@dataclass(frozen=True)
class DomainSpec:
    """Polygonal domain given by one simple vertex loop with no repeated
    vertex, stored counter-clockwise from its lowest (lexicographic) vertex,
    so that one polygon has one loop however it is written."""

    loop: tuple

    def __post_init__(self):
        loop = np.asarray(self.loop, dtype=float)
        if loop.ndim != 2 or loop.shape[0] < 3 or loop.shape[1] != 2:
            raise ValueError("polygon loop must be an (n>=3, 2) array")
        if not np.all(np.isfinite(loop)):
            raise ValueError("polygon loop has non-finite coordinates")
        verts = list(map(tuple, loop.tolist()))
        for k, v in enumerate(verts):
            if v in verts[:k]:
                raise ValueError(f"polygon loop repeats vertex {v}")
        if abs(_polygon_area(loop)) < 1e-14:
            raise ValueError("degenerate polygon")
        if not _is_simple_polygon(loop):
            raise ValueError("polygon is not simple (self-intersecting)")
        if _polygon_area(loop) < 0:
            verts = verts[::-1]
        first = verts.index(min(verts))
        object.__setattr__(self, "loop", tuple(verts[first:] + verts[:first]))

    @classmethod
    def unit_square(cls):
        return cls(loop=_UNIT_SQUARE)

    @classmethod
    def l_shape(cls):
        """(-1,1)^2 minus (-1,0)^2, re-entrant corner at the origin."""
        return cls(loop=_L_SHAPE)

    @property
    def vertices(self):
        return np.asarray(self.loop, dtype=float)


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


def _integers(values, name: str) -> np.ndarray:
    """values as int64; only integer or integral float entries in range are
    accepted (booleans, strings and objects are errors)."""
    raw = np.asarray(values)
    kind = raw.dtype.kind
    if not (kind in "iu" or (kind == "f" and np.all(
            (np.abs(raw) < 2.0 ** 63) & (raw == np.round(raw))))):
        raise ValueError(f"{name} must hold integers")
    return raw.astype(np.int64, order="C")


class TriMesh:
    """Immutable conforming triangulation.

    Adjacency is stored once, element to edge: elem_edges (nt, 3) holds the
    global edge of each local edge, elem_edge_aligned whether the element
    traverses it in the global direction (the element is K+ there; each
    interior edge has exactly one), boundary_edge the edges with one element.
    """

    def __init__(self, vertices, triangles):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.triangles = _integers(triangles, "triangles")
        if len(self.triangles) == 0:
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

    def _check_orientation(self):
        t = self.vertices[self.triangles]
        cross = ((t[:, 1, 0] - t[:, 0, 0]) * (t[:, 2, 1] - t[:, 0, 1])
                 - (t[:, 1, 1] - t[:, 0, 1]) * (t[:, 2, 0] - t[:, 0, 0]))
        if not np.all(cross > 0):
            bad = int(np.argmin(cross))
            raise ValueError(f"triangle {bad} is not positively oriented")

    def _build_edges(self):
        tris = self.triangles
        pairs = tris[:, np.array(_LOCAL_EDGE_VERTS)].reshape(-1, 2)
        # one int64 key lo * n_v + hi per edge sorts like the (lo, hi) rows
        n_v = len(self.vertices)
        keys, inverse = np.unique(pairs.min(axis=1) * n_v + pairs.max(axis=1),
                                  return_inverse=True)
        edges = np.stack([keys // n_v, keys % n_v], axis=1)
        counts = np.bincount(inverse, minlength=len(edges))
        if counts.max() > 2:
            raise ValueError("non-conforming triangulation (bad edge multiplicity)")
        # traversal of the local edge agrees with the stored global direction?
        aligned = pairs[:, 0] == edges[inverse, 0]
        if np.any(np.bincount(inverse, aligned)[counts == 2] != 1):
            raise ValueError("two triangles traverse one edge the same way "
                             "(inconsistent orientation)")
        self.edges = edges
        self.elem_edges = inverse.reshape(tris.shape)
        self.elem_edge_aligned = aligned.reshape(tris.shape)
        self.boundary_edge = counts == 1
        for arr in (self.edges, self.elem_edges, self.elem_edge_aligned,
                    self.boundary_edge):
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

    @property
    def metric(self):
        """T = B^T B / J (n, 2, 2), det T = 1: the shape of each element."""
        B, J = self.jacobians, self.det_jacobians
        return np.matmul(np.swapaxes(B, 1, 2), B) / J[:, None, None]

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
    def edge_normals(self):
        """Unit normals in the global edge orientation (right of lo->hi)."""
        d = self.vertices[self.edges[:, 1]] - self.vertices[self.edges[:, 0]]
        n = np.stack([d[:, 1], -d[:, 0]], axis=1)
        return n / self.edge_lengths[:, None]

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
        the mesh (no hanging nodes).

        A parent (p, a, b) with edges e0 = (a, b), e1 = (b, p), e2 = (p, a)
        and midpoints m_j fills up to four child slots ("if e_j" reads "if e_j
        is split"; the closure splits e0 wherever e1 or e2 is split):
          1. (m2, m0, p) if e2, else (m0, p, a) if e0, else (p, a, b);
          2. (m2, a, m0) if e2;
          3. (m1, m0, b) if e1, else (m0, b, p) if e0;
          4. (m1, p, m0) if e1.
        The filled slots are listed parent by parent.
        """
        if not (isinstance(marked, np.ndarray) and marked.ndim == 1):
            # boxing an array's ids through a list costs ~0.1 us per id
            marked = np.asarray(list(marked))
        if marked.size == 0:
            return self
        if marked.dtype.kind not in "iu":
            raise ValueError(f"marked ids must be integers, not {marked.dtype}")
        if marked.min() < 0 or marked.max() >= self.n_triangles:
            raise ValueError("marked set contains invalid triangle ids")
        edge_marked = np.zeros(self.n_edges, dtype=bool)
        # repeats set a flag twice; no np.unique, which imports numpy.ma
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

        s0, s1, s2 = edge_marked[self.elem_edges].T
        p, a, b = self.triangles.T
        m0, m1, m2 = new_vid[self.elem_edges].T
        children = np.stack([
            np.where(s2, [m2, m0, p], np.where(s0, [m0, p, a], [p, a, b])),
            [m2, a, m0],
            np.where(s1, [m1, m0, b], [m0, b, p]),
            [m1, p, m0]]).transpose(2, 0, 1)
        keep = np.stack([np.ones_like(s0), s2, s0, s1], axis=1)
        return TriMesh(verts, children[keep])


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
    """Rotate each (counter-clockwise) triangle so that its longest edge is
    the refinement edge (a, b)."""
    out = []
    for tri in tris:
        pts = verts[list(tri)]
        lens = [np.linalg.norm(pts[(m + 2) % 3] - pts[(m + 1) % 3]) for m in range(3)]
        peak = int(np.argmax(lens))  # edge opposite the peak is longest
        order = {0: (tri[0], tri[1], tri[2]),
                 1: (tri[1], tri[2], tri[0]),
                 2: (tri[2], tri[0], tri[1])}[peak]
        out.append(order)
    return out


def build_initial_mesh(domain: DomainSpec,
                       target_count: int | None = None) -> TriMesh:
    """Conforming mesh of the domain with element count close to target_count
    (by default 32 on the unit square, 96 on the L-shape, else 64).

    The polygon decides the layout: the unit square and the L-shape, from
    whichever vertex and in whichever direction their loops are written, get
    deterministic structured layouts (2*n^2 and 6*n^2 triangles); any
    other polygon is ear-clipped and uniformly bisected until the target is
    reached.
    """
    square, lshape = domain.loop == _UNIT_SQUARE, domain.loop == _L_SHAPE
    if target_count is None:
        target_count = 32 if square else 96 if lshape else 64
    if target_count < 1:
        raise ValueError("target_count must be positive")
    store = {"verts": [], "tris": [], "index": {}}
    if square:
        n = max(1, round((target_count / 2.0) ** 0.5))
        _grid_block(store, 0.0, 0.0, n, n, 1.0 / n)
    elif lshape:
        n = max(1, round((target_count / 6.0) ** 0.5))
        h = 1.0 / n
        _grid_block(store, 0.0, -1.0, n, n, h)
        _grid_block(store, 0.0, 0.0, n, n, h)
        _grid_block(store, -1.0, 0.0, n, n, h)
    else:
        verts = domain.vertices
        tris = _orient_longest_edge(verts, _earclip([tuple(v) for v in verts]))
        mesh = TriMesh(verts, np.asarray(tris))
        while mesh.n_triangles < target_count:
            mesh = mesh.refine(range(mesh.n_triangles))
        return mesh
    return TriMesh(np.asarray(store["verts"], dtype=float),
                   np.asarray(store["tris"], dtype=np.int64))


# -- export -----------------------------------------------------------------


def save_mesh(mesh: TriMesh, prefix: str):
    """Write <prefix>.nodes / <prefix>.elems (plain text) and <prefix>.json.

    Nodes: one "x y" per line.  Elements: one "i j k" per line, 0-based, in
    storage order (peak first).  The JSON block records the counts and the
    boundary edges.
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
        "boundary_edges": mesh.edges[mesh.boundary_edge].tolist(),
    }
    write_json(f"{prefix}.json", meta)


def load_mesh(prefix: str) -> TriMesh:
    """The mesh of save_mesh's <prefix>.nodes and <prefix>.elems.

    The JSON block is not read, so older files, whose block also held each
    triangle's bisection history, load too.  The ids are read as numbers, so
    the constructor's integer check rejects a fractional one.
    """
    return TriMesh(np.loadtxt(f"{prefix}.nodes", ndmin=2),
                   np.loadtxt(f"{prefix}.elems", ndmin=2))
