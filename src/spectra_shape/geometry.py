"""Tetrahedral meshes of the reference domain with tagged boundary partition.

Structured box meshes are produced with the Kuhn (Freudenthal) triangulation,
which is deterministic, conforming, and self-similar under dyadic refinement.
Arbitrary meshes come in through the ``tetmesh v1`` text format.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Tuple, Union

import numpy as np

from .errors import InvalidGeometryError, MeshFormatError

BOX_FACES = ("x0", "x1", "y0", "y1", "z0", "z1")

# local vertex pairs of the six edges of a tetrahedron
TET_EDGE_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

# local vertex triples of the four faces of a tetrahedron
TET_FACE_TRIPLES = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))

_KUHN_PERMS = (
    (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0),
)


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature rule on the reference simplex in barycentric coordinates.

    ``points`` has shape (nq, d+1) and ``weights`` sums to the reference
    measure (1/6 for the tetrahedron, 1/2 for the triangle).
    """

    points: np.ndarray
    weights: np.ndarray
    order: int


def _duffy_tet_rule(order: int) -> QuadratureRule:
    """Tensor Gauss rule on the collapsed cube; exact for total degree `order`.

    Degrees after the Duffy map are order+2 in u, order+1 in v, order in w,
    so the per-axis Gauss point counts below guarantee exactness with
    strictly positive weights.
    """
    mu = (order + 2) // 2 + 1
    mv = (order + 1) // 2 + 1
    mw = order // 2 + 1
    xu, wu = np.polynomial.legendre.leggauss(mu)
    xv, wv = np.polynomial.legendre.leggauss(mv)
    xw, ww = np.polynomial.legendre.leggauss(mw)
    # shift to [0, 1]
    xu, wu = (xu + 1) / 2, wu / 2
    xv, wv = (xv + 1) / 2, wv / 2
    xw, ww = (xw + 1) / 2, ww / 2
    pts = []
    wts = []
    for u, cu in zip(xu, wu):
        for v, cv in zip(xv, wv):
            for w, cw in zip(xw, ww):
                l1 = u
                l2 = v * (1 - u)
                l3 = w * (1 - u) * (1 - v)
                l0 = 1.0 - l1 - l2 - l3
                pts.append((l0, l1, l2, l3))
                wts.append(cu * cv * cw * (1 - u) ** 2 * (1 - v))
    return QuadratureRule(np.array(pts), np.array(wts), order)


def tet_quadrature(order: int = 2) -> QuadratureRule:
    """Quadrature on the reference tetrahedron, exact for polynomials of
    total degree <= order. Weights are positive and sum to 1/6."""
    if order <= 1:
        return QuadratureRule(
            np.array([[0.25, 0.25, 0.25, 0.25]]), np.array([1.0 / 6.0]), 1
        )
    if order == 2:
        a = (5.0 + 3.0 * np.sqrt(5.0)) / 20.0
        b = (5.0 - np.sqrt(5.0)) / 20.0
        pts = np.full((4, 4), b)
        np.fill_diagonal(pts, a)
        return QuadratureRule(pts, np.full(4, 1.0 / 24.0), 2)
    if order > 4:
        raise InvalidGeometryError(f"tet quadrature order {order} not supported")
    return _duffy_tet_rule(order)


def triangle_quadrature(order: int = 2) -> QuadratureRule:
    """Quadrature on the reference triangle, exact to total degree <= order.
    Weights are positive and sum to 1/2."""
    if order <= 1:
        return QuadratureRule(
            np.array([[1 / 3, 1 / 3, 1 / 3]]), np.array([0.5]), 1
        )
    if order == 2:
        pts = np.array(
            [[2 / 3, 1 / 6, 1 / 6], [1 / 6, 2 / 3, 1 / 6], [1 / 6, 1 / 6, 2 / 3]]
        )
        return QuadratureRule(pts, np.full(3, 1.0 / 6.0), 2)
    if order > 4:
        raise InvalidGeometryError(f"triangle quadrature order {order} not supported")
    # Dunavant 6-point rule, degree 4, positive weights
    a1, w1 = 0.445948490915965, 0.223381589678011
    a2, w2 = 0.091576213509771, 0.109951743655322
    pts = []
    wts = []
    for a, w in ((a1, w1), (a2, w2)):
        for i in range(3):
            p = [a, a, a]
            p[i] = 1.0 - 2.0 * a
            pts.append(p)
            wts.append(w * 0.5)
    return QuadratureRule(np.array(pts), np.array(wts), 4)


@dataclass
class Mesh:
    """Immutable tetrahedral mesh with tagged boundary facets.

    ``tets`` are stored with positive signed volume. Each edge is stored
    once, oriented low index -> high index. ``tet_edges``/``tet_edge_signs``
    give, per tet, the global edge index of each local edge and the sign
    relating the local orientation to the global one.
    """

    vertices: np.ndarray                 # (nv, 3)
    tets: np.ndarray                     # (nt, 4) int
    bfacet_vertices: np.ndarray          # (nb, 3) int
    bfacet_tags: List[str]               # 'T' or 'N'
    bfacet_tets: np.ndarray              # (nb,) owning tet index
    edges: np.ndarray = field(default=None)        # (ne, 2) int, lexicographic
    tet_edges: np.ndarray = field(default=None)    # (nt, 6) int
    tet_edge_signs: np.ndarray = field(default=None)  # (nt, 6) +-1

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        self.tets = np.asarray(self.tets, dtype=int)
        self.bfacet_vertices = np.asarray(self.bfacet_vertices, dtype=int)
        self.bfacet_tets = np.asarray(self.bfacet_tets, dtype=int)
        if self.edges is None:
            self._build_edges()
        self.validate()

    def _build_edges(self):
        pairs = self.tets[:, TET_EDGE_PAIRS]             # (nt, 6, 2)
        lo = pairs.min(axis=2)
        hi = pairs.max(axis=2)
        sign = np.where(pairs[:, :, 0] < pairs[:, :, 1], 1, -1)
        flat = np.stack([lo.ravel(), hi.ravel()], axis=1)
        edges, inverse = np.unique(flat, axis=0, return_inverse=True)
        self.edges = edges
        self.tet_edges = inverse.reshape(lo.shape)
        self.tet_edge_signs = sign

    # -- geometric quantities ------------------------------------------------

    def tet_volumes(self) -> np.ndarray:
        v = self.vertices[self.tets]
        d = v[:, 1:] - v[:, :1]
        return np.linalg.det(d) / 6.0

    def num_vertices(self) -> int:
        return len(self.vertices)

    def num_tets(self) -> int:
        return len(self.tets)

    def num_edges(self) -> int:
        return len(self.edges)

    def facet_geometry(self, facets) -> Tuple[np.ndarray, np.ndarray]:
        """Unit outward normals and areas of boundary facets.

        ``facets`` is one facet index or an array of them; the results have
        its shape (plus a trailing axis of 3 for the normals).
        """
        facets = np.asarray(facets)
        if np.any((facets < 0) | (facets >= len(self.bfacet_vertices))):
            raise InvalidGeometryError(f"no boundary facet {facets}")
        tri = self.vertices[self.bfacet_vertices[facets]]     # (..., 3, 3)
        cr = np.cross(tri[..., 1, :] - tri[..., 0, :], tri[..., 2, :] - tri[..., 0, :])
        norm = np.linalg.norm(cr, axis=-1)
        n = cr / norm[..., None]
        tet = self.vertices[self.tets[self.bfacet_tets[facets]]]
        inward = np.einsum("...k,...k->...", n, tri.mean(axis=-2) - tet.mean(axis=-2)) < 0
        return np.where(inward[..., None], -n, n), 0.5 * norm

    def boundary_vertex_set(self, tag: str) -> np.ndarray:
        """Sorted vertex indices lying on the closure of the facets with `tag`."""
        sel = [i for i, t in enumerate(self.bfacet_tags) if t == tag]
        if not sel:
            return np.array([], dtype=int)
        return np.unique(self.bfacet_vertices[sel])

    def boundary_edge_set(self, tag: str) -> np.ndarray:
        """Sorted global edge indices contained in a facet with `tag`."""
        sel = [i for i, t in enumerate(self.bfacet_tags) if t == tag]
        if not sel:
            return np.array([], dtype=int)
        tris = self.bfacet_vertices[sel]
        keys = set()
        for tri in tris:
            for a, b in ((0, 1), (0, 2), (1, 2)):
                keys.add((min(tri[a], tri[b]), max(tri[a], tri[b])))
        edge_lookup = {tuple(e): i for i, e in enumerate(self.edges)}
        return np.array(sorted(edge_lookup[k] for k in keys), dtype=int)

    # -- validation ----------------------------------------------------------

    def validate(self):
        vols = self.tet_volumes()
        bad = np.nonzero(vols <= 0)[0]
        if len(bad):
            raise InvalidGeometryError(
                f"tet {bad[0]} has non-positive signed volume {vols[bad[0]]:g}"
            )
        # facet incidence counts
        counts: Dict[Tuple[int, int, int], int] = {}
        owner: Dict[Tuple[int, int, int], int] = {}
        for it, tet in enumerate(self.tets):
            for tri in TET_FACE_TRIPLES:
                key = tuple(sorted(tet[list(tri)]))
                counts[key] = counts.get(key, 0) + 1
                owner[key] = it
        boundary = {k for k, c in counts.items() if c == 1}
        if any(c > 2 for c in counts.values()):
            raise InvalidGeometryError("facet shared by more than two tets")
        tagged = set()
        for i, tri in enumerate(self.bfacet_vertices):
            key = tuple(sorted(tri))
            if key not in boundary:
                raise InvalidGeometryError(
                    f"tagged facet {i} {key} is not a boundary facet"
                )
            if self.bfacet_tags[i] not in ("T", "N"):
                raise InvalidGeometryError(
                    f"facet {i} has unknown tag {self.bfacet_tags[i]!r}"
                )
            if counts.get(key, 0) != 1 or owner[key] != self.bfacet_tets[i]:
                raise InvalidGeometryError(
                    f"facet {i} does not belong to tet {self.bfacet_tets[i]}"
                )
            if key in tagged:
                raise InvalidGeometryError(f"facet {key} tagged twice")
            tagged.add(key)
        missing = boundary - tagged
        if missing:
            raise InvalidGeometryError(
                f"untagged boundary facet {sorted(missing)[0]}"
            )


def box_mesh_size(n: int) -> Tuple[int, int]:
    """(vertices, edges) of ``build_box_mesh(dims, n)``, without building it.

    Edges: the 3n(n+1)^2 grid edges, the 3n^2(n+1) face diagonals and the
    n^3 cube diagonals of the Kuhn subdivision.
    """
    return (n + 1) ** 3, 3 * n * (n + 1) ** 2 + 3 * n**2 * (n + 1) + n**3


def build_box_mesh(
    dims: Tuple[float, float, float],
    n: int,
    partition: Union[str, Dict[str, str]] = "T",
) -> Mesh:
    """Structured Kuhn mesh of the box [0,dx]x[0,dy]x[0,dz].

    `partition` assigns a tag ('T' or 'N') to each of the six box faces,
    either uniformly (a single letter) or per face via the keys
    x0, x1, y0, y1, z0, z1.
    """
    dims = tuple(float(d) for d in dims)
    if any(d <= 0 for d in dims):
        raise InvalidGeometryError(f"box dims must be positive, got {dims}")
    if n < 1:
        raise InvalidGeometryError(f"need at least one subdivision, got {n}")
    if isinstance(partition, str):
        partition = {f: partition for f in BOX_FACES}
    for f in BOX_FACES:
        if partition.get(f) not in ("T", "N"):
            raise InvalidGeometryError(f"face {f} must be tagged 'T' or 'N'")

    m = n + 1
    grid = np.arange(m)
    ii, jj, kk = np.meshgrid(grid, grid, grid, indexing="ij")
    vertices = np.stack(
        [ii.ravel() * dims[0] / n, jj.ravel() * dims[1] / n, kk.ravel() * dims[2] / n],
        axis=1,
    )

    def vid(i, j, k):
        return (i * m + j) * m + k

    tets = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                base = np.array([i, j, k])
                for perm in _KUHN_PERMS:
                    path = [base.copy()]
                    p = base.copy()
                    for ax in perm:
                        p = p.copy()
                        p[ax] += 1
                        path.append(p)
                    idx = [vid(*q) for q in path]
                    verts = np.array([vertices[t] for t in idx])
                    if np.linalg.det(verts[1:] - verts[0]) < 0:
                        idx[2], idx[3] = idx[3], idx[2]
                    tets.append(idx)
    tets = np.array(tets, dtype=int)

    # boundary facets: those appearing once, tagged by the box face they lie on
    counts: Dict[Tuple[int, int, int], Tuple[int, Tuple[int, ...]]] = {}
    seen: Dict[Tuple[int, int, int], int] = {}
    for it, tet in enumerate(tets):
        for tri in TET_FACE_TRIPLES:
            key = tuple(sorted(tet[list(tri)]))
            seen[key] = seen.get(key, 0) + 1
            counts[key] = (it, key)
    bf_verts = []
    bf_tags = []
    bf_tets = []
    for key, cnt in seen.items():
        if cnt != 1:
            continue
        it, tri = counts[key]
        pts = vertices[list(tri)]
        face = None
        for ax, name0, name1 in ((0, "x0", "x1"), (1, "y0", "y1"), (2, "z0", "z1")):
            if np.all(np.abs(pts[:, ax]) < 1e-14):
                face = name0
            elif np.all(np.abs(pts[:, ax] - dims[ax]) < 1e-14):
                face = name1
        if face is None:
            raise InvalidGeometryError(f"boundary facet {tri} not on a box face")
        bf_verts.append(tri)
        bf_tags.append(partition[face])
        bf_tets.append(it)
    order = np.lexsort(np.array(bf_verts).T[::-1])
    bf_verts = [bf_verts[i] for i in order]
    bf_tags = [bf_tags[i] for i in order]
    bf_tets = [bf_tets[i] for i in order]

    return Mesh(vertices, tets, np.array(bf_verts), bf_tags, np.array(bf_tets))


def save_mesh(mesh: Mesh, path: str):
    """Write a mesh in the ``tetmesh v1`` text format."""
    with open(path, "w") as f:
        f.write("tetmesh v1\n")
        f.write(f"vertices {mesh.num_vertices()}\n")
        for v in mesh.vertices:
            f.write(f"{float(v[0])!r} {float(v[1])!r} {float(v[2])!r}\n")
        f.write(f"tets {mesh.num_tets()}\n")
        for t in mesh.tets:
            f.write(f"{t[0]} {t[1]} {t[2]} {t[3]}\n")
        f.write(f"bfacets {len(mesh.bfacet_vertices)}\n")
        for tri, tag in zip(mesh.bfacet_vertices, mesh.bfacet_tags):
            f.write(f"{tri[0]} {tri[1]} {tri[2]} {tag}\n")


def load_mesh(path: str) -> Mesh:
    """Read a ``tetmesh v1`` file; validation runs on construction."""
    with open(path) as f:
        raw = f.readlines()
    lines = []
    for lineno, line in enumerate(raw, start=1):
        stripped = line.split("#", 1)[0].strip()
        if stripped:
            lines.append((lineno, stripped))
    pos = 0

    def take():
        nonlocal pos
        if pos >= len(lines):
            raise MeshFormatError(f"{path}: unexpected end of file")
        item = lines[pos]
        pos += 1
        return item

    lineno, header = take()
    if header != "tetmesh v1":
        raise MeshFormatError(f"{path}:{lineno}: expected 'tetmesh v1' header")

    def section(name):
        lineno, line = take()
        parts = line.split()
        if len(parts) != 2 or parts[0] != name:
            raise MeshFormatError(f"{path}:{lineno}: expected '{name} <count>'")
        try:
            return int(parts[1])
        except ValueError:
            raise MeshFormatError(f"{path}:{lineno}: bad count {parts[1]!r}")

    nv = section("vertices")
    vertices = np.empty((nv, 3))
    for i in range(nv):
        lineno, line = take()
        parts = line.split()
        if len(parts) != 3:
            raise MeshFormatError(f"{path}:{lineno}: expected 3 coordinates")
        try:
            vertices[i] = [float(p) for p in parts]
        except ValueError:
            raise MeshFormatError(f"{path}:{lineno}: bad coordinate")

    nt = section("tets")
    tets = np.empty((nt, 4), dtype=int)
    for i in range(nt):
        lineno, line = take()
        parts = line.split()
        if len(parts) != 4:
            raise MeshFormatError(f"{path}:{lineno}: expected 4 vertex indices")
        try:
            tets[i] = [int(p) for p in parts]
        except ValueError:
            raise MeshFormatError(f"{path}:{lineno}: bad index")

    nb = section("bfacets")
    bf_verts = np.empty((nb, 3), dtype=int)
    bf_tags = []
    for i in range(nb):
        lineno, line = take()
        parts = line.split()
        if len(parts) != 4:
            raise MeshFormatError(
                f"{path}:{lineno}: expected 3 indices and a tag letter"
            )
        try:
            bf_verts[i] = [int(p) for p in parts[:3]]
        except ValueError:
            raise MeshFormatError(f"{path}:{lineno}: bad index")
        bf_tags.append(parts[3])

    # recover owning tets
    owner = {}
    for it, tet in enumerate(tets):
        for tri in TET_FACE_TRIPLES:
            key = tuple(sorted(tet[list(tri)]))
            owner.setdefault(key, []).append(it)
    bf_tets = np.empty(nb, dtype=int)
    for i in range(nb):
        key = tuple(sorted(bf_verts[i]))
        owners = owner.get(key, [])
        if len(owners) != 1:
            raise InvalidGeometryError(
                f"facet {key} owned by {len(owners)} tets, expected 1"
            )
        bf_tets[i] = owners[0]

    return Mesh(vertices, tets, bf_verts, bf_tags, bf_tets)
