"""Tetrahedral meshes of the reference domain with tagged boundary partition.

Structured box meshes are produced with the Kuhn (Freudenthal) triangulation,
which is deterministic, conforming, and self-similar under dyadic refinement.
Arbitrary meshes come in through the ``tetmesh v1`` text format.
"""

from dataclasses import InitVar, dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .errors import InvalidGeometryError, MeshFormatError
from .transforms import det_adjugate

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
    measure (1/6 for the tetrahedron, 1/2 for the triangle); ``order`` is the
    total degree the rule integrates exactly.
    """

    points: np.ndarray
    weights: np.ndarray
    order: int


# Symmetric 14-point rule (Jaśkowiec & Sukumar, IJNME 2020), exact to degree
# 5, with all points interior and all weights positive: two vertex orbits
# (a, a, a, 1-3a) and one edge orbit (b, b, 1/2-b, 1/2-b). The constants
# solve the degree-5 moment equations (see the tests).
_T14_VERTEX = (0.09273525031089122, 0.3108859192633006)
_T14_EDGE = 0.04550370412564965
_T14_WEIGHTS = (0.012248840519393659, 0.018781320953002643, 0.007091003462846911)


def tet_quadrature(order: int = 2) -> QuadratureRule:
    """Quadrature on the reference tetrahedron, exact for polynomials of
    total degree <= order: the 4-point rule for order 2, or the 14-point
    rule for orders 3 and 4. Weights are positive and sum to 1/6."""
    if not 2 <= order <= 4:
        raise InvalidGeometryError(f"tet quadrature order {order} not supported")
    if order == 2:
        a = (5.0 + 3.0 * np.sqrt(5.0)) / 20.0
        b = (5.0 - np.sqrt(5.0)) / 20.0
        pts = np.full((4, 4), b)
        np.fill_diagonal(pts, a)
        return QuadratureRule(pts, np.full(4, 1.0 / 24.0), 2)
    vertex = [np.full((4, 4), a) + (1.0 - 4.0 * a) * np.eye(4) for a in _T14_VERTEX]
    edge = np.full((6, 4), 0.5 - _T14_EDGE)
    edge[np.arange(6)[:, None], TET_EDGE_PAIRS] = _T14_EDGE
    return QuadratureRule(np.vstack(vertex + [edge]), np.repeat(_T14_WEIGHTS, (4, 4, 6)), 5)


def triangle_quadrature(order: int = 2) -> QuadratureRule:
    """Quadrature on the reference triangle, exact to total degree <= order:
    the 3-point rule for order 2, or the 6-point rule for orders 3 and 4.
    Weights are positive and sum to 1/2."""
    if not 2 <= order <= 4:
        raise InvalidGeometryError(f"triangle quadrature order {order} not supported")
    if order == 2:
        pts = np.array(
            [[2 / 3, 1 / 6, 1 / 6], [1 / 6, 2 / 3, 1 / 6], [1 / 6, 1 / 6, 2 / 3]]
        )
        return QuadratureRule(pts, np.full(3, 1.0 / 6.0), 2)
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

    ``tets`` are stored with positive signed volume. ``bfacet_tets``, the
    tet owning each boundary facet, is derived by `validate`. The edges are
    derived on first use, as only edge elements read them: ``edges`` holds
    each edge once, oriented low index -> high index, in lexicographic
    order, and ``tet_edges``/``tet_edge_signs`` give, per tet, the global
    edge index of each local edge and the sign relating the local
    orientation to the global one. Tet volumes and barycentric gradients
    are likewise computed once, on first use.
    """

    vertices: np.ndarray                 # (nv, 3)
    tets: np.ndarray                     # (nt, 4) int
    bfacet_vertices: np.ndarray          # (nb, 3) int
    bfacet_tags: List[str]               # 'T' or 'N'
    bfacet_tets: np.ndarray = field(init=False)     # (nb,) owning tet index
    # facet_incidence(tets), when the caller has computed it already
    incidence: InitVar[Optional[tuple]] = None

    def __post_init__(self, incidence):
        self.vertices = np.asarray(self.vertices, dtype=float)
        self.tets = np.asarray(self.tets, dtype=int)
        self.bfacet_vertices = np.asarray(self.bfacet_vertices, dtype=int)
        self.bfacet_tets = self.validate(incidence)

    # -- edges, derived on first use -------------------------------------------

    @cached_property
    def _edge_numbering(self):
        """(edges (ne, 2), tet_edges (nt, 6)): the distinct low -> high
        vertex pairs of the tets' edges in lexicographic order, and the index
        of each tet's local edges among them."""
        pairs = np.sort(self.tets[:, TET_EDGE_PAIRS], axis=2).reshape(-1, 2)
        edges, _, inverse, _ = _unique_rows(pairs)
        return edges, inverse.reshape(-1, len(TET_EDGE_PAIRS))

    @property
    def edges(self) -> np.ndarray:
        return self._edge_numbering[0]

    @property
    def tet_edges(self) -> np.ndarray:
        return self._edge_numbering[1]

    @cached_property
    def tet_edge_signs(self) -> np.ndarray:
        """(nt, 6): +1 where a local edge runs low -> high, -1 otherwise."""
        pairs = self.tets[:, TET_EDGE_PAIRS]
        return np.where(pairs[:, :, 0] < pairs[:, :, 1], 1, -1)

    # -- geometric quantities ------------------------------------------------

    @cached_property
    def _edge_frames(self):
        """det and adjugate of each tet's edge matrix (rows v_k - v_0)."""
        v = self.vertices[self.tets]
        return det_adjugate(v[:, 1:] - v[:, :1])

    def tet_volumes(self, tets=slice(None)) -> np.ndarray:
        """Volumes of the tets `tets` (all by default)."""
        return self._edge_frames[0][tets] / 6.0

    @cached_property
    def barycentric_gradients(self) -> np.ndarray:
        """Constant barycentric gradients per tet: (nt, 4, 3), [t, i] = grad lambda_i."""
        det, adj = self._edge_frames
        # grad lambda_k is column k of the inverse edge matrix, k = 1, 2, 3
        g = np.swapaxes(adj, 1, 2) / det[:, None, None]
        return np.concatenate([-g.sum(axis=1, keepdims=True), g], axis=1)

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

    def _tagged_facets(self, tag: str) -> np.ndarray:
        return self.bfacet_vertices[np.asarray(self.bfacet_tags, dtype=str) == tag]

    def boundary_vertex_set(self, tag: str) -> np.ndarray:
        """Sorted vertex indices lying on the closure of the facets with `tag`."""
        return np.unique(self._tagged_facets(tag))

    def boundary_edge_set(self, tag: str) -> np.ndarray:
        """Sorted global edge indices contained in a facet with `tag`."""
        pairs = self._tagged_facets(tag)[:, [[0, 1], [0, 2], [1, 2]]].reshape(-1, 2)
        return np.unique(_row_index(self.edges, pairs))

    # -- validation ----------------------------------------------------------

    def validate(self, incidence=None) -> np.ndarray:
        """Check the mesh; returns the tet owning each boundary facet."""
        nv = len(self.vertices)
        for name, rows in (("tet", self.tets), ("boundary facet", self.bfacet_vertices)):
            _raise_first(np.any((rows < 0) | (rows >= nv), axis=1), lambda i: (
                f"{name} {i} has a vertex index outside [0, {nv})"))
        _raise_first(np.bincount(self.tets.ravel(), minlength=nv) == 0,
                     lambda i: f"vertex {i} belongs to no tet")
        vols = self.tet_volumes()
        _raise_first(vols <= 0,
                     lambda i: f"tet {i} has non-positive signed volume {vols[i]:g}")
        facets, counts, owners = facet_incidence(self.tets) if incidence is None else incidence
        _raise_first(counts > 2, lambda i: (
            f"facet {_triple(facets[i])} shared by more than two tets"))
        tris = self.bfacet_vertices
        at = _row_index(facets, tris)
        # a facet absent from the tets reads count 0 and owner -1
        _raise_first(np.append(counts, 0)[at] != 1, lambda i: (
            f"tagged facet {i} {_triple(tris[i])} is not a boundary facet"))
        _raise_first(~np.isin(np.asarray(self.bfacet_tags, dtype=str), ("T", "N")),
                     lambda i: f"facet {i} has unknown tag {self.bfacet_tags[i]!r}")
        repeated = np.ones(len(at), dtype=bool)
        repeated[np.unique(at, return_index=True)[1]] = False
        _raise_first(repeated, lambda i: f"facet {_triple(facets[at[i]])} tagged twice")
        untagged = counts == 1
        untagged[at] = False
        _raise_first(untagged, lambda i: f"untagged boundary facet {_triple(facets[i])}")
        return owners[at]


def _raise_first(bad: np.ndarray, message):
    """Raise InvalidGeometryError(message(i)) for the first true entry i of `bad`."""
    hits = np.flatnonzero(bad)
    if len(hits):
        raise InvalidGeometryError(message(hits[0]))


def _triple(tri) -> str:
    return str(tuple(np.asarray(tri).tolist()))


def _unique_rows(rows: np.ndarray):
    """Distinct rows of an integer array in lexicographic order, with the
    first occurrence, the inverse map and the count of each, as
    ``np.unique(rows, axis=0, ...)`` returns them."""
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    start = np.ones(len(rows), dtype=bool)
    start[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    inverse = np.empty(len(rows), dtype=int)
    inverse[order] = np.cumsum(start) - 1
    return ordered[start], order[start], inverse, np.bincount(inverse)


def facet_incidence(tets: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct facets of `tets` with their incidence.

    Returns the facets as sorted vertex triples in lexicographic order, the
    number of tets sharing each, and the tet owning each (the first of the
    two, for an interior facet).
    """
    faces = np.sort(tets[:, TET_FACE_TRIPLES], axis=2).reshape(-1, 3)
    facets, first, _, counts = _unique_rows(faces)
    return facets, counts, first // len(TET_FACE_TRIPLES)


def _row_index(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Index in `table`, of distinct sorted rows, of each row of `rows`, read
    as a vertex set; -1 where it is absent. The stable sort of `_unique_rows`
    puts a table row first among the rows equal to it."""
    _, first, inverse, _ = _unique_rows(np.vstack([table, np.sort(rows, axis=1)]))
    at = first[inverse[len(table):]]
    return np.where(at < len(table), at, -1)


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
    unknown = sorted(set(partition) - set(BOX_FACES))
    if unknown:
        raise InvalidGeometryError(f"partition names no box face {unknown}")
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

    # Kuhn path of each permutation from the cell's low corner; an odd
    # permutation gives a negatively oriented path, fixed by swapping its
    # last two vertices (the box scaling keeps the sign)
    steps = np.cumsum(np.eye(3, dtype=int)[list(_KUHN_PERMS)], axis=1)
    paths = np.concatenate([np.zeros((len(_KUHN_PERMS), 1, 3), dtype=int), steps], axis=1)
    odd = det_adjugate(steps)[0] < 0
    paths[odd] = paths[odd][:, [0, 1, 3, 2]]
    cells = np.stack([ii, jj, kk], axis=-1)[:n, :n, :n].reshape(-1, 1, 1, 3)
    tets = ((cells + paths) @ np.array([m * m, m, 1])).reshape(-1, 4)

    # boundary facets: those of one tet, tagged by the grid index, 0 or n,
    # that their three vertices share (on exactly one axis)
    incidence = facets, counts, _ = facet_incidence(tets)
    bf_verts = facets[counts == 1]
    index = np.stack(np.unravel_index(bf_verts, (m, m, m)), axis=-1)   # (nb, 3, 3)
    axis = np.all(index == index[:, :1], axis=1).argmax(axis=1)
    face = 2 * axis + (index[np.arange(len(bf_verts)), 0, axis] == n)
    bf_tags = np.array([partition[f] for f in BOX_FACES])[face].tolist()

    return Mesh(vertices, tets, bf_verts, bf_tags, incidence=incidence)


def save_mesh(mesh: Mesh, path: str):
    """Write a mesh in the ``tetmesh v1`` text format."""
    with open(path, "w") as f:
        f.write("tetmesh v1\n")
        f.write(f"vertices {len(mesh.vertices)}\n")
        for v in mesh.vertices:
            f.write(f"{float(v[0])!r} {float(v[1])!r} {float(v[2])!r}\n")
        f.write(f"tets {len(mesh.tets)}\n")
        np.savetxt(f, mesh.tets, fmt="%d")
        f.write(f"bfacets {len(mesh.bfacet_vertices)}\n")
        rows = np.column_stack([mesh.bfacet_vertices.astype(str),
                                np.asarray(mesh.bfacet_tags, dtype=str)])
        np.savetxt(f, rows, fmt="%s")


def load_mesh(path: str) -> Mesh:
    """Read a ``tetmesh v1`` file; validation runs on construction."""
    try:
        with open(path) as f:
            raw = f.readlines()
    except OSError as exc:
        raise MeshFormatError(f"{path}: cannot read mesh: {exc}")
    lines = iter([(lineno, text) for lineno, line in enumerate(raw, start=1)
                  if (text := line.split("#", 1)[0].strip())])

    def take():
        item = next(lines, None)
        if item is None:
            raise MeshFormatError(f"{path}: unexpected end of file")
        return item

    lineno, header = take()
    if header != "tetmesh v1":
        raise MeshFormatError(f"{path}: line {lineno}: expected 'tetmesh v1' header")

    def section(name, width, parse, expected, bad):
        """The rows of the section `name`, each `width` fields read by `parse`;
        `expected` and `bad` describe a row of another width and one that
        does not parse."""
        lineno, line = take()
        parts = line.split()
        if len(parts) != 2 or parts[0] != name:
            raise MeshFormatError(f"{path}: line {lineno}: expected '{name} <count>'")
        try:
            count = int(parts[1])
            if count < 0:
                raise ValueError(count)
        except ValueError:
            raise MeshFormatError(f"{path}: line {lineno}: bad count {parts[1]!r}")
        rows = []
        for _ in range(count):
            lineno, line = take()
            parts = line.split()
            if len(parts) != width:
                raise MeshFormatError(f"{path}: line {lineno}: {expected}")
            try:
                rows.append(parse(parts))
            except ValueError:
                raise MeshFormatError(f"{path}: line {lineno}: {bad}")
        return rows

    vertices = np.array(section("vertices", 3, lambda parts: [float(p) for p in parts],
                                "expected 3 coordinates", "bad coordinate")).reshape(-1, 3)
    tets = np.array(section("tets", 4, lambda parts: [int(p) for p in parts],
                            "expected 4 vertex indices", "bad index"), dtype=int).reshape(-1, 4)
    bfacets = section("bfacets", 4, lambda parts: [int(p) for p in parts[:3]] + parts[3:],
                      "expected 3 indices and a tag letter", "bad index")
    bf_verts = np.array([row[:3] for row in bfacets], dtype=int).reshape(-1, 3)
    return Mesh(vertices, tets, bf_verts, [row[3] for row in bfacets])
