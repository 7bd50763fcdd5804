"""Quadrature exactness, box mesh construction, validation, and mesh file
round-trips."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectra_shape import cli
from spectra_shape.errors import InvalidGeometryError, MeshFormatError
from spectra_shape.geometry import (
    BOX_FACES,
    TET_EDGE_PAIRS,
    _T14_EDGE,
    _T14_VERTEX,
    _T14_WEIGHTS,
    Mesh,
    box_mesh_size,
    build_box_mesh,
    load_mesh,
    save_mesh,
    tet_quadrature,
    triangle_quadrature,
)

MIXED = {"x0": "T", "x1": "N", "y0": "N", "y1": "T", "z0": "T", "z1": "N"}

MESH_ARRAYS = ("vertices", "tets", "bfacet_vertices", "bfacet_tags", "bfacet_tets",
               "edges", "tet_edges", "tet_edge_signs")


def reference_box_mesh(dims, n, partition):
    """Kuhn box mesh built by walking every cell and every tet face in Python,
    with the owning tet of each boundary facet found by the same walk.

    The loop form the vectorised ``build_box_mesh`` must reproduce exactly.
    """
    dims = tuple(float(d) for d in dims)
    if isinstance(partition, str):
        partition = {f: partition for f in ("x0", "x1", "y0", "y1", "z0", "z1")}
    m = n + 1
    ii, jj, kk = np.meshgrid(np.arange(m), np.arange(m), np.arange(m), indexing="ij")
    vertices = np.stack(
        [ii.ravel() * dims[0] / n, jj.ravel() * dims[1] / n, kk.ravel() * dims[2] / n],
        axis=1,
    )
    tets = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for perm in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
                    p = [i, j, k]
                    path = [list(p)]
                    for ax in perm:
                        p[ax] += 1
                        path.append(list(p))
                    idx = [(a * m + b) * m + c for a, b, c in path]
                    verts = vertices[idx]
                    if np.linalg.det(verts[1:] - verts[0]) < 0:
                        idx[2], idx[3] = idx[3], idx[2]
                    tets.append(idx)
    seen, owner = {}, {}
    for it, tet in enumerate(tets):
        for tri in ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)):
            key = tuple(sorted(tet[t] for t in tri))
            seen[key] = seen.get(key, 0) + 1
            owner[key] = it
    bf_verts, bf_tags, bf_tets = [], [], []
    for key in sorted(k for k, c in seen.items() if c == 1):
        pts = vertices[list(key)]
        face = None
        for ax, name0, name1 in ((0, "x0", "x1"), (1, "y0", "y1"), (2, "z0", "z1")):
            if np.all(np.abs(pts[:, ax]) < 1e-14):
                face = name0
            elif np.all(np.abs(pts[:, ax] - dims[ax]) < 1e-14):
                face = name1
        bf_verts.append(key)
        bf_tags.append(partition[face])
        bf_tets.append(owner[key])
    return Mesh(vertices, np.array(tets), np.array(bf_verts), bf_tags), np.array(bf_tets)


def reference_boundary_edges(mesh, tag):
    """Sorted indices of the edges of the facets tagged `tag`, by a dict walk."""
    lookup = {tuple(e): i for i, e in enumerate(mesh.edges.tolist())}
    keys = set()
    for tri, t in zip(mesh.bfacet_vertices.tolist(), mesh.bfacet_tags):
        if t == tag:
            for a, b in ((0, 1), (0, 2), (1, 2)):
                keys.add((min(tri[a], tri[b]), max(tri[a], tri[b])))
    return sorted(lookup[k] for k in keys)


def tet_monomial_integral(a, b, c):
    """Exact integral of x^a y^b z^c over the reference tetrahedron."""
    return (
        math.factorial(a) * math.factorial(b) * math.factorial(c)
        / math.factorial(a + b + c + 3)
    )


def tri_monomial_integral(a, b):
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


class TestQuadrature:
    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_tet_rule_exact_for_monomials(self, order):
        rule = tet_quadrature(order)
        # orders 3 and 4 share the 14-point rule, exact to degree 5
        assert rule.order == (5 if order in (3, 4) else order)
        # barycentric points: cartesian coordinates are lambda_1..lambda_3
        xyz = rule.points[:, 1:]
        degree = rule.order
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                for c in range(degree + 1 - a - b):
                    val = np.sum(
                        rule.weights * xyz[:, 0] ** a * xyz[:, 1] ** b * xyz[:, 2] ** c
                    )
                    exact = tet_monomial_integral(a, b, c)
                    assert val == pytest.approx(exact, rel=1e-13), (order, a, b, c)

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_tet_rule_positive_weights(self, order):
        rule = tet_quadrature(order)
        assert np.all(rule.weights > 0)
        assert np.sum(rule.weights) == pytest.approx(1.0 / 6.0, rel=1e-14)

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_tet_rule_points_interior(self, order):
        points = tet_quadrature(order).points
        assert np.all(points > 0)
        np.testing.assert_allclose(points.sum(axis=1), 1.0, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_tet_rule_invariant_under_vertex_permutations(self, order):
        rule = tet_quadrature(order)

        def rows(points):
            table = np.column_stack([points, rule.weights])
            return table[np.lexsort(table.T[::-1])]

        for perm in itertools.permutations(range(4)):
            np.testing.assert_allclose(rows(rule.points[:, perm]), rows(rule.points),
                                       rtol=0, atol=1e-15)

    def test_14_point_constants_solve_the_moment_equations(self):
        """Newton on the degree-5 moment equations of two vertex orbits and
        one edge orbit, started from 6-digit values, lands on the literal
        constants of the rule."""

        def rule(theta):
            a1, a2, b, w1, w2, w3 = theta
            vertex = [np.full((4, 4), a) + (1 - 4 * a) * np.eye(4) for a in (a1, a2)]
            edge = np.full((6, 4), 0.5 - b)
            edge[np.arange(6)[:, None], TET_EDGE_PAIRS] = b
            weights = np.concatenate([np.full(4, w1), np.full(4, w2), np.full(6, w3)])
            return np.vstack(vertex + [edge]), weights

        powers = [(a, b, c) for a in range(6) for b in range(6 - a) for c in range(6 - a - b)]
        exact = np.array([tet_monomial_integral(*p) for p in powers])

        def residual(theta):
            points, weights = rule(theta)
            xyz = points[:, 1:]
            return np.array([np.sum(weights * xyz[:, 0] ** a * xyz[:, 1] ** b * xyz[:, 2] ** c)
                             for a, b, c in powers]) - exact

        theta = np.array([0.092735, 0.310886, 0.045504, 0.0122488, 0.0187813, 0.00709100])
        h = 1e-30
        for _ in range(8):
            # complex-step Jacobian: exact to round-off for polynomials
            jac = np.column_stack([residual(theta + 1j * h * e).imag / h for e in np.eye(6)])
            theta = theta - np.linalg.lstsq(jac, residual(theta), rcond=None)[0]
        literal = np.array([*_T14_VERTEX, _T14_EDGE, *_T14_WEIGHTS])
        np.testing.assert_allclose(theta, literal, rtol=0, atol=1e-14)
        points, weights = rule(literal)
        np.testing.assert_array_equal(np.sort(weights), np.sort(tet_quadrature(4).weights))

    @pytest.mark.parametrize("order", [2, 4])
    def test_triangle_rule_exact_for_monomials(self, order):
        rule = triangle_quadrature(order)
        xy = rule.points[:, 1:]
        for a in range(order + 1):
            for b in range(order + 1 - a):
                val = np.sum(rule.weights * xy[:, 0] ** a * xy[:, 1] ** b)
                assert val == pytest.approx(tri_monomial_integral(a, b), rel=1e-13)

    def test_unsupported_order_raises(self):
        for order in (0, 1, 7):
            with pytest.raises(InvalidGeometryError):
                tet_quadrature(order)
            with pytest.raises(InvalidGeometryError):
                triangle_quadrature(order)


class TestBoxMesh:
    def test_counts(self):
        for n in (1, 2, 3):
            mesh = build_box_mesh((1, 1, 1), n, "T")
            assert len(mesh.vertices) == (n + 1) ** 3
            assert len(mesh.tets) == 6 * n**3
            assert len(mesh.bfacet_vertices) == 12 * n**2

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_closed_form_size(self, n):
        mesh = build_box_mesh((1, 2, 0.5), n, "N")
        assert box_mesh_size(n) == (len(mesh.vertices), len(mesh.edges))

    def test_volumes_sum_to_box(self):
        mesh = build_box_mesh((2.0, 1.0, 0.5), 3, "T")
        assert np.sum(mesh.tet_volumes()) == pytest.approx(1.0, rel=1e-12)
        assert np.all(mesh.tet_volumes() > 0)

    def test_boundary_area(self, cube_n3):
        area = sum(
            cube_n3.facet_geometry(i)[1] for i in range(len(cube_n3.bfacet_vertices))
        )
        assert area == pytest.approx(6.0, rel=1e-12)

    def test_face_partition_tags(self):
        mesh = build_box_mesh((1, 1, 1), 2, {"x0": "T", "x1": "N", "y0": "T",
                                             "y1": "T", "z0": "T", "z1": "T"})
        tags = set(mesh.bfacet_tags)
        assert tags == {"T", "N"}
        # the N face is x=1: 2*n^2 facets
        assert list(mesh.bfacet_tags).count("N") == 8

    @pytest.mark.parametrize("d, n", [(123.457, 9), (123.457, 11), (1000.1, 9),
                                      (7777.77, 5), (7777.77, 7), (7777.77, 10)])
    def test_long_box_faces_tagged(self, d, n):
        """Vertex x coordinates are i*d/n, which at i = n need not equal d:
        each face still carries its 2n^2 facets, tagged by the partition."""
        mesh = build_box_mesh((d, 1, 1), n, MIXED)
        normals, _ = mesh.facet_geometry(np.arange(len(mesh.bfacet_vertices)))
        axis = np.abs(normals).argmax(axis=1)
        face = 2 * axis + (normals[np.arange(len(axis)), axis] > 0)
        tags = np.asarray(mesh.bfacet_tags)
        for f, name in enumerate(BOX_FACES):
            assert np.sum(face == f) == 2 * n**2
            assert set(tags[face == f]) == {MIXED[name]}

    def test_boundary_vertex_set_all_dirichlet(self, cube_n2):
        verts = cube_n2.boundary_vertex_set("T")
        assert len(verts) == 27 - 1  # every vertex except the center

    def test_boundary_edge_set_is_subset_of_edges(self, cube_n2):
        edges = cube_n2.boundary_edge_set("T")
        assert len(edges) > 0
        assert edges.max() < len(cube_n2.edges)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("dims,partition", [
        ((1, 1, 1), "T"), ((1, 1, 1), "N"), ((2.0, 0.7, 1.3), "T"),
        ((1, 1, 1), MIXED), ((0.5, 3.0, 1.1), MIXED),
    ])
    def test_matches_loop_reference(self, n, dims, partition):
        mesh = build_box_mesh(dims, n, partition)
        ref, owners = reference_box_mesh(dims, n, partition)
        assert np.array_equal(mesh.bfacet_tets, owners)
        for name in MESH_ARRAYS:
            got, want = getattr(mesh, name), getattr(ref, name)
            assert np.array_equal(np.asarray(got), np.asarray(want)), name
            assert np.asarray(got).dtype == np.asarray(want).dtype, name
        for tag in ("T", "N"):
            assert mesh.boundary_edge_set(tag).tolist() == reference_boundary_edges(ref, tag)
            assert mesh.boundary_vertex_set(tag).tolist() == sorted(
                {v for tri, t in zip(ref.bfacet_vertices.tolist(), ref.bfacet_tags)
                 if t == tag for v in tri})

    @pytest.mark.parametrize("n, partition", [(1, "T"), (2, MIXED), (3, "N")])
    def test_edges_derived_on_first_use(self, n, partition):
        """The edges are not derived with the mesh; on first use they are the
        distinct low -> high vertex pairs of the tets in lexicographic order,
        with each tet's local edges numbered and signed by a dict walk."""
        mesh = build_box_mesh((1, 1.5, 0.5), n, partition)
        assert not {"_edge_numbering", "tet_edge_signs"} & set(vars(mesh))
        pairs = sorted({tuple(sorted(p)) for tet in mesh.tets.tolist()
                        for p in itertools.combinations(tet, 2)})
        assert mesh.edges.tolist() == [list(p) for p in pairs]
        index = {p: i for i, p in enumerate(pairs)}
        assert mesh.tet_edges.tolist() == [
            [index[tuple(sorted((tet[a], tet[b])))] for a, b in TET_EDGE_PAIRS]
            for tet in mesh.tets.tolist()]
        assert mesh.tet_edge_signs.tolist() == [
            [1 if tet[a] < tet[b] else -1 for a, b in TET_EDGE_PAIRS]
            for tet in mesh.tets.tolist()]
        assert mesh.edges.dtype == mesh.tet_edges.dtype == mesh.tet_edge_signs.dtype == int
        assert mesh.edges is mesh.edges and mesh.tet_edge_signs is mesh.tet_edge_signs

    def test_interface_vertices_go_to_dirichlet_side(self):
        # vertices on the closure of the T part are constrained even where
        # the N face meets them
        mesh = build_box_mesh((1, 1, 1), 2, {"x0": "N", "x1": "T", "y0": "T",
                                             "y1": "T", "z0": "T", "z1": "T"})
        tverts = set(mesh.boundary_vertex_set("T"))
        # the x=0 face corner vertices touch T faces, so they are in the set
        corner = 0  # vertex (0,0,0)
        assert corner in tverts


def mesh_parts(mesh):
    """The constructor arguments of `mesh`, as fresh mutable copies."""
    return dict(
        vertices=mesh.vertices.copy(),
        tets=mesh.tets.copy(),
        bfacet_vertices=mesh.bfacet_vertices.copy(),
        bfacet_tags=list(mesh.bfacet_tags),
    )


def interior_facet(mesh):
    """A facet of tet 0 that no boundary facet covers, as a sorted triple."""
    boundary = {tuple(sorted(tri)) for tri in mesh.bfacet_vertices.tolist()}
    for tri in ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)):
        key = tuple(sorted(mesh.tets[0, list(tri)].tolist()))
        if key not in boundary:
            return key
    raise AssertionError("tet 0 has no interior facet")


class TestMeshValidation:
    def test_dropped_facet_is_untagged(self, cube_n2):
        parts = mesh_parts(cube_n2)
        dropped = tuple(parts["bfacet_vertices"][0].tolist())
        parts["bfacet_vertices"] = parts["bfacet_vertices"][1:]
        parts["bfacet_tags"] = parts["bfacet_tags"][1:]
        with pytest.raises(InvalidGeometryError, match="untagged boundary facet") as err:
            Mesh(**parts)
        assert str(err.value) == f"untagged boundary facet {dropped}"

    def test_unknown_tag(self, cube_n2):
        parts = mesh_parts(cube_n2)
        parts["bfacet_tags"][3] = "X"
        with pytest.raises(InvalidGeometryError) as err:
            Mesh(**parts)
        assert str(err.value) == "facet 3 has unknown tag 'X'"

    def test_facet_tagged_twice(self, cube_n2):
        parts = mesh_parts(cube_n2)
        twice = tuple(parts["bfacet_vertices"][5].tolist())
        parts["bfacet_vertices"] = np.vstack([parts["bfacet_vertices"], [twice]])
        parts["bfacet_tags"].append("N")
        with pytest.raises(InvalidGeometryError) as err:
            Mesh(**parts)
        assert str(err.value) == f"facet {twice} tagged twice"

    def test_interior_facet_tagged(self, cube_n2):
        parts = mesh_parts(cube_n2)
        inner = interior_facet(cube_n2)
        parts["bfacet_vertices"][4] = inner
        with pytest.raises(InvalidGeometryError) as err:
            Mesh(**parts)
        assert str(err.value) == f"tagged facet 4 {inner} is not a boundary facet"

    def test_facet_shared_by_three_tets(self):
        # tets 0 and 2 both sit above facet (0, 1, 2), tet 1 below it
        verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1.0],
                          [0, 0, -1.0], [0.2, 0.2, 1.0]])
        tets = np.array([[0, 1, 2, 3], [0, 2, 1, 4], [0, 1, 2, 5]])
        with pytest.raises(InvalidGeometryError) as err:
            Mesh(verts, tets, np.empty((0, 3), dtype=int), [])
        assert str(err.value) == "facet (0, 1, 2) shared by more than two tets"

    @pytest.mark.parametrize("part", ["tets", "bfacet_vertices"])
    @pytest.mark.parametrize("bad", [-1, "nv"])
    def test_vertex_index_out_of_range(self, cube_n2, part, bad):
        parts = mesh_parts(cube_n2)
        nv = len(parts["vertices"])
        parts[part][3, 1] = nv if bad == "nv" else bad
        with pytest.raises(InvalidGeometryError) as err:
            Mesh(**parts)
        name = "tet" if part == "tets" else "boundary facet"
        assert str(err.value) == f"{name} 3 has a vertex index outside [0, {nv})"

    def test_unused_vertex_rejected(self, cube_n2):
        parts = mesh_parts(cube_n2)
        parts["vertices"] = np.vstack([parts["vertices"], [5.0, 5.0, 5.0]])
        with pytest.raises(InvalidGeometryError) as err:
            Mesh(**parts)
        assert str(err.value) == "vertex 27 belongs to no tet"

    def test_negative_volume_rejected(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1.0]])
        tets = np.array([[0, 2, 1, 3]])  # inverted orientation
        with pytest.raises(InvalidGeometryError):
            Mesh(
                vertices=verts,
                tets=tets,
                bfacet_vertices=np.empty((0, 3), dtype=int),
                bfacet_tags=np.empty(0, dtype=object),
            )


class TestMeshIO:
    def test_round_trip(self, tmp_path, cube_n2):
        path = tmp_path / "cube.tetmesh"
        save_mesh(cube_n2, str(path))
        back = load_mesh(str(path))
        np.testing.assert_allclose(back.vertices, cube_n2.vertices)
        np.testing.assert_array_equal(back.tets, cube_n2.tets)
        np.testing.assert_array_equal(back.bfacet_vertices, cube_n2.bfacet_vertices)
        assert list(back.bfacet_tags) == list(cube_n2.bfacet_tags)

    def test_missing_file_is_a_format_error(self, tmp_path):
        with pytest.raises(MeshFormatError, match="cannot read mesh"):
            load_mesh(str(tmp_path / "absent.tetmesh"))

    def test_bad_header_reports_line(self, tmp_path, monkeypatch):
        # a relative path, so that the word "line" can only come from the message
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.tetmesh").write_text("not a mesh\n")
        with pytest.raises(MeshFormatError) as err:
            load_mesh("bad.tetmesh")
        assert str(err.value).startswith("bad.tetmesh: line 1: ")

    def test_interior_facet_in_file(self, tmp_path, cube_n2, capsys):
        path = tmp_path / "inner.tetmesh"
        save_mesh(cube_n2, str(path))
        inner = interior_facet(cube_n2)
        lines = path.read_text().splitlines()
        first = lines.index(f"bfacets {len(cube_n2.bfacet_vertices)}") + 1
        lines[first] = "{} {} {} T".format(*inner)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidGeometryError) as err:
            load_mesh(str(path))
        assert str(err.value) == f"tagged facet 0 {inner} is not a boundary facet"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "problem": "helmholtz",
            "mesh": {"type": "file", "path": str(path)},
            "family": {"kind": "scaling"},
        }))
        assert cli.main(["eig", "--config", str(config)]) == cli.EXIT_CONFIG
        assert f"tagged facet 0 {inner} is not a boundary facet" in capsys.readouterr().err

    @pytest.mark.parametrize("problem", ["helmholtz", "maxwell"])
    def test_unused_vertex_in_file_exit_code(self, tmp_path, capsys, problem):
        """A vertex outside every tet is malformed input, not a numerical
        failure of the singular mass matrix it would give."""
        path = tmp_path / "one-tet.tetmesh"
        path.write_text("tetmesh v1\nvertices 5\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n5 5 5\n"
                        "tets 1\n0 1 2 3\nbfacets 4\n1 2 3 N\n0 2 3 N\n0 1 3 N\n0 1 2 N\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"problem": problem,
                                      "mesh": {"type": "file", "path": str(path)}}))
        assert cli.main(["eig", "--config", str(config)]) == cli.EXIT_CONFIG
        assert "vertex 4 belongs to no tet" in capsys.readouterr().err

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 3),
        partition=st.sampled_from(["T", "N", "mixed"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_relabelled_round_trip(self, tmp_path_factory, n, partition, seed):
        """Relabel vertices, shuffle tets, facets and each facet's vertex order,
        then save and load: the derived owners follow the tets and validation
        passes."""
        mesh = build_box_mesh((1.0, 0.8, 1.3), n, MIXED if partition == "mixed" else partition)
        rng = np.random.default_rng(seed)
        relabel = rng.permutation(len(mesh.vertices))
        tet_order = rng.permutation(len(mesh.tets))
        facet_order = rng.permutation(len(mesh.bfacet_vertices))
        new_tet = np.argsort(tet_order)
        vertices = np.empty_like(mesh.vertices)
        vertices[relabel] = mesh.vertices
        tris = relabel[mesh.bfacet_vertices[facet_order]]
        tris = np.take_along_axis(tris, np.argsort(rng.random(tris.shape), axis=1), axis=1)
        shuffled = Mesh(
            vertices,
            relabel[mesh.tets[tet_order]],
            tris,
            [mesh.bfacet_tags[i] for i in facet_order],
        )
        owners = new_tet[mesh.bfacet_tets[facet_order]]
        np.testing.assert_array_equal(shuffled.bfacet_tets, owners)
        path = tmp_path_factory.mktemp("shuffled") / "mesh.tetmesh"
        save_mesh(shuffled, str(path))
        back = load_mesh(str(path))
        np.testing.assert_array_equal(back.bfacet_tets, owners)
        np.testing.assert_array_equal(back.tets, shuffled.tets)
        np.testing.assert_array_equal(back.bfacet_vertices, tris)
        assert back.bfacet_tags == shuffled.bfacet_tags
        back.validate()

    @pytest.mark.parametrize("text, message", [
        ("vertices -1\n", "line 2: bad count '-1'"),
        ("vertices x\n", "line 2: bad count 'x'"),
        ("tets 0\n", "line 2: expected 'vertices <count>'"),
        ("vertices 1\n0 0\n", "line 3: expected 3 coordinates"),
        ("vertices 1\n0 0 z\n", "line 3: bad coordinate"),
        ("vertices 0\ntets 1\n0 1 2\n", "line 4: expected 4 vertex indices"),
        ("vertices 0\ntets 1\n0 1 2 3.5\n", "line 4: bad index"),
        ("vertices 0\ntets 0\nbfacets 1\n0 1 2\n",
         "line 5: expected 3 indices and a tag letter"),
        ("vertices 0\ntets 0\nbfacets 1\n0 1 x T\n", "line 5: bad index"),
        ("vertices 2\n0 0 0\n", "unexpected end of file"),
    ], ids=["negative count", "count", "section", "coordinates", "coordinate",
            "tet width", "tet index", "facet width", "facet index", "end of file"])
    def test_malformed_section_messages(self, tmp_path, monkeypatch, text, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.tetmesh").write_text("tetmesh v1\n" + text)
        with pytest.raises(MeshFormatError) as err:
            load_mesh("bad.tetmesh")
        assert str(err.value) == f"bad.tetmesh: {message}"

    def test_truncated_file_raises(self, tmp_path, cube_n2):
        path = tmp_path / "trunc.tetmesh"
        save_mesh(cube_n2, str(path))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[: len(lines) // 2]))
        with pytest.raises(MeshFormatError):
            load_mesh(str(path))
