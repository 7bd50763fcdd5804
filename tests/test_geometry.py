"""Quadrature exactness, box mesh construction, and mesh file round-trips."""

import math

import numpy as np
import pytest

from spectra_shape.errors import InvalidGeometryError, MeshFormatError
from spectra_shape.geometry import (
    Mesh,
    box_mesh_size,
    build_box_mesh,
    load_mesh,
    save_mesh,
    tet_quadrature,
    triangle_quadrature,
)


def tet_monomial_integral(a, b, c):
    """Exact integral of x^a y^b z^c over the reference tetrahedron."""
    return (
        math.factorial(a) * math.factorial(b) * math.factorial(c)
        / math.factorial(a + b + c + 3)
    )


def tri_monomial_integral(a, b):
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


class TestQuadrature:
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_tet_rule_exact_for_monomials(self, order):
        rule = tet_quadrature(order)
        # barycentric points: cartesian coordinates are lambda_1..lambda_3
        xyz = rule.points[:, 1:]
        for a in range(order + 1):
            for b in range(order + 1 - a):
                for c in range(order + 1 - a - b):
                    val = np.sum(
                        rule.weights * xyz[:, 0] ** a * xyz[:, 1] ** b * xyz[:, 2] ** c
                    )
                    exact = tet_monomial_integral(a, b, c)
                    assert val == pytest.approx(exact, rel=1e-13), (order, a, b, c)

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_tet_rule_positive_weights(self, order):
        rule = tet_quadrature(order)
        assert np.all(rule.weights > 0)
        assert np.sum(rule.weights) == pytest.approx(1.0 / 6.0, rel=1e-14)

    @pytest.mark.parametrize("order", [1, 2, 4])
    def test_triangle_rule_exact_for_monomials(self, order):
        rule = triangle_quadrature(order)
        xy = rule.points[:, 1:]
        for a in range(order + 1):
            for b in range(order + 1 - a):
                val = np.sum(rule.weights * xy[:, 0] ** a * xy[:, 1] ** b)
                assert val == pytest.approx(tri_monomial_integral(a, b), rel=1e-13)

    def test_unsupported_order_raises(self):
        with pytest.raises(InvalidGeometryError):
            tet_quadrature(7)


class TestBoxMesh:
    def test_counts(self):
        for n in (1, 2, 3):
            mesh = build_box_mesh((1, 1, 1), n, "T")
            assert mesh.num_vertices() == (n + 1) ** 3
            assert mesh.num_tets() == 6 * n**3
            assert len(mesh.bfacet_vertices) == 12 * n**2

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_closed_form_size(self, n):
        mesh = build_box_mesh((1, 2, 0.5), n, "N")
        assert box_mesh_size(n) == (mesh.num_vertices(), mesh.num_edges())

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

    def test_boundary_vertex_set_all_dirichlet(self, cube_n2):
        verts = cube_n2.boundary_vertex_set("T")
        assert len(verts) == 27 - 1  # every vertex except the center

    def test_boundary_edge_set_is_subset_of_edges(self, cube_n2):
        edges = cube_n2.boundary_edge_set("T")
        assert len(edges) > 0
        assert edges.max() < cube_n2.num_edges()

    def test_interface_vertices_go_to_dirichlet_side(self):
        # vertices on the closure of the T part are constrained even where
        # the N face meets them
        mesh = build_box_mesh((1, 1, 1), 2, {"x0": "N", "x1": "T", "y0": "T",
                                             "y1": "T", "z0": "T", "z1": "T"})
        tverts = set(mesh.boundary_vertex_set("T"))
        # the x=0 face corner vertices touch T faces, so they are in the set
        corner = 0  # vertex (0,0,0)
        assert corner in tverts


class TestMeshValidation:
    def test_negative_volume_rejected(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1.0]])
        tets = np.array([[0, 2, 1, 3]])  # inverted orientation
        with pytest.raises(InvalidGeometryError):
            Mesh(
                vertices=verts,
                tets=tets,
                bfacet_vertices=np.empty((0, 3), dtype=int),
                bfacet_tags=np.empty(0, dtype=object),
                bfacet_tets=np.empty(0, dtype=int),
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

    def test_bad_header_reports_line(self, tmp_path):
        path = tmp_path / "bad.tetmesh"
        path.write_text("not a mesh\n")
        with pytest.raises(MeshFormatError) as err:
            load_mesh(str(path))
        assert "line" in str(err.value)

    def test_truncated_file_raises(self, tmp_path, cube_n2):
        path = tmp_path / "trunc.tetmesh"
        save_mesh(cube_n2, str(path))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[: len(lines) // 2]))
        with pytest.raises(MeshFormatError):
            load_mesh(str(path))
