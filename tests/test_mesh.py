import numpy as np
import pytest

from fracsurf.mesh import (
    SurfaceMesh,
    gen_graded_square,
    gen_sphere,
    gen_torus,
    gen_unit_square,
    mesh_validate,
    read_gmsh,
    write_off,
)
from util import fibonacci_sphere_mesh, two_triangle_patch, write_msh22, write_msh41


class TestSphere:
    def test_icosahedron(self):
        mesh = gen_sphere(0)
        assert mesh.num_vertices == 12
        assert mesh.num_triangles == 20
        assert mesh.euler_characteristic() == 2
        assert mesh.is_closed()

    def test_level2_counts(self):
        mesh = gen_sphere(2)
        assert mesh.num_vertices == 10 * 4**2 + 2 == 162
        assert mesh.num_triangles == 20 * 4**2

    @pytest.mark.parametrize("level", [0, 1, 3])
    def test_unit_radius(self, level):
        mesh = gen_sphere(level)
        radii = np.linalg.norm(mesh.vertices, axis=1)
        assert np.abs(radii - 1.0).max() <= 1e-15

    def test_refinement_scaling(self):
        coarse = gen_sphere(2)
        fine = gen_sphere(3)
        assert fine.num_triangles == 4 * coarse.num_triangles
        assert _max_edge(fine) == pytest.approx(_max_edge(coarse) / 2.0, rel=0.1)

    def test_level_cap(self):
        with pytest.raises(ValueError):
            gen_sphere(8)


def _max_edge(mesh):
    t = mesh.triangles
    v = mesh.vertices
    lengths = [np.linalg.norm(v[t[:, i]] - v[t[:, j]], axis=1) for i, j in ((0, 1), (1, 2), (2, 0))]
    return float(np.max(lengths))


class TestTorus:
    def test_small_counts(self):
        mesh = gen_torus(0.5, 0.2, 4, 4)
        assert mesh.num_vertices == 16
        assert mesh.num_triangles == 32
        assert mesh.euler_characteristic() == 0
        assert mesh.is_closed()

    def test_on_surface(self):
        mesh = gen_torus(0.5, 0.2, 24, 16)
        rho = np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])
        residual = (rho - 0.5) ** 2 + mesh.vertices[:, 2] ** 2 - 0.2**2
        assert np.abs(residual).max() <= 1e-14

    def test_large_count(self):
        mesh = gen_torus(0.5, 0.2, 256, 256)
        assert mesh.num_vertices == 65536

    def test_bad_radii(self):
        with pytest.raises(ValueError):
            gen_torus(0.2, 0.5, 8, 8)
        with pytest.raises(ValueError):
            gen_torus(0.5, 0.2, 2, 8)


class TestGradedSquare:
    def test_uniform_case(self):
        mesh = gen_graded_square(2, 0)
        assert mesh.num_vertices == 25
        xs = np.unique(mesh.vertices[:, 0])
        assert xs == pytest.approx(np.linspace(-1, 1, 5), abs=1e-15)
        assert mesh.mode_hint == "dirichlet"

    def test_large_grading_counts(self):
        # 2*N0 + 4p + 1 nodes per direction, of which the interior ones are the
        # Dirichlet unknowns: 1047^2 = 1096209 free dofs for (500, 12)
        mesh = gen_graded_square(500, 12)
        per_direction = 2 * 500 + 4 * 12 + 1
        assert mesh.num_vertices == per_direction**2
        free = int((~mesh.boundary_vertices).sum())
        assert free == (per_direction - 2) ** 2 == 1047**2 == 1096209

    def test_spacing_ratio(self):
        mesh = gen_graded_square(4, 3)
        xs = np.unique(mesh.vertices[:, 0])
        gaps = np.diff(xs)
        assert gaps.max() / gaps.min() == pytest.approx(2.0**3, rel=1e-12)

    def test_boundary_flags(self):
        mesh = gen_graded_square(3, 1)
        onb = (np.abs(np.abs(mesh.vertices[:, 0]) - 1) < 1e-14) | (
            np.abs(np.abs(mesh.vertices[:, 1]) - 1) < 1e-14
        )
        assert np.array_equal(mesh.boundary_vertices, onb)

    def test_validation_args(self):
        with pytest.raises(ValueError):
            gen_graded_square(1, 2)
        with pytest.raises(ValueError):
            gen_graded_square(4, -1)


class TestUnitSquare:
    def test_counts_and_mode(self):
        mesh = gen_unit_square(4)
        assert mesh.num_vertices == 25
        assert mesh.num_triangles == 32
        assert not mesh.is_closed()
        assert mesh.boundary_vertices.sum() == 16


class TestValidation:
    def test_degenerate_triangle(self):
        v = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 1, 0]], dtype=float)
        t = np.array([[0, 1, 2], [0, 1, 3]])
        mesh = SurfaceMesh(v, t, np.zeros(4, dtype=bool), "dirichlet")
        with pytest.raises(ValueError, match="degenerate"):
            mesh_validate(mesh)

    def test_inconsistent_orientation(self):
        v, t = two_triangle_patch()
        t = t.copy()
        t[1] = t[1][[0, 2, 1]]  # flip the second triangle
        mesh = SurfaceMesh(v, t, np.ones(4, dtype=bool), "dirichlet")
        with pytest.raises(ValueError, match="orientation"):
            mesh_validate(mesh)

    def test_overshared_edge(self):
        v = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, -1, 0]], dtype=float)
        t = np.array([[0, 1, 2], [0, 3, 1], [0, 1, 4]])
        mesh = SurfaceMesh(v, t, np.ones(5, dtype=bool), "dirichlet")
        with pytest.raises(ValueError, match="more than two"):
            mesh_validate(mesh)

    def test_wrong_boundary_mask(self):
        v, t = two_triangle_patch()
        mesh = SurfaceMesh(v, t, np.zeros(4, dtype=bool), "dirichlet")
        with pytest.raises(ValueError, match="boundary"):
            mesh_validate(mesh)


class TestGmshReader:
    def test_v22_patch(self, tmp_path):
        v, t = two_triangle_patch()
        path = tmp_path / "patch.msh"
        write_msh22(path, v, t)
        mesh = read_gmsh(path)
        assert mesh.num_vertices == 4
        assert mesh.num_triangles == 2
        assert mesh.boundary_vertices.sum() == 4
        assert mesh.mode_hint == "dirichlet"

    def test_v41_patch(self, tmp_path):
        v, t = two_triangle_patch()
        path = tmp_path / "patch41.msh"
        write_msh41(path, v, t)
        mesh = read_gmsh(path)
        assert mesh.num_vertices == 4
        assert mesh.num_triangles == 2

    def test_v41_multiblock_with_lines(self, tmp_path):
        # two node blocks, a line block (skipped), and a triangle block
        v, t = two_triangle_patch()
        path = tmp_path / "blocks.msh"
        with open(path, "w") as fh:
            fh.write("$MeshFormat\n4.1 0 8\n$EndMeshFormat\n")
            fh.write("$Nodes\n2 4 1 4\n")
            fh.write("2 1 0 2\n1\n2\n")
            fh.write(f"{v[0][0]} {v[0][1]} {v[0][2]}\n{v[1][0]} {v[1][1]} {v[1][2]}\n")
            fh.write("2 2 0 2\n3\n4\n")
            fh.write(f"{v[2][0]} {v[2][1]} {v[2][2]}\n{v[3][0]} {v[3][1]} {v[3][2]}\n")
            fh.write("$EndNodes\n$Elements\n2 3 1 3\n")
            fh.write("1 1 1 1\n1 1 2\n")  # dim-1 line block, skipped
            fh.write("2 1 2 2\n")
            fh.write("2 1 2 3\n3 1 3 4\n")
            fh.write("$EndElements\n")
        mesh = read_gmsh(path)
        assert mesh.num_vertices == 4
        assert mesh.num_triangles == 2
        assert mesh.boundary_vertices.sum() == 4

    def test_sphere_fixture_dof_153(self, tmp_path):
        # 153 vertices matches the coarsest sphere resolution of the rate study
        v, t = fibonacci_sphere_mesh(153)
        path = tmp_path / "sphere153.msh"
        write_msh22(path, v, t)
        mesh = read_gmsh(path)
        assert mesh.num_vertices == 153
        assert mesh.is_closed()
        assert mesh.euler_characteristic() == 2
        assert mesh.mode_hint == "zero-mean"

    def test_corrupt_index_names_line(self, tmp_path):
        v, t = two_triangle_patch()
        path = tmp_path / "bad.msh"
        write_msh22(path, v, t)
        text = path.read_text().replace("1 2 2 0 1 1 2 3", "1 2 2 0 1 1 2 99")
        path.write_text(text)
        with pytest.raises(ValueError, match=r"line \d+.*unknown node 99"):
            read_gmsh(path)

    def test_skips_lines_and_points(self, tmp_path):
        v, t = two_triangle_patch()
        path = tmp_path / "mixed.msh"
        with open(path, "w") as fh:
            fh.write("$MeshFormat\n2.2 0 8\n$EndMeshFormat\n$Nodes\n4\n")
            for k, vv in enumerate(v, start=1):
                fh.write(f"{k} {vv[0]} {vv[1]} {vv[2]}\n")
            fh.write("$EndNodes\n$Elements\n4\n")
            fh.write("1 15 2 0 1 1\n")
            fh.write("2 1 2 0 1 1 2\n")
            fh.write("3 2 2 0 1 1 2 3\n")
            fh.write("4 2 2 0 1 1 3 4\n")
            fh.write("$EndElements\n")
        mesh = read_gmsh(path)
        assert mesh.num_triangles == 2

    def test_rejects_quads(self, tmp_path):
        v, _ = two_triangle_patch()
        path = tmp_path / "quad.msh"
        with open(path, "w") as fh:
            fh.write("$MeshFormat\n2.2 0 8\n$EndMeshFormat\n$Nodes\n4\n")
            for k, vv in enumerate(v, start=1):
                fh.write(f"{k} {vv[0]} {vv[1]} {vv[2]}\n")
            fh.write("$EndNodes\n$Elements\n1\n")
            fh.write("1 3 2 0 1 1 2 3 4\n")
            fh.write("$EndElements\n")
        with pytest.raises(ValueError, match="element type 3"):
            read_gmsh(path)

    def test_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "v40.msh"
        path.write_text("$MeshFormat\n4.0 0 8\n$EndMeshFormat\n")
        with pytest.raises(ValueError, match="unsupported"):
            read_gmsh(path)

    def test_repeated_unused_sections_skipped(self, tmp_path):
        # post-processing files repeat $NodeData; only a repeated section the
        # reader uses is an error
        v, t = two_triangle_patch()
        path = tmp_path / "data.msh"
        write_msh41(path, v, t)
        data = '$NodeData\n1\n"u"\n$EndNodeData\n'
        path.write_text(path.read_text() + 2 * data)
        assert read_gmsh(path).num_triangles == 2
        path.write_text(path.read_text() + "$Elements\n$EndElements\n")
        with pytest.raises(ValueError, match=r"line \d+: second \$Elements section"):
            read_gmsh(path)

    def test_rejects_binary(self, tmp_path):
        path = tmp_path / "bin.msh"
        path.write_text("$MeshFormat\n2.2 1 8\n$EndMeshFormat\n")
        with pytest.raises(ValueError, match="binary"):
            read_gmsh(path)


class TestWriters:
    def test_off_roundtrip_header(self, tmp_path):
        mesh = gen_sphere(0)
        path = tmp_path / "ico.off"
        write_off(mesh, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "OFF"
        assert lines[1] == "12 20 0"
        assert len(lines) == 2 + 12 + 20
