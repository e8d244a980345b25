import dataclasses
import hashlib
import re
import tracemalloc

import numpy as np
import pytest

from fracsurf import mesh as mesh_module
from fracsurf.assembly import assemble, build_rhs, coefficient_field
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


def _euler_characteristic(mesh):
    """V - E + F, with the edges counted by mesh validation's edge incidence."""
    keys, _, _ = mesh_module._edge_incidence(mesh.num_vertices, mesh.triangles)
    return mesh.num_vertices - len(keys) + mesh.num_triangles


class TestSphere:
    def test_icosahedron(self):
        mesh = gen_sphere(0)
        assert mesh.num_vertices == 12
        assert mesh.num_triangles == 20
        assert _euler_characteristic(mesh) == 2
        assert not mesh.boundary_vertices.any()

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

    @pytest.mark.parametrize("level", range(8))
    def test_valid_by_construction(self, level):
        # gen_sphere does not validate its mesh: the mesh passes validation,
        # and its mask, mode hint and areas are, bit for bit, what _finalize
        # gives for the same arrays
        mesh = gen_sphere(level)
        mesh_validate(mesh)
        checked = mesh_module._finalize(mesh.vertices, mesh.triangles)
        assert mesh.boundary_vertices.tobytes() == checked.boundary_vertices.tobytes()
        assert mesh.mode_hint == checked.mode_hint == "zero-mean"
        assert mesh.double_areas.tobytes() == checked.double_areas.tobytes()
        assert (mesh.vertices.dtype, mesh.triangles.dtype) == (np.float64, np.int64)
        for arr in (mesh.vertices, mesh.triangles, mesh.boundary_vertices, mesh.double_areas):
            assert arr.flags.c_contiguous and not arr.flags.writeable

    # SHA-256 of vertices.tobytes(), triangles.tobytes() and boundary_vertices.tobytes(),
    # and the mode hint. The sphere's vertices and triangles were recorded from the
    # generator that normalised each new vertex with np.linalg.norm in a Python loop,
    # the rest from the validation that sorted each mesh's edge keys three times.
    # "gmsh22-sphere2" is gen_sphere(2) written as Gmsh 2.2 and read back.
    DIGESTS = {
        0: (
            "25c2ce4291cc17ab13b6dc4303a96f09245fc2e636869cc7bd20cc1cae129df8",
            "186f818fb6c23400f1d3c93cbaf4b6794e32a02afd1df1ab1289a7edf7c36f5f",
            "15ec7bf0b50732b49f8228e07d24365338f9e3ab994b00af08e5a3bffe55fd8b",
            "zero-mean",
        ),
        1: (
            "06c7f0252260d8fc7aee150c52687730f6e6b5155419da81ee280e48c7b5a6a0",
            "7d6193d190ad6f7aa98a8b366474188800bb0c0a1b6ae10e7cc2d7201d82e9e4",
            "094c4931fdb2f2af417c9e0322a9716006e8211fe9017f671ac6e3251300acca",
            "zero-mean",
        ),
        2: (
            "01e9531e65fdc813879689f09134a5f8faeb2f9f20ea2ace4c3488a7d49df990",
            "b921d6dd64160fa555ac49b54d344755a95ce548c7939cfa90593ebe6c808062",
            "7b3bae54e7a2931a1957c1ca23189cdf913f567e92af15089f033b99e33351f1",
            "zero-mean",
        ),
        3: (
            "db923b494abf756b12c53c4dedb682cae60c20dcff4aa975dc166b720144a585",
            "1ec692cd7a492b483fc752267309a8f10b2c01d124dfa73a14c7f1482ab78408",
            "e94ac27227c8a25c3f8ede219fd80ace01e7176a12111125b31ae1dcddd487ae",
            "zero-mean",
        ),
        4: (
            "1ed436b7a110bcbe2a471248b26f5dd6aca1f5d9beab2a71e1fd781347f6d9ae",
            "c8ae8fe65865a7a6d4fbab85605b997ebaf41744fd9070cbf5166bc8da5fce14",
            "f7c9ad6c88cbb5a368d5fa696e474051c1a1d29a8f9d9cf077a9fde2ebbe78d7",
            "zero-mean",
        ),
        5: (
            "74cde60000ace706951156cb23ce50aa11734b08303ed65f16428da8fdc3c564",
            "717eb66c548cbd44cba35712a864b1d3734028b311be439080f3cf2d375abfba",
            "c49bbff21d0e556df442d1a14659eda46c5b63b544b36cfee8f5fd6f4b39260a",
            "zero-mean",
        ),
        6: (
            "8be84497d6a8b404094128e66fbdebd5f6e72f73b179f130e4befe80bbb6acdd",
            "2fa3895ffdb3be576c05b094fde1cc79e4c7ca512df979c6febfd54c3acdc71c",
            "97453091de75367a712a44a17c03fd84183dc3a5ef218c9ef697fd42f12b7961",
            "zero-mean",
        ),
        7: (
            "626dc73a845d898682c9804ce6822e31e9abfb500c563de827325940f9e6f050",
            "fe5d1441f3b78837b52e9b70545cda0bc9395162d5b43cb1c52f4a4364d9ae62",
            "5e0b053c05f09c752bfd9a4c6a15bf2ef4a021aeb11e25ad176370ea360ebb55",
            "zero-mean",
        ),
        "torus": (
            "a2bfa3dfffa08bf6cb73c7d5ae7ac8ec56293ff7de87d73fe0c06223fc6c421f",
            "6ebf9957d9bfb436accc4166fa02cb20c7ab497aa5dc839cbeb29c99a24dd27d",
            "076a27c79e5ace2a3d47f9dd2e83e4ff6ea8872b3c2218f66c92b89b55f36560",
            "positive-reaction",
        ),
        "graded-25_12": (
            "050d1265bb1e9a388ff78f18631500266fe688d8e97a123ea1c53d6987bf6506",
            "306d1e930c7ebb3bbcbcb3de63428de4c93b62cb842560e1b78da7609452a31f",
            "c565e376adb1301b375683bb5606683f55d21ebed290f09a87017e63d9bad0de",
            "dirichlet",
        ),
        "graded-12_4": (
            "1b81c53d020e17a454f96433273c48b5a85bf0946218f03282c4486671dee7a6",
            "8be12a7914cdfbc8304202da6be2bab975e1d0bd58cc88a1a5717a97ca5fe3cb",
            "72647e24bb44d26c0c8552ccec7dcb90210968246b5de4fea00c301bff15eca3",
            "dirichlet",
        ),
        "unit-16": (
            "b94e8ed53eb5601acbf7cc979143af22d326e74c866ab20b54e79a8474b7ee6c",
            "0a4613d3a34433de9d6d51ec3c9523f093a2e71f3a8a5792d0e5ee3640d86bf9",
            "063693bed57c0c27956140afbdf2199f13ea340ae04f84832b9797a2037cc19b",
            "dirichlet",
        ),
        "gmsh22-sphere2": (
            "01e9531e65fdc813879689f09134a5f8faeb2f9f20ea2ace4c3488a7d49df990",
            "b921d6dd64160fa555ac49b54d344755a95ce548c7939cfa90593ebe6c808062",
            "7b3bae54e7a2931a1957c1ca23189cdf913f567e92af15089f033b99e33351f1",
            "zero-mean",
        ),
        "gmsh41-sphere2": (
            "01e9531e65fdc813879689f09134a5f8faeb2f9f20ea2ace4c3488a7d49df990",
            "b921d6dd64160fa555ac49b54d344755a95ce548c7939cfa90593ebe6c808062",
            "7b3bae54e7a2931a1957c1ca23189cdf913f567e92af15089f033b99e33351f1",
            "zero-mean",
        ),
        "gmsh22-graded4_1": (
            "698c53ad44b701333c508957b6a4f4d8f1cf5dd3bdd907d6b687210de5f48fb6",
            "c1bffee7ae2dcd9415e807e84acc32b3a034e8011b4f73d6dc407cf5eb72f244",
            "b04276045fa1d85933a8b5598f348428866a249e9da64145f65ae3e550836260",
            "dirichlet",
        ),
        "gmsh41-graded4_1": (
            "698c53ad44b701333c508957b6a4f4d8f1cf5dd3bdd907d6b687210de5f48fb6",
            "c1bffee7ae2dcd9415e807e84acc32b3a034e8011b4f73d6dc407cf5eb72f244",
            "b04276045fa1d85933a8b5598f348428866a249e9da64145f65ae3e550836260",
            "dirichlet",
        ),
    }

    @pytest.mark.parametrize("key", list(DIGESTS))
    def test_bit_identical_to_the_recorded_generator(self, key, tmp_path):
        mesh = _recorded_mesh(key, tmp_path)
        digests = tuple(hashlib.sha256(a.tobytes()).hexdigest()
                        for a in (mesh.vertices, mesh.triangles, mesh.boundary_vertices))
        assert digests + (mesh.mode_hint,) == self.DIGESTS[key]


def _recorded_mesh(key, tmp_path):
    if isinstance(key, int):
        return gen_sphere(key)
    kind, _, arg = key.partition("-")
    if kind == "torus":
        return gen_torus(1, 0.3, 32, 16)
    if kind == "graded":
        return gen_graded_square(*map(int, arg.split("_")))
    if kind == "unit":
        return gen_unit_square(int(arg))
    source = gen_sphere(2) if arg == "sphere2" else gen_graded_square(4, 1)
    path = tmp_path / f"{key}.msh"
    (write_msh22 if kind == "gmsh22" else write_msh41)(path, source.vertices, source.triangles)
    return read_gmsh(path)


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
        assert _euler_characteristic(mesh) == 0
        assert not mesh.boundary_vertices.any()

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

    @pytest.mark.parametrize("n1, n2", [(1_000_000, 1_000_000), (3, 54615)])
    def test_oversized_rejected_before_allocating(self, n1, n2):
        # past the finest sphere's 163842 vertices (3 x 54615 is 163845), the
        # count alone rejects the torus: 1e12 vertices would need 7.3 TiB
        assert mesh_module.MAX_GENERATED_VERTICES == 10 * 4**7 + 2 == 163842
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="exceeds the 163842 of the finest"):
                gen_torus(1.0, 0.3, n1, n2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestGradedSquare:
    def test_uniform_case(self):
        mesh = gen_graded_square(2, 0)
        assert mesh.num_vertices == 25
        xs = np.unique(mesh.vertices[:, 0])
        assert xs == pytest.approx(np.linspace(-1, 1, 5), abs=1e-15)
        assert mesh.mode_hint == "dirichlet"

    def test_large_grading_counts(self):
        # 2*N0 + 4p + 1 nodes per direction, of which the interior ones are the
        # Dirichlet unknowns: 401^2 = 160801 free dofs for (177, 12), the
        # largest N0 at p = 12 within the cap on generated vertices
        mesh = gen_graded_square(177, 12)
        per_direction = 2 * 177 + 4 * 12 + 1
        assert mesh.num_vertices == per_direction**2 <= mesh_module.MAX_GENERATED_VERTICES
        free = int((~mesh.boundary_vertices).sum())
        assert free == (per_direction - 2) ** 2 == 401**2 == 160801

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

    @pytest.mark.parametrize("p", [20, 52, 60])
    def test_too_fine_grading_is_degenerate(self, p):
        # from p = 20 at N0 = 4 the thinnest triangles fail validation; from
        # p = 52 clustered nodes also coincide in double precision and merge
        with pytest.raises(ValueError, match="^degenerate triangle"):
            gen_graded_square(4, p)

    def test_axis_test_agrees_with_validation(self):
        # the axis check rejects exactly the p that validation of the built
        # mesh rejects: p = 19 is the finest grading at N0 = 4
        assert gen_graded_square(4, 19).num_vertices == (2 * 4 + 4 * 19 + 1) ** 2
        with pytest.raises(ValueError, match="^degenerate triangle at index"):
            mesh_module._tensor_square(mesh_module._graded_axis(4, 20))

    def test_degenerate_grading_rejected_before_the_tensor_product(self):
        # p = 60 would build 249^2 vertices (1.5 MB of coordinates) before
        # validation; the axis alone rejects it
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="^degenerate triangle"):
                gen_graded_square(4, 60)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


    @pytest.mark.parametrize("n0, p", [(10**5, 0), (178, 12), (4, 1100)])
    def test_oversized_rejected_before_allocating(self, n0, p):
        # (2*N0 + 1 + 4p)^2 vertices past the cap of 163842 are rejected from
        # the count, before the axis: (178, 12) has 405^2 = 164025, and
        # (10^5, 0) would need 960 GB of coordinates
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="vertices exceeds the 163842 of the finest"):
                gen_graded_square(n0, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestUnitSquare:
    def test_counts_and_mode(self):
        mesh = gen_unit_square(4)
        assert mesh.num_vertices == 25
        assert mesh.num_triangles == 32
        assert mesh.boundary_vertices.any()
        assert mesh.boundary_vertices.sum() == 16

    @pytest.mark.parametrize("n", [404, 10**6])
    def test_oversized_rejected_before_allocating(self, n):
        # (n+1)^2 vertices past the cap of 163842: 405^2 = 164025 at n = 404
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="vertices exceeds the 163842 of the finest"):
                gen_unit_square(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestValidation:
    def test_valid_meshes_pass(self):
        for mesh in (gen_sphere(1), gen_torus(0.5, 0.2, 8, 6), gen_graded_square(2, 1)):
            assert mesh_validate(mesh) is None

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

    def test_orientation_names_the_smallest_repeated_edge(self):
        # two flipped cells repeat the directed edges (7, 2), (8, 9), (9, 13) and
        # (13, 8); the smallest, 7 -> 2, runs from the larger vertex to the smaller
        square = gen_unit_square(3)
        t = square.triangles.copy()
        t[[11, 15]] = t[[11, 15]][:, [0, 2, 1]]
        mesh = SurfaceMesh(square.vertices, t, square.boundary_vertices, "dirichlet")
        with pytest.raises(ValueError) as info:
            mesh_validate(mesh)
        assert str(info.value) == "inconsistent orientation: directed edge (7, 2) repeated"

    def test_overshared_edge(self):
        v = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, -1, 0]], dtype=float)
        t = np.array([[0, 1, 2], [0, 3, 1], [0, 1, 4]])
        mesh = SurfaceMesh(v, t, np.ones(5, dtype=bool), "dirichlet")
        with pytest.raises(ValueError) as info:
            mesh_validate(mesh)
        assert str(info.value) == "edge (0, 1) shared by more than two triangles"

    def test_vertex_in_no_triangle(self):
        v, t = two_triangle_patch()
        v = np.vstack([v, [[2.0, 2.0, 0.0]]])
        mesh = SurfaceMesh(v, t, np.array([True] * 4 + [False]), "dirichlet")
        with pytest.raises(ValueError) as info:
            mesh_validate(mesh)
        assert str(info.value) == "vertex 4 belongs to no triangle"

    def test_wrong_boundary_mask(self):
        v, t = two_triangle_patch()
        mesh = SurfaceMesh(v, t, np.zeros(4, dtype=bool), "dirichlet")
        with pytest.raises(ValueError, match="boundary"):
            mesh_validate(mesh)


class TestDoubleAreas:
    @staticmethod
    def _count_double_areas(monkeypatch):
        calls = []
        double_areas = mesh_module._double_areas

        def counting(u, v):
            calls.append(u.shape[1])
            return double_areas(u, v)

        monkeypatch.setattr(mesh_module, "_double_areas", counting)
        return calls, double_areas

    def test_validation_values_kept_and_read_once(self, monkeypatch):
        # a validated mesh keeps the double areas its validation computed;
        # assemble and build_rhs read them and compute no area again
        calls, double_areas = self._count_double_areas(monkeypatch)
        mesh = gen_torus(1.0, 0.3, 12, 8)
        assert calls == [mesh.num_triangles]
        op = assemble(mesh, coefficient_field(mesh, b=1.0), "positive-reaction")
        build_rhs(mesh, lambda x: x[:, 2], op, method="l2_project")
        assert len(calls) == 1
        direct = double_areas(*mesh_module._triangle_sides(mesh.vertices, mesh.triangles))
        assert mesh.double_areas.tobytes() == direct.tobytes()
        assert not mesh.double_areas.flags.writeable
        assert mesh.triangle_areas().tobytes() == (0.5 * direct).tobytes()

    def test_sphere_computes_its_areas_once_on_first_use(self, monkeypatch):
        # gen_sphere is not validated, so it computes no area; assemble's
        # first read computes them, and build_rhs reads the same array
        calls, double_areas = self._count_double_areas(monkeypatch)
        mesh = gen_sphere(2)
        assert calls == []
        op = assemble(mesh, coefficient_field(mesh), "zero-mean")
        assert calls == [mesh.num_triangles]
        build_rhs(mesh, lambda x: x[:, 2], op, method="l2_project")
        assert len(calls) == 1
        direct = double_areas(*mesh_module._triangle_sides(mesh.vertices, mesh.triangles))
        assert mesh.double_areas.tobytes() == direct.tobytes()
        assert not mesh.double_areas.flags.writeable

    def test_direct_mesh_computes_once_and_replace_recomputes(self):
        v, t = two_triangle_patch()
        mesh = SurfaceMesh(v, t, np.ones(4, dtype=bool), "dirichlet")
        first = mesh.double_areas
        assert mesh.double_areas is first and np.all(first > 0)
        scaled = dataclasses.replace(mesh, vertices=2.0 * v)
        np.testing.assert_array_equal(scaled.double_areas, 4.0 * first)


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
        assert not mesh.boundary_vertices.any()
        assert _euler_characteristic(mesh) == 2
        assert mesh.mode_hint == "zero-mean"

    def test_corrupt_index_names_line(self, tmp_path):
        v, t = two_triangle_patch()
        path = tmp_path / "bad.msh"
        write_msh22(path, v, t)
        text = path.read_text().replace("1 2 2 0 1 1 2 3", "1 2 2 0 1 1 2 99")
        path.write_text(text)
        with pytest.raises(ValueError, match=r"line \d+.*unknown node 99"):
            read_gmsh(path)

    @pytest.mark.parametrize("writer", [write_msh22, write_msh41])
    def test_stray_node_named(self, tmp_path, writer):
        # a node that no triangle uses would give a zero row in the pencil
        sphere = gen_sphere(1)
        path = tmp_path / "stray.msh"
        writer(path, np.vstack([sphere.vertices, [[2.0, 0.0, 0.0]]]), sphere.triangles)
        with pytest.raises(ValueError) as info:
            read_gmsh(path)
        assert re.fullmatch(r"lines \d+-\d+ \(\$Elements\): vertex 42 belongs to no triangle",
                            str(info.value))

    def test_repeated_tag_named_at_its_earliest_repeat(self, tmp_path):
        # tags 5, 3, 5, 3: tag 5 repeats first in the file (line 8), though 3 sorts first
        v, t = two_triangle_patch()
        path = tmp_path / "repeat.msh"
        with open(path, "w") as fh:
            fh.write("$MeshFormat\n2.2 0 8\n$EndMeshFormat\n$Nodes\n4\n")
            for tag, vv in zip((5, 3, 5, 3), v):
                fh.write(f"{tag} {vv[0]} {vv[1]} {vv[2]}\n")
            fh.write("$EndNodes\n$Elements\n1\n1 2 2 0 1 5 3 5\n$EndElements\n")
        with pytest.raises(ValueError) as info:
            read_gmsh(path)
        assert str(info.value) == "line 8: node tag 5 repeated"

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

    @pytest.mark.parametrize("level", [2, 4])  # level 4 has more triangles than a block
    def test_off_matches_per_row_formatting(self, tmp_path, level):
        mesh = gen_sphere(level)
        path = tmp_path / "sphere.off"
        write_off(mesh, path)
        data = path.read_bytes()
        assert data == _off_reference(mesh)
        if level == 2:
            assert hashlib.sha256(data).hexdigest() == (
                "b49e2524b4d7e897cc95af23e3f7657a01094f952d90b332e08b8d416b6f9011")

    def test_off_of_the_graded_square_matches_per_row_formatting(self, tmp_path):
        # 9801 vertices, so the vertex rows span three blocks; the zero z
        # column and the clustered axis repeat values across blocks
        mesh = gen_graded_square(25, 12)
        path = tmp_path / "square.off"
        write_off(mesh, path)
        assert path.read_bytes() == _off_reference(mesh)

    def test_format_floats_equals_fstrings(self):
        # every entry, signed zeros, NaNs of either sign bit and any payload,
        # infinities and subnormals included, reads as f"{x:.17g}"
        negative_nan = np.array([0xFFF8_0000_0000_0123], dtype=np.uint64).view(np.float64)
        values = np.concatenate([
            [-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.0**60, 0.1],
            negative_nan, [0.1, -0.0, 2.0**60, np.nan, 0.0, 0.1],
            np.random.default_rng(0).standard_normal(50),
        ])
        table = np.concatenate([values, values[::-1]]).reshape(-1, 2)
        strings = mesh_module._format_floats(table)
        assert strings.shape == table.shape and strings.dtype == object
        assert strings.ravel().tolist() == [f"{x:.17g}" for x in table.ravel()]
        assert strings[0].tolist() == ["-0", "0"] and strings[1].tolist() == ["nan", "nan"]
        assert np.signbit(negative_nan[0]) and np.isnan(negative_nan[0])

    def test_off_peak_memory_at_level_6(self, tmp_path):
        # the writer keeps one block of Python numbers at a time; the formatter
        # adds its distinct strings and one object array of the coordinates.
        # Measured on the tree that formatted every number in blocks: 0.75 MB;
        # with the formatter: 3.2 MB. One %-call over all rows adds 6.5 MB.
        mesh = gen_sphere(6)
        tracemalloc.start()
        try:
            write_off(mesh, tmp_path / "sphere.off")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


def _off_reference(mesh) -> bytes:
    """The OFF file of the per-row f-string writer the block writers replaced."""
    rows = ["OFF\n", f"{mesh.num_vertices} {mesh.num_triangles} 0\n"]
    rows += [f"{v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n" for v in mesh.vertices]
    rows += [f"3 {t[0]} {t[1]} {t[2]}\n" for t in mesh.triangles]
    return "".join(rows).encode()
