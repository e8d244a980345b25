import math

import numpy as np
import pytest
import scipy.linalg

import scipy.sparse as sp

from fracsurf import assembly
from fracsurf.assembly import assemble, build_rhs, coefficient_field, deflate_mean
from fracsurf.mesh import (
    SurfaceMesh,
    gen_graded_square,
    gen_sphere,
    gen_torus,
    gen_unit_square,
)


def _single_right_triangle():
    v = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
    t = np.array([[0, 1, 2], [1, 3, 2]])
    mesh = SurfaceMesh(v, t, np.ones(4, dtype=bool), "dirichlet")
    return mesh


class TestElementMatrices:
    def test_unit_right_triangle_stiffness(self):
        # classical P1 element matrix for the unit right triangle
        mesh = _single_right_triangle()
        op = assemble(mesh, coefficient_field(mesh), "dirichlet")
        from fracsurf.assembly import _element_geometry

        area, grads = _element_geometry(mesh)
        S_el = area[0] * grads[0] @ grads[0].T
        expected = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
        assert S_el == pytest.approx(expected, abs=1e-14)
        assert op.n == 0  # every vertex is on the boundary here

    def test_mass_row_sums_are_area_thirds(self):
        mesh = gen_sphere(2)
        op = assemble(mesh, coefficient_field(mesh), "zero-mean")
        areas = mesh.triangle_areas()
        thirds = np.zeros(mesh.num_vertices)
        np.add.at(thirds, mesh.triangles.ravel(), np.repeat(areas / 3.0, 3))
        row_sums = np.asarray(op.mass.sum(axis=1)).ravel()
        assert row_sums == pytest.approx(thirds, rel=1e-13)

    def test_patch_test_flat(self):
        # stiffness annihilates linear coordinate functions on a flat mesh
        mesh = gen_unit_square(8)
        op = assemble(mesh, coefficient_field(mesh), "dirichlet")
        norm = abs(op.stiffness).max()
        for comp in range(2):
            # interior rows only: rows of free dofs not adjacent to the boundary
            full = mesh.vertices[:, comp]
            residual_full = np.zeros(mesh.num_vertices)
            from fracsurf.assembly import _element_geometry

            area, grads = _element_geometry(mesh)
            tris = mesh.triangles
            s_el = area[:, None, None] * np.einsum("tid,tjd->tij", grads, grads)
            vals = np.einsum("tij,tj->ti", s_el, full[tris])
            np.add.at(residual_full, tris.ravel(), vals.ravel())
            interior = ~mesh.boundary_vertices
            neighbor_of_boundary = np.zeros(mesh.num_vertices, dtype=bool)
            for k in range(3):
                for j in range(3):
                    sel = mesh.boundary_vertices[tris[:, j]]
                    neighbor_of_boundary[tris[sel, k]] = True
            rows = interior & ~neighbor_of_boundary
            assert np.abs(residual_full[rows]).max() <= 1e-12 * norm


class TestSpectra:
    def test_unit_square_dirichlet_smallest(self):
        # first Laplace eigenvalue on [0,1]^2 is 2 pi^2
        mesh = gen_unit_square(32)
        op = assemble(mesh, coefficient_field(mesh), "dirichlet")
        lam = scipy.linalg.eigh(
            op.stiffness.toarray(), op.mass.toarray(), eigvals_only=True, subset_by_index=[0, 0]
        )[0]
        assert lam == pytest.approx(2.0 * math.pi**2, rel=0.05)

    def test_sphere_smallest_nonzero(self, sphere3_op):
        lam = scipy.linalg.eigh(
            sphere3_op.stiffness.toarray(),
            sphere3_op.mass.toarray(),
            eigvals_only=True,
            subset_by_index=[0, 1],
        )
        assert abs(lam[0]) <= 1e-8
        assert lam[1] == pytest.approx(2.0, rel=0.03)

    def test_pencil_nonnegative(self, sphere2_op):
        lam = scipy.linalg.eigh(
            sphere2_op.stiffness.toarray(), sphere2_op.mass.toarray(), eigvals_only=True
        )
        assert lam.min() >= -1e-10 * lam.max()

    def test_torus_reaction_definite(self):
        mesh = gen_torus(0.5, 0.2, 16, 12)
        op = assemble(mesh, coefficient_field(mesh, a=1.0, b=1.0), "positive-reaction")
        lam = scipy.linalg.eigh(
            op.stiffness.toarray(), op.mass.toarray(), eigvals_only=True, subset_by_index=[0, 0]
        )[0]
        # smallest eigenvalue of -Lap + 1 on the torus is exactly 1
        assert lam == pytest.approx(1.0, rel=1e-6)

    def test_zero_mean_annihilates_constants(self, sphere2_op):
        drift = np.abs(sphere2_op.stiffness @ np.ones(sphere2_op.n)).max()
        assert drift <= 1e-12 * abs(sphere2_op.stiffness).max()

    @pytest.mark.parametrize("family", ["sphere", "torus", "graded_square", "unit_square"])
    def test_mass_diagonal_floor(self, family):
        # M >= c diag(M) with the recorded c, also after Dirichlet elimination
        mesh, b, mode = {
            "sphere": (gen_sphere(2), 0.0, "zero-mean"),
            "torus": (gen_torus(1.0, 0.3, 16, 8), 1.0, "positive-reaction"),
            "graded_square": (gen_graded_square(6, 4), 0.0, "dirichlet"),
            "unit_square": (gen_unit_square(8), 0.0, "dirichlet"),
        }[family]
        op = assemble(mesh, coefficient_field(mesh, b=b), mode)
        assert op.mass_diagonal_floor == 0.5
        M = op.mass.toarray()
        d = 1.0 / np.sqrt(np.diag(M))
        assert scipy.linalg.eigvalsh(d[:, None] * M * d[None, :])[0] >= 0.5


class TestDeterminism:
    def test_triangle_permutation_invariance(self):
        mesh = gen_sphere(1)
        # deterministic shuffle without RNG machinery
        perm = np.argsort(np.sin(np.arange(mesh.num_triangles, dtype=float) + 12345.0))
        shuffled = SurfaceMesh(
            mesh.vertices.copy(),
            mesh.triangles[perm].copy(),
            mesh.boundary_vertices.copy(),
            mesh.mode_hint,
        )
        op1 = assemble(mesh, coefficient_field(mesh), "zero-mean")
        op2 = assemble(shuffled, coefficient_field(shuffled), "zero-mean")
        gap = abs(op1.stiffness - op2.stiffness).max()
        assert gap <= 1e-15 * abs(op1.stiffness).max()
        gap_m = abs(op1.mass - op2.mass).max()
        assert gap_m <= 1e-15 * abs(op1.mass).max()


    @pytest.mark.parametrize("case", ["sphere3", "square12_4"])
    def test_one_sort_matches_two_lexsorts(self, case, monkeypatch):
        # the shared sort of the combined key is the permutation lexsort gave
        # each matrix, so both matrices are bit-identical to the per-matrix path
        def lexsort_accumulate(rows, cols, n, *vals):
            out = []
            for v in vals:
                order = np.lexsort((cols, rows))
                r, c, w = rows[order], cols[order], v[order]
                boundary = np.ones(len(r), dtype=bool)
                boundary[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
                starts = np.nonzero(boundary)[0]
                out.append(sp.csr_matrix((np.add.reduceat(w, starts), (r[starts], c[starts])),
                                         shape=(n, n)))
            return out

        mesh, mode = ((gen_sphere(3), "zero-mean") if case == "sphere3"
                      else (gen_graded_square(12, 4), "dirichlet"))
        op = assemble(mesh, coefficient_field(mesh), mode)
        monkeypatch.setattr(assembly, "_accumulate", lexsort_accumulate)
        ref = assemble(mesh, coefficient_field(mesh), mode)
        for A, B in ((op.mass, ref.mass), (op.stiffness, ref.stiffness)):
            for attr in ("data", "indices", "indptr"):
                np.testing.assert_array_equal(getattr(A, attr), getattr(B, attr))


class TestModeChecks:
    def test_dirichlet_requires_boundary(self):
        mesh = gen_sphere(0)
        with pytest.raises(ValueError, match="boundary"):
            assemble(mesh, coefficient_field(mesh), "dirichlet")

    def test_zero_mean_requires_closed(self):
        mesh = gen_unit_square(3)
        with pytest.raises(ValueError, match="closed"):
            assemble(mesh, coefficient_field(mesh), "zero-mean")

    def test_zero_mean_requires_b_zero(self):
        mesh = gen_sphere(0)
        with pytest.raises(ValueError, match="b identically zero"):
            assemble(mesh, coefficient_field(mesh, b=1.0), "zero-mean")

    def test_reaction_requires_positive_b(self):
        mesh = gen_sphere(0)
        with pytest.raises(ValueError, match="b > 0"):
            assemble(mesh, coefficient_field(mesh, b=0.0), "positive-reaction")

    def test_coefficient_validation(self):
        mesh = gen_sphere(0)
        with pytest.raises(ValueError, match="positive"):
            coefficient_field(mesh, a=0.0)
        with pytest.raises(ValueError, match="non-negative"):
            coefficient_field(mesh, b=-1.0)

    @pytest.mark.parametrize("kwargs, name", [
        ({"a": math.nan}, "diffusion coefficient a"),
        ({"a": math.inf}, "diffusion coefficient a"),
        ({"b": math.nan}, "reaction coefficient b"),
    ], ids=["a-nan", "a-inf", "b-nan"])
    def test_non_finite_coefficient_rejected(self, kwargs, name):
        mesh = gen_sphere(0)
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            coefficient_field(mesh, **kwargs)


class TestRhs:
    def test_interpolate_ones_dirichlet(self):
        mesh = gen_unit_square(5)
        op = assemble(mesh, coefficient_field(mesh), "dirichlet")
        fh = build_rhs(mesh, lambda x: np.ones(len(x)), op, method="interpolate")
        assert fh == pytest.approx(np.ones(op.n))

    def test_project_sign_deflated(self, sphere3, sphere3_op):
        fh = build_rhs(sphere3, lambda x: np.sign(x[:, 2]), sphere3_op, method="l2_project")
        ones = np.ones(sphere3_op.n)
        drift = abs(ones @ (sphere3_op.mass @ fh))
        assert drift <= 1e-12 * sphere3_op.m_norm(fh) * sphere3_op.m_norm(ones)

    def test_projection_stability(self, sphere3, sphere3_op):
        # |f_h|_M below the continuous norm sqrt(4 pi) of the sign data, within 5%
        fh = build_rhs(sphere3, lambda x: np.sign(x[:, 2]), sphere3_op, method="l2_project")
        norm = sphere3_op.m_norm(fh)
        assert norm <= math.sqrt(4.0 * math.pi) * 1.05
        assert norm >= math.sqrt(4.0 * math.pi) * 0.8

    def test_rough_data_flagged(self, sphere2, sphere2_op, caplog):
        import logging

        with caplog.at_level(logging.WARNING, logger="fracsurf.assembly"):
            build_rhs(sphere2, lambda x: np.sign(x[:, 2]), sphere2_op, method="l2_project")
        assert any("quadrature note" in rec.message for rec in caplog.records)

    def test_vertex_data_projection(self, sphere2, sphere2_op):
        vals = np.sign(sphere2.vertices[:, 2])
        fh = build_rhs(sphere2, vals, sphere2_op, method="l2_project")
        assert np.all(np.isfinite(fh))

    @pytest.mark.parametrize("method", ["interpolate", "l2_project"])
    def test_scalar_source_is_a_constant(self, method):
        # zero-mean mode deflates a constant to zero, so compare on a square
        mesh = gen_unit_square(4)
        op = assemble(mesh, coefficient_field(mesh), "dirichlet")
        fh = build_rhs(mesh, 2.5, op, method=method)
        expected = build_rhs(mesh, np.full(mesh.num_vertices, 2.5), op, method=method)
        np.testing.assert_array_equal(fh, expected)

    @pytest.mark.parametrize("f", [lambda x: 1.0, lambda x: np.ones(len(x) - 1)],
                             ids=["scalar", "short"])
    def test_source_of_the_wrong_shape_rejected(self, sphere2, sphere2_op, f):
        with pytest.raises(ValueError, match="one value per vertex"):
            build_rhs(sphere2, f, sphere2_op, method="interpolate")

    def test_unknown_method(self, sphere2, sphere2_op):
        with pytest.raises(ValueError, match="rhs method"):
            build_rhs(sphere2, lambda x: np.ones(len(x)), sphere2_op, method="galerkin")


class TestDeflation:
    def test_constant_to_zero(self, sphere2_op):
        out = deflate_mean(np.full(sphere2_op.n, 3.7), sphere2_op)
        assert np.abs(out).max() <= 1e-14

    def test_idempotent(self, sphere2_op):
        v = np.sin(np.arange(sphere2_op.n, dtype=float))
        once = deflate_mean(v, sphere2_op)
        twice = deflate_mean(once, sphere2_op)
        assert twice == pytest.approx(once, abs=1e-15)

    def test_kills_mean(self, sphere2_op):
        v = np.cos(np.arange(sphere2_op.n, dtype=float)) + 2.0
        out = deflate_mean(v, sphere2_op)
        ones = np.ones(sphere2_op.n)
        assert abs(ones @ (sphere2_op.mass @ out)) <= 1e-13 * np.linalg.norm(v)

    def test_wrong_mode(self, square16_op):
        with pytest.raises(ValueError):
            deflate_mean(np.ones(square16_op.n), square16_op)
