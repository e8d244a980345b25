import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

from fracsurf import assembly
from fracsurf.assembly import (
    TRI_QUAD_POINTS,
    TRI_QUAD_WEIGHTS,
    AssembledOperator,
    _check_mode,
    assemble,
    build_rhs,
    coefficient_field,
    deflate_mean,
    dot,
)
from fracsurf.mesh import (
    MODE_DIRICHLET,
    SurfaceMesh,
    gen_graded_square,
    gen_sphere,
    gen_torus,
    gen_unit_square,
    read_gmsh,
)
from fracsurf.multigrid import build_hierarchy
from fracsurf.scheme import build_time_grid
from util import diagonal_op, write_msh41


def _single_right_triangle():
    v = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
    t = np.array([[0, 1, 2], [1, 3, 2]])
    mesh = SurfaceMesh(v, t, np.ones(4, dtype=bool), "dirichlet")
    return mesh


def _full_pencil(monkeypatch, mesh, mode, coeffs=None):
    """The mass and stiffness matrices of `assemble`, before any Dirichlet elimination."""
    seen = {}
    accumulate = assembly._accumulate

    def capture(*args):
        seen["M"], seen["S"] = accumulate(*args)
        return seen["M"], seen["S"]

    monkeypatch.setattr(assembly, "_accumulate", capture)
    op = assemble(mesh, coefficient_field(mesh) if coeffs is None else coeffs, mode)
    return op, seen["M"], seen["S"]


class TestElementMatrices:
    def test_unit_right_triangle_stiffness(self, monkeypatch):
        # two classical P1 right-triangle elements [[1, -1/2, -1/2], [-1/2, 1/2, 0],
        # [-1/2, 0, 1/2]] (right angle first) make up the unit square; the zero
        # entry of the diagonal edge stays in the pattern, which the mass shares
        mesh = _single_right_triangle()
        op, M, S = _full_pencil(monkeypatch, mesh, "dirichlet")
        expected = np.array([[1.0, -0.5, -0.5, 0.0], [-0.5, 1.0, 0.0, -0.5],
                             [-0.5, 0.0, 1.0, -0.5], [0.0, -0.5, -0.5, 1.0]])
        assert S.toarray() == pytest.approx(expected, abs=1e-15)
        assert S.nnz == M.nnz == 14
        assert op.n == 0  # every vertex is on the boundary here

    def test_mass_row_sums_are_area_thirds(self, monkeypatch):
        # partition of unity: each row of the full mass sums to a third of
        # the area of the vertex's triangles
        torus = gen_torus(1.0, 0.3, 32, 16)
        square = gen_graded_square(12, 4)
        for mesh, coeffs, mode in (
            (gen_sphere(2), None, "zero-mean"),
            (torus, coefficient_field(torus, b=1.0), "positive-reaction"),
            (square, None, "dirichlet"),
        ):
            _, M, _ = _full_pencil(monkeypatch, mesh, mode, coeffs)
            monkeypatch.undo()
            areas = mesh.triangle_areas()
            thirds = np.zeros(mesh.num_vertices)
            np.add.at(thirds, mesh.triangles.ravel(), np.repeat(areas / 3.0, 3))
            row_sums = np.asarray(M.sum(axis=1)).ravel()
            assert row_sums == pytest.approx(thirds, rel=1e-13)

    def test_patch_test_flat(self):
        # stiffness annihilates linear coordinate functions on a flat mesh, on
        # the rows of free vertices with no constrained neighbour
        mesh = gen_unit_square(8)
        op = assemble(mesh, coefficient_field(mesh), "dirichlet")
        tris = mesh.triangles
        near = np.zeros(mesh.num_vertices, dtype=bool)
        near[tris[mesh.boundary_vertices[tris].any(axis=1)].ravel()] = True
        rows = ~near[op.free_dofs]
        assert rows.sum() == 25
        norm = abs(op.stiffness).max()
        for comp in range(2):
            residual = op.stiffness @ mesh.vertices[op.free_dofs, comp]
            assert np.abs(residual[rows]).max() <= 1e-12 * norm


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
        torus = gen_torus(1.0, 0.3, 32, 16)
        for op in (sphere2_op, assemble(torus, coefficient_field(torus), "zero-mean")):
            drift = np.abs(op.stiffness @ np.ones(op.n)).max()
            assert drift <= 1e-12 * abs(op.stiffness).max()

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


    @pytest.mark.parametrize("case", ["sphere3", "torus_b", "square12_4", "gmsh_permuted"])
    def test_matches_element_matrix_reference(self, case, tmp_path, monkeypatch):
        # against the element-matrix assembly and the np.add.at moment vector
        # below: the mass, the free dofs and both moment vectors are bit-identical,
        # and so is the L2 right-hand side; the stiffness and the ceiling come
        # from edge dot products in place of gradient cross products; here they
        # differ by at most 4.9e-16 and 4.4e-16 relative to the largest entry
        # and to the ceiling, which leaves L+1 unchanged, and the ceiling still
        # bounds the largest eigenvalue
        mesh, coeffs, mode, f, lh = _reference_case(case, tmp_path)
        op = assemble(mesh, coeffs, mode)
        ref = reference_assemble(mesh, coeffs, mode)
        _assert_same_csr(op.mass, ref.mass)
        np.testing.assert_array_equal(op.stiffness.indptr, ref.stiffness.indptr)
        np.testing.assert_array_equal(op.stiffness.indices, ref.stiffness.indices)
        gap = np.abs(op.stiffness.data - ref.stiffness.data).max()
        assert gap <= 1e-15 * np.abs(ref.stiffness.data).max()
        assert op.lambda_max_ceiling == pytest.approx(ref.lambda_max_ceiling, rel=1e-15, abs=0)
        np.testing.assert_array_equal(op.free_dofs, ref.free_dofs)
        assert (build_time_grid(lh, op.lambda_max_ceiling).num_steps
                == build_time_grid(lh, ref.lambda_max_ceiling).num_steps)
        top = eigsh(op.stiffness, k=1, M=op.mass, which="LM", return_eigenvectors=False)[0]
        assert top <= op.lambda_max_ceiling

        vertex_data = np.sin(np.arange(mesh.num_vertices, dtype=float))
        for source in (f, vertex_data):
            np.testing.assert_array_equal(assembly._moment_vector(mesh, source),
                                          reference_moment_vector(mesh, source))
        fh = build_rhs(mesh, f, op, method="l2_project")
        monkeypatch.setattr(assembly, "_moment_vector", reference_moment_vector)
        np.testing.assert_array_equal(fh, build_rhs(mesh, f, ref, method="l2_project"))

    def test_vertex_in_no_triangle(self):
        # a mesh built directly, without validation, may hold a vertex that no
        # triangle uses (a stray Gmsh node, say); assemble raises the
        # validator's message for it in every mode
        for base, mode, b in ((gen_sphere(1), "zero-mean", 0.0),
                              (gen_sphere(1), "positive-reaction", 1.0),
                              (gen_unit_square(3), "dirichlet", 0.0)):
            n = base.num_vertices
            mesh = SurfaceMesh(np.vstack([base.vertices, [[2.0, 0.0, 0.0]]]), base.triangles,
                               np.append(base.boundary_vertices, False), mode)
            with pytest.raises(ValueError, match=f"^vertex {n} belongs to no triangle$"):
                assemble(mesh, coefficient_field(mesh, b=b), mode)


class TestEdgePattern:
    @pytest.mark.parametrize("case", ["sphere3", "torus_b", "square12_4", "gmsh_permuted",
                                      "unit_square"])
    def test_matches_the_coo_reference(self, case, tmp_path, monkeypatch):
        # the matrices on the edge pattern equal those of the COO conversion
        # they replaced, bit for bit, before and after Dirichlet elimination
        if case == "unit_square":
            mesh = gen_unit_square(9)
            coeffs, mode = coefficient_field(mesh, a=lambda x: 1.0 + x[:, 0]), "dirichlet"
        else:
            mesh, coeffs, mode = _reference_case(case, tmp_path)[:3]
        pencils = []
        for accumulate in (assembly._accumulate, coo_accumulate):
            monkeypatch.setattr(assembly, "_accumulate", accumulate)
            op, M, S = _full_pencil(monkeypatch, mesh, mode, coeffs)
            pencils.append((M, S, op.mass, op.stiffness))
            monkeypatch.undo()
        for A, B in zip(*pencils):
            assert A.indptr.dtype == B.indptr.dtype and A.indices.dtype == B.indices.dtype
            for attr in ("indptr", "indices", "data"):
                assert getattr(A, attr).tobytes() == getattr(B, attr).tobytes()
        for A in pencils[0][:2]:  # the full M and S equal their transposes, pattern and values
            At = A.T.tocsr()
            for attr in ("indptr", "indices", "data"):
                np.testing.assert_array_equal(getattr(At, attr), getattr(A, attr))

    def test_one_canonical_pattern_taken_without_a_copy(self):
        mesh = gen_sphere(2)
        op = assemble(mesh, coefficient_field(mesh), "zero-mean")
        M, S = op.mass, op.stiffness
        assert M.has_canonical_format and S.has_canonical_format
        assert M.indices.dtype == np.int32 and M.indptr.dtype == np.int32
        assert np.shares_memory(M.indices, S.indices) and np.shares_memory(M.indptr, S.indptr)
        level = build_hierarchy(M, S).levels[0]
        for kept, own in ((level.indices, M.indices), (level.indptr, M.indptr),
                          (level.mass, M.data), (level.stiffness, S.data)):
            assert np.shares_memory(kept, own)

    def test_traced_peak_within_a_multiple_of_the_output(self):
        # the transient of assemble at sphere level 5, against the bytes of
        # the arrays it returns (a shared array counted once): 4.7 with the
        # edge pattern, 7.7 with the two COO-to-CSR conversions it replaced
        mesh = gen_sphere(5)
        coeffs = coefficient_field(mesh)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            op = assemble(mesh, coeffs, "zero-mean")
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        arrays = {}
        for A in (op.mass, op.stiffness):
            for a in (A.data, A.indices, A.indptr):
                arrays[a.ctypes.data] = a.nbytes
        assert peak < 5.5 * sum(arrays.values())


def _assert_same_csr(A, B):
    for attr in ("data", "indices", "indptr"):
        np.testing.assert_array_equal(getattr(A, attr), getattr(B, attr))


def _reference_case(name, tmp_path):
    """(mesh, coefficients, mode, source, lambda_hat) of one reference comparison."""
    if name == "sphere3":
        mesh = gen_sphere(3)
        return mesh, coefficient_field(mesh), "zero-mean", lambda x: np.sign(x[:, 2]), 1.0
    if name == "torus_b":
        mesh = gen_torus(1.0, 0.3, 32, 16)
        coeffs = coefficient_field(mesh, a=lambda x: 1.0 + 0.5 * x[:, 2],
                                   b=lambda x: 1.0 + x[:, 0] ** 2)
        return (mesh, coeffs, "positive-reaction",
                lambda x: np.cos(3.0 * np.arctan2(x[:, 1], x[:, 0])), 0.9)
    if name == "square12_4":
        mesh = gen_graded_square(12, 4)
        return (mesh, coefficient_field(mesh), "dirichlet",
                lambda x: np.sign(x[:, 0] * x[:, 1]), 4.0)
    base = gen_sphere(2)
    perm = np.argsort(np.sin(np.arange(base.num_triangles, dtype=float) + 12345.0))
    path = tmp_path / "permuted.msh"
    write_msh41(path, base.vertices, base.triangles[perm])
    mesh = read_gmsh(path)
    coeffs = coefficient_field(mesh, a=lambda x: 2.0 + x[:, 0])
    return mesh, coeffs, "zero-mean", lambda x: np.sign(x[:, 2]), 1.0


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

    def test_non_positive_mass_diagonal_rejected(self, sphere2, sphere2_op):
        # a hand-built operator: the projection checks the diagonal that its
        # Jacobi step divides by, and names the first bad row
        mass = sphere2_op.mass.copy()
        mass[7, 7] = 0.0
        op = dataclasses.replace(sphere2_op, mass=mass)
        with pytest.raises(ValueError, match="^row 7 has mass diagonal 0; it must be positive$"):
            build_rhs(sphere2, lambda x: np.sign(x[:, 2]), op, method="l2_project")

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

    def test_same_bits_as_the_uncached_formula(self, sphere2_op):
        # M*1 and its sum are kept on the operator; the projection is still
        # v - (M 1).v / 1^T M 1, bit for bit, on the first call and later ones
        tiny = diagonal_op([1.0, 2.0, 0.5, 3.0, 1.5], [0.0, 1.0, 2.0, 3.0, 4.0], mode="zero-mean")
        for op in (dataclasses.replace(sphere2_op), tiny):
            v = np.cos(np.arange(op.n, dtype=float)) + 2.0
            m_ones = op.mass @ np.ones(op.n)
            expected = v - dot(m_ones, v) / float(m_ones.sum())
            for _ in range(2):
                np.testing.assert_array_equal(deflate_mean(v, op), expected)


# ----------------------------------------------------------------- references
# The element-matrix assembly and the np.add.at moment vector that `assemble`
# and `build_rhs` used before they became whole-array code. They are kept as
# the references the library is compared with above.

# phi values at the three edge midpoints (rows: midpoint of edges 01, 12, 20)
_MID_PHI = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])


def _element_geometry(mesh):
    p0 = mesh.vertices[mesh.triangles[:, 0]]
    p1 = mesh.vertices[mesh.triangles[:, 1]]
    p2 = mesh.vertices[mesh.triangles[:, 2]]
    e1 = p2 - p1
    e2 = p0 - p2
    e3 = p1 - p0
    normal = np.cross(e3, -e2)
    double_area = np.linalg.norm(normal, axis=1)
    nhat = normal / double_area[:, None]
    # grad phi_i = (nhat x e_i) / (2A), e_i the edge opposite vertex i
    grads = np.stack(
        [np.cross(nhat, e1), np.cross(nhat, e2), np.cross(nhat, e3)], axis=1
    ) / double_area[:, None, None]
    return 0.5 * double_area, grads


def _reference_accumulate(rows, cols, n, *vals):
    # entries sorted by (row, col) before reduction, by one stable sort
    keys = rows.astype(np.int64) * n + cols
    order = np.argsort(keys, kind="stable")
    k = keys[order]
    boundary = np.ones(len(k), dtype=bool)
    boundary[1:] = k[1:] != k[:-1]
    starts = np.nonzero(boundary)[0]
    r, c = np.divmod(k[starts], n)
    return [sp.csr_matrix((np.add.reduceat(v[order], starts), (r, c)), shape=(n, n))
            for v in vals]


def reference_assemble(mesh, coeffs, mode) -> AssembledOperator:
    """The (mass, stiffness) pencil from (t, 3, 3) element matrices."""
    _check_mode(mesh, coeffs, mode)
    area, grads = _element_geometry(mesh)
    tris = mesh.triangles

    a_bar = coeffs.a[tris].mean(axis=1)
    stiff_el = (a_bar * area)[:, None, None] * np.einsum("tid,tjd->tij", grads, grads)
    mass_local = (np.ones((3, 3)) + np.eye(3)) / 12.0
    mass_el = area[:, None, None] * mass_local
    b_mid = coeffs.b[tris] @ _MID_PHI.T  # linear b at the edge midpoints
    react_el = np.einsum("tq,qi,qj->tij", b_mid, _MID_PHI, _MID_PHI) * (area / 3.0)[:, None, None]

    n = mesh.num_vertices
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    M, S = _reference_accumulate(rows, cols, n, mass_el.ravel(), (stiff_el + react_el).ravel())
    if mode == MODE_DIRICHLET:
        free = np.nonzero(~mesh.boundary_vertices)[0]
        M = M[free][:, free].tocsr()
        S = S[free][:, free].tocsr()
    else:
        free = np.arange(n)

    tr = np.trace(stiff_el, axis1=1, axis2=2)
    minor_sum = 0.5 * (tr**2 - np.einsum("tij,tji->t", stiff_el, stiff_el))
    top = 0.5 * (tr + np.sqrt(np.maximum(tr**2 - 4.0 * minor_sum, 0.0)))
    ceiling = float(np.max(top * 12.0 / area)) + float(b_mid.max(initial=0.0))
    return AssembledOperator(mass=M, stiffness=S, mode=mode, free_dofs=free, vertex_count=n,
                             lambda_max_ceiling=ceiling, mass_diagonal_floor=0.5)


def reference_moment_vector(mesh, f) -> np.ndarray:
    """Integrals of f against each basis function by the degree-5 rule, by np.add.at."""
    vertex_vals = None if callable(f) else assembly._vertex_values(mesh, f)
    tris = mesh.triangles
    p = [mesh.vertices[tris[:, k]] for k in range(3)]
    area = 0.5 * np.linalg.norm(np.cross(p[1] - p[0], p[2] - p[0]), axis=1)
    b = np.zeros(mesh.num_vertices)
    for bc, w in zip(TRI_QUAD_POINTS, TRI_QUAD_WEIGHTS):
        if vertex_vals is None:
            x = bc[0] * p[0] + bc[1] * p[1] + bc[2] * p[2]
            fq = np.asarray(f(x), dtype=float)
        else:  # P1 interpolant of vertex data at the quadrature point
            fq = bc[0] * vertex_vals[tris[:, 0]] + bc[1] * vertex_vals[tris[:, 1]] \
                + bc[2] * vertex_vals[tris[:, 2]]
        for k in range(3):
            np.add.at(b, tris[:, k], area * w * fq * bc[k])
    return b


def coo_accumulate(tris, n, *local):
    """`assembly._accumulate` as it was before the edge pattern: one COO-to-CSR conversion each.

    A diagonal sum adds the entries of the vertex's triangles in triangle
    order, then the first triangle's entry; scipy's conversion sums each
    edge's two entries and keeps explicit zeros, so both matrices have the
    same pattern.
    """
    flat = tris.ravel()
    nxt = tris[:, [1, 2, 0]].ravel()
    first = np.full(n, len(flat))
    np.minimum.at(first, flat, np.arange(len(flat)))
    used = first < len(flat)  # a vertex in no triangle gets no entry
    first = first[used]
    diag = np.flatnonzero(used)
    rows = np.concatenate([flat, nxt, diag])
    cols = np.concatenate([nxt, flat, diag])
    out = []
    for on_diag, on_edge in local:
        rest = on_diag.copy()
        rest[first] = 0.0
        summed = np.bincount(flat, rest, minlength=n)[used] + on_diag[first]
        out.append(sp.csr_matrix((np.concatenate([on_edge, on_edge, summed]), (rows, cols)),
                                 shape=(n, n)))
    return out
