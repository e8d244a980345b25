import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp

from fracsurf import (
    assemble,
    build_rhs,
    coefficient_field,
    gen_graded_square,
    gen_sphere,
    gen_torus,
)
from fracsurf.multigrid import MAX_COARSE, ShiftedVCycle, build_hierarchy
from fracsurf.solver import SolverConfig, fractional_apply

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture(scope="module")
def torus_op():
    mesh = gen_torus(1.0, 0.3, 32, 16)
    return assemble(mesh, coefficient_field(mesh, a=1.0, b=1.0), "positive-reaction")


@pytest.fixture(scope="module")
def graded_op():
    mesh = gen_graded_square(12, 4)
    return assemble(mesh, coefficient_field(mesh), "dirichlet")


def _sphere_case(level):
    mesh = gen_sphere(level)
    op = assemble(mesh, coefficient_field(mesh), "zero-mean")
    return op, build_rhs(mesh, lambda x: np.sign(x[:, 2]), op, method="l2_project")


class TestVCycle:
    # mass-dominated, balanced and stiffness-dominated shifts of the scheme's range
    SHIFTS = [(0.999, 1e-3), (0.5, 0.5), (1e-3, 0.999)]

    @pytest.mark.parametrize("name", ["square16_op", "sphere3_op", "torus_op"])
    def test_symmetric_positive_definite(self, name, request):
        op = request.getfixturevalue(name)
        h = build_hierarchy(op.mass, op.stiffness)
        assert len(h.sizes) >= 2 and h.sizes[0] == op.n and h.sizes[-1] <= MAX_COARSE
        rng = np.random.default_rng(7)
        for c1, c2 in self.SHIFTS:
            vcycle = ShiftedVCycle(h, c1, c2)
            for _ in range(3):
                u, v = rng.standard_normal(op.n), rng.standard_normal(op.n)
                uu, vv = u @ vcycle(u), v @ vcycle(v)
                assert uu > 0.0 and vv > 0.0
                # relative to sqrt(uu * vv), which bounds |u.Vv| for SPD V;
                # u.Vv itself can cancel to a small fraction of that
                assert abs(u @ vcycle(v) - v @ vcycle(u)) <= 1e-12 * np.sqrt(uu * vv)

    def test_non_positive_diagonal_rejected(self, sphere3_op):
        h = build_hierarchy(sphere3_op.mass, sphere3_op.stiffness)
        with pytest.raises(ValueError, match="matrix has non-positive diagonal, not SPD"):
            ShiftedVCycle(h, -1.0, 0.0)

    def test_coarsest_solve_is_exact(self, sphere3_op):
        # with a single level the cycle is the eigenbasis solve itself
        op = sphere3_op
        h = build_hierarchy(op.mass, op.stiffness)
        vcycle = ShiftedVCycle(h, 0.3, 0.7)
        A = vcycle.matrix.toarray()
        np.testing.assert_allclose(A, (0.3 * op.mass + 0.7 * op.stiffness).toarray(), rtol=0)
        coarsest = h.levels[-1]
        h1 = build_hierarchy(coarsest.shifted(1.0, 0.0), coarsest.shifted(0.0, 1.0))
        assert len(h1.sizes) == 1
        coarse = ShiftedVCycle(h1, 0.3, 0.7)
        b = np.sin(np.arange(h1.sizes[0]) + 1.0)
        x = coarse(b)
        np.testing.assert_allclose(coarse.matrix @ x, b, rtol=0, atol=1e-12 * np.abs(b).max())


    def test_all_weak_connections_still_coarsen(self, square16_op):
        # a stiffness dominated by its diagonal has no strong connection at the
        # default threshold; aggregation falls back to the matrix graph rather
        # than leaving a fine-level eigendecomposition to the coarsest solve
        op = square16_op
        S = (op.stiffness + 1e3 * sp.diags(op.stiffness.diagonal())).tocsr()
        h = build_hierarchy(op.mass, S)
        assert h.sizes[0] == op.n and h.sizes[-1] <= MAX_COARSE


class TestSchemeSolves:
    def test_iterations_do_not_grow_with_n(self):
        most = {}
        for level in (3, 5):
            op, f = _sphere_case(level)
            res = fractional_apply(op, f, 0.5, SolverConfig(lambda_hat=1.0, m=3))
            most[level] = max(r.iterations for r in res.solve_log)
            assert res.mg_levels[0] == op.n and res.mg_levels[-1] <= MAX_COARSE
        assert most[5] <= 1.5 * most[3], most

    def test_correction_form_saves_iterations(self):
        # CG iterations in all, under the default budget / at cg_rel_tol 1e-8:
        # 389 / 418 solving each term for its correction U - x from the
        # Galerkin start on the previous term's correction; 494 / 523 solving
        # for x from zero, 449 / 474 for the correction from zero, and
        # 389 / 466 with the relative test against the correction's own
        # right-hand side instead of ||B_l U||
        op, f = _sphere_case(4)
        for tol, alternative in ((None, 449), (1e-8, 466)):
            res = fractional_apply(op, f, 0.5, SolverConfig(lambda_hat=1.0, m=3, cg_rel_tol=tol))
            assert sum(r.iterations for r in res.solve_log) < alternative

    def test_repeat_calls_bit_identical(self, sphere3_op):
        mesh = gen_sphere(3)
        f = build_rhs(mesh, lambda x: np.sign(x[:, 2]), sphere3_op, method="l2_project")
        cfg = SolverConfig(lambda_hat=1.0, m=3)
        a = fractional_apply(sphere3_op, f, 0.5, cfg)
        b = fractional_apply(sphere3_op, f, 0.5, cfg)
        assert np.array_equal(a.solution, b.solution)
        assert [r.iterations for r in a.solve_log] == [r.iterations for r in b.solve_log]

    def test_blas_thread_count_does_not_change_solution(self):
        # n = 10242 is above the size at which OpenBLAS splits a dot product
        # between threads, which changes its rounding
        script = (
            "import hashlib, numpy as np\n"
            "from fracsurf import assemble, build_rhs, coefficient_field, gen_sphere\n"
            "from fracsurf.solver import SolverConfig, fractional_apply\n"
            "mesh = gen_sphere(5)\n"
            "op = assemble(mesh, coefficient_field(mesh), 'zero-mean')\n"
            "f = build_rhs(mesh, lambda x: np.sign(x[:, 2]), op, method='l2_project')\n"
            "res = fractional_apply(op, f, 0.5, SolverConfig(lambda_hat=1.0, m=3))\n"
            "print(hashlib.sha256(res.solution.tobytes()).hexdigest())\n"
        )
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
            out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                 capture_output=True, text=True, timeout=300)
            digests.append(out.stdout.strip())
        assert digests[0] == digests[1]

    def test_graded_square_at_defaults(self):
        # the default cap of 10*sqrt(n) = 970 iterations, first with the error
        # budget and then at cg_rel_tol 1e-12; Jacobi-PCG stalled near 1e-11 on
        # this mesh and exhausted the cap
        mesh = gen_graded_square(25, 12)
        op = assemble(mesh, coefficient_field(mesh), "dirichlet")
        checker = np.sign(mesh.vertices[:, 0] * mesh.vertices[:, 1])
        checker[checker == 0] = 1.0
        f = build_rhs(mesh, checker, op, method="interpolate")
        cfg = SolverConfig(lambda_hat=4.0, m=3)
        assert cfg.max_iter(op.n) == 970
        res = fractional_apply(op, f, 0.5, cfg)
        assert res.cg_error_bound <= res.a_priori_bound / 100
        assert max(r.iterations for r in res.solve_log) <= 200
        res = fractional_apply(op, f, 0.5, SolverConfig(lambda_hat=4.0, m=3, cg_rel_tol=1e-12))
        assert res.max_residual <= 1e-12
        assert max(r.iterations for r in res.solve_log) <= 200


class TestSharedPattern:
    @staticmethod
    def _pencil(name, request):
        if name == "lumped_square":
            # a row-sum lumped mass is diagonal, so its stored pattern is not the stiffness's
            op = request.getfixturevalue("square16_op")
            return sp.diags(np.asarray(op.mass.sum(axis=1)).ravel()).tocsr(), op.stiffness
        op = request.getfixturevalue(name)
        return op.mass, op.stiffness

    @pytest.mark.parametrize("name", ["sphere3_op", "torus_op", "lumped_square"])
    def test_shifted_levels_equal_the_sum(self, name, request):
        M, S = self._pencil(name, request)
        h = build_hierarchy(M, S)
        assert len(h.levels) >= 2
        patterns_differ = False
        for k, level in enumerate(h.levels):
            if k:  # the Galerkin products the hierarchy was built from
                P, R = h.prolong[k - 1], h.restrict[k - 1]
                M, S = (R @ M @ P).tocsr(), (R @ S @ P).tocsr()
            patterns_differ |= M.nnz != S.nnz
            for c1, c2 in TestVCycle.SHIFTS + [(1.0, 0.0), (0.0, 1.0)]:
                expected = c1 * M + c2 * S
                np.testing.assert_array_equal(level.shifted(c1, c2).toarray(), expected.toarray())
                np.testing.assert_array_equal(
                    c1 * level.mass_diagonal + c2 * level.stiffness_diagonal, expected.diagonal())
        assert patterns_differ == (name == "lumped_square")

    @pytest.mark.parametrize("name", ["sphere3_op", "torus_op", "square16_op", "graded_op"])
    def test_fine_level_is_the_operators_own(self, name, request):
        # an assembled operator stores mass and stiffness on one canonical
        # pattern with the diagonal, which the fine level takes without a copy
        op = request.getfixturevalue(name)
        fine = build_hierarchy(op.mass, op.stiffness).levels[0]
        assert np.shares_memory(fine.mass, op.mass.data)
        assert np.shares_memory(fine.stiffness, op.stiffness.data)
        assert np.shares_memory(fine.indices, op.mass.indices)
        np.testing.assert_array_equal(fine.mass_diagonal, op.mass.diagonal())
        np.testing.assert_array_equal(fine.stiffness_diagonal, op.stiffness.diagonal())

    def test_different_patterns_take_the_union(self, square16_op):
        # the unit square's Dirichlet stiffness stores exact zeros; without
        # them its pattern differs from the mass's, and the union of the two
        # rebuilds the level the shared pattern gives
        op = square16_op
        S = op.stiffness.copy()
        S.eliminate_zeros()
        assert S.nnz < op.stiffness.nnz
        shared = build_hierarchy(op.mass, op.stiffness).levels[0]
        union = build_hierarchy(op.mass, S).levels[0]
        assert not np.shares_memory(union.stiffness, S.data)
        for name in ("indptr", "indices", "mass", "stiffness", "mass_diagonal",
                     "stiffness_diagonal"):
            np.testing.assert_array_equal(getattr(union, name), getattr(shared, name))
