import dataclasses
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
from fracsurf import multigrid, solver
from fracsurf.assembly import csr_matvec_into
from fracsurf.multigrid import COMBINE_CHUNK, MAX_COARSE, ShiftedVCycle, build_hierarchy
from fracsurf.scheme import certified_scheme_error
from fracsurf.solver import SolverConfig, fractional_apply
from util import cg_budget

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


def _shifted(level, c1, c2):
    """c1*M + c2*S of a `PencilLevel` as a fresh CSR matrix on its shared pattern."""
    return sp.csr_matrix((c1 * level.mass + c2 * level.stiffness, level.indices, level.indptr),
                         shape=(level.n, level.n))


class ReferenceVCycle:
    """The allocating V-cycle that the workspace replaced, kept as its reference.

    Each shift builds fresh matrices with `_shifted` and each cycle allocates
    its vectors and multiplies with `A @ x`; `shift` gives it the workspace's
    interface, so that it can stand in for it.
    """

    def __init__(self, h, c1, c2):
        self._h = h
        self.shift(c1, c2)

    def shift(self, c1, c2):
        h = self._h
        diagonals = [c1 * lv.mass_diagonal + c2 * lv.stiffness_diagonal for lv in h.levels]
        if np.any(diagonals[0] <= 0.0):
            raise ValueError("matrix has non-positive diagonal, not SPD")
        self._ops = [_shifted(level, c1, c2) for level in h.levels]
        self._smoothers = [w / d for w, d in zip(h.jacobi_weights, diagonals)]
        self._coarse_scale = 1.0 / (c1 + c2 * h.coarse_values)
        self.matrix = self._ops[0]

    def __call__(self, r, out=None):
        if out is None:
            return self._cycle(0, r)
        out[:] = self._cycle(0, r)
        return out

    def _cycle(self, k, r):
        if k == len(self._smoothers):
            V = self._h.coarse_vectors
            return np.einsum("ij,j->i", V, self._coarse_scale * np.einsum("ij,i->j", V, r))
        A, d, h = self._ops[k], self._smoothers[k], self._h
        x = d * r
        x += h.prolong[k] @ self._cycle(k + 1, h.restrict[k] @ (r - A @ x))
        x += d * (r - A @ x)
        return x


def _reference_matvec_into(A, x, out):
    out[:] = A @ x
    return out


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

    # shifts outside the contract c1 > 0, c2 >= 0
    REJECTED = [(-1.0, 0.0), (0.0, 1.0), (1.0, -1e-3), (float("nan"), 1.0)]

    def test_non_positive_diagonal_rejected(self, sphere3_op):
        h = build_hierarchy(sphere3_op.mass, sphere3_op.stiffness)
        for c1, c2 in self.REJECTED:
            with pytest.raises(ValueError, match="matrix has non-positive diagonal, not SPD"):
                ShiftedVCycle(h, c1, c2)

    @pytest.mark.parametrize("bad", ["mass_zero", "mass_nan", "stiffness_negative"])
    def test_hierarchy_names_a_bad_diagonal_row(self, square16_op, bad):
        # the diagonal is checked once per operator, where the hierarchy is built
        M, S = square16_op.mass.copy(), square16_op.stiffness.copy()
        A, value = {"mass_zero": (M, 0.0), "mass_nan": (M, np.nan),
                    "stiffness_negative": (S, -1e-3)}[bad]
        A[5, 5] = value
        with pytest.raises(ValueError, match=r"^row 5 has mass diagonal .* they must be "
                                             "positive and non-negative$"):
            build_hierarchy(M, S)

    def test_coarsest_solve_is_exact(self, sphere3_op):
        # with a single level the cycle is the eigenbasis solve itself
        op = sphere3_op
        h = build_hierarchy(op.mass, op.stiffness)
        vcycle = ShiftedVCycle(h, 0.3, 0.7)
        A = vcycle.matrix.toarray()
        np.testing.assert_allclose(A, (0.3 * op.mass + 0.7 * op.stiffness).toarray(), rtol=0)
        coarsest = h.levels[-1]
        h1 = build_hierarchy(_shifted(coarsest, 1.0, 0.0), _shifted(coarsest, 0.0, 1.0))
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


def _reference_aggregate(G):
    """Three greedy passes, one plain loop each; `multigrid._aggregate` runs the first two.

    Returns the aggregates, their count and the nodes that pass 3 assigned.
    """
    indptr, indices = G.indptr.tolist(), G.indices.tolist()
    n = len(indptr) - 1
    agg = [-1] * n
    count = 0
    for i in range(n):
        nbrs = indices[indptr[i]:indptr[i + 1]]
        if nbrs and agg[i] < 0 and all(agg[j] < 0 for j in nbrs):
            agg[i] = count
            for j in nbrs:
                agg[j] = count
            count += 1
    first = agg[:]
    for i in range(n):
        if agg[i] < 0:
            for j in indices[indptr[i]:indptr[i + 1]]:
                if first[j] >= 0:
                    agg[i] = first[j]
                    break
    second = agg[:]
    for i in range(n):
        nbrs = indices[indptr[i]:indptr[i + 1]]
        if nbrs and agg[i] < 0:
            agg[i] = count
            for j in nbrs:
                if agg[j] < 0:
                    agg[j] = count
            count += 1
    third = sum(a != b for a, b in zip(agg, second))
    return np.array(agg, dtype=np.int64), count, third


class TestAggregation:
    @pytest.mark.parametrize("name", ["sphere3_op", "torus_op", "graded_op", "square16_op"])
    def test_aggregates_equal_the_reference_loop(self, name, request, monkeypatch):
        # every strength graph the hierarchy build aggregates, and each level's
        # graph at a lower and a higher threshold (more and fewer isolated
        # nodes), gives the aggregates of the plain loop
        op = request.getfixturevalue(name)
        graphs, real = [], multigrid._aggregate

        def recording(G):
            graphs.append(G)
            return real(G)

        monkeypatch.setattr(multigrid, "_aggregate", recording)
        h = build_hierarchy(op.mass, op.stiffness)
        assert len(graphs) == len(h.sizes) - 1 >= 1
        for level in h.levels:
            S = _shifted(level, 0.0, 1.0)
            graphs += [multigrid._strength(S, level.stiffness_diagonal, theta)
                       for theta in (0.0, 0.3)]
        isolated = 0
        for G in graphs:
            agg, count = real(G)
            ref_agg, ref_count, third = _reference_aggregate(G)
            assert third == 0  # pass 3, which _aggregate lacks, assigns no node
            assert count == ref_count and agg.dtype == ref_agg.dtype
            np.testing.assert_array_equal(agg, ref_agg)
            isolated += int(np.sum(np.diff(G.indptr) == 0))
        assert isolated > 0  # some graph has nodes without strong neighbours


class TestCsrMatvecInto:
    @pytest.mark.parametrize("name", ["sphere3_op", "torus_op", "square16_op", "graded_op"])
    def test_bits_of_the_operator_product(self, name, request):
        # every level operator, prolongator and restriction, into a buffer
        # that holds stale values
        op = request.getfixturevalue(name)
        h = build_hierarchy(op.mass, op.stiffness)
        matrices = [_shifted(lv, c1, c2) for lv in h.levels for c1, c2 in TestVCycle.SHIFTS]
        for A in matrices + h.prolong + h.restrict:
            x = np.sin(np.arange(1.0, A.shape[1] + 1))
            out = np.full(A.shape[0], np.nan)
            assert csr_matvec_into(A, x, out) is out
            np.testing.assert_array_equal(out, A @ x)

    def test_int64_indices(self, sphere3_op):
        A = sphere3_op.stiffness
        wide = A.copy()  # scipy narrows indices on construction, so widen them afterwards
        wide.indices, wide.indptr = A.indices.astype(np.int64), A.indptr.astype(np.int64)
        assert wide.indices.dtype == wide.indptr.dtype == np.int64
        x = np.cos(np.arange(A.shape[0]))
        np.testing.assert_array_equal(csr_matvec_into(wide, x, np.empty(A.shape[0])), A @ x)

    def test_shapes_and_format_checked(self):
        # the compiled kernel reads and writes by the matrix's shape alone
        A = sp.csr_matrix(np.arange(6.0).reshape(2, 3))
        for x, out in ((np.ones(2), np.empty(2)), (np.ones(3), np.empty(3))):
            with pytest.raises(ValueError, match="expected a CSR matrix"):
                csr_matvec_into(A, x, out)
        with pytest.raises(ValueError, match="expected a CSR matrix"):
            csr_matvec_into(A.tocsc(), np.ones(3), np.empty(2))


class TestWorkspace:
    @pytest.mark.parametrize("name", ["sphere3_op", "torus_op", "graded_op"])
    def test_shifted_twice_equals_fresh_and_reference(self, name, request):
        op = request.getfixturevalue(name)
        h = build_hierarchy(op.mass, op.stiffness)
        workspace = ShiftedVCycle(h, 1.0, 1.0)
        r = np.sin(np.arange(1.0, op.n + 1))
        for c1, c2 in TestVCycle.SHIFTS:
            workspace.shift(c1, c2)
            before = workspace(r)
            for bad in TestVCycle.REJECTED:
                with pytest.raises(ValueError, match="non-positive diagonal"):
                    workspace.shift(*bad)
                # a rejected shift changes nothing
                np.testing.assert_array_equal(workspace(r), before)
            fresh, reference = ShiftedVCycle(h, c1, c2), ReferenceVCycle(h, c1, c2)
            for level, A in zip(h.levels, workspace._ops):
                np.testing.assert_array_equal(A.data, _shifted(level, c1, c2).data)
            for out in (None, np.full(op.n, np.nan)):
                result = workspace(r, out)
                assert out is None or result is out
                np.testing.assert_array_equal(result, fresh(r))
                np.testing.assert_array_equal(result, reference(r))

    @pytest.mark.parametrize("chunk", [COMBINE_CHUNK, 1000, 7])
    def test_shift_in_chunks_has_the_bits_of_one_pass(self, graded_op, monkeypatch, chunk):
        # the scratch holds at most `chunk` values, fewer than the fine
        # matrix's, and a shift through it has the bits of c1*m + c2*s
        monkeypatch.setattr(multigrid, "COMBINE_CHUNK", chunk)
        h = build_hierarchy(graded_op.mass, graded_op.stiffness)
        assert len(h.levels[0].indices) > COMBINE_CHUNK
        workspace = ShiftedVCycle(h, 1.0, 1.0)
        assert len(workspace._scratch) == chunk
        r = np.sin(np.arange(1.0, graded_op.n + 1))
        for c1, c2 in TestVCycle.SHIFTS:
            workspace.shift(c1, c2)
            for level, A in zip(h.levels, workspace._ops):
                np.testing.assert_array_equal(A.data, _shifted(level, c1, c2).data)
            np.testing.assert_array_equal(workspace(r), ReferenceVCycle(h, c1, c2)(r))

    def test_results_stay_independent(self, sphere3_op):
        # a result is the caller's array, never a workspace buffer: two held
        # at once keep their values, and a result the caller edits changes
        # nothing the next call reads
        h = build_hierarchy(sphere3_op.mass, sphere3_op.stiffness)
        workspace, reference = ShiftedVCycle(h, 0.5, 0.5), ReferenceVCycle(h, 0.5, 0.5)
        r1, r2 = (np.sin(k * np.arange(1.0, sphere3_op.n + 1)) for k in (1.0, 2.0))
        first = workspace(r1)
        first *= 0.5
        second = workspace(r2)
        np.testing.assert_array_equal(first, 0.5 * reference(r1))
        np.testing.assert_array_equal(second, reference(r2))
        assert not np.shares_memory(first, second)

    @pytest.mark.parametrize("name", ["sphere3", "sphere6", "torus", "graded"])
    def test_fractional_apply_equals_the_allocating_path(self, name, torus_op, monkeypatch):
        # solutions, solve logs, cg_error_bound and theta equal those of the
        # allocating cycle with `A @ x` products, bit for bit; the workspace is
        # not kept with the operator
        if name.startswith("sphere"):
            op, f = _sphere_case(int(name[6:]))
            lh = 1.0
        elif name == "torus":
            op, lh = torus_op, 0.9
            f = np.sin(np.arange(1.0, op.n + 1))
        else:
            mesh = gen_graded_square(25, 12)
            op = assemble(mesh, coefficient_field(mesh), "dirichlet")
            f, lh = np.sin(np.arange(1.0, op.n + 1)), 4.0
        cfg = SolverConfig(lambda_hat=lh, m=3)
        results = []
        for patched in (False, True):
            if patched:
                monkeypatch.setattr(solver, "ShiftedVCycle", ReferenceVCycle)
                monkeypatch.setattr(solver, "csr_matvec_into", _reference_matvec_into)
            fresh = dataclasses.replace(op)
            res = fractional_apply(fresh, f, 0.5, cfg)
            assert not any(isinstance(v, (ShiftedVCycle, ReferenceVCycle))
                           for v in fresh.prepared.values())
            results.append((res, fresh.prepared[("theta", lh)]))
        (new, theta), (ref, ref_theta) = results
        np.testing.assert_array_equal(new.solution, ref.solution)
        assert new.solve_log == ref.solve_log
        assert new.cg_error_bound == ref.cg_error_bound and theta == ref_theta


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
        # 137 / 284 solving each term for its correction U - x from the
        # Galerkin projection onto the span of all m corrections of the
        # previous step and the last term's correction of the step before;
        # 169 / 325 onto the m corrections of the previous step alone;
        # 281 / 437 from the projection onto the same term's own correction
        # alone; 324 / 474 for the correction from zero, and 372 / 523
        # solving for x from zero. Under the former budget, a hundredth of
        # the a-priori bound, the last three read 401, 449 and 494; at an
        # earlier commit a start from the previous term's correction in the
        # same step, which kept the terms from running concurrently, took
        # 389 / 418
        op, f = _sphere_case(4)
        for tol, alternative in ((None, 169), (1e-8, 325)):
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
        scheme_error = certified_scheme_error(3, 0.5, 4.0, res.lambda_max_used) * op.m_norm(f)
        assert res.cg_error_bound <= cg_budget(res.a_priori_bound, scheme_error)
        assert res.certified_error <= 1.01 * res.a_priori_bound
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
                np.testing.assert_array_equal(_shifted(level, c1, c2).toarray(),
                                              expected.toarray())
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
