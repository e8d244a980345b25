import dataclasses
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from fracsurf import assembly, solver
from fracsurf.assembly import assemble, build_rhs, coefficient_field, deflate_mean, dot
from fracsurf.mesh import gen_graded_square, gen_sphere, gen_torus, gen_unit_square
from fracsurf.cli import main
from fracsurf.multigrid import ShiftedVCycle, build_hierarchy
from fracsurf.oracle import dense_decompose, dense_fractional
from fracsurf.pade import build_pade
from fracsurf.scheme import build_time_grid, certified_scheme_error, scalar_mu, scheme_error_bound
from fracsurf.solver import (
    CG_BUDGET_FRACTION,
    SolverConfig,
    apriori_bound,
    estimate_lambda_max,
    fractional_apply,
    pcg,
    suggest_lambda_hat,
)
from util import cg_budget, diagonal_op, jacobi, pcg_work

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


class TestPcg:
    def test_matches_direct_solve(self):
        rng = np.arange(1, 26, dtype=float)
        A = sp.diags(rng) + sp.eye(25) * 0.5
        b = np.sin(rng)
        x, iters, rel = pcg(A.tocsr(), b, rel_tol=1e-13, precond=jacobi(A), work=pcg_work(25))
        assert rel <= 1e-13
        assert x == pytest.approx(b / (rng + 0.5), rel=1e-11)

    def test_zero_rhs(self):
        A = sp.eye(4, format="csr")
        x, iters, rel = pcg(A, np.zeros(4), precond=jacobi(A), work=pcg_work(4))
        assert iters == 0 and np.all(x == 0)

    def test_budget_exhaustion_reports(self):
        n = 400
        main = 2.0 * np.ones(n)
        off = -1.0 * np.ones(n - 1)
        A = sp.diags([off, main, off], [-1, 0, 1]).tocsr()
        with pytest.raises(RuntimeError, match="residuals"):
            pcg(A, np.ones(n), rel_tol=1e-14, max_iter=3, precond=jacobi(A), work=pcg_work(n))

    def test_default_cap_and_residual_tail(self):
        # the default cap is SolverConfig.max_iter(n); the message keeps the last five residuals
        n = 1000
        main = 2.0 * np.ones(n)
        off = -1.0 * np.ones(n - 1)
        A = sp.diags([off, main, off], [-1, 0, 1]).tocsr()
        cap = SolverConfig().max_iter(n)
        with pytest.raises(RuntimeError, match=f"in {cap} iterations") as info:
            pcg(A, np.ones(n), rel_tol=1e-14, precond=jacobi(A), work=pcg_work(n))
        assert len(str(info.value).split("last residuals")[1].split(",")) == 5

    def test_preconditioner_argument(self):
        # the exact inverse as preconditioner converges in one step; Jacobi needs more
        n = 25
        A = sp.diags([-np.ones(n - 1), 3.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]).tocsr()
        inverse = np.linalg.inv(A.toarray())
        b = np.sin(np.arange(1.0, n + 1))
        x, iters, rel = pcg(A, b, rel_tol=1e-13,
                            precond=lambda r, out: np.matmul(inverse, r, out=out),
                            work=pcg_work(n))
        assert iters == 1 and x == pytest.approx(inverse @ b, rel=1e-12)
        assert pcg(A, b, rel_tol=1e-13, precond=jacobi(A), work=pcg_work(n))[1] > 1

    def test_exact_start_takes_no_iteration(self):
        # a 1x1 system solved by its start in work[0]: the first step would
        # divide by p.Ap = 0; pcg returns the start as x, after 0 iterations
        A = sp.csr_matrix([[4.0]])
        b = np.array([2.0])
        for kwargs in ({"rel_tol": 1e-12}, {"rel_tol": 0.0, "weight": np.ones(1)}):
            work = pcg_work(1, 0.5)
            x, iters, rel = pcg(A, b, ref_norm=2.0, precond=jacobi(A), work=work, **kwargs)
            assert iters == 0 and x is work[0] and x[0] == 0.5 and rel == 0.0
            assert work[1][0] == 0.0
        # on a larger system the start's true residual is returned as is
        n = 25
        A = sp.diags([-np.ones(n - 1), 3.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]).tocsr()
        b = np.sin(np.arange(1.0, n + 1))
        x0 = np.linalg.solve(A.toarray(), b)
        work = pcg_work(n, x0)
        x, iters, rel = pcg(A, b, rel_tol=1e-12, precond=jacobi(A), work=work)
        residual = work[1]
        assert iters == 0 and x is work[0] and np.array_equal(x, x0)
        np.testing.assert_array_equal(residual, b - A @ x0)
        assert rel == pytest.approx(np.linalg.norm(residual) / np.linalg.norm(b), rel=1e-14)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_arbitrary_start_meets_the_same_tests(self, weighted):
        # from a start x0 in work[0] the relative test still divides by ||b||
        # (or ref_norm), the weighted test reads the same residual, and
        # work[1] holds the bytes of b - A x of the returned x
        vcycle, b, weight, tol = _vcycle_system(3)
        A, n = vcycle.matrix, len(b)
        kwargs = dict(rel_tol=1e-14 if weighted else 1e-10, precond=vcycle)
        if weighted:
            kwargs.update(weight=weight, weighted_tol=tol)
        x0 = np.cos(np.arange(1.0, n + 1))
        work = pcg_work(n, x0)
        x, iters, rel = pcg(A, b, work=work, **kwargs)
        residual = b - A @ x
        assert iters > 0 and x is work[0]
        assert work[1].tobytes() == residual.tobytes()
        if weighted:  # the weighted test, not the relative one, stopped it
            assert rel > 1e-14 and math.sqrt(dot(weight * residual, residual)) <= tol
        else:
            assert rel <= 1e-10 and np.linalg.norm(residual) <= 2e-10 * np.linalg.norm(b)
        # a zero b with a start: relative to the start's residual, towards x = 0
        x, iters, rel = pcg(A, np.zeros(n), rel_tol=1e-10, precond=vcycle, work=pcg_work(n, x0))
        assert iters > 0 and np.linalg.norm(A @ x) <= 2e-10 * np.linalg.norm(A @ x0)

    @pytest.mark.parametrize("ref_norm", [0.0, -1.0, math.nan, math.inf])
    def test_reference_norm_not_positive_and_finite_rejected(self, ref_norm):
        # 0.0 would divide by zero, and -1.0 would pass the relative test at once
        A = sp.eye(3, format="csr")
        with pytest.raises(ValueError, match=r"^ref_norm must be positive and finite, got "):
            pcg(A, np.ones(3), ref_norm=ref_norm, precond=jacobi(A), work=pcg_work(3))

    def test_reference_norm_sets_the_relative_test(self):
        n = 400
        A = sp.diags([-np.ones(n - 1), 2.5 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]).tocsr()
        exact = np.sin(np.arange(1.0, n + 1))
        b = A @ exact
        x0 = exact + 1e-3 * np.cos(np.arange(1.0, n + 1))
        start = np.linalg.norm(b - A @ x0)  # the residual of the start x0
        norm_b = np.linalg.norm(b)
        # a start within rel_tol * ref_norm passes before the first iteration
        ref = 2.0 * start / 1e-6
        x, iters, rel = pcg(A, b, rel_tol=1e-6, ref_norm=ref, precond=jacobi(A),
                            work=pcg_work(n, x0))
        assert iters == 0 and rel == pytest.approx(start / ref, rel=1e-14)
        assert start / norm_b > 1e-6
        # later iterations divide by ref_norm too: the same iterates as the
        # default reference, ||b||, at the tolerance scaled by ref_norm / ||b||
        ref = 100.0 * norm_b
        work = pcg_work(n, x0)
        x, iters, rel = pcg(A, b, rel_tol=1e-10, ref_norm=ref, precond=jacobi(A), work=work)
        residual = work[1]
        x_b, iters_b, rel_b = pcg(A, b, rel_tol=1e-10 * ref / norm_b, precond=jacobi(A),
                                  work=pcg_work(n, x0))
        assert 0 < iters == iters_b < pcg(A, b, rel_tol=1e-10, precond=jacobi(A),
                                          work=pcg_work(n, x0))[1]
        np.testing.assert_array_equal(x, x_b)
        assert rel <= 1e-10 and rel == pytest.approx(rel_b * norm_b / ref, rel=1e-14)
        assert np.linalg.norm(residual) / ref <= 2e-10


class TestPcgGate:
    @pytest.mark.parametrize("name", ["sphere", "torus", "square"])
    def test_gated_test_matches_ungated_loop(self, name, monkeypatch):
        # every solve of a default-budget run returns the iterations, x, the
        # relative residual and the true residual of the reference loop, bit
        # for bit
        op, f, lh = _budget_case(name)
        weighted = []

        def checked_pcg(A, b, **kwargs):
            ref_residual = np.empty_like(b)
            ref = ungated_pcg(A, b, **{**kwargs, "residual": ref_residual})
            x, iters, rel = pcg(A, b, **kwargs)
            assert iters == ref[1] and rel == ref[2]
            np.testing.assert_array_equal(x, ref[0])
            np.testing.assert_array_equal(kwargs["work"][1], ref_residual)
            weighted.append(kwargs["weight"] is not None)
            return x, iters, rel

        monkeypatch.setattr(solver, "pcg", checked_pcg)
        for alpha in (0.1, 0.9):
            res = fractional_apply(op, f, alpha, SolverConfig(lambda_hat=lh, m=3))
        assert len(weighted) == 2 * res.total_solves and all(weighted)

    @pytest.mark.parametrize("name", ["sphere", "square"])
    def test_rhs_mass_solve_matches_reference_loop(self, name):
        # build_rhs passes pcg its own Jacobi step, after checking the mass
        # diagonal: the projection has the bytes of the reference loop's
        # Jacobi default
        if name == "sphere":
            mesh, mode, f = gen_sphere(3), "zero-mean", lambda x: np.sign(x[:, 2])
        else:
            mesh, mode, f = gen_graded_square(12, 4), "dirichlet", lambda x: np.cos(3.0 * x[:, 0])
        op = assemble(mesh, coefficient_field(mesh), mode)
        b = assembly._moment_vector(mesh, f)[op.free_dofs]
        ref = ungated_pcg(op.mass, b, rel_tol=1e-14)[0]
        if mode == "zero-mean":
            ref = deflate_mean(ref, op)
        assert build_rhs(mesh, f, op, method="l2_project").tobytes() == ref.tobytes()


def _vcycle_system(level):
    """A shifted sphere pencil's V-cycle, a zero-mean right-hand side and the budget weight."""
    mesh = gen_sphere(level)
    op = assemble(mesh, coefficient_field(mesh), "zero-mean")
    vcycle = ShiftedVCycle(build_hierarchy(op.mass, op.stiffness), 0.5, 0.5)
    b = deflate_mean(np.sin(np.arange(1.0, op.n + 1)), op)
    weight = 1.0 / (op.mass_diagonal_floor * op.mass.diagonal())
    return vcycle, b, weight, 1e-7 * math.sqrt(dot(weight * b, b))


class TestPcgWork:
    @pytest.mark.parametrize("weighted", [False, True])
    def test_same_bits_in_the_given_vectors(self, weighted):
        # from a zero start pcg writes the other four vectors it is given,
        # whatever they held, returns the first as x, and gives the bits of
        # the reference loop; the true residual it leaves in work[1] is that
        # of the reference loop's x
        vcycle, b, weight, tol = _vcycle_system(3)
        A, n = vcycle.matrix, len(b)
        kwargs = dict(rel_tol=1e-14 if weighted else 1e-10, precond=vcycle)
        if weighted:
            kwargs.update(weight=weight, weighted_tol=tol)
        ref_residual = np.empty(n)
        ref = ungated_pcg(A, b, residual=ref_residual, **kwargs)
        if weighted:  # the weighted test stops it
            assert ref[1] < ungated_pcg(A, b, rel_tol=1e-14, precond=vcycle)[1]
        work = pcg_work(n)
        for _ in range(2):  # the second call finds the first one's vectors, x zeroed
            x, iters, rel = pcg(A, b, work=work, **kwargs)
            assert x is work[0] and iters == ref[1] and rel == ref[2]
            assert x.tobytes() == ref[0].tobytes()
            assert work[1].tobytes() == ref_residual.tobytes()
            work[0].fill(0.0)
        x, iters, rel = pcg(A, np.zeros(n), precond=vcycle, work=work)
        assert x is work[0] and iters == 0 and not x.any()

    @pytest.mark.parametrize("exit_", ["zero_b", "start_passes", "relative", "weighted"])
    def test_true_residual_left_in_r(self, exit_):
        # on each of pcg's four returns, work[1] holds the bytes of b - A x
        vcycle, b, weight, tol = _vcycle_system(3)
        A, n = vcycle.matrix, len(b)
        kwargs = {"zero_b": dict(), "start_passes": dict(rel_tol=1.0),
                  "relative": dict(rel_tol=1e-10),
                  "weighted": dict(rel_tol=1e-14, weight=weight, weighted_tol=tol)}[exit_]
        if exit_ == "zero_b":
            b = np.zeros(n)
        work = pcg_work(n)
        x, iters, rel = pcg(A, b, precond=vcycle, work=work, **kwargs)
        assert (iters == 0) == (exit_ in ("zero_b", "start_passes"))
        if exit_ == "weighted":  # the weighted test, not the relative one, stopped it
            assert rel > 1e-14
        assert work[1].tobytes() == (b - A @ x).tobytes()

    def test_failed_true_residual_check_leaves_the_relative_test(self, monkeypatch):
        # the weighted test passes on the recurrence's residual, but the true
        # residual, perturbed here by -b in the confirming product A x, fails
        # it: the weighted test is then dropped, and the solve runs on to the
        # relative test with the iterates of an unweighted call
        vcycle, b, weight, tol = _vcycle_system(3)
        A, rel_tol, n = vcycle.matrix, 1e-12, len(b)
        unweighted = pcg(A, b, rel_tol=rel_tol, precond=vcycle, work=pcg_work(n))
        assert pcg(A, b, rel_tol=rel_tol, precond=vcycle, weight=weight, weighted_tol=tol,
                   work=pcg_work(n))[1] < unweighted[1]  # unperturbed, the weighted test stops it
        work = pcg_work(n)
        real, x_products = solver.csr_matvec_into, []

        def perturbed(A_, v, out):
            real(A_, v, out)
            if v is work[0]:  # a product with x: the start's, the check, the relative exit's
                x_products.append(v)
                if len(x_products) == 2:
                    out -= b
            return out

        monkeypatch.setattr(solver, "csr_matvec_into", perturbed)
        x, iters, rel = pcg(A, b, rel_tol=rel_tol, precond=vcycle, weight=weight,
                            weighted_tol=tol, work=work)
        assert len(x_products) == 3 and rel <= rel_tol
        assert iters == unweighted[1] and rel == unweighted[2]
        assert x.tobytes() == unweighted[0].tobytes()
        assert work[1].tobytes() == (b - A @ x).tobytes()

    @pytest.mark.parametrize("count", [4, 6])
    def test_work_of_another_length_rejected(self, count):
        A = sp.csr_matrix([[4.0]])
        with pytest.raises(ValueError, match="five"):
            pcg(A, np.ones(1), precond=jacobi(A), work=[np.empty(1) for _ in range(count)])

    def test_allocates_less_than_one_vector(self):
        # a budgeted V-cycle solve at sphere level 4 in its given vectors,
        # from zero: the traced peak stays below one vector of length n
        vcycle, b, weight, tol = _vcycle_system(4)
        work = pcg_work(len(b))
        kwargs = dict(rel_tol=1e-14, precond=vcycle, weight=weight, weighted_tol=tol, work=work)
        pcg(vcycle.matrix, b, **kwargs)
        work[0].fill(0.0)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            x, iters, _ = pcg(vcycle.matrix, b, **kwargs)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert iters > 0 and x is work[0]
        assert peak < x.nbytes


class TestLambdaMax:
    def test_estimate_is_the_ceiling(self, sphere2_op, square16_op):
        for op in (sphere2_op, square16_op):
            assert estimate_lambda_max(op) == op.lambda_max_ceiling

    def test_apply_steps_to_the_ceiling(self, sphere2_op, sphere2_sign_rhs, square16_op):
        f_square = np.sin(np.arange(1.0, square16_op.n + 1))
        for op, f, lh in ((sphere2_op, sphere2_sign_rhs, 1.0), (square16_op, f_square, 10.0)):
            res = fractional_apply(op, f, 0.5, SolverConfig(lambda_hat=lh, m=2))
            assert res.lambda_max_used == op.lambda_max_ceiling
            assert res.time_grid.num_steps == math.ceil(math.log2(op.lambda_max_ceiling / lh))

    def test_sphere_below_ceiling(self, sphere2_op):
        est = estimate_lambda_max(sphere2_op)
        assert est <= sphere2_op.lambda_max_ceiling
        exact = dense_decompose(sphere2_op).eigenvalues[-1]
        assert est >= exact

    def test_ceiling_is_rigorous(self, sphere2_op, square16_op):
        for op in (sphere2_op, square16_op):
            exact = dense_decompose(op).eigenvalues[-1]
            assert op.lambda_max_ceiling >= exact


def _probe_case(name):
    """(operator, lambda_1) of a small mesh; lambda_1 excludes the constant of zero-mean."""
    if name == "sphere2":
        mesh, mode, b = gen_sphere(2), "zero-mean", 0.0
    elif name == "torus":
        mesh, mode, b = gen_torus(1.0, 0.3, 32, 16), "positive-reaction", 1.0
    elif name == "unit_square16":
        mesh, mode, b = gen_unit_square(16), "dirichlet", 0.0
    else:
        mesh, mode, b = gen_graded_square(12, 4), "dirichlet", 0.0
    op = assemble(mesh, coefficient_field(mesh, a=1.0, b=b), mode)
    eigenvalues = scipy.linalg.eigh(op.stiffness.toarray(), op.mass.toarray(),
                                    eigvals_only=True, subset_by_index=[0, 1])
    return op, eigenvalues[1] if mode == "zero-mean" else eigenvalues[0]


class TestLambdaHatProbe:
    @pytest.mark.parametrize("name", ["sphere2", "torus", "unit_square16", "square12_4"])
    def test_ritz_value_brackets_minimum(self, name):
        op, lam1 = _probe_case(name)
        theta = suggest_lambda_hat(op, build_hierarchy(op.mass, op.stiffness), 1.0)
        assert lam1 <= theta <= lam1 * (1.0 + 1e-4)

    def test_restart_on_two_vectors_keeps_the_bracket(self, monkeypatch):
        # a 3x3 Gram matrix of M that is not positive definite restarts the
        # step on span{x, w}; here the first Rayleigh-Ritz step on three
        # vectors raises as eigh does then
        op, lam1 = _probe_case("sphere2")
        real, raised = solver._ritz_pair, []

        def failing_once(basis):
            if len(basis) == 3 and not raised:
                raised.append(len(basis))
                raise np.linalg.LinAlgError("the Gram matrix of M is not positive definite")
            return real(basis)

        monkeypatch.setattr(solver, "_ritz_pair", failing_once)
        theta = suggest_lambda_hat(op, build_hierarchy(op.mass, op.stiffness), 1.0)
        assert raised == [3]
        assert lam1 <= theta <= lam1 * (1.0 + 1e-4)

    def test_bad_shift_rejected(self, sphere2_op, sphere2_sign_rhs):
        cfg = SolverConfig(lambda_hat=50.0, m=2)
        with pytest.raises(ValueError, match="lambda_hat"):
            fractional_apply(sphere2_op, sphere2_sign_rhs, 0.5, cfg)

    def test_operator_prepared_once(self, sphere2_op, sphere2_sign_rhs, monkeypatch):
        # the hierarchy is built on the first call on an operator, and theta
        # checked once per lambda_hat; a copy of the operator starts afresh
        built, probed = [], []

        def recording_build(*args):
            built.append(build_hierarchy(*args))
            return built[-1]

        def recording_probe(op, hierarchy, lambda_hat):
            probed.append((hierarchy, lambda_hat))
            return suggest_lambda_hat(op, hierarchy, lambda_hat)

        monkeypatch.setattr(solver, "build_hierarchy", recording_build)
        monkeypatch.setattr(solver, "suggest_lambda_hat", recording_probe)
        op = dataclasses.replace(sphere2_op)
        cfg = SolverConfig(lambda_hat=1.0, m=2)
        first, later = (fractional_apply(op, sphere2_sign_rhs, 0.5, cfg) for _ in range(2))
        assert len(built) == 1 and len(probed) == 1
        assert probed[0][0] is built[0] and probed[0][1] == 1.0
        fractional_apply(op, sphere2_sign_rhs, 0.5, SolverConfig(lambda_hat=0.5, m=2))
        assert len(built) == 1 and len(probed) == 2
        assert probed[1][0] is built[0] and probed[1][1] == 0.5
        fractional_apply(dataclasses.replace(op), sphere2_sign_rhs, 0.5, cfg)
        assert len(built) == 2 and len(probed) == 3 and probed[2][0] is built[1]
        # a later call gives what the first gave, bit for bit
        np.testing.assert_array_equal(first.solution, later.solution)
        assert first.solve_log == later.solve_log
        assert first.cg_error_bound == later.cg_error_bound

    def test_constant_mode_computed_once(self, sphere2_op, sphere2_sign_rhs):
        # deflate_mean, the input check and the Ritz value all read the one
        # (M*1, sum) pair kept on the operator; a copy starts without it
        op = dataclasses.replace(sphere2_op)
        assert "constant_mode" not in op.prepared
        deflate_mean(sphere2_sign_rhs, op)
        pair = op.prepared["constant_mode"]
        assert pair[1] == float(pair[0].sum())
        fractional_apply(op, sphere2_sign_rhs, 0.5, SolverConfig(lambda_hat=1.0, m=2))
        deflate_mean(sphere2_sign_rhs, op)
        assert op.prepared["constant_mode"] is pair
        assert "constant_mode" not in dataclasses.replace(op).prepared

    def test_bad_shift_rejected_on_a_used_operator(self, sphere2_op, sphere2_sign_rhs):
        op = dataclasses.replace(sphere2_op)
        fractional_apply(op, sphere2_sign_rhs, 0.5, SolverConfig(lambda_hat=1.0, m=2))
        for _ in range(2):  # the second time against the kept theta
            with pytest.raises(ValueError, match="Ritz estimate"):
                fractional_apply(op, sphere2_sign_rhs, 0.5, SolverConfig(lambda_hat=50.0, m=2))

    def test_rounding_allowance(self, sphere2_op, sphere2_sign_rhs, monkeypatch):
        # a Ritz value one ulp below lambda_hat passes; one a millionth below
        # does not; each on a fresh operator, which has no theta kept
        for theta, passes in ((np.nextafter(1.0, 0.0), True), (1.0 - 1e-6, False)):
            monkeypatch.setattr(solver, "suggest_lambda_hat", lambda *args, _t=theta: _t)
            op = dataclasses.replace(sphere2_op)
            cfg = SolverConfig(lambda_hat=1.0, m=2)
            if passes:
                fractional_apply(op, sphere2_sign_rhs, 0.5, cfg)
            else:
                with pytest.raises(ValueError, match="Ritz estimate"):
                    fractional_apply(op, sphere2_sign_rhs, 0.5, cfg)

    def test_tiny_zero_mean_operator_checked(self):
        # five unknowns, constrained to the four-dimensional complement of the
        # constants: theta is near the least eigenvalue there, 0.35557
        op = diagonal_op([1.0] * 5, [0.0, 1.0, 2.0, 3.0, 4.0], mode="zero-mean")
        basis = np.linalg.qr(np.column_stack([np.ones(5), np.eye(5)[:, :4]]))[0][:, 1:]
        lam1 = np.linalg.eigvalsh(basis.T @ op.stiffness.toarray() @ basis)[0]
        theta = suggest_lambda_hat(op, build_hierarchy(op.mass, op.stiffness), 1.0)
        assert lam1 <= theta <= lam1 * (1.0 + 1e-4)

    def test_theta_independent_of_blas_threads(self):
        # at n = 10242 scipy's lobpcg gave 2.000723465840881 at one BLAS
        # thread and ...884 at two; at sphere level 3 it agreed with itself
        script = (
            "from fracsurf import assemble, coefficient_field, gen_sphere\n"
            "from fracsurf.multigrid import build_hierarchy\n"
            "from fracsurf.solver import suggest_lambda_hat\n"
            "mesh = gen_sphere(5)\n"
            "op = assemble(mesh, coefficient_field(mesh), 'zero-mean')\n"
            "print(repr(suggest_lambda_hat(op, build_hierarchy(op.mass, op.stiffness), 1.0)))\n"
        )
        thetas = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
            out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                 capture_output=True, text=True, timeout=300)
            thetas.append(out.stdout.strip())
        assert thetas[0] == thetas[1]


class TestFractionalApply:
    def test_zero_data(self, sphere2_op):
        cfg = SolverConfig(lambda_hat=1.0, m=2)
        res = fractional_apply(sphere2_op, np.zeros(sphere2_op.n), 0.5, cfg)
        assert np.all(res.solution == 0.0)

    def test_scalar_shadow_one_by_one(self):
        # a 1x1 pencil must reproduce the scalar transfer function
        lam = 37.0
        op = dataclasses.replace(diagonal_op([1.0], [lam]), lambda_max_ceiling=64.0)
        for alpha in (0.1, 0.5, 0.9):
            cfg = SolverConfig(lambda_hat=1.0, m=4)
            res = fractional_apply(op, np.array([1.0]), alpha, cfg)
            grid = build_time_grid(1.0, 64.0)
            mu = scalar_mu(build_pade(4, alpha), grid, lam)
            assert res.solution[0] == pytest.approx(mu, rel=1e-14)

    def test_scalar_shadow_two_by_two(self, monkeypatch):
        # a 2x2 pencil at m = 3: the three corrections of a step span at most
        # two dimensions, so every start's Gram matrix is singular; the start
        # drops the null direction and solves each later system to rounding,
        # and the result is the scalar transfer function of each eigenvalue,
        # within the certified CG error (M = I)
        lam, f = np.array([5.0, 37.0]), np.array([1.0, -2.0])
        op = dataclasses.replace(diagonal_op([1.0, 1.0], lam), lambda_max_ceiling=64.0)
        real, spectra = solver._galerkin_coefficients, []

        def recording(gram, rhs):
            spectra.append(np.linalg.eigvalsh(gram))
            return real(gram, rhs)

        monkeypatch.setattr(solver, "_galerkin_coefficients", recording)
        for alpha in (0.1, 0.5, 0.9):
            res = fractional_apply(op, f, alpha, SolverConfig(lambda_hat=1.0, m=3))
            mu = scalar_mu(build_pade(3, alpha), build_time_grid(1.0, 64.0), lam)
            assert np.linalg.norm(res.solution - mu * f) <= res.cg_error_bound
            assert res.cg_error_bound <= 1e-12 * np.linalg.norm(f)
            assert all(r.iterations == 0 for r in res.solve_log if r.step)
        assert len(spectra) == 3 * 3 * 5  # every term of steps 1 to 5, at each alpha
        assert all(v[0] <= solver.GRAM_DROP * v[-1] for v in spectra)

    def test_solve_count_and_residuals(self, sphere2_op, sphere2_sign_rhs):
        cfg = SolverConfig(lambda_hat=1.0, m=3, cg_rel_tol=1e-12)
        res = fractional_apply(sphere2_op, sphere2_sign_rhs, 0.5, cfg)
        L1 = res.time_grid.num_steps
        assert L1 == math.ceil(math.log2(res.lambda_max_used / 1.0))
        assert res.total_solves == 3 * L1 == len(res.solve_log)
        assert res.max_residual <= 1e-12

    def test_oracle_bound_sphere(self, sphere2_op, sphere2_sign_rhs):
        # one configuration here; the sweep is acceptance criterion 6
        cfg = SolverConfig(lambda_hat=1.0, m=3)
        res = fractional_apply(sphere2_op, sphere2_sign_rhs, 0.5, cfg)
        exact = dense_fractional(sphere2_op, 0.5, sphere2_sign_rhs)
        err = sphere2_op.m_norm(res.solution - exact)
        assert err <= res.a_priori_bound * 1.5
        assert res.a_priori_bound == pytest.approx(
            scheme_error_bound(3, 0.5, 1.0, res.lambda_max_used)
            * sphere2_op.m_norm(sphere2_sign_rhs),
            rel=1e-14,
        )

    def test_spectral_shadow_exactness(self, sphere2_op, sphere2_sign_rhs):
        # solver output equals the transfer function applied on the eigenbasis
        cfg = SolverConfig(lambda_hat=1.0, m=3, cg_rel_tol=1e-12)
        res = fractional_apply(sphere2_op, sphere2_sign_rhs, 0.3, cfg)
        dec = dense_decompose(sphere2_op)
        grid = res.time_grid
        p = build_pade(3, 0.3)
        lam = dec.eigenvalues.copy()
        weights = dec.eigenvectors.T @ (sphere2_op.mass @ sphere2_sign_rhs)
        lam[0] = 1.0
        weights[0] = 0.0  # constant mode excluded in zero-mean
        mu = scalar_mu(p, grid, lam)
        shadow = dec.eigenvectors @ (mu * weights)
        rel = sphere2_op.m_norm(res.solution - shadow) / sphere2_op.m_norm(sphere2_sign_rhs)
        assert rel <= 1e-8

    def test_monotone_error_in_m(self, sphere2_op, sphere2_sign_rhs):
        exact = dense_fractional(sphere2_op, 0.5, sphere2_sign_rhs)
        errs = []
        for m in range(1, 7):
            cfg = SolverConfig(lambda_hat=1.0, m=m)
            res = fractional_apply(sphere2_op, sphere2_sign_rhs, 0.5, cfg)
            errs.append(sphere2_op.m_norm(res.solution - exact))
        assert np.all(np.diff(errs) < 0)

    def test_stages_recorded(self, sphere2_op, sphere2_sign_rhs):
        # first and later calls on one operator report the same stages; the
        # steps hold their solve phases, and the call holds the steps
        op = dataclasses.replace(sphere2_op)
        for _ in range(2):
            res = fractional_apply(op, sphere2_sign_rhs, 0.5, SolverConfig(lambda_hat=1.0, m=2))
            stages = res.stages
            assert sorted(stages) == ["hierarchy_s", "lambda_hat_check_s", "pcg_s", "steps_s",
                                      "term_workers"]
            assert len(stages["steps_s"]) == res.time_grid.num_steps
            assert min(stages["hierarchy_s"], stages["lambda_hat_check_s"],
                       *stages["steps_s"]) >= 0.0
            assert 0.0 < stages["pcg_s"] <= sum(stages["steps_s"])
            assert stages["term_workers"] == 1  # below TERM_THREADS_MIN_N

    @pytest.mark.parametrize("mode", ["zero-mean", "positive-reaction"])
    def test_vertex_in_no_triangle_named(self, mode):
        # an operator built by hand with a zero mass diagonal entry (the empty
        # row of a vertex in no triangle): building the hierarchy names the
        # row before any division by it, and keeps no hierarchy and no Ritz
        # value; only M*1, which the zero-mean check reads first, may stay
        with np.errstate(divide="ignore", invalid="ignore"):
            op = diagonal_op([1.0, 2.0, 0.0, 1.0], [1.0, 2.0, 0.0, 3.0], mode=mode)
        op = dataclasses.replace(op, lambda_max_ceiling=3.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^row 2 has mass diagonal 0 and stiffness "
                                                 "diagonal 0; they must be positive"):
                fractional_apply(op, np.zeros(op.n), 0.5, SolverConfig(lambda_hat=0.5, m=2))
        assert set(op.prepared) <= {"constant_mode"}

    def test_undeflated_input_rejected(self, sphere2_op):
        cfg = SolverConfig(lambda_hat=1.0, m=2)
        with pytest.raises(ValueError, match="deflated"):
            fractional_apply(sphere2_op, np.ones(sphere2_op.n), 0.5, cfg)

    def test_alpha_validation(self, sphere2_op, sphere2_sign_rhs):
        cfg = SolverConfig(lambda_hat=1.0, m=2)
        for alpha in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                fractional_apply(sphere2_op, sphere2_sign_rhs, alpha, cfg)

    def test_step_products_equal_the_whole_matrices(self, sphere2_op, sphere2_sign_rhs,
                                                    monkeypatch):
        # a step forms B_l U and g = (S - lh*M) U from M U and S U, and each term
        # forms M x of pcg's x, its new correction, for the next step's Gram
        # matrices; checked against B_l, S - lh*M and A = (1-s)*lh*M + s*S formed
        # as matrices: the reference norm ||B_l U||, the right-hand side
        # b = (s - t_l) g at every step and a zero start at step 0, each start
        # read from pcg's x before the call. At step 1 the
        # basis Y is the m corrections of step 0; from step 2 on it also holds
        # the last term's correction of step l - 2. The start x0 lies in span Y
        # and meets the Galerkin condition there, Y^T (b - A x0) = 0, and the
        # Gram matrix and right-hand side of its coefficients are Y^T A Y and
        # Y^T b, the kept vector's row and column included
        op, lh, m = sphere2_op, 1.0, 3
        mass_inputs, calls, systems = [], [], []
        matvec, real_pcg = solver.csr_matvec_into, solver.pcg
        real_coefficients = solver._galerkin_coefficients

        def recording_matvec(A, x, out):
            if A is op.mass:
                mass_inputs.append(x.copy())
            return matvec(A, x, out)

        def recording_pcg(A, b, **kwargs):
            x0 = kwargs["work"][0].copy()  # the start; pcg iterates in place of it
            result = real_pcg(A, b, **kwargs)
            calls.append((A.copy(), b.copy(), kwargs["ref_norm"], x0, result[0].copy()))
            return result

        def recording_coefficients(gram, rhs):
            systems.append((gram.copy(), rhs.copy()))
            return real_coefficients(gram, rhs)

        monkeypatch.setattr(solver, "csr_matvec_into", recording_matvec)
        monkeypatch.setattr(solver, "pcg", recording_pcg)
        monkeypatch.setattr(solver, "_galerkin_coefficients", recording_coefficients)
        res = fractional_apply(op, sphere2_sign_rhs, 0.5, SolverConfig(lambda_hat=lh, m=m))
        assert res.stages["term_workers"] == 1  # inline, so the calls come in term order
        nodes, p, steps = res.time_grid.nodes, build_pade(m, 0.5), res.time_grid.num_steps
        assert steps >= 4
        # per step: M U, then M x of each term's correction, except after the last step
        assert len(mass_inputs) == steps + m * (steps - 1) and len(calls) == res.total_solves
        assert len(systems) == m * (steps - 1)
        scale_a = abs(op.stiffness).max()
        basis = None  # the start's basis, as columns
        for l in range(steps):
            U, t = mass_inputs[(m + 1) * l], nodes[l]
            products = mass_inputs[(m + 1) * l + 1:(m + 1) * (l + 1)]
            B = (1.0 - t) * lh * op.mass + t * op.stiffness
            su, mu = op.stiffness @ U, op.mass @ U
            for i in range(m):
                A, b, ref_norm, x0, x = calls[m * l + i]
                s = t + p.den_roots[i] * (nodes[l + 1] - t)
                assert abs(A - ((1.0 - s) * lh * op.mass + s * op.stiffness)).max() <= (
                    1e-15 * scale_a)
                assert ref_norm == pytest.approx(np.linalg.norm(B @ U), rel=1e-13)
                np.testing.assert_allclose(b, (s - t) * (su - lh * mu), rtol=0,
                                           atol=1e-13 * (s - t) * np.abs(su).max())
                if products:
                    np.testing.assert_array_equal(products[i], x)
                if basis is None:
                    assert not x0.any()
                    continue
                assert basis.shape[1] == (m if l == 1 else m + 1)
                gram, rhs = systems[m * (l - 1) + i]
                whole = basis.T @ (A @ basis)
                np.testing.assert_allclose(gram, whole, rtol=0, atol=1e-13 * np.abs(whole).max())
                np.testing.assert_allclose(rhs, basis.T @ b, rtol=0,
                                           atol=1e-13 * np.linalg.norm(basis) * np.linalg.norm(b))
                coords = np.linalg.lstsq(basis, x0, rcond=None)[0]
                assert np.linalg.norm(basis @ coords - x0) <= 1e-12 * np.linalg.norm(x0)
                galerkin = np.abs(basis.T @ (b - A @ x0)).max()
                assert galerkin <= 1e-10 * np.linalg.norm(basis) * np.linalg.norm(b)
            last = np.column_stack([call[4] for call in calls[m * l:m * (l + 1)]])
            kept = [] if l == 0 else [calls[m * l - 1][4]]  # term m-1's correction of step l-1
            basis = np.column_stack([last] + kept)
            if l + 1 < steps:  # the step subtracts sum_i beta_i x_i
                np.testing.assert_allclose(mass_inputs[(m + 1) * (l + 1)],
                                           deflate_mean(U - last @ p.beta[1:], op), rtol=0,
                                           atol=1e-13 * np.abs(U).max())

    def test_solve_weights_inside_unit_interval(self, sphere2_op, sphere2_sign_rhs):
        cfg = SolverConfig(lambda_hat=1.0, m=5)
        res = fractional_apply(sphere2_op, sphere2_sign_rhs, 0.9, cfg)
        p = build_pade(5, 0.9)
        nodes = res.time_grid.nodes
        for l in range(res.time_grid.num_steps):
            tau = nodes[l + 1] - nodes[l]
            s = nodes[l] + p.den_roots * tau
            assert np.all(s > 0.0) and np.all(s < 1.0)

    def test_last_step_too_narrow_for_its_weights_rejected(self, sphere2_op, sphere2_sign_rhs):
        # Lambda / lambda_hat just above 2^8 leaves a last node within rounding
        # of 1, where the largest solve weights s round to 1
        lam, d = estimate_lambda_max(sphere2_op), build_pade(3, 0.5).den_roots
        lh = lam / 2.0**8
        for _ in range(100):
            lh = math.nextafter(lh, 0.0)
            t_last = build_time_grid(lh, lam).nodes[-2]
            if np.any(t_last + d * (1.0 - t_last) >= 1.0):
                break
        else:
            pytest.fail("no lambda_hat puts a solve weight at 1")
        with pytest.raises(ValueError, match=r"last time step 2\.2e-16 wide"):
            fractional_apply(sphere2_op, sphere2_sign_rhs, 0.5, SolverConfig(lambda_hat=lh, m=3))
        # a relative change of 1e-12 in lambda_hat widens the step enough
        res = fractional_apply(sphere2_op, sphere2_sign_rhs, 0.5,
                               SolverConfig(lambda_hat=lh * (1.0 - 1e-12), m=3))
        assert res.time_grid.num_steps == 9


def _budget_case(name):
    """(operator, right-hand side, lambda_hat) of one problem mode."""
    if name == "sphere":
        mesh = gen_sphere(3)
        op = assemble(mesh, coefficient_field(mesh), "zero-mean")
        return op, build_rhs(mesh, lambda x: np.sign(x[:, 2]), op, method="l2_project"), 1.0
    if name == "torus":
        mesh = gen_torus(1.0, 0.3, 32, 16)
        op = assemble(mesh, coefficient_field(mesh, a=1.0, b=1.0), "positive-reaction")
        f = build_rhs(mesh, lambda x: np.cos(3.0 * np.arctan2(x[:, 1], x[:, 0])), op,
                      method="l2_project")
        return op, f, 0.9
    mesh = gen_graded_square(12, 4)
    op = assemble(mesh, coefficient_field(mesh), "dirichlet")
    checker = np.sign(mesh.vertices[:, 0] * mesh.vertices[:, 1])
    checker[checker == 0] = 1.0
    return op, build_rhs(mesh, checker, op, method="interpolate"), 4.0


class TestErrorBudget:
    @pytest.mark.parametrize("name", ["sphere", "torus", "square"])
    def test_budget_bounds_the_solve_error(self, name):
        # the certified bound covers the distance to a tightly solved result,
        # and the solves spend at most their budget: 1.01 times the a-priori
        # bound less the certified scheme error, and at least a hundredth of it
        op, f, lh = _budget_case(name)
        for alpha in (0.1, 0.5, 0.9):
            res = fractional_apply(op, f, alpha, SolverConfig(lambda_hat=lh, m=3))
            tight = fractional_apply(op, f, alpha,
                                     SolverConfig(lambda_hat=lh, m=3, cg_rel_tol=1e-14))
            assert 0.0 < tight.cg_error_bound < res.cg_error_bound
            err = op.m_norm(res.solution - tight.solution)
            scheme_error = (certified_scheme_error(3, alpha, lh, res.lambda_max_used)
                            * op.m_norm(f))
            assert scheme_error < res.a_priori_bound
            assert err <= res.cg_error_bound <= cg_budget(res.a_priori_bound, scheme_error)
            assert res.certified_error == scheme_error + res.cg_error_bound
            assert res.certified_error <= (1.0 + CG_BUDGET_FRACTION) * res.a_priori_bound

    @pytest.mark.parametrize("name", ["sphere2", "torus", "square"])
    def test_certified_error_bounds_the_true_error(self, name, sphere2_op, sphere2_sign_rhs):
        # the distance to the dense spectral result is at most certified_error,
        # which stays within the promised 1.01 times the a-priori bound; on the
        # sphere also near alpha = 1 and up to m = 6
        if name == "sphere2":
            op, f, lh = sphere2_op, sphere2_sign_rhs, 1.0
        elif name == "torus":
            mesh = gen_torus(1.0, 0.3, 16, 8)
            op = assemble(mesh, coefficient_field(mesh, a=1.0, b=1.0), "positive-reaction")
            f, lh = np.cos(3.0 * np.arctan2(mesh.vertices[:, 1], mesh.vertices[:, 0])), 0.9
        else:
            mesh = gen_graded_square(6, 3)
            op = assemble(mesh, coefficient_field(mesh), "dirichlet")
            f, lh = np.sin(np.arange(1.0, op.n + 1)), 4.0
        dec = dense_decompose(op)
        cases = [(alpha, m) for alpha in (0.1, 0.5, 0.9) for m in (1, 2, 3)]
        if name == "sphere2":
            cases += [(0.999, 3), (0.99, 4), (0.5, 5), (0.9, 5), (0.5, 6)]
        for alpha, m in cases:
            exact = dense_fractional(op, alpha, f, dec)
            res = fractional_apply(op, f, alpha, SolverConfig(lambda_hat=lh, m=m))
            assert op.m_norm(res.solution - exact) <= res.certified_error
            assert lh <= res.theta == op.prepared[("theta", lh)]
            assert (res.certified_error
                    <= (1.0 + CG_BUDGET_FRACTION) * res.a_priori_bound * (1 + 1e-12))

    @pytest.mark.parametrize("name", ["sphere2", "torus", "square16"])
    def test_spectral_shadow_within_certificate(self, name, sphere2_op, sphere2_sign_rhs,
                                                square16_op):
        # the distance to the transfer function on the eigenbasis is the CG
        # error alone, plus rounding: at cg_rel_tol 1e-14 it is at most 4.3e-14
        # on these meshes, with ||f_h||_M between 0.38 and 3.4
        if name == "sphere2":
            op, f, lh = sphere2_op, sphere2_sign_rhs, 1.0
        elif name == "torus":
            op, f, lh = _budget_case(name)
        else:
            op, f, lh = square16_op, np.sin(np.arange(1.0, square16_op.n + 1)), 10.0
        dec = dense_decompose(op)
        lam = dec.eigenvalues.copy()
        weights = dec.eigenvectors.T @ (op.mass @ f)
        if op.mode == "zero-mean":
            lam[0], weights[0] = 1.0, 0.0
        rounding = 1e-12 * op.m_norm(f)
        for alpha in (0.1, 0.5, 0.9):
            for tol in (None, 1e-8):
                res = fractional_apply(op, f, alpha,
                                       SolverConfig(lambda_hat=lh, m=3, cg_rel_tol=tol))
                mu = scalar_mu(build_pade(3, alpha), res.time_grid, lam)
                shadow = dec.eigenvectors @ (mu * weights)
                assert op.m_norm(res.solution - shadow) <= res.cg_error_bound + rounding
                if tol is not None:
                    assert all(r.relative_residual <= tol for r in res.solve_log)

    def test_explicit_tolerance_runs_no_weighted_test(self, sphere2_op, sphere2_sign_rhs,
                                                      monkeypatch):
        weights = []

        def recording_pcg(*args, **kwargs):
            weights.append(kwargs.get("weight"))
            return pcg(*args, **kwargs)

        tight = fractional_apply(sphere2_op, sphere2_sign_rhs, 0.5,
                                 SolverConfig(lambda_hat=1.0, m=3, cg_rel_tol=1e-14))
        monkeypatch.setattr(solver, "pcg", recording_pcg)
        for tol in (1e-6, 1e-12):
            res = fractional_apply(sphere2_op, sphere2_sign_rhs, 0.5,
                                   SolverConfig(lambda_hat=1.0, m=3, cg_rel_tol=tol))
            assert all(r.relative_residual <= tol for r in res.solve_log)
            # the certified bound holds whatever rule stopped the solves
            err = sphere2_op.m_norm(res.solution - tight.solution)
            assert err <= res.cg_error_bound + tight.cg_error_bound
        assert len(weights) == 2 * res.total_solves
        assert all(w is None for w in weights)

    def test_non_finite_input_rejected(self, sphere2_op, sphere2_sign_rhs):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="lambda_hat"):
                SolverConfig(lambda_hat=bad)
            f = sphere2_sign_rhs.copy()
            f[7] = bad
            with pytest.raises(ValueError, match="non-finite"):
                fractional_apply(sphere2_op, f, 0.5, SolverConfig(lambda_hat=1.0, m=2))

    def test_tolerance_must_be_positive(self):
        with pytest.raises(ValueError, match="cg_rel_tol"):
            SolverConfig(cg_rel_tol=0.0)
        assert SolverConfig().cg_rel_tol is None

    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_tolerance_must_be_finite(self, tol):
        with pytest.raises(ValueError, match="cg_rel_tol must be positive and finite"):
            SolverConfig(cg_rel_tol=tol)

    def test_iteration_cap_must_be_positive(self):
        for bad in (0, -5):
            with pytest.raises(ValueError, match="cg_max_iter"):
                SolverConfig(cg_max_iter=bad)
        assert SolverConfig(cg_max_iter=1).max_iter(10) == 1

    @pytest.mark.parametrize("field", ["m", "cg_max_iter"])
    @pytest.mark.parametrize("bad", [2.5, True, 3.0, "3"])
    def test_counts_must_be_integers(self, field, bad):
        with pytest.raises(ValueError, match=f"^{field} must be a positive integer, got"):
            SolverConfig(**{field: bad})

    @pytest.mark.parametrize("field", ["lambda_hat", "cg_rel_tol"])
    @pytest.mark.parametrize("bad", [True, False, "1", "1e-8", 1 + 0j, [1.0]],
                             ids=["True", "False", "str-1", "str-1e-8", "complex", "list"])
    def test_float_fields_must_be_real_numbers(self, field, bad):
        with pytest.raises(ValueError, match=f"^{field} must be a real number, got"):
            SolverConfig(**{field: bad})

    def test_numpy_numbers_accepted_as_floats(self):
        for value in (np.float64(0.5), np.float32(0.5), np.int64(2), 2):
            cfg = SolverConfig(lambda_hat=value, cg_rel_tol=value)
            assert cfg.lambda_hat == value and cfg.cg_rel_tol == value
        with pytest.raises(ValueError, match="^lambda_hat must be positive and finite"):
            SolverConfig(lambda_hat=np.float32(-1.0))

    def test_numpy_integer_counts_accepted(self, sphere2_op, sphere2_sign_rhs):
        cfg = SolverConfig(lambda_hat=1.0, m=np.int64(2), cg_max_iter=np.int32(500))
        assert cfg.max_iter(10) == 500
        res = fractional_apply(sphere2_op, sphere2_sign_rhs, 0.5, cfg)
        assert res.total_solves == 2 * res.time_grid.num_steps


class TestStability:
    def test_step_matrices_contract(self, square16_op):
        # per-step dense iteration matrix has spectrum inside (0, 1); the
        # acceptance suite runs the full criterion, this is one spot check
        op = square16_op
        dec = dense_decompose(op)
        lam_hat = 0.95 * dec.eigenvalues[0]
        lam_max = dec.eigenvalues[-1] * 1.1
        grid = build_time_grid(lam_hat, lam_max)
        p = build_pade(3, 0.5)
        M = op.mass.toarray()
        S = op.stiffness.toarray()
        nodes = grid.nodes
        l = grid.num_steps - 1  # the widest step
        tau = nodes[l + 1] - nodes[l]
        B = (1 - nodes[l]) * lam_hat * M + nodes[l] * S
        T = p.beta[0] * np.eye(op.n)
        for i in range(p.m):
            s = nodes[l] + p.den_roots[i] * tau
            A = (1 - s) * lam_hat * M + s * S
            T += p.beta[i + 1] * np.linalg.solve(A, B)
        eigs = np.linalg.eigvals(T)
        assert np.abs(eigs.imag).max() <= 1e-9
        assert eigs.real.min() > 1e-12
        assert eigs.real.max() < 1.0 - 1e-12


class TestConcurrency:
    def test_concurrent_solves_share_operator(self, sphere2_op, sphere2_sign_rhs):
        # independent solves on one operator from several threads agree with
        # the sequential results bit for bit, also when they race to prepare a
        # fresh operator, with thread switches forced often
        def run(op, alpha):
            cfg = SolverConfig(lambda_hat=1.0, m=2)
            return fractional_apply(op, sphere2_sign_rhs, alpha, cfg).solution

        alphas = [0.2, 0.4, 0.6, 0.8]
        sequential = [run(sphere2_op, a) for a in alphas]
        fresh = dataclasses.replace(sphere2_op)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(run, op, a) for op in (sphere2_op, fresh) for a in alphas]
                threaded = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for seq, thr in zip(sequential * 2, threaded):
            assert np.array_equal(seq, thr)
        assert np.array_equal(run(fresh, alphas[0]), sequential[0])


@pytest.fixture(scope="module")
def sphere5_case():
    """Sphere level 5 (n 10242), its sign data and lambda_hat."""
    mesh = gen_sphere(5)
    op = assemble(mesh, coefficient_field(mesh), "zero-mean")
    return op, build_rhs(mesh, lambda x: np.sign(x[:, 2]), op, method="l2_project"), 1.0


class TestTermThreads:
    @pytest.mark.parametrize("name", ["sphere5", "square25_12"])
    def test_worker_count_changes_no_bit(self, name, sphere5_case, monkeypatch):
        # each term forms its start from what the calling thread formed in term
        # order before the step, and no term writes what another reads, so the
        # default worker count and one worker give the same bits; both meshes
        # lie below TERM_THREADS_MIN_N, which is lowered to put them on threads
        if name == "sphere5":
            op, f, lh = sphere5_case
        else:
            mesh = gen_graded_square(25, 12)
            op = assemble(mesh, coefficient_field(mesh), "dirichlet")
            f, lh = np.sin(np.arange(1.0, op.n + 1)), 4.0
        assert op.n < solver.TERM_THREADS_MIN_N
        monkeypatch.setattr(solver, "TERM_THREADS_MIN_N", 0)
        default_workers = min(3, os.cpu_count() or 1)
        runs = []
        for cpus in (None, 1):
            if cpus is not None:
                monkeypatch.setattr(os, "cpu_count", lambda c=cpus: c)
            fresh = dataclasses.replace(op)
            res = fractional_apply(fresh, f, 0.5, SolverConfig(lambda_hat=lh, m=3))
            assert res.stages["term_workers"] == (default_workers if cpus is None else cpus)
            runs.append((res, fresh.prepared[("theta", lh)]))
        (default, theta), (one, one_theta) = runs
        np.testing.assert_array_equal(one.solution, default.solution)
        assert one.solve_log == default.solve_log
        assert one.cg_error_bound == default.cg_error_bound and one_theta == theta

    def test_terms_submitted_last_first(self, sphere3_op, monkeypatch):
        # the largest shifts usually take the most iterations, so the pool gets
        # each step's terms last first; inline they run in term order
        submitted = []

        class RecordingPool(solver.ThreadPoolExecutor):
            def submit(self, fn, *args, **kwargs):
                submitted.append(args[-1])
                return super().submit(fn, *args, **kwargs)

        op = dataclasses.replace(sphere3_op)
        f = deflate_mean(np.sin(np.arange(1.0, op.n + 1)), op)
        monkeypatch.setattr(solver, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(solver, "TERM_THREADS_MIN_N", 0)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        res = fractional_apply(op, f, 0.5, SolverConfig(lambda_hat=1.0, m=3))
        assert res.stages["term_workers"] == 2
        assert submitted == [2, 1, 0] * res.time_grid.num_steps
        assert [(r.step, r.term) for r in res.solve_log] == [
            (l, i) for l in range(res.time_grid.num_steps) for i in range(3)]

    def test_more_workers_than_cores_with_fast_switching(self, sphere3_op, monkeypatch):
        # every step's five solves on five threads, with thread switches forced
        # often, give the bits of the inline run
        op = dataclasses.replace(sphere3_op)
        f = deflate_mean(np.sin(np.arange(1.0, op.n + 1)), op)
        cfg = SolverConfig(lambda_hat=1.0, m=5)
        inline = fractional_apply(op, f, 0.5, cfg)
        assert inline.stages["term_workers"] == 1
        monkeypatch.setattr(solver, "TERM_THREADS_MIN_N", 0)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=1) as caller:
                threaded = caller.submit(fractional_apply, op, f, 0.5, cfg).result(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert threaded.stages["term_workers"] == 5
        np.testing.assert_array_equal(threaded.solution, inline.solution)
        assert threaded.solve_log == inline.solve_log
        assert threaded.cg_error_bound == inline.cg_error_bound

    def test_failing_worker_named_and_no_thread_left(self, sphere5_case, monkeypatch):
        # a pcg failure on a worker thread, in the first solve to start at
        # step 1, names its step and term, and the call leaves no thread behind
        op, f, lh = sphere5_case
        monkeypatch.setattr(solver, "TERM_THREADS_MIN_N", 0)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        real_pcg, lock, on_worker = solver.pcg, threading.Lock(), []

        def failing_pcg(A, b, **kwargs):
            with lock:
                on_worker.append(threading.current_thread() is not threading.main_thread())
                k = len(on_worker)
            if k == 4:
                raise RuntimeError("injected")
            return real_pcg(A, b, **kwargs)

        monkeypatch.setattr(solver, "pcg", failing_pcg)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=r"^step 1, term [0-2]: injected"):
            fractional_apply(op, f, 0.5, SolverConfig(lambda_hat=lh, m=3))
        assert len(on_worker) >= 4 and all(on_worker)
        assert threading.active_count() == before

    def test_cli_failure_exits_3_and_leaves_no_thread(self, tmp_path, capsys, monkeypatch):
        # every solve fails at one iteration; the lowest term of step 0 is named
        monkeypatch.setattr(solver, "TERM_THREADS_MIN_N", 0)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        before = threading.active_count()
        assert main(["--out", str(tmp_path / "o"), "solve", "--builtin", "sphere:5",
                     "--cg-max-iter", "1"]) == 3
        assert "solver failure: step 0, term 0: CG failed" in capsys.readouterr().err
        assert threading.active_count() == before

    @pytest.mark.parametrize("threaded", [False, True])
    def test_one_shift_per_solve(self, sphere3_op, monkeypatch, threaded):
        # each term's workspace is built at its step-0 shift and shifted once
        # in every later step, so the call shifts once per solve
        op = dataclasses.replace(sphere3_op)
        f = deflate_mean(np.sin(np.arange(1.0, op.n + 1)), op)
        cfg = SolverConfig(lambda_hat=1.0, m=3)
        fractional_apply(op, f, 0.5, cfg)  # prepares theta, whose check shifts a cycle too
        if threaded:
            monkeypatch.setattr(solver, "TERM_THREADS_MIN_N", 0)
            monkeypatch.setattr(os, "cpu_count", lambda: 3)
        shifts, real_shift = [], ShiftedVCycle.shift

        def counting_shift(self, c1, c2):
            shifts.append((c1, c2))
            return real_shift(self, c1, c2)

        monkeypatch.setattr(ShiftedVCycle, "shift", counting_shift)
        res = fractional_apply(op, f, 0.5, cfg)
        assert res.stages["term_workers"] == (3 if threaded else 1)
        assert len(shifts) == res.total_solves == cfg.m * res.time_grid.num_steps


class TestStartIterations:
    def test_later_call_iterations_at_level_5(self, sphere5_case):
        # a count, not a time, so it holds on any host: a later call with the
        # default budget took 180 CG iterations in all from the start on every
        # correction of the previous step and the last term's of the step
        # before, 226 from the previous step's corrections alone, 363 from
        # each term's own correction
        op, f, lh = sphere5_case
        cfg = SolverConfig(lambda_hat=lh, m=3)
        fractional_apply(op, f, 0.5, cfg)
        res = fractional_apply(op, f, 0.5, cfg)
        assert sum(r.iterations for r in res.solve_log) <= 200


class TestApplyMemory:
    @pytest.mark.parametrize("threaded", [False, True], ids=["inline", "threaded"])
    def test_later_call_peak_below_75_vectors(self, monkeypatch, threaded):
        # each term keeps pcg's five vectors, its right-hand side and its
        # correction (7 vectors), the call one correction kept from the step
        # before, and each workspace combines a shift through at most 8192
        # scratch values; each start is formed in pcg's x, which then trades
        # places with the correction, and the step update is formed in the
        # call's own buffers. A later call at sphere level 4 with m = 3,
        # workspaces included, traced a peak of 67.4 vectors of length n
        # inline and 68.4 on 3 threads (70.4 and 71.4 to 71.6 with a sixth
        # pcg vector for the step alpha*p; 69.4 and 70.3 to 70.5 with six
        # and without the kept correction, 71.9 and 72.6 with a step update
        # that allocated, 83.3 and 83.9 with a shift scratch the size of the
        # fine matrix)
        mesh = gen_sphere(4)
        op = assemble(mesh, coefficient_field(mesh), "zero-mean")
        f = deflate_mean(np.sin(np.arange(1.0, op.n + 1)), op)
        cfg = SolverConfig(lambda_hat=1.0, m=3)
        fractional_apply(op, f, 0.5, cfg)  # prepares the hierarchy and theta
        if threaded:
            monkeypatch.setattr(solver, "TERM_THREADS_MIN_N", 0)
            monkeypatch.setattr(os, "cpu_count", lambda: 3)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            res = fractional_apply(op, f, 0.5, cfg)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert res.stages["term_workers"] == (3 if threaded else 1)
        assert peak / (8 * op.n) < 75.0


class TestAprioriBound:
    def test_order_ratio(self):
        b3 = apriori_bound(3, 0.4, 1.0, 1e6, 2.0)
        b4 = apriori_bound(4, 0.4, 1.0, 1e6, 2.0)
        assert b4 / b3 == pytest.approx(1.0 / 32.0, rel=1e-13)

    def test_scales_with_data_norm(self):
        assert apriori_bound(2, 0.4, 1.0, 1e4, 3.0) == pytest.approx(
            3.0 * scheme_error_bound(2, 0.4, 1.0, 1e4), rel=1e-14
        )


def ungated_pcg(A, b, rel_tol=1e-12, max_iter=None, precond=None, weight=None, weighted_tol=0.0,
                residual=None, ref_norm=None, work=None):
    """The reference loop for `pcg`, allocating, with a Jacobi default preconditioner.

    It forms the weighted sum on every iteration. `residual`, when given,
    receives the true residual of the returned x. It starts from a copy of
    work[0], the start of the `pcg` call compared with it, or from zero
    without `work`, and writes no vector of `work`, so it cannot overwrite
    those of that call.
    """
    if max_iter is None:
        max_iter = SolverConfig().max_iter(len(b))
    x = np.zeros_like(b) if work is None else work[0].copy()
    r = b - A @ x
    norm_r = math.sqrt(dot(r, r))
    if norm_r == 0.0:
        if residual is not None:
            residual[:] = r
        return x, 0, 0.0
    if ref_norm is None:
        ref_norm = math.sqrt(dot(b, b)) or norm_r
    if precond is None:
        diag = A.diagonal()

        def precond(r, out):
            return np.divide(r, diag, out=out)
    rel = norm_r / ref_norm
    weighted_sq = weighted_tol * weighted_tol
    if rel <= rel_tol or (weight is not None and dot(weight * r, r) <= weighted_sq):
        if residual is not None:
            residual[:] = r
        return x, 0, rel
    z = precond(r, np.empty_like(r))
    p = z.copy()
    rz = dot(r, z)
    step = np.empty_like(b)
    for it in range(1, max_iter + 1):
        Ap = A @ p
        alpha = rz / dot(p, Ap)
        np.multiply(p, alpha, out=step)
        x += step
        Ap *= alpha
        r -= Ap
        rel = math.sqrt(dot(r, r)) / ref_norm
        if rel <= rel_tol:
            if residual is not None:
                np.subtract(b, A @ x, out=residual)
            return x, it, rel
        if weight is not None and dot(weight * r, r) <= weighted_sq:
            true_r = b - A @ x
            if dot(weight * true_r, true_r) <= weighted_sq:
                if residual is not None:
                    residual[:] = true_r
                return x, it, rel
            weight = None
        z = precond(r, np.empty_like(r))
        rz_new = dot(r, z)
        p *= rz_new / rz
        p += z
        rz = rz_new
    raise RuntimeError(f"CG failed to reach {rel_tol:.1e} in {max_iter} iterations")
