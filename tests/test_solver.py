import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp

from fracsurf import solver
from fracsurf.assembly import assemble, build_rhs, coefficient_field
from fracsurf.mesh import gen_graded_square, gen_sphere, gen_torus, gen_unit_square
from fracsurf.multigrid import build_hierarchy
from fracsurf.oracle import dense_decompose, dense_fractional
from fracsurf.pade import build_pade
from fracsurf.scheme import build_time_grid, scalar_mu, scheme_error_bound
from fracsurf.solver import (
    SolverConfig,
    apriori_bound,
    estimate_lambda_max,
    fractional_apply,
    pcg,
    suggest_lambda_hat,
)
from util import diagonal_op


class TestPcg:
    def test_matches_direct_solve(self):
        rng = np.arange(1, 26, dtype=float)
        A = sp.diags(rng) + sp.eye(25) * 0.5
        b = np.sin(rng)
        x, iters, rel = pcg(A.tocsr(), b, rel_tol=1e-13)
        assert rel <= 1e-13
        assert x == pytest.approx(b / (rng + 0.5), rel=1e-11)

    def test_zero_rhs(self):
        A = sp.eye(4, format="csr")
        x, iters, rel = pcg(A, np.zeros(4))
        assert iters == 0 and np.all(x == 0)

    def test_budget_exhaustion_reports(self):
        n = 400
        main = 2.0 * np.ones(n)
        off = -1.0 * np.ones(n - 1)
        A = sp.diags([off, main, off], [-1, 0, 1]).tocsr()
        with pytest.raises(RuntimeError, match="residuals"):
            pcg(A, np.ones(n), rel_tol=1e-14, max_iter=3)

    def test_default_cap_and_residual_tail(self):
        # the default cap is SolverConfig.max_iter(n); the message keeps the last five residuals
        n = 1000
        main = 2.0 * np.ones(n)
        off = -1.0 * np.ones(n - 1)
        A = sp.diags([off, main, off], [-1, 0, 1]).tocsr()
        cap = SolverConfig().max_iter(n)
        with pytest.raises(RuntimeError, match=f"in {cap} iterations") as info:
            pcg(A, np.ones(n), rel_tol=1e-14)
        assert len(str(info.value).split("last residuals")[1].split(",")) == 5

    def test_preconditioner_argument(self):
        # the exact inverse as preconditioner converges in one step; Jacobi needs more
        n = 25
        A = sp.diags([-np.ones(n - 1), 3.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]).tocsr()
        inverse = np.linalg.inv(A.toarray())
        b = np.sin(np.arange(1.0, n + 1))
        x, iters, rel = pcg(A, b, rel_tol=1e-13, precond=lambda r: inverse @ r)
        assert iters == 1 and x == pytest.approx(inverse @ b, rel=1e-12)
        assert pcg(A, b, rel_tol=1e-13)[1] > 1


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
    eigenvalues = dense_decompose(op).eigenvalues
    return op, eigenvalues[1] if mode == "zero-mean" else eigenvalues[0]


class TestLambdaHatProbe:
    @pytest.mark.parametrize("name", ["sphere2", "torus", "unit_square16", "square12_4"])
    def test_ritz_value_brackets_minimum(self, name):
        op, lam1 = _probe_case(name)
        theta = suggest_lambda_hat(op, build_hierarchy(op.mass, op.stiffness), 1.0)
        assert lam1 <= theta <= lam1 * (1.0 + 1e-4)

    def test_bad_shift_rejected(self, sphere2_op, sphere2_sign_rhs):
        cfg = SolverConfig(lambda_hat=50.0, m=2)
        with pytest.raises(ValueError, match="lambda_hat"):
            fractional_apply(sphere2_op, sphere2_sign_rhs, 0.5, cfg)

    def test_every_call_probes_its_own_hierarchy(self, sphere2_op, sphere2_sign_rhs,
                                                 monkeypatch):
        built, probed = [], []

        def recording_build(*args):
            built.append(build_hierarchy(*args))
            return built[-1]

        def recording_probe(op, hierarchy, lambda_hat):
            probed.append(hierarchy)
            return suggest_lambda_hat(op, hierarchy, lambda_hat)

        monkeypatch.setattr(solver, "build_hierarchy", recording_build)
        monkeypatch.setattr(solver, "suggest_lambda_hat", recording_probe)
        for _ in range(2):
            fractional_apply(sphere2_op, sphere2_sign_rhs, 0.5, SolverConfig(lambda_hat=1.0, m=2))
        assert len(probed) == 2 and all(p is b for p, b in zip(probed, built))

    def test_rounding_allowance(self, sphere2_op, sphere2_sign_rhs, monkeypatch):
        # a Ritz value one ulp below lambda_hat passes; one a millionth below does not
        for theta, passes in ((np.nextafter(1.0, 0.0), True), (1.0 - 1e-6, False)):
            monkeypatch.setattr(solver, "suggest_lambda_hat", lambda *args, _t=theta: _t)
            cfg = SolverConfig(lambda_hat=1.0, m=2)
            if passes:
                fractional_apply(sphere2_op, sphere2_sign_rhs, 0.5, cfg)
            else:
                with pytest.raises(ValueError, match="Ritz estimate"):
                    fractional_apply(sphere2_op, sphere2_sign_rhs, 0.5, cfg)

    def test_tiny_zero_mean_operator_rejected(self):
        op = diagonal_op([1.0] * 5, [0.0, 1.0, 2.0, 3.0, 4.0], mode="zero-mean")
        with pytest.raises(ValueError, match="too small"):
            suggest_lambda_hat(op, build_hierarchy(op.mass, op.stiffness), 1.0)


class TestFractionalApply:
    def test_zero_data(self, sphere2_op):
        cfg = SolverConfig(lambda_hat=1.0, m=2)
        res = fractional_apply(sphere2_op, np.zeros(sphere2_op.n), 0.5, cfg)
        assert np.all(res.solution == 0.0)

    def test_scalar_shadow_one_by_one(self):
        # a 1x1 pencil must reproduce the scalar transfer function; lobpcg checks
        # lambda_hat on so small a problem with its dense path, which warns
        lam = 37.0
        op = dataclasses.replace(diagonal_op([1.0], [lam]), lambda_max_ceiling=64.0)
        for alpha in (0.1, 0.5, 0.9):
            cfg = SolverConfig(lambda_hat=1.0, m=4)
            with pytest.warns(UserWarning, match="dense eigensolver"):
                res = fractional_apply(op, np.array([1.0]), alpha, cfg)
            grid = build_time_grid(1.0, 64.0)
            mu = scalar_mu(build_pade(4, alpha), grid, lam)
            assert res.solution[0] == pytest.approx(mu, rel=1e-14)

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

    def test_undeflated_input_rejected(self, sphere2_op):
        cfg = SolverConfig(lambda_hat=1.0, m=2)
        with pytest.raises(ValueError, match="deflated"):
            fractional_apply(sphere2_op, np.ones(sphere2_op.n), 0.5, cfg)

    def test_alpha_validation(self, sphere2_op, sphere2_sign_rhs):
        cfg = SolverConfig(lambda_hat=1.0, m=2)
        for alpha in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                fractional_apply(sphere2_op, sphere2_sign_rhs, alpha, cfg)

    def test_solve_weights_inside_unit_interval(self, sphere2_op, sphere2_sign_rhs):
        cfg = SolverConfig(lambda_hat=1.0, m=5)
        res = fractional_apply(sphere2_op, sphere2_sign_rhs, 0.9, cfg)
        p = build_pade(5, 0.9)
        nodes = res.time_grid.nodes
        for l in range(res.time_grid.num_steps):
            tau = nodes[l + 1] - nodes[l]
            s = nodes[l] + p.den_roots * tau
            assert np.all(s > 0.0) and np.all(s < 1.0)


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
        # and the solves spend at most their budget, a hundredth of the a-priori bound
        op, f, lh = _budget_case(name)
        for alpha in (0.1, 0.5, 0.9):
            res = fractional_apply(op, f, alpha, SolverConfig(lambda_hat=lh, m=3))
            tight = fractional_apply(op, f, alpha,
                                     SolverConfig(lambda_hat=lh, m=3, cg_rel_tol=1e-14))
            assert 0.0 < tight.cg_error_bound < res.cg_error_bound
            err = op.m_norm(res.solution - tight.solution)
            assert err <= res.cg_error_bound <= res.a_priori_bound / 100

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

    def test_iteration_cap_must_be_positive(self):
        for bad in (0, -5):
            with pytest.raises(ValueError, match="cg_max_iter"):
                SolverConfig(cg_max_iter=bad)
        assert SolverConfig(cg_max_iter=1).max_iter(10) == 1


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
        # the sequential results bit for bit
        from concurrent.futures import ThreadPoolExecutor

        def run(alpha):
            cfg = SolverConfig(lambda_hat=1.0, m=2)
            return fractional_apply(sphere2_op, sphere2_sign_rhs, alpha, cfg).solution

        alphas = [0.2, 0.4, 0.6, 0.8]
        sequential = [run(a) for a in alphas]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(run, alphas))
        for seq, thr in zip(sequential, threaded):
            assert np.array_equal(seq, thr)


class TestAprioriBound:
    def test_order_ratio(self):
        b3 = apriori_bound(3, 0.4, 1.0, 1e6, 2.0)
        b4 = apriori_bound(4, 0.4, 1.0, 1e6, 2.0)
        assert b4 / b3 == pytest.approx(1.0 / 32.0, rel=1e-13)

    def test_scales_with_data_norm(self):
        assert apriori_bound(2, 0.4, 1.0, 1e4, 3.0) == pytest.approx(
            3.0 * scheme_error_bound(2, 0.4, 1.0, 1e4), rel=1e-14
        )
