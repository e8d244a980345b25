"""Apply the inverse fractional power of the assembled pencil to a vector.

The product factorization turns the task into m solves per time step with
matrices A = (1-s)*lh*M + s*S, s in (0,1), all symmetric positive definite
even when S has the constant nullspace. The time grid spans [lh, Lambda],
Lambda being the rigorous per-element ceiling that `assemble` computes. Solves
use conjugate gradients preconditioned by one smoothed-aggregation multigrid
V-cycle, from a hierarchy built once per call and shared by every shift (see
`multigrid`); every A and every step's B = (1-t)*lh*M + t*S is a value array
on the hierarchy's shared fine pattern.
The m solves of a step are independent and combined in fixed index order so
results are deterministic.

Unless `SolverConfig.cg_rel_tol` is set, the solves share an error budget,
eps = a_priori_bound / 100 in the M-norm, and each stops once it has provably
spent no more than its share. The argument has three parts:

- Error propagation. Each step maps U through r(theta_l) of the pencil, with
  0 < r <= 1 for theta >= 0, and the zero-mean deflation is an M-orthogonal
  projection, so solve errors e_li add up to at most
  sum_l sum_i beta_i ||e_li||_M.
- Error per solve. A = (1-s)*lh*M + s*S >= lh*M on the space that matters,
  because lh <= lambda_min is the scheme's own assumption. So
  ||e||_M <= ||rho||_{M^-1} / lh for the true residual rho.
- A computable norm. `assemble` records c with M >= c*diag(M) (c = 1/2 for
  the consistent P1 mass, also after Dirichlet elimination), so
  ||rho||_{M^-1} <= sqrt(rho^T diag(M)^-1 rho / c).

A solve therefore stops once sqrt(r^T diag(M)^-1 r / c) is at most
lh * eps / ((L+1) * sum_i beta_i), tested on the CG recurrence residual and
confirmed once on the true residual. It also stops at the relative residual
CG_REL_FLOOR, the fixed tolerance of an explicit setting, which covers meshes
where the weighted target lies below round-off and keeps any solve from
working harder than at that tolerance. `FracSolveResult.cg_error_bound` sums
beta_i * sqrt(rho^T diag(M)^-1 rho / c) / lh over the final true residuals;
the bound holds whatever rule stopped the solves, so it is also reported
under an explicit `cg_rel_tol`.

Every call checks lh <= lambda_min with `suggest_lambda_hat`, a LOBPCG Ritz
value preconditioned on the call's own hierarchy, and rejects a larger lh. The
check is a test, not a proof: a Ritz value only bounds lambda_min from above.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import lobpcg

from .assembly import AssembledOperator, deflate_mean, dot
from .mesh import MODE_ZERO_MEAN
from .multigrid import Hierarchy, ShiftedVCycle, build_hierarchy
from .pade import build_pade
from .scheme import TimeGrid, build_time_grid, scheme_error_bound

CG_REL_FLOOR = 1e-12  # relative residual at which every budgeted solve stops
CG_BUDGET_FRACTION = 0.01  # share of the a-priori bound the CG solves may add
PROBE_TOL = 0.1  # LOBPCG residual, in units of lambda_hat * sqrt(mean(diag M))
PROBE_MAX_ITER = 50  # LOBPCG iterations; the builtins need at most about 20
PROBE_ROUNDING = 1e-8  # relative allowance for rounding in the Ritz value

__all__ = [
    "SolverConfig",
    "SolveRecord",
    "FracSolveResult",
    "pcg",
    "estimate_lambda_max",
    "suggest_lambda_hat",
    "fractional_apply",
    "apriori_bound",
]


@dataclass
class SolverConfig:
    lambda_hat: float = 1.0
    m: int = 3
    cg_rel_tol: float | None = None  # None: solves share an error budget (module docstring)
    cg_max_iter: int | None = None  # default max(200, 10*sqrt(n)), set at solve time

    def __post_init__(self):
        if not (math.isfinite(self.lambda_hat) and self.lambda_hat > 0.0):
            raise ValueError(f"lambda_hat must be positive and finite, got {self.lambda_hat}")
        if self.cg_rel_tol is not None and self.cg_rel_tol <= 0.0:
            raise ValueError("cg_rel_tol must be positive")
        if self.m < 1:
            raise ValueError("m must be positive")
        if self.cg_max_iter is not None and self.cg_max_iter < 1:
            raise ValueError(f"cg_max_iter must be positive, got {self.cg_max_iter}")

    def max_iter(self, n: int) -> int:
        if self.cg_max_iter is not None:
            return self.cg_max_iter
        return max(200, int(10 * math.sqrt(n)))


def pcg(A, b, rel_tol=1e-12, max_iter=None, precond=None, weight=None, weighted_tol=0.0,
        residual=None):
    """Preconditioned conjugate gradients for SPD A.

    `precond` maps a residual to the preconditioned residual and must be
    symmetric positive definite; without one the preconditioner is Jacobi,
    which serves `build_rhs`'s mass solve (the scheme's solves pass a V-cycle).
    Iteration stops once ||r|| / ||b|| <= rel_tol for the residual r (not the
    preconditioned one), or raises RuntimeError with the last five residuals
    after `max_iter` iterations (default: `SolverConfig.max_iter`). With
    `weight`, a positive vector w, it also stops once
    sqrt(sum(w * r**2)) <= weighted_tol, if the true residual b - A x passes
    the same test; that check costs one matvec and runs once, and after a
    failed check only the relative test stops the iteration. `residual`, when
    given, receives the true residual of the returned x. Updates are in place,
    and inner products use `dot`, which calls no BLAS.
    Returns (x, iterations, final relative residual).
    """
    if max_iter is None:
        max_iter = SolverConfig().max_iter(len(b))
    norm_b = math.sqrt(dot(b, b))
    if norm_b == 0.0:
        if residual is not None:
            residual[:] = b
        return np.zeros_like(b), 0, 0.0
    diag = A.diagonal()
    if np.any(diag <= 0.0):
        raise ValueError("matrix has non-positive diagonal, not SPD")
    if precond is None:
        def precond(r):
            return r / diag
    x = np.zeros_like(b)
    r = b.copy()
    z = precond(r)
    p = z.copy()
    rz = dot(r, z)
    step = np.empty_like(b)
    tail = deque(maxlen=5)
    weighted_sq = weighted_tol * weighted_tol
    for it in range(1, max_iter + 1):
        Ap = A @ p
        alpha = rz / dot(p, Ap)
        np.multiply(p, alpha, out=step)
        x += step
        Ap *= alpha
        r -= Ap
        rel = math.sqrt(dot(r, r)) / norm_b
        tail.append(rel)
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
        z = precond(r)
        rz_new = dot(r, z)
        p *= rz_new / rz
        p += z
        rz = rz_new
    raise RuntimeError(
        f"CG failed to reach {rel_tol:.1e} in {max_iter} iterations; "
        f"last residuals {['%.2e' % h for h in tail]}"
    )


def estimate_lambda_max(op: AssembledOperator) -> float:
    """Rigorous upper bound for the largest eigenvalue of (S, M): the operator's ceiling.

    `assemble` computes the ceiling from the per-element pencils.
    """
    return float(op.lambda_max_ceiling)


def suggest_lambda_hat(op: AssembledOperator, hierarchy: Hierarchy, lambda_hat: float) -> float:
    """Ritz value theta of the smallest eigenvalue of (S, M), the ceiling for lambda_hat.

    One LOBPCG vector (Knyazev 2001) from a deterministic start, preconditioned
    by the V-cycle of lambda_hat*M + S on `hierarchy`; a zero-mean operator
    keeps it M-orthogonal to the constants. theta is a Rayleigh quotient, an
    upper estimate of lambda_min, so theta itself is not a certified
    lambda_hat: a lambda_hat above theta is certainly too large, one below it
    has passed a test. LOBPCG stops at the residual norm
    PROBE_TOL * lambda_hat * sqrt(mean(diag M)), which scales with the mesh and
    the coefficients as the residual does; theta is then within 2e-5 of
    lambda_min, relatively, on small meshes of the four families.
    """
    n = op.n
    constraint = np.ones((n, 1)) if op.mode == MODE_ZERO_MEAN else None
    if constraint is not None and n < 6:  # lobpcg's dense path for n - 1 < 5 takes no constraint
        raise ValueError(f"zero-mean operator with {n} unknowns is too small to check lambda_hat")
    vcycle = ShiftedVCycle(hierarchy, lambda_hat, 1.0)
    start = np.sin(np.arange(1, n + 1, dtype=float))[:, None]
    tol = PROBE_TOL * lambda_hat * math.sqrt(float(np.mean(op.mass.diagonal())))
    theta, _ = lobpcg(op.stiffness, start, B=op.mass, M=lambda R: vcycle(R[:, 0])[:, None],
                      Y=constraint, tol=tol, maxiter=PROBE_MAX_ITER, largest=False)
    return float(theta[0])


@dataclass(frozen=True)
class SolveRecord:
    step: int
    term: int
    iterations: int
    relative_residual: float


@dataclass(frozen=True)
class FracSolveResult:
    solution: np.ndarray
    time_grid: TimeGrid
    total_solves: int
    solve_log: list[SolveRecord] = field(repr=False)
    a_priori_bound: float = math.nan
    lambda_max_used: float = math.nan
    mg_levels: tuple[int, ...] = ()  # unknowns per multigrid level, finest first
    # certified bound on the M-norm error the CG solves add (module docstring)
    cg_error_bound: float = math.nan

    @property
    def max_residual(self) -> float:
        return max((r.relative_residual for r in self.solve_log), default=0.0)


def fractional_apply(op: AssembledOperator, f_h: np.ndarray, alpha: float,
                     cfg: SolverConfig) -> FracSolveResult:
    """Approximate pencil^(-alpha) applied to f_h by the rational product scheme.

    Starting from lh^(-alpha) * f_h, each time step applies the partial
    fraction combination U - sum_i beta_i * (U - solve(A_li, B_l U)) with
    A_li = (1-s)*lh*M + s*S, s = t_l + den_root_i * tau_l, and
    B_l = (1-t_l)*lh*M + t_l*S. This is the operator form of
    r(theta) = 1 - sum_i beta_i d_i theta / (1 + d_i theta), which leaves the
    lh-eigencomponent unchanged without relying on the weights summing to 1
    in floating point. Zero-mean runs re-deflate after every step to
    stop constant-mode drift from being amplified by lh^(-alpha). The solves
    stop at `cfg.cg_rel_tol` when it is set, and by the error budget of the
    module docstring otherwise.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha={alpha} outside (0, 1)")
    f_h = np.asarray(f_h, dtype=float)
    if f_h.shape != (op.n,):
        raise ValueError(f"f_h has shape {f_h.shape}, expected ({op.n},)")
    if not np.all(np.isfinite(f_h)):
        raise ValueError("f_h has non-finite entries")
    lh = cfg.lambda_hat

    if op.mode == MODE_ZERO_MEAN:
        m_ones = op.mass @ np.ones(op.n)
        drift = abs(dot(m_ones, f_h))
        scale = op.m_norm(f_h) * math.sqrt(float(m_ones.sum()))
        if scale > 0 and drift > 1e-10 * scale:
            raise ValueError(
                "zero-mean mode requires a deflated right-hand side "
                f"(constant-mode weight {drift:.3e})"
            )

    lam_max = estimate_lambda_max(op)
    p = build_pade(cfg.m, alpha)
    grid = build_time_grid(lh, lam_max)
    nodes = grid.nodes
    n_iter_cap = cfg.max_iter(op.n)
    hierarchy = build_hierarchy(op.mass, op.stiffness)
    theta = suggest_lambda_hat(op, hierarchy, lh)
    if lh > theta * (1.0 + PROBE_ROUNDING):
        raise ValueError(f"lambda_hat={lh} exceeds the Ritz estimate {theta:.6g} of the "
                         "smallest eigenvalue; choose lambda_hat <= lambda_min")
    fine = hierarchy.levels[0]
    bound = apriori_bound(cfg.m, alpha, lh, lam_max, op.m_norm(f_h))

    rel_tol = CG_REL_FLOOR if cfg.cg_rel_tol is None else cfg.cg_rel_tol
    inv_diag = 1.0 / (op.mass_diagonal_floor * op.mass.diagonal())
    weight = inv_diag if cfg.cg_rel_tol is None else None
    share = lh * CG_BUDGET_FRACTION * bound / (grid.num_steps * float(np.sum(p.beta[1:])))
    residual = np.empty(op.n)
    cg_error = 0.0

    U = lh ** (-alpha) * f_h
    records: list[SolveRecord] = []
    for l in range(grid.num_steps):
        t_l = nodes[l]
        tau = nodes[l + 1] - t_l
        rhs = fine.shifted((1.0 - t_l) * lh, t_l) @ U
        dec = np.zeros_like(U)
        for i in range(cfg.m):
            s = t_l + p.den_roots[i] * tau
            if not 0.0 < s < 1.0:
                raise AssertionError(f"solve weight s={s} outside (0,1) at step {l}, term {i}")
            vcycle = ShiftedVCycle(hierarchy, (1.0 - s) * lh, s)
            try:
                x, iters, rel = pcg(vcycle.matrix, rhs, rel_tol=rel_tol, max_iter=n_iter_cap,
                                    precond=vcycle, weight=weight, weighted_tol=share,
                                    residual=residual)
            except RuntimeError as exc:
                raise RuntimeError(f"step {l}, term {i}: {exc}") from exc
            records.append(SolveRecord(step=l, term=i, iterations=iters, relative_residual=rel))
            cg_error += p.beta[i + 1] * math.sqrt(dot(inv_diag * residual, residual)) / lh
            dec += p.beta[i + 1] * (U - x)
        U_next = U - dec
        if op.mode == MODE_ZERO_MEAN:
            U_next = deflate_mean(U_next, op)
        U = U_next

    total = grid.num_steps * cfg.m
    if len(records) != total:
        raise AssertionError("solve count mismatch")
    return FracSolveResult(
        solution=U,
        time_grid=grid,
        total_solves=total,
        solve_log=records,
        a_priori_bound=bound,
        lambda_max_used=lam_max,
        mg_levels=hierarchy.sizes,
        cg_error_bound=float(cg_error),
    )


def apriori_bound(m: int, alpha: float, lambda_hat: float, lambda_max_bound: float,
                  f_norm: float) -> float:
    """Solve-count error bound on the M-norm error, scaled by the data norm."""
    return scheme_error_bound(m, alpha, lambda_hat, lambda_max_bound) * f_norm
