"""Apply the inverse fractional power of the assembled pencil to a vector.

The product factorization turns the task into m solves per time step with
matrices A = (1-s)*lh*M + s*S, s in (0,1), all symmetric positive definite
even when S has the constant nullspace. The time grid spans [lh, Lambda],
Lambda being the rigorous per-element ceiling that `assemble` computes. Solves
use conjugate gradients preconditioned by one smoothed-aggregation multigrid
V-cycle, from a hierarchy shared by every shift (see `multigrid`); every A is
a value array on the fine pattern, which is the operator's own. Each call
builds one `ShiftedVCycle` workspace per term, at the term's first shift, and
shifts it in place for the term's later solves; the workspaces are the call's
own and are not kept with the operator. Each term also gets, once per call,
the eight vectors it solves in: `pcg`'s six (its `work`), its right-hand side
and its correction, which each step updates in place. All are built on the
calling thread, so the workers that run the terms allocate no vector of
length n.

Each term solves for its correction rather than for the solution of
A x = B U. Since A(s) - B_l = (s - t_l)(S - lh*M), the correction y = U - x
solves A y = (s - t_l) g with g = (S - lh*M) U, and the step is
U - sum_i beta_i y_i. Each step multiplies U by the operator's own M and S,
two matvecs, and forms g = S U - lh*M U and B_l U = lh*M U + t_l*g from them,
since B_l = lh*M + t_l*(S - lh*M). Every term of the first step is solved
from zero. At every later step, term i starts from the Galerkin projection of
its solution onto its own correction y of the previous step, c*y with
c = y.b / y.A y: it solves A z = b - c*A y from zero for the remainder and
returns c*y + z, so the start costs the one matvec A y. The start is skipped
when y.A y = 0; its inner products use `dot`, like those of `pcg`. The true
residual of the y system is minus that of the x system, so the relative test
and the certificate below keep the meaning they have for A x = B U: the
relative test divides by ||B_l U||, and `cg_rel_tol`, CG_REL_FLOOR and
`SolveRecord.relative_residual` are all relative to it.

The m terms of a step thus read only the step's g and their own state, and
run concurrently: from TERM_THREADS_MIN_N unknowns on, each call runs them on
a thread pool of min(m, os.cpu_count()) workers, which it shuts down before
it returns, also after a failure; below that, and on one CPU, they run
inline. Threads pay because the level-6 work is in compiled kernels that
release the interpreter lock (scipy's `csr_matvec`, numpy's ufuncs); on
small meshes the hand-offs cost more than the overlap gains. The threshold
sits above the measured crossover, where the gain clearly exceeds the
run-to-run spread: near it threads buy a few percent, while the time comes
to depend on whether the second core is free. CHANGES.md records the
crossover, in the entry that first ran a step's terms concurrently, and
`BENCH_thread_threshold.json` the benchmark runs behind the threshold. The
records, `cg_error_bound` and the step's sum over the terms are combined in
term order, and no term's arithmetic depends on another's, so results are
bit-identical for every worker count.

Unless `SolverConfig.cg_rel_tol` is set, the solves share an error budget
eps in the M-norm, and each stops once it has provably spent no more than its
share. The call promises a total error of (1 + CG_BUDGET_FRACTION) times
`a_priori_bound`, and the scheme's part of it is certified:
`scheme.certified_scheme_error` encloses sup |mu(lambda) - lambda^-alpha| on
[lh, Lambda], and since the eigenvectors are M-orthogonal, that times
||f_h||_M, C, bounds the M-norm distance from the exact scheme's result to
pencil^-alpha f_h. The budget is what the certificate leaves of the total,
eps = (1 + CG_BUDGET_FRACTION) * a_priori_bound - C, and at least
CG_BUDGET_FRACTION * a_priori_bound, which it falls back to where C exceeds
`a_priori_bound` (at m = 4 near alpha = 1 and from m = 5, where the
certificate stops at its cell cap). `FracSolveResult.certified_error` is
C + `cg_error_bound`, a bound on the whole M-norm error up to rounding,
within the promised total whenever C <= `a_priori_bound`. The argument for
the solves has three parts:

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
the bound holds whatever rule stopped the solves, so it, and
`certified_error`, are also reported under an explicit `cg_rel_tol`.

Every call checks lh <= lambda_min against `suggest_lambda_hat`, a LOBPCG
Ritz value theta preconditioned on the operator's hierarchy, and rejects a
larger lh. The check is a test, not a proof: a Ritz value only bounds
lambda_min from above. `FracSolveResult.theta` reports theta.

The hierarchy and theta depend on the operator alone (theta also on lh), so
the first call on an operator computes them and keeps them in `op.prepared`,
and later calls reuse them; the comparison of lh with theta still runs on
every call. The hierarchy's fine level holds the operator's own mass and
stiffness arrays. The check's only dense algebra is a 3x3 `eigh` per
iteration, so, like the solves, it wakes no BLAS thread, and theta does not
depend on the BLAS thread count.
"""

from __future__ import annotations

import math
import numbers
import os
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np
import scipy.linalg as la

from .assembly import AssembledOperator, constant_mode, csr_matvec_into, deflate_mean, dot
from .mesh import MODE_ZERO_MEAN
from .multigrid import Hierarchy, ShiftedVCycle, build_hierarchy
from .pade import build_pade
from .scheme import TimeGrid, build_time_grid, certified_scheme_error, scheme_error_bound

CG_REL_FLOOR = 1e-12  # relative residual at which every budgeted solve stops
CG_BUDGET_FRACTION = 0.01  # the CG solves' least share; the total is 1 + this of the bound
PROBE_TOL = 0.1  # LOBPCG residual, in units of lambda_hat * sqrt(mean(diag M))
PROBE_MAX_ITER = 50  # LOBPCG iterations; the builtins need at most about 20
PROBE_ROUNDING = 1e-8  # relative allowance for rounding in the Ritz value
TERM_THREADS_MIN_N = 16384  # unknowns from which a step's m solves run on threads (docstring)

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
        _check_positive_real("lambda_hat", self.lambda_hat)
        if self.cg_rel_tol is not None:
            _check_positive_real("cg_rel_tol", self.cg_rel_tol)
        if not _is_count(self.m) or self.m < 1:
            raise ValueError(f"m must be a positive integer, got {self.m!r}")
        if self.cg_max_iter is not None and (not _is_count(self.cg_max_iter)
                                             or self.cg_max_iter < 1):
            raise ValueError(f"cg_max_iter must be a positive integer, got {self.cg_max_iter!r}")

    def max_iter(self, n: int) -> int:
        if self.cg_max_iter is not None:
            return self.cg_max_iter
        return max(200, int(10 * math.sqrt(n)))


def _is_count(value) -> bool:
    """An int or a numpy integer, and not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_positive_real(name: str, value) -> None:
    """Reject with ValueError all but a positive finite real that is not a bool."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def pcg(A, b, rel_tol=1e-12, max_iter=None, *, precond, weight=None, weighted_tol=0.0,
        ref_norm=None, work=None):
    """Preconditioned conjugate gradients for a CSR matrix A, SPD.

    `precond(r, out)`, which every caller passes, writes the preconditioned
    residual into `out`, pcg's own vector, and must be symmetric positive
    definite: the scheme's solves pass a V-cycle, a workspace that the
    calling `fractional_apply` owns, and `build_rhs`'s mass solve a Jacobi
    step.
    The iteration starts from zero and stops once ||r|| / ref_norm <= rel_tol
    for the residual r (not the preconditioned one), where `ref_norm` defaults
    to ||b||; a caller with a start x0 solves A z = b - A x0 for the remainder
    and passes the reference norm of its own system. It raises RuntimeError
    with its targets (`weighted_tol` too when `weight` is given) and the last
    five residuals after `max_iter` iterations (default:
    `SolverConfig.max_iter`). With `weight`, a positive vector w, it also
    stops once sqrt(sum(w * r**2)) <= weighted_tol, if the true residual
    b - A x passes the same test; that check costs one matvec and runs once,
    and after a failed check only the relative test stops the iteration. The
    weighted sum is formed on every iteration until then. Both tests also
    run on b, so a right-hand side that passes returns zero after
    0 iterations. Updates are in place, inner products use `dot`, which
    calls no BLAS, and the products A p and A x go through `csr_matvec_into`;
    it calls scipy's compiled kernel `scipy.sparse._sparsetools.csr_matvec`,
    the one `A @ p` runs (verified on scipy 1.17.1), so the iterates have the
    bits of `A @ p`.

    `work`, when given, is six vectors of b's length that pcg writes in place
    of allocating its own: x, r, z, p, the step alpha*p (also the weighted
    tests' w*r) and A p. The call then allocates no vector of b's length, and
    returns work[0] as x, which the next call with the same `work`
    overwrites. The result has the same bits either way. On every return
    work[1], r, holds the true residual b - A x of the returned x. pcg first
    writes work[5], A p, in its first iteration, so a caller may use it as
    scratch for b.
    Returns (x, iterations, final relative residual).
    """
    if max_iter is None:
        max_iter = SolverConfig().max_iter(len(b))
    if work is None:
        work = [np.empty_like(b) for _ in range(6)]
    x, r, z, p, step, Ap = work
    x.fill(0.0)
    norm_b = math.sqrt(dot(b, b))
    if norm_b == 0.0:
        np.copyto(r, b)
        return x, 0, 0.0
    if ref_norm is None:
        ref_norm = norm_b
    np.copyto(r, b)
    rel = math.sqrt(dot(r, r)) / ref_norm
    weighted_sq = weighted_tol * weighted_tol
    target = f"{rel_tol:.1e}"
    if weight is not None:
        target += f" or the weighted residual {weighted_tol:.3e}"

    def weighted_passes(v):  # sum(w * v**2) <= weighted_tol**2, with w*v formed in `step`
        return dot(np.multiply(weight, v, out=step), v) <= weighted_sq

    if rel <= rel_tol or (weight is not None and weighted_passes(r)):
        return x, 0, rel  # r = b = b - A x
    precond(r, z)
    np.copyto(p, z)
    rz = dot(r, z)
    tail = deque(maxlen=5)
    for it in range(1, max_iter + 1):
        csr_matvec_into(A, p, Ap)
        alpha = rz / dot(p, Ap)
        np.multiply(p, alpha, out=step)
        x += step
        Ap *= alpha
        r -= Ap
        rel = math.sqrt(dot(r, r)) / ref_norm
        tail.append(rel)
        if rel <= rel_tol:
            np.subtract(b, csr_matvec_into(A, x, Ap), out=r)
            return x, it, rel
        if weight is not None and weighted_passes(r):
            true_r = np.subtract(b, csr_matvec_into(A, x, Ap), out=Ap)
            if weighted_passes(true_r):
                np.copyto(r, true_r)
                return x, it, rel
            weight = None
        precond(r, z)
        rz_new = dot(r, z)
        p *= rz_new / rz
        p += z
        rz = rz_new
    raise RuntimeError(
        f"CG failed to reach {target} in {max_iter} iterations; "
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
    by the V-cycle of lambda_hat*M + S on `hierarchy`: each iteration is a
    Rayleigh-Ritz step on span{x, w, p}, with x the current vector, w its
    preconditioned residual made M-orthogonal to x and p the last update, each
    of M-norm 1. When the 3x3 Gram matrix of M is not positive definite the
    step restarts on span{x, w}. A zero-mean operator keeps x and w
    M-orthogonal to the constants by an M-orthogonal projection, and measures
    the residual after the transposed projection, the part that the
    constrained problem sees. Inner products use `dot` and the Rayleigh-Ritz
    step is a 3x3 `eigh`, so no BLAS thread runs and theta does not depend on
    the thread count.

    theta is a Rayleigh quotient, an upper estimate of lambda_min, so theta
    itself is not a certified lambda_hat: a lambda_hat above theta is
    certainly too large, one below it has passed a test. The iteration stops
    at the residual norm PROBE_TOL * lambda_hat * sqrt(mean(diag M)), which
    scales with the mesh and the coefficients as the residual does, or after
    PROBE_MAX_ITER iterations; theta is then within 2e-5 of lambda_min,
    relatively, on small meshes of the four families.
    """
    S, M = op.stiffness, op.mass
    vcycle = ShiftedVCycle(hierarchy, lambda_hat, 1.0)
    zero_mean = op.mode == MODE_ZERO_MEAN

    def constrained(v):  # the M-orthogonal projection off the constants
        return deflate_mean(v, op) if zero_mean else v

    def residual(r):  # its transpose, which keeps what the constrained problem sees
        if zero_mean:
            m_ones, total = constant_mode(op)
            r -= (r.sum() / total) * m_ones
        return r

    def unit(v):  # (v, S v, M v) scaled to M-norm 1
        scale = 1.0 / math.sqrt(dot(v[0], v[2]))
        return tuple(scale * u for u in v)

    x = constrained(np.sin(np.arange(1, op.n + 1, dtype=float)))
    x = unit((x, S @ x, M @ x))
    theta = dot(x[0], x[1])
    tol = PROBE_TOL * lambda_hat * math.sqrt(float(np.mean(M.diagonal())))
    p = None
    for _ in range(PROBE_MAX_ITER):
        r = residual(x[1] - theta * x[2])
        if math.sqrt(dot(r, r)) <= tol:
            break
        w = constrained(vcycle(r))
        w -= dot(x[2], w) * x[0]
        basis = [x, unit((w, S @ w, M @ w))]
        if p is not None and dot(p[0], p[2]) > 0.0:
            basis.append(unit(p))
        try:
            theta, c = _ritz_pair(basis)
        except np.linalg.LinAlgError:
            basis = basis[:2]
            theta, c = _ritz_pair(basis)
        p = tuple(sum(ck * v[k] for ck, v in zip(c[1:], basis[1:])) for k in range(3))
        x = tuple(c[0] * x[k] + p[k] for k in range(3))
    return theta


def _ritz_pair(basis) -> tuple[float, np.ndarray]:
    """Smallest Ritz value of (S, M) on the span of `basis`, a list of (v, S v, M v).

    Returns the value and its coordinates in `basis`, of unit norm in the Gram
    matrix of M.
    """
    gram_s = np.array([[dot(u[0], v[1]) for v in basis] for u in basis])
    gram_m = np.array([[dot(u[0], v[2]) for v in basis] for u in basis])
    values, vectors = la.eigh(0.5 * (gram_s + gram_s.T), 0.5 * (gram_m + gram_m.T))
    return float(values[0]), vectors[:, 0]


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
    solve_log: list[SolveRecord] = field(repr=False)
    a_priori_bound: float = math.nan
    mg_levels: tuple[int, ...] = ()  # unknowns per multigrid level, finest first
    # certified bound on the M-norm error the CG solves add (module docstring)
    cg_error_bound: float = math.nan
    # certified bound on the whole M-norm error: the scheme's certificate
    # times ||f_h||_M, plus cg_error_bound (module docstring)
    certified_error: float = math.nan
    theta: float = math.nan  # the Ritz value that checked lambda_hat
    # wall-clock seconds (time.perf_counter) of the call's stages: "hierarchy_s"
    # (the multigrid build) and "lambda_hat_check_s" (the Ritz value), each
    # about 0 on a prepared operator; "steps_s", one per time step; and
    # "pcg_s", the summed solve phases of the steps (each term's shift, start
    # and pcg call), which the steps include; also "term_workers", the
    # threads that ran each step's terms (1: inline)
    stages: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def total_solves(self) -> int:
        return len(self.solve_log)

    @property
    def lambda_max_used(self) -> float:
        return self.time_grid.lambda_max_bound

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
    in floating point. Each term solves for the correction
    y_i = U - solve(A_li, B_l U) from A_li y_i = (s - t_l)(S - lh*M) U; at
    steps l >= 1, term i starts from the Galerkin projection onto span{y_i}
    of step l-1, and the terms of a step run concurrently from
    TERM_THREADS_MIN_N unknowns on (module docstring). Zero-mean
    runs re-deflate after every step to stop constant-mode drift from being
    amplified by lh^(-alpha). The solves stop at `cfg.cg_rel_tol` when it is
    set, and by the error budget of the module docstring otherwise; either
    relative test divides by ||B_l U||, as for a solve of A_li x = B_l U.
    ValueError: alpha outside (0, 1) (from `build_pade`), or a lambda_hat whose
    last time step is so narrow that a solve weight s rounds to 1.
    """
    f_h = np.asarray(f_h, dtype=float)
    if f_h.shape != (op.n,):
        raise ValueError(f"f_h has shape {f_h.shape}, expected ({op.n},)")
    if not np.all(np.isfinite(f_h)):
        raise ValueError("f_h has non-finite entries")
    lh = cfg.lambda_hat

    if op.mode == MODE_ZERO_MEAN:
        m_ones, total = constant_mode(op)
        drift = abs(dot(m_ones, f_h))
        scale = op.m_norm(f_h) * math.sqrt(total)
        if scale > 0 and drift > 1e-10 * scale:
            raise ValueError(
                "zero-mean mode requires a deflated right-hand side "
                f"(constant-mode weight {drift:.3e})"
            )

    lam_max = estimate_lambda_max(op)
    p = build_pade(cfg.m, alpha)
    grid = build_time_grid(lh, lam_max)
    nodes = grid.nodes
    # the solve weight s of each step (row) and term (column): above 0, as each
    # root d_i exceeds 3e-4 and t_1 >= 2^-1023; below 1 in exact arithmetic,
    # but a narrow enough last step rounds its largest weights to 1 (A_li = S)
    s_grid = nodes[:-1, None] + p.den_roots * np.diff(nodes)[:, None]
    if s_grid.max() >= 1.0:
        raise ValueError(f"lambda_hat={lh:.17g} leaves a last time step {1.0 - nodes[-2]:.1e} "
                         "wide, where solve weights round to 1; change lambda_hat slightly")
    n_iter_cap = cfg.max_iter(op.n)
    prepared = op.prepared  # operator-only work, done on the first call (module docstring)
    t0 = time.perf_counter()
    if "hierarchy" not in prepared:
        prepared["hierarchy"] = build_hierarchy(op.mass, op.stiffness)
    hierarchy = prepared["hierarchy"]
    t1 = time.perf_counter()
    theta = prepared.get(("theta", lh))
    if theta is None:
        theta = prepared[("theta", lh)] = suggest_lambda_hat(op, hierarchy, lh)
    workers = min(cfg.m, os.cpu_count() or 1) if op.n >= TERM_THREADS_MIN_N else 1
    stages = {"hierarchy_s": t1 - t0, "lambda_hat_check_s": time.perf_counter() - t1,
              "steps_s": [], "pcg_s": 0.0, "term_workers": workers}
    if lh > theta * (1.0 + PROBE_ROUNDING):
        raise ValueError(f"lambda_hat={lh} exceeds the Ritz estimate {theta:.6g} of the "
                         "smallest eigenvalue; choose lambda_hat <= lambda_min")
    f_norm = op.m_norm(f_h)
    bound = apriori_bound(cfg.m, alpha, lh, lam_max, f_norm)
    scheme_error = certified_scheme_error(cfg.m, alpha, lh, lam_max) * f_norm
    budget = max(CG_BUDGET_FRACTION * bound, (1.0 + CG_BUDGET_FRACTION) * bound - scheme_error)

    rel_tol = CG_REL_FLOOR if cfg.cg_rel_tol is None else cfg.cg_rel_tol
    inv_diag = 1.0 / (op.mass_diagonal_floor * op.mass.diagonal())  # checked by build_hierarchy
    weight = inv_diag if cfg.cg_rel_tol is None else None
    share = lh * budget / (grid.num_steps * float(np.sum(p.beta[1:])))
    # term i's own workspace, built at its step-0 shift so that no shift is
    # discarded, and its eight vectors: pcg's six, its right-hand side and
    # its correction, updated in place. Neither is kept in op.prepared. They
    # are built here, on the calling thread, and the workers allocate no
    # vector of length n: glibc serves a thread's allocations from its own
    # heap, which keeps its high-water pages. Built on the workers, the
    # workspaces raised the peak memory of a sphere level 6 benchmark run by
    # 15%, and pcg's own vectors by 6%
    vcycles = [ShiftedVCycle(hierarchy, (1.0 - s) * lh, s) for s in s_grid[0]]
    works = [[np.empty(op.n) for _ in range(6)] for _ in range(cfg.m)]
    rhs, corrections = ([np.empty(op.n) for _ in range(cfg.m)] for _ in range(2))

    def solve_term(l, t_l, g, ref_norm, i):
        """Shift, start, pcg and add-start of term i at step l; touches only term i's state."""
        s = s_grid[l, i]
        if l:
            vcycles[i].shift((1.0 - s) * lh, s)
        A, y, work = vcycles[i].matrix, corrections[i], works[i]
        b = np.multiply(g, s - t_l, out=rhs[i])
        c = None
        if l:  # Galerkin start c*y, y this term's correction in the last step
            ay = csr_matvec_into(A, y, work[5])  # pcg's A p, written after b is formed
            yay = dot(y, ay)
            if yay > 0.0:
                c = dot(y, b) / yay
                ay *= c
                b -= ay  # the remainder z = y_i - c*y solves A z = b - c*A y
        try:
            x, iters, rel = pcg(A, b, rel_tol=rel_tol, max_iter=n_iter_cap, precond=vcycles[i],
                                weight=weight, weighted_tol=share, ref_norm=ref_norm, work=work)
        except RuntimeError as exc:
            budget = "" if weight is None else ("; the weighted target is this solve's "
                                                "share of the error budget")
            raise RuntimeError(f"step {l}, term {i}: {exc}{budget}") from exc
        if c is None:
            np.copyto(y, x)
        else:
            y *= c
            y += x  # rounds as x + c*y
        r = work[1]  # pcg leaves the true residual b - A x there
        return (SolveRecord(step=l, term=i, iterations=iters, relative_residual=rel),
                math.sqrt(dot(np.multiply(inv_diag, r, out=work[4]), r)))

    lh_mu, g, bu = (np.empty(op.n) for _ in range(3))
    cg_error = 0.0
    U = lh ** (-alpha) * f_h
    records: list[SolveRecord] = []
    pool = ThreadPoolExecutor(workers) if workers > 1 else None
    run = map if pool is None else pool.map  # either yields the outcomes in term order
    try:
        for l in range(grid.num_steps):
            t_step = time.perf_counter()
            t_l = nodes[l]
            np.multiply(csr_matvec_into(op.mass, U, lh_mu), lh, out=lh_mu)
            np.subtract(csr_matvec_into(op.stiffness, U, g), lh_mu, out=g)  # (S - lh*M) U
            np.add(lh_mu, np.multiply(g, t_l, out=bu), out=bu)  # B_l U = lh*M U + t_l*g
            ref_norm = math.sqrt(dot(bu, bu))
            t_solve = time.perf_counter()
            outcomes = list(run(partial(solve_term, l, t_l, g, ref_norm), range(cfg.m)))
            stages["pcg_s"] += time.perf_counter() - t_solve
            dec = np.zeros_like(U)
            for i, (record, residual_norm) in enumerate(outcomes):
                records.append(record)
                cg_error += p.beta[i + 1] * residual_norm / lh
                dec += p.beta[i + 1] * corrections[i]
            U_next = U - dec
            if op.mode == MODE_ZERO_MEAN:
                U_next = deflate_mean(U_next, op)
            U = U_next
            stages["steps_s"].append(time.perf_counter() - t_step)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)

    return FracSolveResult(
        solution=U,
        time_grid=grid,
        solve_log=records,
        a_priori_bound=bound,
        mg_levels=hierarchy.sizes,
        cg_error_bound=float(cg_error),
        certified_error=scheme_error + float(cg_error),
        theta=float(theta),
        stages=stages,
    )


def apriori_bound(m: int, alpha: float, lambda_hat: float, lambda_max_bound: float,
                  f_norm: float) -> float:
    """Solve-count error bound on the M-norm error, scaled by the data norm."""
    return scheme_error_bound(m, alpha, lambda_hat, lambda_max_bound) * f_norm
