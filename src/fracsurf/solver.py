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
the seven vectors it solves in: `pcg`'s five (its `work`), its right-hand side
and its correction, and the call one more, a correction kept from the step
before (below). All are built on the calling thread, so the workers that run
the terms allocate no vector of length n.

Each term solves for its correction rather than for the solution of
A x = B U. Since A(s) - B_l = (s - t_l)(S - lh*M), the correction y = U - x
solves A y = (s - t_l) g with g = (S - lh*M) U, and the step is
U - sum_i beta_i y_i. Each step multiplies U by the operator's own M and S,
two matvecs, and forms g = S U - lh*M U and B_l U = lh*M U + t_l*g from them,
since B_l = lh*M + t_l*(S - lh*M). It forms the sum over the terms and
subtracts it from U in place, in buffers of the call, so a step allocates no
vector of length n.

Every term of the first step is solved from zero. At every later step, term
i starts from the A-Galerkin projection of its correction onto the span Y of
all m corrections of the previous step, not only its own (after Fischer's
projection for successive right-hand sides, Comput. Methods Appl. Mech.
Engrg. 163, 1998), and from step 2 on Y also holds one correction of the
step before, the last term's. The corrections y_j = (s_j - t) A_j^-1 g of a
step span a rational Krylov space of that step's g, and the next step's
right-hand sides are all parallel to g - (S - lh*M) sum_j beta_j y_j, so Y
holds most of every term's next correction. The start's coefficients c
solve the k x k system, k = m or m + 1,
((1-s)*lh*Y^T M Y + s*Y^T S Y) c = (s - t_l) Y^T g. Y is rank-deficient when
corrections are parallel, as on a pencil of fewer than m unknowns, so the
system is solved by `eigh` on the eigenvalues above GRAM_DROP times the
largest; with none left the start is zero. After its solve, each term forms
M y and S y of its new correction in two of pcg's vectors, which are free
once pcg returns, and the calling thread forms both Gram matrices from them
and, at the next step, Y^T g. The kept vector's own entries are the last
term's entries of the step before, and its others pair it with the new
M y and S y, so the Gram matrices cost no product with M or S beyond those
two. No vector of Y is written during a step, so each term computes its own
coefficients from these and forms its start in pcg's x, which pcg starts
from with the one matvec b - A start. The x that pcg returns is the term's
new correction: after the step, each term's correction and pcg's x trade
places, and for the last term three vectors rotate: its old correction
becomes the kept vector, and the old kept vector becomes its pcg's x. These
are moves of list entries, not copies; the kept vector is the one n-vector
that the start adds. The true residual of the y system is minus that of the
x system, so the relative test and the certificate below keep the meaning
they have for A x = B U, whatever the start: the relative test divides by
||B_l U||, and `cg_rel_tol`, CG_REL_FLOOR and `SolveRecord.relative_residual`
are all relative to it.

The m terms of a step thus read only what no term writes during the step and
write only their own state, so they run concurrently: from TERM_THREADS_MIN_N
unknowns on, each call runs them on a thread pool of min(m, os.cpu_count())
workers, which it shuts down before it returns, also after a failure; below
that, and on one CPU, they run inline. The pool gets the terms last first:
the largest shifts usually take the most CG iterations, so fewer workers than
terms share the step more evenly when the slowest term starts first. The
outcomes are still read in term order, and a failure names the lowest failing
term. Threads pay because the work is in compiled kernels that release the
interpreter lock (scipy's `csr_matvec`, numpy's ufuncs); on small meshes the
hand-offs cost more than the overlap gains. The threshold sits above the
measured crossover; `BENCH_thread_threshold.json` holds the benchmark runs
behind it. The records, `cg_error_bound`, the Gram matrices, Y^T g and the
step's sum over the terms are formed on the calling thread in term order,
each term's start from these alone, and no term's arithmetic depends on
another's, so results are bit-identical for every worker count.

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
`a_priori_bound` (on the sphere level 6 range, at m = 7 with alpha >= 0.99
and from m = 8, where the certificate's rounding term dominates).
`FracSolveResult.certified_error` is C + `cg_error_bound`, a bound on the
whole M-norm error up to rounding, within the promised total whenever
C <= `a_priori_bound`. The argument for the solves has three parts:

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
GRAM_DROP = 1e-10  # a start's Gram eigenvalues below this times the largest are dropped

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
        ref_norm=None, x0=None, work=None):
    """Preconditioned conjugate gradients for a CSR matrix A, SPD.

    `precond(r, out)`, which every caller passes, writes the preconditioned
    residual into `out`, pcg's own vector, and must be symmetric positive
    definite: the scheme's solves pass a V-cycle, a workspace that the
    calling `fractional_apply` owns, and `build_rhs`'s mass solve a Jacobi
    step.
    The iteration starts from `x0`, zero by default, with r = b - A x0 (one
    matvec; an x0 of another shape than b's raises ValueError), returns x0
    after 0 iterations if that r is zero, and stops once
    ||r|| / ref_norm <= rel_tol for the residual r (not the preconditioned
    one), where `ref_norm` defaults to ||b||, or to the start's ||r|| when
    b = 0; a `ref_norm` that is not positive and finite raises ValueError.
    It raises RuntimeError with its targets (`weighted_tol` too when
    `weight` is given) and the last five residuals after `max_iter`
    iterations (default: `SolverConfig.max_iter`). With `weight`, a positive
    vector w, it also stops once sqrt(sum(w * r**2)) <= weighted_tol, if the
    true residual b - A x passes the same test; that check costs one matvec
    and runs once, and after a failed check only the relative test stops the
    iteration. The weighted sum is formed on every iteration until then. Both
    tests also run on the start's residual, so a start that passes is
    returned after 0 iterations. Updates are in place, inner products use
    `dot`, which calls no BLAS, and the products A p and A x go through
    `csr_matvec_into`; it calls scipy's compiled kernel
    `scipy.sparse._sparsetools.csr_matvec`, the one `A @ p` runs (verified on
    scipy 1.17.1), so the iterates have the bits of `A @ p`.

    `work`, when given, is five vectors of b's length that pcg writes in
    place of allocating its own: x, r, z, p and A p; a `work` of another
    length raises ValueError. z, the preconditioned residual, is free from the
    start of an iteration until the preconditioner writes it, so it also
    holds the step alpha*p and the weighted tests' w*r. The call then
    allocates no vector of b's length, and returns work[0] as x, which the
    next call with the same `work` overwrites. The result has the same bits
    either way. On every return work[1], r, holds the true residual b - A x
    of the returned x. Of `work`, pcg reads only x0 before writing, which may
    be work[0] itself, so a caller may form its start there with the other
    four as scratch.
    Returns (x, iterations, final relative residual).
    """
    if ref_norm is not None:
        _check_positive_real("ref_norm", ref_norm)
    if max_iter is None:
        max_iter = SolverConfig().max_iter(len(b))
    if work is None:
        work = [np.empty_like(b) for _ in range(5)]
    if len(work) != 5:
        raise ValueError(f"work holds {len(work)} vectors; pcg takes five: x, r, z, p and A p")
    x, r, z, p, Ap = work
    if x0 is None:
        x.fill(0.0)
        np.copyto(r, b)
    else:
        if np.shape(x0) != np.shape(b):
            raise ValueError(f"x0 has shape {np.shape(x0)}, expected b's {np.shape(b)}")
        np.copyto(x, x0)
        np.subtract(b, csr_matvec_into(A, x, Ap), out=r)
    norm_r = math.sqrt(dot(r, r))
    if norm_r == 0.0:
        return x, 0, 0.0
    if ref_norm is None:
        ref_norm = math.sqrt(dot(b, b)) or norm_r
    rel = norm_r / ref_norm
    weighted_sq = weighted_tol * weighted_tol
    target = f"{rel_tol:.1e}"
    if weight is not None:
        target += f" or the weighted residual {weighted_tol:.3e}"

    def weighted_passes(v):  # sum(w * v**2) <= weighted_tol**2, with w*v formed in z
        return dot(np.multiply(weight, v, out=z), v) <= weighted_sq

    if rel <= rel_tol or (weight is not None and weighted_passes(r)):
        return x, 0, rel  # r = b - A x
    precond(r, z)
    np.copyto(p, z)
    rz = dot(r, z)
    tail = deque(maxlen=5)
    for it in range(1, max_iter + 1):
        csr_matvec_into(A, p, Ap)
        alpha = rz / dot(p, Ap)
        x += np.multiply(p, alpha, out=z)
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
    # "pcg_s", the summed solve phases of the steps (Y^T g, each term's
    # shift, start, pcg call and products for the next start, and the Gram
    # matrices), which the steps include; also "term_workers", the threads
    # that ran each step's terms (1: inline)
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
    steps l >= 1, term i forms its own start, the A_li-Galerkin projection
    onto the span of all m corrections of step l-1 and, from step 2 on, the
    last term's correction of step l-2, kept by rotating that term's
    vectors; it passes the start to `pcg` as x0, and the terms of a step run
    concurrently from TERM_THREADS_MIN_N unknowns on (module docstring).
    Zero-mean runs re-deflate after every step to stop constant-mode drift
    from being amplified by lh^(-alpha).
    The solves stop at `cfg.cg_rel_tol` when it is set, and by the error
    budget of the module docstring otherwise; either relative test divides
    by ||B_l U||, as for a solve of A_li x = B_l U.
    ValueError: alpha outside (0, 1) (from `build_pade`), or a lambda_hat whose
    last time step is so narrow that a solve weight s rounds to 1.
    """
    f_h = np.asarray(f_h, dtype=float)
    if f_h.shape != (op.n,):
        raise ValueError(f"f_h has shape {f_h.shape}, expected ({op.n},)")
    if not np.all(np.isfinite(f_h)):
        raise ValueError("f_h has non-finite entries")
    lh = cfg.lambda_hat
    f_norm = op.m_norm(f_h)

    if op.mode == MODE_ZERO_MEAN:
        m_ones, total = constant_mode(op)
        drift = abs(dot(m_ones, f_h))
        scale = f_norm * math.sqrt(total)
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
    bound = apriori_bound(cfg.m, alpha, lh, lam_max, f_norm)
    scheme_error = certified_scheme_error(cfg.m, alpha, lh, lam_max) * f_norm
    budget = max(CG_BUDGET_FRACTION * bound, (1.0 + CG_BUDGET_FRACTION) * bound - scheme_error)

    rel_tol = CG_REL_FLOOR if cfg.cg_rel_tol is None else cfg.cg_rel_tol
    inv_diag = 1.0 / (op.mass_diagonal_floor * op.mass.diagonal())  # checked by build_hierarchy
    weight = inv_diag if cfg.cg_rel_tol is None else None
    share = lh * budget / (grid.num_steps * float(np.sum(p.beta[1:])))
    # term i's own workspace, built at its step-0 shift so that no shift is
    # discarded, and its seven vectors: pcg's five, its right-hand side and
    # its correction, which trades places with pcg's x after each step; and
    # one vector more, the last term's correction of the step before. Neither
    # is kept in op.prepared. They are built here, on the calling thread, and
    # the workers allocate no vector of length n: glibc serves a thread's
    # allocations from its own heap, which keeps its high-water pages. Built
    # on the workers, the workspaces raised the peak memory of a sphere level
    # 6 benchmark run by 15%, and pcg's own vectors by 6%
    m = cfg.m
    vcycles = [ShiftedVCycle(hierarchy, (1.0 - s) * lh, s) for s in s_grid[0]]
    works = [[np.empty(op.n) for _ in range(5)] for _ in range(m)]
    rhs = [np.empty(op.n) for _ in range(m)]
    basis = [np.empty(op.n) for _ in range(m + 1)]  # the start's: Y, then the kept vector

    def solve_term(l, t_l, g, y_g, ref_norm, i):
        """Shift, start, pcg, M x and S x of term i at step l; writes only its own state."""
        s = s_grid[l, i]
        if l:
            vcycles[i].shift((1.0 - s) * lh, s)
        A, work = vcycles[i].matrix, works[i]
        b = np.multiply(g, s - t_l, out=rhs[i])
        x0 = None
        if l:  # the start sum_j c_j y_j on the first k of basis, in pcg's x with its r as scratch
            k = len(y_g)
            gram = (1.0 - s) * lh * gram_m[:k, :k] + s * gram_s[:k, :k]
            c = _galerkin_coefficients(gram, (s - t_l) * y_g)
            x0 = np.multiply(basis[0], c[0], out=work[0])
            for c_j, y in zip(c[1:], basis[1:k]):
                x0 += np.multiply(y, c_j, out=work[1])
        try:
            x, iters, rel = pcg(A, b, rel_tol=rel_tol, max_iter=n_iter_cap, precond=vcycles[i],
                                weight=weight, weighted_tol=share, ref_norm=ref_norm, x0=x0,
                                work=work)
        except RuntimeError as exc:
            budget = "" if weight is None else ("; the weighted target is this solve's "
                                                "share of the error budget")
            raise RuntimeError(f"step {l}, term {i}: {exc}{budget}") from exc
        if l + 1 < grid.num_steps:  # M x and S x in pcg's z and p, for the next step's Gram
            csr_matvec_into(op.mass, x, work[2])
            csr_matvec_into(op.stiffness, x, work[3])
        r = work[1]  # pcg leaves the true residual b - A x there
        return (SolveRecord(step=l, term=i, iterations=iters, relative_residual=rel),
                math.sqrt(dot(np.multiply(inv_diag, r, out=work[4]), r)))

    lh_mu, g, bu = (np.empty(op.n) for _ in range(3))
    gram_m, gram_s = np.empty((m + 1, m + 1)), np.empty((m + 1, m + 1))
    cg_error = 0.0
    U = lh ** (-alpha) * f_h
    records: list[SolveRecord] = []
    pool = ThreadPoolExecutor(workers) if workers > 1 else None
    try:
        for l in range(grid.num_steps):
            t_step = time.perf_counter()
            t_l = nodes[l]
            np.multiply(csr_matvec_into(op.mass, U, lh_mu), lh, out=lh_mu)
            np.subtract(csr_matvec_into(op.stiffness, U, g), lh_mu, out=g)  # (S - lh*M) U
            np.add(lh_mu, np.multiply(g, t_l, out=bu), out=bu)  # B_l U = lh*M U + t_l*g
            ref_norm = math.sqrt(dot(bu, bu)) or None  # 0 only for U = 0, where every b is 0
            t_solve = time.perf_counter()
            # the basis: none at step 0, the m corrections of step l-1 at step
            # 1, and from step 2 on also the kept one, of step l-2
            y_g = np.array([dot(y, g) for y in basis[:m + (l > 1)]]) if l else None
            task = partial(solve_term, l, t_l, g, y_g, ref_norm)
            if pool is None:
                outcomes = [task(i) for i in range(m)]
            else:  # the last terms, of the largest shifts, are the slowest: submitted first
                futures = [pool.submit(task, i) for i in reversed(range(m))]
                outcomes = [future.result() for future in reversed(futures)]
            # term i's x, pcg's work[0], is its new correction; the last term's
            # old correction is kept, and the kept vector becomes its pcg's x
            for i in range(m - 1):
                basis[i], works[i][0] = works[i][0], basis[i]
            basis[m], basis[m - 1], works[m - 1][0] = basis[m - 1], works[m - 1][0], basis[m]
            if l + 1 < grid.num_steps:  # the next step's Gram matrices
                kept = [m] if l else []  # the kept vector is a correction from step 1 on
                if l:  # its own entries are the last term's, read before they are overwritten
                    gram_m[m, m], gram_s[m, m] = gram_m[m - 1, m - 1], gram_s[m - 1, m - 1]
                for j in range(m):  # M y_j and S y_j of the new corrections are in works[j]
                    for i in [*range(j + 1), *kept]:
                        gram_m[i, j] = gram_m[j, i] = dot(basis[i], works[j][2])
                        gram_s[i, j] = gram_s[j, i] = dot(basis[i], works[j][3])
            stages["pcg_s"] += time.perf_counter() - t_solve
            dec, scaled = lh_mu, bu  # both free once ref_norm is taken
            dec.fill(0.0)
            for i, (record, residual_norm) in enumerate(outcomes):
                records.append(record)
                cg_error += p.beta[i + 1] * residual_norm / lh
                dec += np.multiply(basis[i], p.beta[i + 1], out=scaled)
            U -= dec
            if op.mode == MODE_ZERO_MEAN:
                deflate_mean(U, op, out=U)
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


def _galerkin_coefficients(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Coordinates c with gram c = rhs on the eigenvectors of `gram` that are kept.

    `gram` is the symmetric positive semidefinite Gram matrix of a spanning set
    in an energy inner product. Eigenvalues at most GRAM_DROP times the largest
    are dropped, so a rank-deficient set (parallel vectors) gives the minimum
    norm solution, and a set whose eigenvalues are all dropped gives c = 0.
    """
    values, vectors = la.eigh(gram)
    kept = values > GRAM_DROP * values[-1]  # none when values[-1] <= 0
    basis = vectors[:, kept]
    return basis @ ((basis.T @ rhs) / values[kept])


def apriori_bound(m: int, alpha: float, lambda_hat: float, lambda_max_bound: float,
                  f_norm: float) -> float:
    """Solve-count error bound on the M-norm error, scaled by the data norm."""
    return scheme_error_bound(m, alpha, lambda_hat, lambda_max_bound) * f_norm
