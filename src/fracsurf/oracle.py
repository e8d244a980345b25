"""Independent brute-force references used to check the fast paths.

Dense spectral application of the fractional power, the closed-form series
solution on the unit sphere for the sign data, torus curvature fields, L2
error measurement with the degree-5 rule, and an exact-arithmetic evaluation
of the rational approximation gap for regions double precision cannot resolve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, getcontext
from fractions import Fraction
from functools import lru_cache

import numpy as np
import scipy.linalg

from .assembly import TRI_QUAD_POINTS, TRI_QUAD_WEIGHTS, AssembledOperator, deflate_mean
from .mesh import MODE_ZERO_MEAN, SurfaceMesh
from .pade import PadeApproximant, explicit_pq_coefficients, jacobi_roots, pade_from_roots

__all__ = [
    "SpectralDecomposition",
    "dense_decompose",
    "dense_fractional",
    "legendre_at_zero",
    "sphere_sign_coefficients",
    "sphere_series_solution",
    "torus_mean_curvature",
    "torus_fields",
    "l2_error_on_mesh",
    "convergence_rate",
    "jacobi_roots_extended",
    "pade_extended",
    "rm_minus_power_exact",
]

DENSE_LIMIT = 2000
MAX_SERIES_TERMS = 10**4  # the most terms sphere_series_solution sums
EXACT_DIGITS = 120  # decimal digits of the power in rm_minus_power_exact


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues and M-orthonormal eigenvectors of the pencil (S, M)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def dense_decompose(op: AssembledOperator) -> SpectralDecomposition:
    """Full generalized eigendecomposition via Cholesky reduction (n <= 2000)."""
    if op.n > DENSE_LIMIT:
        raise ValueError(f"dense path limited to {DENSE_LIMIT} dofs, got {op.n}")
    S = op.stiffness.toarray()
    M = op.mass.toarray()
    lam, psi = scipy.linalg.eigh(S, M)
    residual = np.linalg.norm(S @ psi - M @ psi * lam, ord=2)
    if residual > 1e-10 * np.linalg.norm(S, ord=2):
        raise RuntimeError(f"eigensolve residual {residual:.3e} too large")
    return SpectralDecomposition(eigenvalues=lam, eigenvectors=psi)


def dense_fractional(op: AssembledOperator, alpha: float, f_h: np.ndarray,
                     decomp: SpectralDecomposition | None = None) -> np.ndarray:
    """Exact (to eigensolve accuracy) fractional application on the eigenbasis.

    In zero-mean mode the constant eigenpair is excluded and f_h is deflated
    first, so alpha = 0 returns the deflated data and alpha = 1 matches a
    plain solve.
    """
    if decomp is None:
        decomp = dense_decompose(op)
    lam = decomp.eigenvalues.copy()
    psi = decomp.eigenvectors
    if op.mode == MODE_ZERO_MEAN:
        f_h = deflate_mean(f_h, op)
        tiny = np.nonzero(lam < 1e-8 * lam[-1])[0]
        if len(tiny) != 1:
            raise RuntimeError(f"expected one near-null eigenvalue, found {len(tiny)}")
        weights = psi.T @ (op.mass @ f_h)
        weights[tiny] = 0.0
        lam[tiny] = 1.0  # excluded mode, value irrelevant
    else:
        if lam[0] <= 0.0:
            raise RuntimeError(f"pencil not positive definite (lambda_min={lam[0]:.3e})")
        weights = psi.T @ (op.mass @ f_h)
    return psi @ (lam ** (-float(alpha)) * weights)


def legendre_at_zero(n_max: int) -> np.ndarray:
    """P_n(0) for n = 0..n_max by the recurrence (n+1)P_{n+1}(0) = -n P_{n-1}(0)."""
    vals = np.zeros(n_max + 1)
    vals[0] = 1.0
    for n in range(2, n_max + 1, 2):
        vals[n] = -vals[n - 2] * (n - 1) / n
    return vals


def sphere_sign_coefficients(n_max: int) -> np.ndarray:
    """Legendre coefficients a_n of sign(x3) on the unit sphere, n = 0..n_max.

    Derived independently from a_n = (2n+1)/2 * integral of sign * P_n via
    the derivative identity, giving a_n = P_{n-1}(0) - P_{n+1}(0) for odd n
    and 0 for even n. This equals (2n+1) P_{n-1}(0) / (n+1), the classical
    reading of the alternative normalization, checked in the tests.
    """
    p0 = legendre_at_zero(n_max + 1)
    a = np.zeros(n_max + 1)
    for n in range(1, n_max + 1, 2):
        a[n] = p0[n - 1] - p0[n + 1]
    return a


def sphere_series_solution(alpha, x3, n_terms: int = 4000):
    """Series solution u(x3) of the fractional problem on the unit sphere with sign data.

    u = sum over odd n of a_n * (n(n+1))^(-alpha) * P_n(x3). A cos^2 spectral
    window suppresses the slow oscillatory tail near the poles and the equator
    jump; self-convergence of the windowed sums is part of the test suite.
    A sequence of alphas gives one row per alpha from one shared recurrence,
    each row with the bits of its own call.
    """
    if not 1 <= n_terms <= MAX_SERIES_TERMS:
        raise ValueError(f"n_terms must be in [1, {MAX_SERIES_TERMS}]")
    alphas = list(alpha) if np.ndim(alpha) else [alpha]
    x = np.asarray(x3, dtype=float)
    a = sphere_sign_coefficients(n_terms)
    acc = np.zeros((len(alphas),) + x.shape)
    p_prev = np.ones_like(x)  # P_0
    p_cur = x.copy()  # P_1
    for n in range(1, n_terms + 1):
        if n % 2 == 1:
            w = math.cos(0.5 * math.pi * n / n_terms) ** 2
            for k, al in enumerate(alphas):
                acc[k] += w * a[n] * (n * (n + 1.0)) ** (-al) * p_cur
        p_prev, p_cur = p_cur, ((2 * n + 1) * x * p_cur - n * p_prev) / (n + 1)
    if np.ndim(alpha):
        return acc
    return float(acc[0]) if x.ndim == 0 else acc[0]


def torus_mean_curvature(R: float, r: float, phi1) -> np.ndarray | float:
    """Mean curvature of the standard torus at tube angle phi1.

    Average of the principal curvatures 1/r (tube circle) and
    cos(phi1)/(R + r cos(phi1)) (axial circle):
    H = (R + 2 r cos(phi1)) / (2 r (R + r cos(phi1))).
    """
    if not 0.0 < r < R:
        raise ValueError(f"need 0 < r < R, got r={r}, R={R}")
    out = _torus_h(R, r, np.cos(np.asarray(phi1, dtype=float)))
    return out if out.ndim else float(out)


def _torus_h(R: float, r: float, cos_phi1):
    """The mean curvature H as a function of cos(phi1)."""
    return (R + 2.0 * r * cos_phi1) / (2.0 * r * (R + r * cos_phi1))


def torus_fields(R: float, r: float, points: np.ndarray):
    """(H, f) at 3-d points on the torus surface: f = H * cos(phi2).

    phi1 and phi2 are recovered from the coordinates; phi2 is the axial angle
    atan2(x2, x1).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    rho = np.hypot(pts[:, 0], pts[:, 1])
    H = _torus_h(R, r, np.clip((rho - R) / r, -1.0, 1.0))
    phi2 = np.arctan2(pts[:, 1], pts[:, 0])
    f = H * np.cos(phi2)
    if np.asarray(points).ndim == 1:
        return float(H[0]), float(f[0])
    return H, f


def l2_error_on_mesh(mesh: SurfaceMesh, op: AssembledOperator, u_h: np.ndarray, u_ref):
    """L2(M_h) distance between the P1 field u_h and u_ref, degree-5 rule.

    u_h lives on the free dofs (zeros are implied on constrained vertices);
    u_ref is a callable on (k,3) arrays of quadrature points on the flat mesh,
    composing any lift itself. Stacked solutions, one per row, take a u_ref
    that returns one row per solution and give one distance per row, each
    with the bits of its own call.
    """
    u_h = np.asarray(u_h, dtype=float)
    full = np.array([op.expand(u) for u in np.atleast_2d(u_h)])
    tris = mesh.triangles
    p = [mesh.vertices[tris[:, k]] for k in range(3)]
    area = mesh.triangle_areas()
    acc = np.zeros(len(full))
    for bc, w in zip(TRI_QUAD_POINTS, TRI_QUAD_WEIGHTS):
        x = bc[0] * p[0] + bc[1] * p[1] + bc[2] * p[2]
        uh_q = sum(bc[k] * full[:, tris[:, k]] for k in range(3))
        diff = uh_q - np.asarray(u_ref(x), dtype=float)
        for k, d in enumerate(diff):
            acc[k] += w * float(area @ (d * d))
    return np.sqrt(acc) if u_h.ndim == 2 else math.sqrt(acc[0])


def convergence_rate(err_coarse: float, dof_coarse: int, err_fine: float, dof_fine: int) -> float:
    """Observed rate between two (error, dof) pairs with sqrt(dof) as the 1/h proxy."""
    return math.log(err_coarse / err_fine) / math.log(math.sqrt(dof_fine / dof_coarse))


def _jacobi_value(m: int, a: float, b: float, x):
    """Classical Jacobi polynomial at x by the three-term recurrence, in the
    dtype of x (longdouble in, longdouble out)."""
    one = x * 0 + 1.0
    if m == 0:
        return one
    p_prev = one
    p_cur = (a - b) / 2.0 * one + (a + b + 2.0) / 2.0 * x
    for n in range(2, m + 1):
        apb = a + b
        c1 = 2.0 * n * (n + apb) * (2.0 * n + apb - 2.0)
        c2 = (2.0 * n + apb - 1.0) * (a * a - b * b)
        c3 = (2.0 * n + apb - 1.0) * (2.0 * n + apb) * (2.0 * n + apb - 2.0)
        c4 = 2.0 * (n + a - 1.0) * (n + b - 1.0) * (2.0 * n + apb)
        p_prev, p_cur = p_cur, ((c2 + c3 * x) * p_cur - c4 * p_prev) / c1
    return p_cur


def _jacobi_value_deriv(m: int, a: float, b: float, x):
    # derivative through the parameter-shift identity
    val = _jacobi_value(m, a, b, x)
    der = (m + a + b + 1.0) / 2.0 * _jacobi_value(m - 1, a + 1.0, b + 1.0, x)
    return val, der


def jacobi_roots_extended(m: int, beta_exp: float, gamma_exp: float) -> np.ndarray:
    """Roots on (0,1) polished to extended precision by Newton iteration.

    Starts from the double-precision eigenvalue roots; three Newton steps on
    the longdouble recurrence push the root error to the extended-precision
    level, which matters when many product steps amplify root perturbations.
    """
    t = jacobi_roots(m, beta_exp, gamma_exp).astype(np.longdouble)
    x = 2.0 * t - 1.0
    for _ in range(3):
        val, der = _jacobi_value_deriv(m, beta_exp, gamma_exp, x)
        x = x - val / der
    return (1.0 + x) / 2.0


def pade_extended(m: int, alpha: float) -> PadeApproximant:
    """The order-m approximant from refined extended-precision roots and weights.

    Measurement instrument for bound checks whose threshold sits below the
    double-precision representation noise of the approximant (the roots are
    only ~1e-16 accurate in double, which 50 product steps amplify to ~1e-13):
    pass it to `scalar_mu` with longdouble lambdas.
    """
    return pade_from_roots(alpha, jacobi_roots_extended(m, alpha, -alpha),
                           jacobi_roots_extended(m, -alpha, alpha))


def rm_minus_power_exact(m: int, alpha, t) -> Decimal:
    """r_m(t) - (1+t)^(-alpha) in high-precision arithmetic.

    The rational value is exact: the closed-form coefficients, brought to one
    denominator once per (m, alpha), are evaluated by Horner's rule in
    integers, and their quotient is rounded once to EXACT_DIGITS decimal
    digits, as is the power. Resolves gaps far below double precision, which
    the double path cannot distinguish from rounding noise.
    """
    al = alpha if isinstance(alpha, Fraction) else Fraction(float(alpha))
    tf = t if isinstance(t, Fraction) else Fraction(float(t))
    if tf < 0 or tf > 1:
        raise ValueError("exact gap evaluation restricted to t in [0, 1]")
    P, Q = _integer_pq(m, al)
    # P(t)/Q(t) at t = a/b is sum_j P_j a^j b^(m-j) over the same sum of Q_j,
    # by Horner's rule in integers
    a, b = tf.numerator, tf.denominator
    pv, qv, bp = P[m], Q[m], 1
    for j in range(m - 1, -1, -1):
        bp *= b
        pv = pv * a + P[j] * bp
        qv = qv * a + Q[j] * bp
    ctx = getcontext().copy()
    ctx.prec = EXACT_DIGITS
    # correctly rounded, so the unreduced pv/qv give the Decimal of the reduced quotient
    rm_dec = ctx.divide(Decimal(pv), Decimal(qv))
    power = _decimal_power(al, tf)
    return ctx.subtract(rm_dec, power)


@lru_cache(maxsize=512)
def _integer_pq(m: int, al: Fraction) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The coefficients of P and Q brought to one denominator, as integers."""
    P, Q = explicit_pq_coefficients(m, al)
    den = math.lcm(*(c.denominator for c in P + Q))
    return tuple(int(c * den) for c in P), tuple(int(c * den) for c in Q)


@lru_cache(maxsize=4096)
def _decimal_power(al: Fraction, tf: Fraction) -> Decimal:
    # (1+t)^(-alpha); memoized since bound scans share one (alpha, t) across orders
    ctx = getcontext().copy()
    ctx.prec = EXACT_DIGITS
    base = ctx.add(Decimal(1), ctx.divide(Decimal(tf.numerator), Decimal(tf.denominator)))
    exponent = ctx.divide(Decimal(al.numerator), Decimal(al.denominator))
    # bare unary minus would round through the ambient 28-digit context
    arg = ctx.minus(ctx.multiply(exponent, ctx.ln(base)))
    return ctx.exp(arg)
