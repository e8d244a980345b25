"""Rational approximation of (1+t)^(-alpha) by matched-series (m,m) approximants.

The approximant is built from the roots of two Jacobi polynomial families and
evaluated as a sum of partial fractions, the form the operator solver mirrors.
`build_pade` checks that form against the product of first-order factors,
computed there as the reference. The module also gives a sharp a-priori error
bound and the closed-form coefficients of numerator and denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.linalg import eigh_tridiagonal

__all__ = [
    "PadeApproximant",
    "jacobi_roots",
    "build_pade",
    "rm_partial",
    "pade_from_roots",
    "pade_error_bound",
    "explicit_pq_coefficients",
]

MAX_ORDER = 64  # beyond this, root separation degrades double precision


def jacobi_roots(m: int, beta_exp: float, gamma_exp: float) -> np.ndarray:
    """Roots in (0,1) of the degree-m Jacobi polynomial with weight (1-t)^beta t^gamma.

    Computed as the eigenvalues of the symmetric tridiagonal matrix of the
    three-term recurrence (Golub-Welsch) for the classical polynomial with the
    same (beta, gamma) on [-1,1], then mapped through t = (1+x)/2.
    """
    if m < 0:
        raise ValueError("order must be non-negative")
    if beta_exp <= -1.0 or gamma_exp <= -1.0:
        raise ValueError("Jacobi parameters must exceed -1")
    if m == 0:
        return np.empty(0)
    b, g = float(beta_exp), float(gamma_exp)
    apb = b + g
    diag = np.empty(m)
    diag[0] = (g - b) / (apb + 2.0)
    k = np.arange(1, m, dtype=float)
    diag[1:] = (g * g - b * b) / ((2 * k + apb) * (2 * k + apb + 2.0))
    off = np.sqrt(
        4 * k * (k + b) * (k + g) * (k + apb)
        / ((2 * k + apb) ** 2 * (2 * k + apb + 1.0) * (2 * k + apb - 1.0))
    )
    try:
        x, _ = eigh_tridiagonal(diag, off, select="a")
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure path
        raise RuntimeError(f"tridiagonal eigensolve failed for m={m}") from exc
    t = np.sort((1.0 + x) / 2.0)
    if not np.all(np.isfinite(t)):
        raise RuntimeError(f"non-finite Jacobi roots for m={m}")
    return t


@dataclass(frozen=True)
class PadeApproximant:
    """Order-m rational approximant of (1+t)^(-alpha) on t >= 0.

    num_roots and den_roots are the two increasing root families; beta holds
    the m+1 partial-fraction weights (beta[0] is the constant term).
    """

    m: int
    alpha: float
    num_roots: np.ndarray
    den_roots: np.ndarray
    beta: np.ndarray


def build_pade(m: int, alpha: float) -> PadeApproximant:
    """Construct the (m,m) approximant of (1+t)^(-alpha) and validate its invariants."""
    if not 1 <= m <= MAX_ORDER:
        raise ValueError(f"order m={m} outside [1, {MAX_ORDER}]")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha={alpha} outside (0, 1)")
    p = pade_from_roots(alpha, jacobi_roots(m, alpha, -alpha), jacobi_roots(m, -alpha, alpha))

    ts = np.linspace(0.0, 1.0, 33)
    factors = (1.0 + np.outer(p.num_roots, ts)) / (1.0 + np.outer(p.den_roots, ts))
    gap = np.abs(np.prod(factors, axis=0) - rm_partial(p, ts))
    if gap.max() > 1e-12:
        raise ValueError(f"product and partial-fraction forms disagree by {gap.max():.3e}")
    return p


def pade_from_roots(alpha: float, a: np.ndarray, b: np.ndarray) -> PadeApproximant:
    """The approximant with numerator roots a and denominator roots b, weights in their dtype.

    Checks that the roots interlace in (0,1) and the weights are positive and sum to 1.
    """
    _check_interlacing(a, b)
    m = len(a)
    beta = np.empty(m + 1, dtype=np.result_type(a, b))
    beta[0] = np.prod(a / b)
    for i in range(m):
        num = np.prod(1.0 - a / b[i])
        den = np.prod(np.delete(1.0 - b / b[i], i))
        beta[i + 1] = num / den
    for i, bi in enumerate(beta):
        if not bi > 0.0:
            raise ValueError(f"partial-fraction weight beta[{i}]={bi} not positive")
    if abs(beta.sum() - 1.0) > 1e-12:
        raise ValueError(f"weights sum to {beta.sum()!r}, expected 1")

    a.setflags(write=False)
    b.setflags(write=False)
    beta.setflags(write=False)
    return PadeApproximant(m=m, alpha=float(alpha), num_roots=a, den_roots=b, beta=beta)


def _check_interlacing(a: np.ndarray, b: np.ndarray) -> None:
    m = len(a)
    merged = np.empty(2 * m, dtype=np.result_type(a, b))
    merged[0::2] = a
    merged[1::2] = b
    if not merged[0] > 0.0:
        raise ValueError("first root not strictly positive")
    if not merged[-1] < 1.0:
        raise ValueError("last root not strictly below 1")
    bad = np.nonzero(np.diff(merged) <= 0.0)[0]
    if bad.size:
        raise ValueError(f"interlacing violated at merged index {bad[0]}")


def rm_partial(p: PadeApproximant, t: np.ndarray) -> np.ndarray:
    """r(t) = 1 - sum_i beta_i d_i t / (1 + d_i t) in the dtype of t, exactly 1 at t = 0.

    No range check: rounding just below the shift gives t of about -1e-12.
    """
    dec = np.zeros_like(t)
    for i in range(p.m):
        dt = p.den_roots[i] * t
        dec += p.beta[i + 1] * dt / (1.0 + dt)
    return 1.0 - dec


def pade_error_bound(m: int, alpha: float, t):
    """Upper bound on r_m(t) - (1+t)^(-alpha) for t in [0,1].

    The constant is sin(pi*alpha)/2, the closed form of alpha*pi /
    (2*Gamma(1-alpha)*Gamma(1+alpha)) via the reflection formula
    Gamma(1-alpha)*Gamma(1+alpha) = alpha*pi/sin(pi*alpha); no Gamma
    evaluation is needed. Asymptotic in m, so callers pair it with a
    1.5 safety factor.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha={alpha} outside (0, 1)")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0) or np.any(t > 1.0):
        raise ValueError("bound is proved only for t in [0, 1]")
    c = math.sin(math.pi * alpha) / 2.0
    out = c * 2.0 ** (-4 * m) * t ** (2 * m + 1) * 2.0 ** (-m * t)
    return out if out.ndim else float(out)


def explicit_pq_coefficients(m: int, alpha) -> tuple[list[Fraction], list[Fraction]]:
    """Numerator/denominator coefficients from the closed-form hypergeometric products.

    Exact rationals: coefficient j is a_m^j * b_m^j(-/+alpha) with
    a_m^j = m!/( (m-j)! j! ) * (2m-j)!/(2m)! and b_m^j(s) the falling product
    (m+s)(m-1+s)...(m+1-j+s). alpha may be a float (converted exactly) or Fraction.
    """
    al = alpha if isinstance(alpha, Fraction) else Fraction(float(alpha))
    P = [Fraction(1)]
    Q = [Fraction(1)]
    for j in range(1, m + 1):
        num = 1
        den = 1
        for i in range(j):
            num *= m - i
            den *= 2 * m - i
        aj = Fraction(num, den * math.factorial(j))
        bp = Fraction(1)
        bm = Fraction(1)
        for i in range(j):
            bp *= m - i + al
            bm *= m - i - al
        P.append(aj * bm)
        Q.append(aj * bp)
    return P, Q
