"""Temporal grid of the operator-product factorization and its scalar transfer function.

The grid doubles its step geometrically from t_1 = lh/(Lam - lh) and clips at 1,
which keeps theta_n(Lam) <= 1 at every step with the fewest steps: its nodes
are (2^n - 1) t_1 while below 1, about ceil(log2(Lam/lh)) steps, for a ratio
Lam/lh up to about 2^1023. Its invariants hold by construction, and the tests
check them. mu(lambda) is the exact scalar shadow of the operator algorithm:
the product over steps of the rational factor evaluated at theta_n(lambda).
Its distance to lambda^-alpha has two figures: the paper's asymptotic
a-priori bound, `scheme_error_bound`, and a certified enclosure,
`certified_scheme_error`.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .pade import PadeApproximant, build_pade, rm_partial

__all__ = [
    "TimeGrid",
    "build_time_grid",
    "scalar_mu",
    "scheme_error_bound",
    "certified_scheme_error",
]

CERT_START_CELLS = 256  # log-spaced cells the enclosure starts from
CERT_MAX_CELLS = 131072  # cells at which the enclosure stops refining (a looser bound)
CERT_SHARPNESS = 1.1  # cells bounded above this times max(sampled |g|, rounding) split


@dataclass(frozen=True)
class TimeGrid:
    lambda_hat: float
    lambda_max_bound: float
    nodes: np.ndarray

    @property
    def num_steps(self) -> int:
        """L+1, the number of product factors (equals the solve count per order)."""
        return len(self.nodes) - 1


def build_time_grid(lambda_hat: float, lambda_max_bound: float) -> TimeGrid:
    """Nodes t_0=0 < t_1 < ... < t_{L+1}=1 with t_1 = lh/(Lam-lh), doubling steps, clip at 1.

    The nodes are 0, then (2^n - 1) * t_1 for n = 1, 2, ... while below 1,
    then 1. A ratio Lam/lh beyond about 2^1023 (t_1 < 2^-1023) raises
    ValueError, since its grid would need 2^1024, past double precision; an
    accepted one gives at most 1023 steps.
    """
    lh = float(lambda_hat)
    lam = float(lambda_max_bound)
    if not 0.0 < lh < math.inf:
        raise ValueError(f"lambda_hat must be positive and finite, got {lh}")
    if not math.isfinite(lam):
        raise ValueError(f"lambda_max_bound must be finite, got {lam}")
    if lam <= lh:
        raise ValueError(
            f"degenerate grid: lambda_max_bound={lam} must exceed lambda_hat={lh}"
        )
    t1 = lh / (lam - lh)
    if t1 < 2.0**-1023:
        raise ValueError(
            f"lambda_max_bound/lambda_hat = 2^{math.log2(lam) - math.log2(lh):.2f} exceeds "
            "2^1023, beyond which the time grid's nodes overflow double precision"
        )
    # with t_1 = f * 2^e, f in [0.5, 1), (2^n - 1) * t_1 >= 1 by n = min(1023, 2 - e)
    n = np.arange(1, min(1023, 2 - math.frexp(t1)[1]) + 1)
    t = (np.ldexp(1.0, n) - 1.0) * t1
    nodes = np.concatenate(([0.0], t[t < 1.0], [1.0]))
    nodes.setflags(write=False)
    return TimeGrid(lambda_hat=lh, lambda_max_bound=lam, nodes=nodes)


def scalar_mu(p: PadeApproximant, grid: TimeGrid, lam):
    """mu_{L+1}(lambda): the factor applied to an eigencomponent with eigenvalue lambda.

    Accepts scalars or arrays. Values above lambda_max_bound are accepted but
    flagged with a warning since the a-priori bound no longer covers them.
    Computed in lam's floating dtype (float64 otherwise); a scalar comes back
    as a numpy scalar of that dtype. Longdouble lambdas with
    `oracle.pade_extended` give an extended-precision evaluation.
    """
    lam = np.asarray(lam)
    if lam.dtype.kind != "f":
        lam = lam.astype(float)
    lh = grid.lambda_hat
    if np.any(lam < lh * (1.0 - 1e-12)):
        raise ValueError("lambda below lambda_hat")
    if np.any(lam > grid.lambda_max_bound * (1.0 + 1e-12)):
        warnings.warn(
            "lambda above lambda_max_bound: transfer function evaluated outside "
            "the range covered by the error bound",
            stacklevel=2,
        )
    mu = _mu_and_curvature(p, grid, lam, curvature=False)[0]
    return mu if mu.ndim else mu[()]


def _chat(alpha: float) -> float:
    # (alpha+2) * 2^(alpha-1) * pi / (Gamma(1-alpha)Gamma(1+alpha)), reflection form
    return (alpha + 2.0) * 2.0 ** (alpha - 1.0) * math.sin(math.pi * alpha) / alpha


def scheme_error_bound(m: int, alpha: float, lambda_hat: float, lambda_max_bound: float) -> float:
    """A-priori bound on |mu(lambda) - lambda^(-alpha)| over [lambda_hat, lambda_max_bound].

    With N_s = m*(L+1) total solves on the constructed grid the exponent
    N_s / ceil(log2(Lam/lh)) reduces to m identically, so the bound is
    chat * lambda_hat^(-alpha) * 32^(-m). Asymptotic constant; pair with a
    1.5 safety factor when asserting against measured errors, or use
    `certified_scheme_error`.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha={alpha} outside (0, 1)")
    if lambda_max_bound <= lambda_hat or lambda_hat <= 0.0:
        raise ValueError("need 0 < lambda_hat < lambda_max_bound")
    return _chat(alpha) * lambda_hat ** (-alpha) * 32.0 ** (-m)


@functools.lru_cache(maxsize=256)
def certified_scheme_error(m: int, alpha: float, lambda_hat: float,
                           lambda_max_bound: float) -> float:
    """Certified bound on |mu(lambda) - lambda^(-alpha)| over [lambda_hat, lambda_max_bound].

    Each factor r(theta_n(lambda)) = beta_0 + sum_i beta_i / (1 + d_i theta_n)
    is a positive constant plus positive multiples of 1 / ((1-s) lh + s lambda),
    as the weights are positive, so it is completely monotone in lambda, and
    so are their product mu and p = lambda^-alpha (Bernstein's theorem; D. V.
    Widder, "The Laplace Transform", 1941). So mu'' and p'' decrease, and on a
    cell [a, b] of width h, g = mu - p has g'' in [mu''(b) - p''(a),
    mu''(a) - p''(b)]: |g| is at most max(|g(a)|, |g(b)|) plus h^2/8 times
    the larger magnitude of those ends. The cells start log-spaced,
    CERT_START_CELLS of them, and every cell whose bound exceeds
    CERT_SHARPNESS times the larger of the sampled maximum of |g| and the
    rounding term is bisected, until none is or CERT_MAX_CELLS cells are
    reached. At that cap the bound reached is returned: still a bound, only
    looser.

    The rounding term, 64 (L+1)(m+1) units of rounding times
    lambda_hat^-alpha, covers the evaluation of g in double precision and
    the rounding of the approximant's roots and weights, each a few units
    per factor. The same count, relative, covers mu'', a sum of non-negative
    terms, and p''. The result depends on the arguments alone and is cached.
    """
    p = build_pade(m, alpha)
    grid = build_time_grid(lambda_hat, lambda_max_bound)
    lh = grid.lambda_hat
    rel_rounding = 64.0 * grid.num_steps * (m + 1) * np.finfo(float).eps
    rounding = rel_rounding * lh ** -alpha
    lam = np.geomspace(lh, grid.lambda_max_bound, CERT_START_CELLS + 1)  # ends lh and Lambda
    mu, curv = _mu_and_curvature(p, grid, lam)
    while True:
        # g and h^2 g'' at the ends of each cell, from lam^2 mu'' and lam^2 p''
        power = lam ** -alpha
        g, curv_p = np.abs(mu - power), alpha * (alpha + 1.0) * power
        ha, hb = (np.diff(lam) / lam[:-1]) ** 2, (np.diff(lam) / lam[1:]) ** 2
        bend = np.maximum(np.abs(hb * curv[1:] - ha * curv_p[:-1]),
                          np.abs(ha * curv[:-1] - hb * curv_p[1:]))
        bend += rel_rounding * ha * (curv[:-1] + curv_p[:-1])
        enclosure = np.maximum(g[:-1], g[1:]) + bend / 8.0
        split = np.flatnonzero(enclosure > CERT_SHARPNESS * max(g.max(), rounding))
        room = CERT_MAX_CELLS - (len(lam) - 1)
        if split.size > room:  # the worst cells first, in their order along lambda
            split = np.sort(split[np.argsort(-enclosure[split], kind="stable")[:room]])
        mid = lam[split] * np.sqrt(lam[split + 1] / lam[split])  # a product may overflow
        inside = (lam[split] < mid) & (mid < lam[split + 1])
        split, mid = split[inside], mid[inside]
        if not split.size:
            break
        mu_mid, curv_mid = _mu_and_curvature(p, grid, mid)
        lam, mu, curv = (np.insert(v, split + 1, w) for v, w in
                         ((lam, mid), (mu, mu_mid), (curv, curv_mid)))
    return float(enclosure.max() + rounding)


def _mu_and_curvature(p: PadeApproximant, grid: TimeGrid, lam: np.ndarray,
                      curvature: bool = True):
    """mu(lam) and, with `curvature`, lam^2 mu''(lam) (else None): the one evaluator of mu.

    One step at a time, so that no array holds more than lam's size, in lam's
    floating dtype, with lambda_hat and the nodes cast to it. Step n feeds
    theta_n = tau_n x / (lh + t_n x), x = lam - lh, to the rational factor r.
    With r_n = r(theta_n(lam)), mu''/mu = sum_{i != j} a_i a_j + sum_n b_n for
    a_n = r_n'/r_n <= 0 and b_n = r_n''/r_n >= 0, a sum of non-negative terms.
    It is formed times lam^2, which neither overflows nor underflows.
    """
    real = lam.dtype.type
    lh = real(grid.lambda_hat)
    nodes = grid.nodes.astype(lam.dtype)
    x = lam - lh
    mu = np.full_like(lam, lh ** -real(p.alpha))
    slope, curv = np.zeros_like(lam), np.zeros_like(lam)  # lam sum_n a_n, lam^2 mu''/mu
    for t_n, tau in zip(nodes[:-1], np.diff(nodes)):
        den = lh + t_n * x
        theta = tau * x / den
        r = rm_partial(p, theta)
        mu *= r
        if curvature:
            dr, ddr = np.zeros_like(lam), np.zeros_like(lam)  # r'(theta) <= 0, r''(theta) >= 0
            for beta, d in zip(p.beta[1:], p.den_roots):
                w = 1.0 / (1.0 + d * theta)
                v = beta * d * w * w
                dr -= v
                ddr += 2.0 * d * w * v
            dtheta = tau * (lh / den) * (lam / den)  # lam theta_n'
            ddtheta = -2.0 * t_n * (lam / den) * dtheta  # lam^2 theta_n'' <= 0
            a = dr * dtheta / r
            curv += 2.0 * a * slope + (ddr * dtheta * dtheta + dr * ddtheta) / r
            slope += a
    return mu, (mu * curv if curvature else None)
