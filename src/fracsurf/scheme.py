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
CERT_MAX_CELLS = 4096  # cells at which the enclosure stops refining (a looser bound)
CERT_SHARPNESS = 1.1  # cells whose enclosure exceeds this times the sampled maximum split


@dataclass(frozen=True)
class TimeGrid:
    lambda_hat: float
    lambda_max_bound: float
    nodes: np.ndarray

    @property
    def num_steps(self) -> int:
        """L+1, the number of product factors (equals the solve count per order)."""
        return len(self.nodes) - 1

    def theta(self, lam):
        """theta_n(lam) for n = 0..L, the scalar arguments fed to the rational factor.

        The step index n is a new first axis in front of lam's shape; computed
        in lam's floating dtype (float64 otherwise), nodes and lambda_hat included.
        """
        lam = np.asarray(lam)
        if lam.dtype.kind != "f":
            lam = lam.astype(float)
        lh = lam.dtype.type(self.lambda_hat)
        nodes = self.nodes.astype(lam.dtype).reshape((-1,) + (1,) * lam.ndim)
        tn = nodes[:-1]
        return (nodes[1:] - tn) * (lam - lh) / (lh + tn * (lam - lh))


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
    real = lam.dtype.type
    mu = np.full_like(lam, real(lh) ** -real(p.alpha))
    for theta in grid.theta(lam):
        mu *= rm_partial(p, theta)
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

    mu is convex and decreasing there: each factor r(theta_n(lambda)) is
    positive, convex and decreasing, since r is for theta >= 0 (its weights
    and roots are positive) and theta_n is concave and increasing in lambda,
    and a product of such factors is too. So on a cell [a, b], mu lies below
    its chord and above its tangents at a and b, and g = mu - lambda^-alpha
    is enclosed by those lines less lambda^-alpha, which is evaluated
    exactly (`_cell_enclosure`): a first-order enclosure from mu and mu' at
    the ends of the cell, as in interval analysis (R. E. Moore, "Interval
    Analysis", 1966). The cells start log-spaced, CERT_START_CELLS of them,
    and every cell whose enclosure exceeds CERT_SHARPNESS times the largest
    sampled |g| is bisected, until none is or CERT_MAX_CELLS cells are
    reached. At that cap the enclosure reached is returned: still a bound,
    only looser (at alpha near 1 from m = 3, and from m = 4 or 5).

    A rounding term of 64 (L+1)(m+1) units of rounding times lambda_hat^-alpha
    covers the evaluation in double precision and the rounding of the
    approximant's roots and weights, each a few units per factor. The
    result depends on the arguments alone and is cached.
    """
    p = build_pade(m, alpha)
    grid = build_time_grid(lambda_hat, lambda_max_bound)
    lh, lam_max = grid.lambda_hat, grid.lambda_max_bound
    lam = np.geomspace(lh, lam_max, CERT_START_CELLS + 1)  # its ends are lh and lam_max
    mu, slope = _mu_and_slope(p, grid, lam)
    while True:
        enclosure = _cell_enclosure(lam, mu, slope, alpha)
        sampled = np.max(np.abs(mu - lam ** -alpha))
        split = np.flatnonzero(enclosure > CERT_SHARPNESS * sampled)
        room = CERT_MAX_CELLS - (len(lam) - 1)
        if split.size > room:  # the worst cells first, in their order along lambda
            split = np.sort(split[np.argsort(-enclosure[split], kind="stable")[:room]])
        mid = np.sqrt(lam[split] * lam[split + 1])
        inside = (lam[split] < mid) & (mid < lam[split + 1])
        split, mid = split[inside], mid[inside]
        if not split.size:
            break
        mu_mid, slope_mid = _mu_and_slope(p, grid, mid)
        lam, mu, slope = (np.insert(v, split + 1, w) for v, w in
                          ((lam, mid), (mu, mu_mid), (slope, slope_mid)))
    rounding = 64.0 * grid.num_steps * (m + 1) * np.finfo(float).eps * lh ** -alpha
    return float(enclosure.max() + rounding)


def _mu_and_slope(p: PadeApproximant, grid: TimeGrid, lam: np.ndarray):
    """mu(lam) and mu'(lam), one step at a time so that no array holds more than lam's size.

    mu' = mu * sum_n r'(theta_n) theta_n' / r(theta_n), with
    r'(theta) = -sum_i beta_i d_i / (1 + d_i theta)^2 and
    theta_n' = tau_n lh / (lh + t_n (lam - lh))^2.
    """
    lh = grid.lambda_hat
    x = lam - lh
    mu = np.full_like(lam, lh ** -p.alpha)
    log_slope = np.zeros_like(lam)
    for t_n, tau in zip(grid.nodes[:-1], np.diff(grid.nodes)):
        den = lh + t_n * x
        theta = tau * x / den
        dr = np.zeros_like(lam)
        for beta, d in zip(p.beta[1:], p.den_roots):
            dr -= beta * d / (1.0 + d * theta) ** 2
        r = rm_partial(p, theta)
        mu *= r
        log_slope += dr * (tau * lh / (den * den)) / r
    return mu, mu * log_slope


def _cell_enclosure(lam: np.ndarray, mu: np.ndarray, slope: np.ndarray,
                    alpha: float) -> np.ndarray:
    """Per cell [a, b], a bound on |mu - p| from mu and mu' at a and b, and p exactly.

    mu is convex, so it lies below its chord and above its tangents at a and
    b. Hence g = mu - p lies below chord - p, which is concave and peaks
    where p' equals the chord's slope, and above max(tangents) - p, which is
    concave on each side of the point c where the tangents cross, so that
    its least value is at a, c or b.
    """
    a, b = lam[:-1], lam[1:]
    h, rise = b - a, mu[1:] - mu[:-1]
    ga, gb = mu[:-1] - a ** -alpha, mu[1:] - b ** -alpha
    chord = np.divide(rise, h, out=np.zeros_like(h), where=h > 0.0)
    peak = np.clip(np.maximum(-chord / alpha, 1e-300) ** (-1.0 / (alpha + 1.0)), a, b)
    upper = np.maximum(mu[:-1] + (peak - a) * chord - peak ** -alpha, np.maximum(ga, gb))
    bend = slope[1:] - slope[:-1]  # >= 0, as mu' increases
    c = a + np.clip(np.divide(rise - h * slope[1:], -bend, out=np.zeros_like(h),
                              where=bend > 0.0), 0.0, h)
    lower = np.minimum(mu[:-1] + (c - a) * slope[:-1] - c ** -alpha, np.minimum(ga, gb))
    return np.maximum(upper, -lower)
