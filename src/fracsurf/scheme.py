"""Temporal grid of the operator-product factorization and its scalar transfer function.

The grid doubles its step geometrically from t_1 = lh/(Lam - lh) and clips at 1,
which keeps theta_n(Lam) <= 1 at every step with the fewest steps: its nodes
are (2^n - 1) t_1 while below 1, about ceil(log2(Lam/lh)) steps, for a ratio
Lam/lh up to about 2^1023. Its invariants hold by construction, and the tests
check them. mu(lambda) is the exact scalar shadow of the operator algorithm:
the product over steps of the rational factor evaluated at theta_n(lambda).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .pade import PadeApproximant, rm_partial

__all__ = [
    "TimeGrid",
    "build_time_grid",
    "scalar_mu",
    "scheme_error_bound",
]


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
    1.5 safety factor when asserting against measured errors.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha={alpha} outside (0, 1)")
    if lambda_max_bound <= lambda_hat or lambda_hat <= 0.0:
        raise ValueError("need 0 < lambda_hat < lambda_max_bound")
    return _chat(alpha) * lambda_hat ** (-alpha) * 32.0 ** (-m)
