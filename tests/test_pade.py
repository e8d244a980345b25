import math
from fractions import Fraction

import numpy as np
import pytest

from fracsurf.pade import (
    build_pade,
    explicit_pq_coefficients,
    jacobi_roots,
    pade_error_bound,
    pade_from_roots,
    rm_partial,
)
from util import eval_rm


class TestJacobiRoots:
    def test_m1_closed_forms(self):
        # the order-1 roots are (1-alpha)/2 and (1+alpha)/2
        assert jacobi_roots(1, 0.5, -0.5) == pytest.approx([0.25], abs=1e-15)
        assert jacobi_roots(1, -0.5, 0.5) == pytest.approx([0.75], abs=1e-15)

    def test_m3_vs_bisection_oracle(self):
        # frozen from the sign-change bisection scan of the expanded degree-3
        # polynomial in (1-t); regenerate with _bisection_roots below
        expected = [0.07326345775228343, 0.4333019811066391, 0.843434561141077]
        got = jacobi_roots(3, 0.3, -0.3)
        assert got == pytest.approx(expected, abs=5e-13)
        assert _bisection_roots(3, 0.3, -0.3) == pytest.approx(expected, abs=5e-13)

    def test_m0_empty(self):
        assert len(jacobi_roots(0, 0.3, -0.3)) == 0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            jacobi_roots(2, -1.0, 0.0)
        with pytest.raises(ValueError):
            jacobi_roots(-1, 0.1, 0.1)

    def test_roots_inside_unit_interval(self):
        for m in (1, 4, 16, 64):
            for alpha in (0.05, 0.5, 0.95):
                r = jacobi_roots(m, alpha, -alpha)
                assert r[0] > 0.0 and r[-1] < 1.0
                assert np.all(np.diff(r) > 0)


def _bisection_roots(m, b, g):
    # independent root finder: expand the hypergeometric sum in u = 1 - t and
    # bracket sign changes on a fine grid
    def poch(x, j):
        out = 1.0
        for i in range(j):
            out *= x + i
        return out

    coef = [
        poch(-m, j) * poch(m + b + g + 1, j) / (poch(b + 1, j) * math.factorial(j))
        for j in range(m + 1)
    ]

    def f(t):
        u = 1.0 - t
        return sum(c * u**j for j, c in enumerate(coef))

    ts = np.linspace(0.0, 1.0, 20001)
    vals = np.array([f(t) for t in ts])
    roots = []
    for i in range(len(ts) - 1):
        if vals[i] * vals[i + 1] < 0:
            lo, hi = ts[i], ts[i + 1]
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                if f(lo) * f(mid) <= 0:
                    hi = mid
                else:
                    lo = mid
            roots.append(0.5 * (lo + hi))
    return sorted(roots)


class TestBuildPade:
    def test_m1_alpha_half(self):
        p = build_pade(1, 0.5)
        assert p.num_roots == pytest.approx([0.25], abs=1e-15)
        assert p.den_roots == pytest.approx([0.75], abs=1e-15)
        assert p.beta == pytest.approx([1.0 / 3.0, 2.0 / 3.0], abs=1e-15)

    @pytest.mark.parametrize("m", [1, 2, 5, 12, 32])
    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.7, 0.95])
    def test_weights_sum_to_one(self, m, alpha):
        p = build_pade(m, alpha)
        assert p.beta.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(p.beta > 0)

    def test_weights_match_residues(self):
        # residue-by-limit oracle: beta_i = lim (1 + b_i t) r_m(t) at t -> -1/b_i
        p = build_pade(2, 0.3)
        for i in range(p.m):
            pole = -1.0 / p.den_roots[i]
            res = []
            for eps in (1e-6, 5e-7):
                t = pole * (1.0 - eps)
                val = np.prod((1.0 + p.num_roots * t) / (1.0 + p.den_roots * t))
                res.append((1.0 + p.den_roots[i] * t) * val)
            # Richardson in eps (the limit is linear in eps to leading order)
            limit = 2.0 * res[1] - res[0]
            assert limit == pytest.approx(p.beta[i + 1], rel=1e-6)

    def test_interlacing_every_order(self):
        for m in (1, 3, 8, 24):
            p = build_pade(m, 0.4)
            merged = np.empty(2 * m)
            merged[0::2] = p.num_roots
            merged[1::2] = p.den_roots
            assert np.all(np.diff(merged) > 0)

    def test_shared_checks_reject_swapped_roots(self):
        p = build_pade(3, 0.4)
        with pytest.raises(ValueError, match="interlacing"):
            pade_from_roots(0.4, p.den_roots.copy(), p.num_roots.copy())

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            build_pade(0, 0.5)
        with pytest.raises(ValueError):
            build_pade(65, 0.5)
        with pytest.raises(ValueError):
            build_pade(3, 1.0)

    def test_immutable(self):
        p = build_pade(2, 0.5)
        with pytest.raises(ValueError):
            p.beta[0] = 0.0


class TestEvaluation:
    def test_m1_value_at_one(self):
        p = build_pade(1, 0.5)
        assert eval_rm(p, 1.0) == pytest.approx(5.0 / 7.0, abs=1e-15)
        assert rm_partial(p, 1.0) == pytest.approx(1.0 / 3.0 + (2.0 / 3.0) / 1.75, abs=1e-15)

    def test_value_at_zero_is_one(self):
        for m, alpha in [(1, 0.5), (6, 0.2), (12, 0.9)]:
            p = build_pade(m, alpha)
            assert eval_rm(p, 0.0) == 1.0
            assert rm_partial(p, 0.0) == 1.0

    def test_gap_above_power_function(self):
        p = build_pade(1, 0.5)
        gap = eval_rm(p, 1.0) - 2.0 ** (-0.5)
        assert gap == pytest.approx(5.0 / 7.0 - 2.0 ** (-0.5), abs=1e-15)
        assert gap > 0

    def test_forms_agree(self):
        p = build_pade(4, 0.9)
        ts = np.arange(0.1, 1.05, 0.1)
        a = eval_rm(p, ts)
        b = rm_partial(p, ts)
        assert np.max(np.abs(a - b) / a) < 1e-12

    def test_monotone_decreasing(self):
        ts = np.linspace(0.0, 10.0, 10001)
        for m, alpha in [(1, 0.1), (5, 0.5), (10, 0.9)]:
            vals = eval_rm(build_pade(m, alpha), ts)
            assert np.all(np.diff(vals) < 0)
            assert np.all(vals > 0) and np.all(vals <= 1.0)

    def test_order_monotonicity(self):
        # r_{m} > r_{m+1} pointwise; strict only where the gap (which scales
        # like the error bound) is resolvable in double precision
        ts = np.linspace(0.01, 1.0, 100)
        prev = np.ones_like(ts)
        for m in range(1, 8):
            cur = eval_rm(build_pade(m, 0.3), ts)
            resolvable = pade_error_bound(max(m - 1, 1), 0.3, ts) > 1e-13
            assert np.all(cur[resolvable] < prev[resolvable])
            assert np.all(cur <= prev + 1e-15)
            prev = cur

    def test_rejects_negative_t(self):
        p = build_pade(2, 0.5)
        with pytest.raises(ValueError):
            eval_rm(p, -0.1)


class TestErrorBound:
    def test_zero_at_origin(self):
        assert pade_error_bound(3, 0.4, 0.0) == 0.0

    def test_m1_alpha_half_t1(self):
        # sin(pi/2)/2 * 2^-4 * 1 * 2^-1 = 1/64
        assert pade_error_bound(1, 0.5, 1.0) == pytest.approx(0.015625, abs=1e-18)
        actual = eval_rm(build_pade(1, 0.5), 1.0) - 2.0 ** (-0.5)
        assert pade_error_bound(1, 0.5, 1.0) >= actual

    def test_domain_error(self):
        with pytest.raises(ValueError):
            pade_error_bound(1, 0.5, 1.5)
        with pytest.raises(ValueError):
            pade_error_bound(1, 0.5, -0.1)

    def test_bound_dominates_on_grid(self):
        # the full (m, alpha) sweep is in the acceptance suite
        ts = np.linspace(0.0, 1.0, 101)
        for m in (1, 3, 5):
            for alpha in (0.1, 0.5, 0.9):
                p = build_pade(m, alpha)
                gap = eval_rm(p, ts) - (1.0 + ts) ** (-alpha)
                bound = pade_error_bound(m, alpha, ts)
                assert np.all(gap <= 1.5 * bound + 1e-15)


class TestMaclaurinOracle:
    def test_m1_closed_form(self):
        num, den = maclaurin_pade_oracle(1, 0.5)
        assert num == pytest.approx([1.0, 0.25], abs=1e-15)
        assert den == pytest.approx([1.0, 0.75], abs=1e-15)

    def test_taylor_match_through_2m(self):
        # series of r_m from its root-product representation must match the
        # binomial series of (1+t)^-alpha through order 2m
        for m in (1, 3, 6, 8):
            for alpha in (0.2, 0.5, 0.8):
                p = build_pade(m, alpha)
                num = np.poly(-1.0 / p.num_roots)[::-1]
                num = num / num[0]
                den = np.poly(-1.0 / p.den_roots)[::-1]
                den = den / den[0]
                series = _divide_series(num, den, 2 * m + 1)
                c = _binomial_series(alpha, 2 * m + 1)
                assert np.max(np.abs(series - c) / np.abs(c)) < 1e-9

    def test_denominator_roots_match(self):
        _, den = maclaurin_pade_oracle(3, 0.3)
        roots = np.sort(-1.0 / np.roots(den[::-1]))
        expected = jacobi_roots(3, -0.3, 0.3)
        assert roots == pytest.approx(expected, abs=1e-10)

    def test_explicit_coefficients_match_system(self):
        # done internally as the oracle's self-check, exercised here explicitly
        for m in (2, 5, 10):
            num, den = maclaurin_pade_oracle(m, 0.7)
            P, Q = explicit_pq_coefficients(m, 0.7)
            assert num == pytest.approx([float(x) for x in P], rel=1e-14)
            assert den == pytest.approx([float(x) for x in Q], rel=1e-14)

    def test_order_cap(self):
        with pytest.raises(ValueError):
            maclaurin_pade_oracle(11, 0.5)


def _binomial_series(alpha, count):
    c = np.empty(count)
    c[0] = 1.0
    for j in range(1, count):
        c[j] = c[j - 1] * (-(alpha + j - 1)) / j
    return c


def _divide_series(num, den, count):
    # coefficients of num/den as a power series (den[0] == 1)
    out = np.zeros(count)
    for k in range(count):
        acc = num[k] if k < len(num) else 0.0
        for j in range(1, min(k, len(den) - 1) + 1):
            acc -= den[j] * out[k - j]
        out[k] = acc
    return out


def _maclaurin_coefficients(alpha: Fraction, count: int) -> list[Fraction]:
    # series of (1+t)^(-alpha): c_j = (-1)^j (alpha)_j / j!
    c = [Fraction(1)]
    for j in range(1, count):
        c.append(c[-1] * -(alpha + j - 1) / j)
    return c


def maclaurin_pade_oracle(m: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Independent (m,m) approximant from the series-matching linear system.

    Solves the classical denominator system built from the Maclaurin
    coefficients of (1+t)^(-alpha) in exact rational arithmetic, forms the
    numerator by truncated multiplication, and cross-checks the result against
    the closed-form coefficient products and against the root-product form of
    build_pade on a t-grid. Returns (numerator, denominator) coefficient
    arrays, constant terms first.
    """
    if not 1 <= m <= 10:
        raise ValueError("oracle restricted to m <= 10")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha={alpha} outside (0, 1)")
    al = Fraction(float(alpha))
    c = _maclaurin_coefficients(al, 2 * m + 1)

    # rows i=1..m of: sum_j c_{m+i-j} q_j = -c_{m+i}, with c_k = 0 for k < 0
    rows = []
    rhs = []
    for i in range(1, m + 1):
        rows.append([c[m + i - j] if m + i - j >= 0 else Fraction(0) for j in range(1, m + 1)])
        rhs.append(-c[m + i])
    q = _solve_fraction_system(rows, rhs)
    den = [Fraction(1)] + q
    num = []
    for j in range(m + 1):
        num.append(sum(c[j - k] * den[k] for k in range(min(j, m) + 1) if j - k >= 0))

    Pex, Qex = explicit_pq_coefficients(m, al)
    worst = max(
        max(abs(x - y) for x, y in zip(num, Pex)),
        max(abs(x - y) for x, y in zip(den, Qex)),
    )
    if float(worst) > 1e-12:
        raise RuntimeError(f"oracle self-check failed: coefficient gap {float(worst):.3e}")

    num_f = np.array([float(x) for x in num])
    den_f = np.array([float(x) for x in den])
    ts = np.linspace(0.0, 1.0, 101)
    vals_sys = np.polyval(num_f[::-1], ts) / np.polyval(den_f[::-1], ts)
    vals_root = eval_rm(build_pade(m, alpha), ts)
    gap = np.abs(vals_sys - vals_root) / np.abs(vals_root)
    if gap.max() > 1e-9:
        raise RuntimeError(
            f"oracle disagrees with root-product form by {gap.max():.3e} relative"
        )
    return num_f, den_f


def _solve_fraction_system(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    # Gaussian elimination with partial pivoting, exact rationals
    n = len(rhs)
    A = [row[:] + [rhs[i]] for i, row in enumerate(rows)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(A[r][col]))
        if A[piv][col] == 0:
            raise RuntimeError("singular series-matching system")
        A[col], A[piv] = A[piv], A[col]
        for r in range(col + 1, n):
            f = A[r][col] / A[col][col]
            if f:
                for k in range(col, n + 1):
                    A[r][k] -= f * A[col][k]
    x = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        s = A[r][n] - sum(A[r][k] * x[k] for k in range(r + 1, n))
        x[r] = s / A[r][r]
    return x
