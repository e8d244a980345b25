import math

import numpy as np
import pytest

from fracsurf.oracle import (
    convergence_rate,
    dense_decompose,
    dense_fractional,
    l2_error_on_mesh,
    legendre_at_zero,
    pade_extended,
    rm_minus_power_exact,
    sphere_series_solution,
    sphere_sign_coefficients,
    torus_fields,
    torus_mean_curvature,
)
from fracsurf.pade import build_pade, pade_error_bound
from fracsurf.solver import pcg
from util import diagonal_op, eval_rm, jacobi


class TestDenseFractional:
    def test_diagonal_pencil(self):
        op = diagonal_op([1.0, 1.0, 1.0], [1.0, 4.0, 9.0])
        out = dense_fractional(op, 0.5, np.ones(3))
        assert out == pytest.approx([1.0, 0.5, 1.0 / 3.0], rel=1e-13)

    def test_alpha_one_is_plain_solve(self, sphere2_op, sphere2_sign_rhs):
        out = dense_fractional(sphere2_op, 1.0 - 1e-15, sphere2_sign_rhs)
        rhs = sphere2_op.mass @ sphere2_sign_rhs
        A = sphere2_op.stiffness + 1e-14 * sphere2_op.mass
        direct, _, _ = pcg(A, rhs, rel_tol=1e-13, precond=jacobi(A))
        from fracsurf.assembly import deflate_mean

        direct = deflate_mean(direct, sphere2_op)
        rel = sphere2_op.m_norm(out - direct) / sphere2_op.m_norm(direct)
        assert rel <= 1e-8

    def test_alpha_zero_identity(self, sphere2_op, sphere2_sign_rhs):
        out = dense_fractional(sphere2_op, 0.0, sphere2_sign_rhs)
        assert out == pytest.approx(sphere2_sign_rhs, abs=1e-10)

    def test_semigroup(self):
        n = 40
        diag_m = 1.0 + 0.3 * np.sin(np.arange(n))
        diag_s = np.linspace(2.0, 50.0, n)
        op = diagonal_op(diag_m, diag_s)
        f = np.cos(np.arange(n, dtype=float))
        once = dense_fractional(op, 0.3, dense_fractional(op, 0.4, f))
        combined = dense_fractional(op, 0.7, f)
        assert np.linalg.norm(once - combined) <= 1e-8 * np.linalg.norm(combined)

    def test_size_guard(self):
        op = diagonal_op(np.ones(2001), np.ones(2001))
        with pytest.raises(ValueError, match="2000"):
            dense_decompose(op)


class TestSphereSeries:
    def test_odd_parity(self):
        xs = np.linspace(-0.95, 0.95, 21)
        u = sphere_series_solution(0.5, xs, n_terms=600)
        u_neg = sphere_series_solution(0.5, -xs, n_terms=600)
        assert u_neg == pytest.approx(-u, abs=1e-14)
        assert sphere_series_solution(0.37, 0.0, n_terms=500) == 0.0

    def test_coefficient_convention_agreement(self):
        # independent derivation P_{n-1}(0) - P_{n+1}(0) equals the
        # (2n+1)/(n+1) * P_{n-1}(0) normalization for n <= 20
        a = sphere_sign_coefficients(21)
        p0 = legendre_at_zero(21)
        for n in range(1, 21, 2):
            assert a[n] == pytest.approx((2 * n + 1) * p0[n - 1] / (n + 1), rel=1e-14)
        assert a[1] == pytest.approx(1.5, abs=1e-15)
        assert a[3] == pytest.approx(-7.0 / 8.0, abs=1e-15)
        assert np.all(a[0::2] == 0.0)

    def test_reference_value_alpha_half_pole(self):
        # frozen from the plain alternating series under 12 rounds of repeated
        # averaging with 2e5 terms (tail spread < 1e-15); regenerate with
        # _averaged_pole_value below
        reference = 0.8868930116993123
        assert _averaged_pole_value(0.5) == pytest.approx(reference, abs=1e-12)
        windowed = sphere_series_solution(0.5, 1.0, n_terms=4000)
        assert windowed == pytest.approx(reference, abs=1e-6)

    def test_matches_fixture(self):
        # regenerable fixture: see tests/fixtures/MANIFEST.json
        import os

        path = os.path.join(os.path.dirname(__file__), "fixtures",
                            "sphere_series_reference.csv")
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        for alpha, x3, value in rows:
            got = sphere_series_solution(alpha, x3, n_terms=4000)
            assert got == pytest.approx(value, abs=2e-6), (alpha, x3)

    def test_windowed_sums_cauchy(self):
        xs = np.array([-0.9, -0.35, 0.6, 1.0])
        diffs = []
        for k in range(5, 11):
            u1 = sphere_series_solution(0.3, xs, n_terms=2**k)
            u2 = sphere_series_solution(0.3, xs, n_terms=2 ** (k + 1))
            diffs.append(np.abs(u2 - u1).max())
        assert all(b < a for a, b in zip(diffs, diffs[1:]))

    def test_term_cap(self):
        with pytest.raises(ValueError):
            sphere_series_solution(0.5, 0.3, n_terms=10**4 + 1)

    @pytest.mark.parametrize("x3", [np.linspace(-1.0, 1.0, 12).reshape(3, 4), 0.3],
                             ids=["array", "scalar"])
    def test_stacked_rows_equal_single_calls(self, x3):
        # one recurrence for all alphas gives each row the bits of its own call
        alphas = (0.01, 0.3, 0.5, 0.99)
        rows = sphere_series_solution(alphas, x3, n_terms=300)
        assert rows.shape == (len(alphas),) + np.shape(x3)
        for row, alpha in zip(rows, alphas):
            single = sphere_series_solution(alpha, x3, n_terms=300)
            assert row.tobytes() == np.float64(single).tobytes()


def _averaged_pole_value(alpha, terms=200000, rounds=12):
    k = np.arange(terms)
    n = 2 * k + 1
    p0 = legendre_at_zero(2 * terms + 2)
    a = p0[2 * k] - p0[2 * k + 2]
    partial = np.cumsum(a * (n * (n + 1.0)) ** (-alpha))
    tail = partial[-50000:]
    for _ in range(rounds):
        tail = 0.5 * (tail[1:] + tail[:-1])
    return float(tail[-1])


class TestTorusFields:
    def test_top_circle(self):
        assert torus_mean_curvature(0.5, 0.2, math.pi / 2) == pytest.approx(2.5, abs=1e-14)

    def test_outer_equator(self):
        assert torus_mean_curvature(0.5, 0.2, 0.0) == pytest.approx(0.9 / 0.28, rel=1e-14)

    def test_source_on_positive_x_axis(self):
        point = np.array([0.7, 0.0, 0.0])  # phi1 = 0, phi2 = 0
        H, f = torus_fields(0.5, 0.2, point)
        assert f == pytest.approx(H, rel=1e-14)
        assert H == pytest.approx(0.9 / 0.28, rel=1e-12)

    def test_against_finite_difference_curvature(self):
        # second-fundamental-form estimate from central differences of the
        # parametrization, cross-checking the closed form
        R, r = 0.5, 0.2
        for phi1 in (0.3, 1.2, 2.5, 4.0):
            got = torus_mean_curvature(R, r, phi1)
            assert got == pytest.approx(_fd_mean_curvature(R, r, phi1, 0.7), rel=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            torus_mean_curvature(0.2, 0.5, 0.0)


def _fd_mean_curvature(R, r, phi1, phi2, h=1e-4):
    # h balances the O(h^2) truncation against the 1e-16/h^2 rounding floor
    def X(u, v):
        return np.array(
            [(R + r * math.cos(u)) * math.cos(v), (R + r * math.cos(u)) * math.sin(v),
             r * math.sin(u)]
        )

    Xu = (X(phi1 + h, phi2) - X(phi1 - h, phi2)) / (2 * h)
    Xv = (X(phi1, phi2 + h) - X(phi1, phi2 - h)) / (2 * h)
    Xuu = (X(phi1 + h, phi2) - 2 * X(phi1, phi2) + X(phi1 - h, phi2)) / h**2
    Xvv = (X(phi1, phi2 + h) - 2 * X(phi1, phi2) + X(phi1, phi2 - h)) / h**2
    Xuv = (
        X(phi1 + h, phi2 + h) - X(phi1 + h, phi2 - h) - X(phi1 - h, phi2 + h)
        + X(phi1 - h, phi2 - h)
    ) / (4 * h**2)
    nvec = np.cross(Xu, Xv)
    nvec /= np.linalg.norm(nvec)
    E, F, G = Xu @ Xu, Xu @ Xv, Xv @ Xv
    L, M, N = Xuu @ nvec, Xuv @ nvec, Xvv @ nvec
    H = (E * N - 2 * F * M + G * L) / (2 * (E * G - F * F))
    # the inward normal orientation of the cross product flips the sign
    return abs(H)


class TestL2Error:
    def test_interpolant_error_is_small_not_zero(self, sphere2, sphere2_op):
        u = lambda x: x[:, 2] ** 2  # noqa: E731
        u_h = u(sphere2.vertices)
        err = l2_error_on_mesh(sphere2, sphere2_op, u_h, u)
        assert 0.0 < err < 0.05

    @pytest.mark.parametrize("mesh_name", ["sphere2", "square16"])
    def test_stacked_rows_equal_single_calls(self, request, mesh_name):
        # stacked solutions against a reference of one row per solution give
        # each distance the bits of its own call, also with constrained vertices
        mesh, op = request.getfixturevalue(mesh_name), request.getfixturevalue(mesh_name + "_op")
        scales = (0.5, 1.0, 2.0)
        u_h = np.array([np.sin(s * np.arange(op.n)) for s in scales])

        def field(x, scale):
            return scale * x[:, 0] * x[:, 1] + np.sign(x[:, 2] - 0.1)

        errors = l2_error_on_mesh(mesh, op, u_h, lambda x: np.array([field(x, s) for s in scales]))
        assert errors.shape == (len(scales),)
        for err, u, s in zip(errors, u_h, scales):
            single = l2_error_on_mesh(mesh, op, u, lambda x, s=s: field(x, s))
            assert isinstance(single, float) and err.tobytes() == np.float64(single).tobytes()

    def test_rate_formula(self):
        rate = convergence_rate(1.0, 100, 0.25, 400)
        assert rate == pytest.approx(2.0, rel=1e-14)
        assert convergence_rate(math.e, 50, 1.0, 50 * 4) == pytest.approx(
            1.0 / math.log(2.0), rel=1e-12
        )

    def test_zero_field_gives_data_norm(self, sphere3, sphere3_op):
        err = l2_error_on_mesh(
            sphere3, sphere3_op, np.zeros(sphere3_op.n), lambda x: np.sign(x[:, 2])
        )
        assert err == pytest.approx(math.sqrt(4.0 * math.pi), rel=0.02)


class TestPadeExtended:
    @pytest.mark.parametrize("m", [1, 5, 10])
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_longdouble_weights_pass_shared_checks(self, m, alpha):
        p = pade_extended(m, alpha)
        for values in (p.num_roots, p.den_roots, p.beta):
            assert values.dtype == np.longdouble and not values.flags.writeable
        merged = np.empty(2 * m, dtype=np.longdouble)
        merged[0::2] = p.num_roots
        merged[1::2] = p.den_roots
        assert merged[0] > 0 and merged[-1] < 1 and np.all(np.diff(merged) > 0)
        assert np.all(p.beta > 0)
        assert abs(p.beta.sum() - 1) <= 100 * np.finfo(np.longdouble).eps
        # the double approximant is the same one, to double rounding
        double = build_pade(m, alpha)
        assert np.abs(p.beta - double.beta).max() <= 1e-13
        assert np.abs(p.den_roots - double.den_roots).max() <= 1e-14


class TestExactGap:
    def test_matches_double_where_resolvable(self):
        for m, alpha, t in [(1, 0.5, 1.0), (2, 0.3, 0.7), (4, 0.9, 1.0)]:
            p = build_pade(m, alpha)
            double_gap = eval_rm(p, t) - (1.0 + t) ** (-alpha)
            exact_gap = float(rm_minus_power_exact(m, alpha, t))
            assert exact_gap == pytest.approx(double_gap, rel=1e-9)

    def test_resolves_below_double_noise(self):
        # at m = 12, t = 1 the true gap is ~1e-19, far below double rounding
        gap = float(rm_minus_power_exact(12, 0.5, 1.0))
        assert 0.0 < gap < 1e-18
        assert pade_error_bound(12, 0.5, 1.0) / gap < 50.0

    def test_domain(self):
        with pytest.raises(ValueError):
            rm_minus_power_exact(2, 0.5, 1.5)
