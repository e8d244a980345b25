import math

import numpy as np
import pytest

from fracsurf.pade import build_pade, eval_rm_partial
from fracsurf.scheme import build_time_grid, scalar_mu, scheme_error_bound


class TestTimeGrid:
    def test_ratio_16(self):
        grid = build_time_grid(1.0, 16.0)
        assert grid.nodes == pytest.approx([0.0, 1 / 15, 3 / 15, 7 / 15, 1.0], abs=1e-15)
        assert grid.num_steps == 4 == math.ceil(math.log2(16))
        theta = grid.theta(16.0)
        assert theta[:3] == pytest.approx([1.0, 1.0, 1.0], abs=1e-12)
        assert theta[3] <= 1.0 + 1e-12

    def test_immediate_clip(self):
        grid = build_time_grid(4.0, 8.0)
        assert grid.nodes == pytest.approx([0.0, 1.0])
        assert grid.num_steps == 1 == math.ceil(math.log2(2))

    def test_torus_scale_step_count(self):
        # 1.78e6 spectral spread gives 21 products
        assert build_time_grid(1.0, 1.78e6).num_steps == 21

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            build_time_grid(4.0, 4.0)
        with pytest.raises(ValueError):
            build_time_grid(4.0, 2.0)
        with pytest.raises(ValueError):
            build_time_grid(0.0, 2.0)

    @pytest.mark.parametrize("lh", [0.3, 1.0, 4.0])
    @pytest.mark.parametrize("lam", [1.5, 16.0, 1e4, 2.0**50])
    def test_invariants_sweep(self, lh, lam):
        if lam <= lh:
            pytest.skip("not a valid pair")
        grid = build_time_grid(lh, lam)
        assert grid.nodes[0] == 0.0 and grid.nodes[-1] == 1.0
        tau = grid.steps
        assert np.all(tau > 0)
        if len(tau) > 1:
            assert np.max(tau[1:] / tau[:-1]) <= 2.0 + 1e-12
        assert np.max(grid.theta(lam)) <= 1.0 + 1e-9
        assert grid.num_steps == math.ceil(math.log2(lam / lh) - 1e-12)

    def test_l_plus_one_for_2p50(self):
        assert build_time_grid(1.0, 2.0**50).num_steps == 50

    def test_theta_on_an_array_stacks_scalar_calls(self):
        grid = build_time_grid(0.37, 1e4)
        lams = np.array([[0.37, 1.0, 2.5], [123.4, 5e3, 1e4]])
        theta = grid.theta(lams)
        assert theta.shape == (grid.num_steps,) + lams.shape
        expected = np.stack([grid.theta(lam) for lam in lams.ravel()], axis=1)
        assert np.array_equal(theta.reshape(grid.num_steps, -1), expected)

    def test_theta_keeps_longdouble(self):
        grid = build_time_grid(1.0, 2.0**50)
        lam = 1 + np.longdouble(3) / 7
        theta = grid.theta(lam)
        assert theta.dtype == np.longdouble
        # t_0 = 0 and lh = 1, so theta_0 = t_1 * (lam - 1), rounded in longdouble
        assert theta[0] == np.longdouble(grid.nodes[1]) * (lam - 1)


class TestScalarMu:
    def test_exact_at_shift(self):
        p = build_pade(3, 0.7)
        grid = build_time_grid(1.0, 1024.0)
        assert scalar_mu(p, grid, 1.0) == 1.0

    def test_exact_at_shift_sweep(self):
        # r_m(0) = 1 is an identity of the approximant, so mu(lh) = lh^-alpha bit for bit
        alphas = [k / 20 for k in range(1, 20)]
        for m in range(1, 11):
            for alpha in alphas:
                p = build_pade(m, alpha)
                assert eval_rm_partial(p, 0.0) == 1.0, (m, alpha)
                for lh in (1.0, 2.0, 0.37):
                    grid = build_time_grid(lh, 1024.0 * lh)
                    assert scalar_mu(p, grid, lh) == lh ** (-alpha), (m, alpha, lh)

    def test_longdouble_scalar_keeps_dtype(self):
        # a 0-d longdouble comes back as a longdouble, exact at the shift
        for m, alpha, lh in ((3, 0.3, 3.0), (10, 0.9, 0.37)):
            grid = build_time_grid(lh, 1e6)
            mu = scalar_mu(build_pade(m, alpha), grid, np.longdouble(lh))
            assert type(mu) is np.longdouble
            assert mu == np.longdouble(lh) ** -np.longdouble(alpha)

    def test_rounding_below_the_shift_accepted(self):
        # lambda in [lh(1-1e-12), lh) gives theta of about -1e-12, which the factor takes
        p = build_pade(4, 0.3)
        grid = build_time_grid(2.0, 1e5)
        for lam in (np.float64(2.0) * (1 - 5e-13), np.longdouble(2.0) * (1 - np.longdouble(5e-13))):
            mu = scalar_mu(p, grid, lam)
            assert type(mu) is type(lam)
            assert mu == pytest.approx(2.0 ** (-0.3), rel=1e-11)

    def test_range(self):
        p = build_pade(4, 0.3)
        grid = build_time_grid(2.0, 2.0**30)
        lams = np.logspace(np.log10(2.0), 30 * np.log10(2.0), 100)
        mu = scalar_mu(p, grid, lams)
        assert np.all(mu > 0)
        assert np.all(mu <= 2.0 ** (-0.3))

    def test_flags_lambda_above_bound(self):
        p = build_pade(2, 0.5)
        grid = build_time_grid(1.0, 100.0)
        with pytest.warns(UserWarning):
            scalar_mu(p, grid, 200.0)

    def test_rejects_lambda_below_shift(self):
        p = build_pade(2, 0.5)
        grid = build_time_grid(1.0, 100.0)
        with pytest.raises(ValueError):
            scalar_mu(p, grid, 0.5)

    def test_high_order_accuracy(self):
        # the full three-alpha criterion lives in the acceptance suite
        p = build_pade(10, 0.5)
        grid = build_time_grid(1.0, 2.0**50)
        lams = np.logspace(np.log10(2.0), 50 * np.log10(2.0), 60)
        rel = np.abs(scalar_mu(p, grid, lams) - lams ** (-0.5)) * lams**0.5
        assert rel.max() <= 1e-12

    def test_error_within_bound_m4(self):
        p = build_pade(4, 0.5)
        grid = build_time_grid(1.0, 2.0**50)
        lams = np.logspace(0.0, 50 * np.log10(2.0), 120)
        err = np.abs(scalar_mu(p, grid, lams) - lams ** (-0.5))
        assert err.max() <= 1.5 * scheme_error_bound(4, 0.5, 1.0, 2.0**50)

    def test_error_halves_five_bits_per_order(self):
        grid = build_time_grid(1.0, 2.0**30)
        lams = np.logspace(0.0, 30 * np.log10(2.0), 120)
        errs = []
        for m in range(2, 7):
            err = np.abs(scalar_mu(build_pade(m, 0.5), grid, lams) - lams ** (-0.5))
            errs.append(err.max())
        gains = -np.diff(np.log2(errs))
        assert np.all(gains >= 4.0) and np.all(gains <= 6.0)


class TestBounds:
    def test_chat_value_at_half(self):
        # (alpha+2) 2^(alpha-1) sin(pi alpha)/alpha at alpha = 1/2 is 5/sqrt(2)
        got = scheme_error_bound(1, 0.5, 1.0, 16.0) * 32.0
        assert got == pytest.approx(5.0 / math.sqrt(2.0), abs=1e-14)
        assert got == pytest.approx(3.5355339059327378, abs=1e-12)

    def test_exponent_reduces_to_m(self):
        for m in (1, 3, 7):
            b = scheme_error_bound(m, 0.3, 2.0, 1e6)
            assert b == pytest.approx(
                scheme_error_bound(1, 0.3, 2.0, 1e6) * 32.0 ** (-(m - 1)), rel=1e-14
            )

    def test_ratio_between_orders(self):
        b1 = scheme_error_bound(3, 0.7, 1.0, 1e8)
        b2 = scheme_error_bound(4, 0.7, 1.0, 1e8)
        assert b2 / b1 == pytest.approx(1.0 / 32.0, rel=1e-14)

    def test_shift_scaling(self):
        assert scheme_error_bound(2, 0.5, 4.0, 1e6) == pytest.approx(
            scheme_error_bound(2, 0.5, 1.0, 1e6) * 4.0 ** (-0.5), rel=1e-14
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            scheme_error_bound(0, 0.5, 1.0, 10.0)
        with pytest.raises(ValueError):
            scheme_error_bound(1, 1.2, 1.0, 10.0)
        with pytest.raises(ValueError):
            scheme_error_bound(1, 0.5, 10.0, 1.0)


class TestInvariantSweep:
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_bound_holds_across_grids(self, alpha):
        # reduced version of the module invariant; the full sweep is acceptance 5
        for lh in (1.0, 4.0):
            for lam_max in (2.0**10, 2.0**30):
                grid = build_time_grid(lh, lam_max)
                lams = np.logspace(np.log10(lh), np.log10(lam_max), 80)
                for m in (1, 4, 8):
                    p = build_pade(m, alpha)
                    err = np.abs(scalar_mu(p, grid, lams) - lams ** (-alpha))
                    assert err.max() <= 1.5 * scheme_error_bound(m, alpha, lh, lam_max)
