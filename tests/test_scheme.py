import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fracsurf import scheme
from fracsurf.oracle import pade_extended
from fracsurf.pade import build_pade, rm_partial
from fracsurf.scheme import (
    CERT_MAX_CELLS,
    build_time_grid,
    certified_scheme_error,
    scalar_mu,
    scheme_error_bound,
)


# (lam, lh) pairs at the edges of the grid construction, by id
EDGE_PAIRS = {
    "1+ulp": (1.0 + 2.0**-52, 1.0),
    "2-ulp": (math.nextafter(2.0, 0.0), 1.0),
    "2": (2.0, 1.0),
    "8/4": (8.0, 4.0),
    "3/2": (3.0, 2.0),
    **{name: pair for k in (1, 2, 3, 10, 52, 53, 100, 1000) for name, pair in (
        (f"2^{k}-ulp", (math.nextafter(2.0**k, 0.0), 1.0)),
        (f"2^{k}", (2.0**k, 1.0)),
        (f"2^{k}+ulp", (math.nextafter(2.0**k, math.inf), 1.0)),
    )},
    "0.3*2^1000": (0.3 * 2.0**1000, 0.3),
    "2^1023-ulp": (math.nextafter(2.0**1023, 0.0), 1.0),
    "2^1023": (2.0**1023, 1.0),
    "1e-300/5e-324": (1e-300, 5e-324),
}
SWEEP_PAIRS = [(lam, lh) for lam in (1.5, 16.0, 1e4, 2.0**50) for lh in (0.3, 1.0, 4.0)]
SWEEP_IDS = [None] * len(SWEEP_PAIRS) + list(EDGE_PAIRS)  # None: pytest's own id
SWEEP_PAIRS += EDGE_PAIRS.values()


def _theta(grid, lam):
    """theta_n(lam) for n = 0..L from the grid's nodes, the test-side reference."""
    nodes, lh = grid.nodes, grid.lambda_hat
    return np.diff(nodes) * (lam - lh) / (lh + nodes[:-1] * (lam - lh))


def _assert_grid_invariants(grid):
    """The grid's invariants, with the tolerances of the run-time check they replace."""
    nodes = grid.nodes
    assert nodes[0] == 0.0 and nodes[-1] == 1.0
    tau = np.diff(nodes)
    assert np.all(tau > 0.0)
    if len(tau) > 1:
        assert np.max(tau[1:] / tau[:-1]) <= 2.0 + 1e-12
    assert np.max(_theta(grid, grid.lambda_max_bound)) <= 1.0 + 1e-9
    expected = max(1, math.ceil(math.log2(grid.lambda_max_bound / grid.lambda_hat) - 1e-12))
    assert grid.num_steps in (expected, expected + 1)


def _doubling_steps(ratio):
    """The least n >= 1 with 2^n >= ratio: the step count of the doubling grid."""
    mantissa, exponent = math.frexp(ratio)
    return max(1, exponent - 1 if mantissa == 0.5 else exponent)


@st.composite
def grid_pairs(draw):
    """(lambda_hat, Lambda) with 0 < lambda_hat < Lambda < inf, often near lambda_hat * 2^k."""
    big = sys.float_info.max
    lh = draw(st.floats(min_value=5e-324, max_value=math.nextafter(big, 0.0)))
    if draw(st.booleans()):
        lam = draw(st.floats(min_value=lh, max_value=big, exclude_min=True))
    else:  # lh * 2^k, moved by a few ulps; 2^k in two factors, since 2.0**1024 raises
        k = draw(st.integers(0, 1100) | st.integers(1018, 1030))
        lam = lh * 2.0 ** (k // 2) * 2.0 ** (k - k // 2)
        ulps = draw(st.integers(-3, 3))
        for _ in range(abs(ulps)):
            lam = math.nextafter(lam, math.copysign(math.inf, ulps))
    assume(lh < lam < math.inf)
    return lh, lam


class TestTimeGrid:
    def test_ratio_16(self):
        grid = build_time_grid(1.0, 16.0)
        assert grid.nodes == pytest.approx([0.0, 1 / 15, 3 / 15, 7 / 15, 1.0], abs=1e-15)
        assert grid.num_steps == 4 == math.ceil(math.log2(16))
        theta = _theta(grid, 16.0)
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

    @pytest.mark.parametrize("lh, lam, name", [
        (1.0, math.inf, "lambda_max_bound"),
        (1.0, math.nan, "lambda_max_bound"),
        (math.nan, 2.0, "lambda_hat"),
        (math.inf, 2.0, "lambda_hat"),
    ], ids=["lam-inf", "lam-nan", "lh-nan", "lh-inf"])
    def test_non_finite_rejected(self, lh, lam, name):
        with pytest.raises(ValueError, match=f"{name} must be .*finite"):
            build_time_grid(lh, lam)

    @pytest.mark.parametrize("lam, lh", SWEEP_PAIRS, ids=SWEEP_IDS)
    def test_invariants_sweep(self, lam, lh):
        if lam <= lh:
            pytest.skip("not a valid pair")
        grid = build_time_grid(lh, lam)
        _assert_grid_invariants(grid)
        assert grid.num_steps == _doubling_steps(lam / lh)

    @given(grid_pairs())
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_grid_holds_its_invariants_or_is_rejected(self, pair):
        lh, lam = pair
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            try:
                grid = build_time_grid(lh, lam)
            except ValueError as exc:
                assert "exceeds 2^1023" in str(exc)
                assert math.log2(lam) - math.log2(lh) > 1023.0 - 1e-9
                return
        _assert_grid_invariants(grid)

    def test_one_ulp_above_2p1023_accepted(self):
        # t_1 = 1 / (2^1023 (1 + 2^-52) - 1) rounds to 2^-1023, the least t_1
        # accepted, so the grid has 1023 steps, one fewer than the exact count
        grid = build_time_grid(1.0, math.nextafter(2.0**1023, math.inf))
        assert grid.num_steps == 1023
        _assert_grid_invariants(grid)

    @pytest.mark.parametrize("lh, lam", [
        (1.0, 1.5 * 2.0**1023),
        (1e-300, 1e10),
        (5e-324, 1e10),
        (5e-324, sys.float_info.max),
    ], ids=["1.5*2^1023", "1e-300..1e10", "5e-324..1e10", "5e-324..max"])
    def test_ratio_beyond_2p1023_rejected(self, lh, lam):
        with pytest.raises(ValueError, match=r"lambda_max_bound/lambda_hat = 2\^\d+\.\d+ exceeds "
                                             r"2\^1023"):
            build_time_grid(lh, lam)

    def test_solve_weights_inside_unit_interval(self):
        # s = t_l + d_i * tau_l, the weight of term i's solve at step l, lies in
        # (0, 1), except where the last step is so narrow that t_L + d_i * tau_L
        # rounds to 1; `fractional_apply` rejects lambda_hat there
        grids = [build_time_grid(lh, lam) for lam, lh in SWEEP_PAIRS if lh < lam]
        rounded = 0
        for m in range(1, 65):
            for alpha in (0.01, 0.5, 0.99):
                d = build_pade(m, alpha).den_roots
                for grid in grids:
                    nodes = grid.nodes
                    s = nodes[:-1, None] + d * np.diff(nodes)[:, None]
                    assert np.all(s > 0.0) and np.all(s[:-1] < 1.0), (m, alpha, grid)
                    if np.any(s[-1] >= 1.0):
                        assert (1.0 - d[-1]) * (1.0 - nodes[-2]) <= 2.0**-53, (m, alpha, grid)
                        rounded += 1
        assert rounded  # the sweep reaches the case that `fractional_apply` rejects

    def test_l_plus_one_for_2p50(self):
        assert build_time_grid(1.0, 2.0**50).num_steps == 50

    def test_theta_keeps_longdouble(self):
        # the one-step grid on [1, 2] has theta_0 = lam - 1, so mu = r(lam - 1), with
        # theta formed and rounded in lam's longdouble
        p = build_pade(3, 0.3)
        lam = 1 + np.longdouble(3) / 7
        mu = scalar_mu(p, build_time_grid(1.0, 2.0), lam)
        assert type(mu) is np.longdouble and mu == rm_partial(p, lam - 1)


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
                assert rm_partial(p, 0.0) == 1.0, (m, alpha)
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

    def test_mu_on_an_array_stacks_scalar_calls(self):
        p = build_pade(3, 0.5)
        grid = build_time_grid(0.37, 1e4)
        lams = np.array([[0.37, 1.0, 2.5], [123.4, 5e3, 1e4]])
        mu = scalar_mu(p, grid, lams)
        assert mu.shape == lams.shape
        assert np.array_equal(mu.ravel(), [scalar_mu(p, grid, lam) for lam in lams.ravel()])

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


def _sampled_errors(m, alpha, lh, lam_max):
    """Largest |mu - lambda^-alpha| on 1e5 log-spaced points in double precision, and on
    4001 in longdouble with the refined approximant of `pade_extended`."""
    grid = build_time_grid(lh, lam_max)
    p = build_pade(m, alpha)
    lams = np.geomspace(lh, lam_max, 100_000)
    double = max(np.max(np.abs(scalar_mu(p, grid, part) - part ** -alpha))
                 for part in np.array_split(lams, 10))
    lams = np.geomspace(np.longdouble(lh), np.longdouble(lam_max), 4001)
    extended = np.max(np.abs(scalar_mu(pade_extended(m, alpha), grid, lams)
                             - lams ** -np.longdouble(alpha)))
    return double, float(extended)


class TestCertificate:
    # (m, alpha, lambda_hat, Lambda) and the least ratio of the a-priori bound
    # to the certificate: 91896 is the sphere level 6 range, and up to m = 7
    # the certificate stays below the a-priori bound on it, alpha near 1 included
    TABLE = [
        (1, 0.5, 1.0, 91896.0, 20.0),
        (2, 0.1, 1.0, 91896.0, 7.0),
        (2, 0.99, 1.0, 91896.0, 90.0),
        (3, 0.1, 1.0, 91896.0, 7.0),
        (3, 0.5, 1.0, 91896.0, 35.0),
        (3, 0.9, 1.0, 91896.0, 100.0),
        (3, 0.5, 4.0, 4e11, 35.0),
        (4, 0.1, 1.0, 1e11, 5.0),
        (4, 0.9, 0.5, 5e4, 1.0),
        (3, 0.999, 1.0, 91896.0, 100.0),
        (4, 0.99, 1.0, 91896.0, 100.0),
        (5, 0.5, 1.0, 91896.0, 50.0),
        (6, 0.5, 1.0, 91896.0, 50.0),
        (7, 0.1, 1.0, 91896.0, 5.0),
    ]

    @pytest.mark.parametrize("m, alpha, lh, lam_max, sharpness", TABLE)
    def test_bounds_the_sampled_error(self, m, alpha, lh, lam_max, sharpness):
        cert = certified_scheme_error(m, alpha, lh, lam_max)
        double, extended = _sampled_errors(m, alpha, lh, lam_max)
        assert cert >= max(double, extended)
        assert cert * sharpness <= scheme_error_bound(m, alpha, lh, lam_max)

    @given(st.integers(1, 7), st.floats(0.01, 0.99), st.floats(-3.0, 3.0),
           st.floats(math.log10(2.0), 12.0))
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_bounds_the_sampled_error_everywhere(self, m, alpha, log_lh, log_ratio):
        lh = 10.0 ** log_lh
        lam_max = lh * 10.0 ** log_ratio
        cert = certified_scheme_error.__wrapped__(m, alpha, lh, lam_max)
        assert cert >= max(_sampled_errors(m, alpha, lh, lam_max))

    def test_cell_cap_gives_a_looser_bound(self, monkeypatch):
        # fewer cells stop the refinement sooner, at a larger enclosure that
        # still bounds the error
        args = (7, 0.9, 1.0, 91896.0)
        full = certified_scheme_error.__wrapped__(*args)
        monkeypatch.setattr(scheme, "CERT_MAX_CELLS", CERT_MAX_CELLS // 8)
        capped = certified_scheme_error.__wrapped__(*args)
        assert capped > 2.0 * full and full >= _sampled_errors(*args)[0]

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_refinement_stops_at_the_rounding_floor(self, monkeypatch, alpha):
        # at m = 10 the error lies below the rounding term, and a cell whose
        # enclosure is within CERT_SHARPNESS of that floor is not split, so the
        # refinement ends before the cap; every lambda evaluated is a cell end
        evaluated = []

        def counting(p, grid, lam, *args, _evaluate=scheme._mu_and_curvature):
            evaluated.append(lam.size)
            return _evaluate(p, grid, lam, *args)

        monkeypatch.setattr(scheme, "_mu_and_curvature", counting)
        certified_scheme_error.__wrapped__(10, alpha, 1.0, 2.0**50)
        assert sum(evaluated) - 1 < CERT_MAX_CELLS

    def test_cached_and_checked(self):
        assert certified_scheme_error(2, 0.5, 1.0, 100.0) is certified_scheme_error(
            2, 0.5, 1.0, 100.0)
        for args in ((0, 0.5, 1.0, 10.0), (1, 1.0, 1.0, 10.0), (1, 0.5, 10.0, 1.0),
                     (1, 0.5, 0.0, 10.0)):
            with pytest.raises(ValueError):
                certified_scheme_error(*args)
