"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py -v` to see the per-criterion
lines. Tolerances are fixed here and nowhere else; the double-precision
assertions switch to an exact-arithmetic gap evaluation wherever the quantity
under test falls below floating-point resolution (criterion 1).
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from fracsurf.assembly import assemble, build_rhs, coefficient_field
from fracsurf.cli import main as cli_main
from fracsurf.mesh import gen_sphere, gen_unit_square
from fracsurf.oracle import (
    dense_decompose,
    dense_fractional,
    pade_extended,
    rm_minus_power_exact,
)
from fracsurf.pade import build_pade, pade_error_bound
from fracsurf.scheme import build_time_grid, scalar_mu, scheme_error_bound
from fracsurf.solver import SolverConfig, fractional_apply
from util import eval_rm


def _report(num, text):
    print(f"[PASS] criterion {num}: {text}")


@pytest.fixture(scope="module")
def instances():
    """The two small pencils of criteria 6/9/10 with their decompositions."""
    out = {}
    sphere = gen_sphere(2)
    op_s = assemble(sphere, coefficient_field(sphere), "zero-mean")
    f_s = build_rhs(sphere, lambda x: np.sign(x[:, 2]), op_s, method="l2_project")
    out["sphere"] = (op_s, f_s, dense_decompose(op_s))
    square = gen_unit_square(16)
    op_q = assemble(square, coefficient_field(square), "dirichlet")
    f_q = build_rhs(square, lambda x: np.ones(len(x)), op_q, method="l2_project")
    out["square"] = (op_q, f_q, dense_decompose(op_q))
    return out


def test_criterion_01_pade_bound_sharpness():
    """0 < gap <= 1.5*bound on [0,1]; bound within 50x of the gap at t = 1.

    The strict inequalities are asserted in double precision wherever the gap
    is resolvable there (1.5*bound >= 1e-12, rounding noise is ~2e-15), and in
    exact arithmetic on a 32-point subgrid plus t = 1 everywhere below that.
    The double-precision values in the sub-noise region are additionally
    checked to sit within measurement noise of the bound.
    """
    t0 = time.perf_counter()
    ts = np.linspace(0.0, 1.0, 1001)
    alphas = [round(0.1 * k, 1) for k in range(1, 10)]
    floor = 1e-12
    noise = 5e-15
    exact_checked = 0
    approximants = {(m, a): build_pade(m, a) for m in range(1, 13) for a in alphas}
    for m in range(1, 13):
        for alpha in alphas:
            p = approximants[(m, alpha)]
            gap = eval_rm(p, ts) - (1.0 + ts) ** (-alpha)
            bound = pade_error_bound(m, alpha, ts)
            resolvable = (1.5 * bound >= floor) & (ts > 0)
            assert np.all(gap[resolvable] > 0.0), (m, alpha)
            assert np.all(gap[resolvable] <= 1.5 * bound[resolvable]), (m, alpha)
            assert np.all(gap <= 1.5 * bound + noise), (m, alpha)
            assert gap[ts == 0.0][0] == 0.0
    # below the double-precision floor: strict inequalities in exact arithmetic
    alpha_fr = {a: Fraction(a) for a in alphas}
    for m in range(1, 13):
        for alpha in alphas:
            t_coarse = np.arange(1, 33) / 32.0
            bound_coarse = pade_error_bound(m, alpha, t_coarse)
            for k in np.nonzero(1.5 * bound_coarse < floor)[0]:
                gap = rm_minus_power_exact(m, alpha_fr[alpha], Fraction(int(k + 1), 32))
                assert gap > 0, (m, alpha, k)
                assert float(gap) <= 1.5 * bound_coarse[k], (m, alpha, k)
                exact_checked += 1
    # sharpness at t = 1, exact path covers every order
    worst_ratio = 0.0
    for m in range(1, 13):
        for alpha in alphas:
            gap = float(rm_minus_power_exact(m, alpha_fr[alpha], Fraction(1)))
            ratio = pade_error_bound(m, alpha, 1.0) / gap
            assert 0.0 < ratio <= 50.0, (m, alpha, ratio)
            worst_ratio = max(worst_ratio, ratio)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"
    _report(1, f"gap in (0, 1.5*bound], t=1 ratio <= {worst_ratio:.1f} (<= 50), "
               f"{exact_checked} sub-noise points exactly verified, {elapsed:.2f}s")


def test_criterion_02_taylor_matching():
    """Series of r_m matches the binomial series through order 2m (m <= 8)."""
    t0 = time.perf_counter()
    for m in range(1, 9):
        for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
            p = build_pade(m, alpha)
            num = np.poly(-1.0 / p.num_roots)[::-1]
            num /= num[0]
            den = np.poly(-1.0 / p.den_roots)[::-1]
            den /= den[0]
            series = _series_divide(num, den, 2 * m + 1)
            c = _binomial(alpha, 2 * m + 1)
            rel = np.abs(series - c) / np.abs(c)
            assert rel.max() <= 1e-9, (m, alpha, rel.max())
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(2, f"coefficients match through 2m at 1e-9 relative, {elapsed:.2f}s")


def _binomial(alpha, count):
    c = np.empty(count)
    c[0] = 1.0
    for j in range(1, count):
        c[j] = c[j - 1] * (-(alpha + j - 1)) / j
    return c


def _series_divide(num, den, count):
    out = np.zeros(count)
    for k in range(count):
        acc = num[k] if k < len(num) else 0.0
        for j in range(1, min(k, len(den) - 1) + 1):
            acc -= den[j] * out[k - j]
        out[k] = acc
    return out


def test_criterion_03_interlacing_and_positivity():
    """Exact root interlacing and weight positivity for m <= 32."""
    t0 = time.perf_counter()
    for m in range(1, 33):
        for alpha in np.arange(0.05, 0.951, 0.05):
            p = build_pade(m, float(alpha))  # build_pade validates both
            merged = np.empty(2 * m)
            merged[0::2] = p.num_roots
            merged[1::2] = p.den_roots
            assert merged[0] > 0.0 and merged[-1] < 1.0
            assert np.all(np.diff(merged) > 0.0)
            assert np.all(p.beta > 0.0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(3, f"interlacing and beta > 0 hold for m <= 32, {elapsed:.2f}s")


def test_criterion_04_scalar_accuracy():
    """Relative transfer-function error <= 1e-12 at m = 10 over 50 octaves."""
    t0 = time.perf_counter()
    grid = build_time_grid(1.0, 2.0**50)
    lams = np.logspace(np.log10(2.0), 50.0 * np.log10(2.0), 200)
    worst = 0.0
    for alpha in (0.1, 0.5, 0.9):
        p = build_pade(10, alpha)
        rel = np.abs(scalar_mu(p, grid, lams) - lams ** (-alpha)) * lams**alpha
        assert rel.max() <= 1e-12, (alpha, rel.max())
        worst = max(worst, rel.max())
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(4, f"max relative error {worst:.2e} <= 1e-12, {elapsed:.2f}s")


def test_criterion_05_solve_count_bound():
    """Measured scalar error within 1.5x the solve-count bound, m in {1..8, 10}.

    The m = 10 configurations of criterion 4 have bound values near 1e-15,
    below what double-precision roots can represent (their ~1e-16 perturbation
    is amplified by the 50 product steps to ~1e-13), so those are measured
    with the refined extended-precision evaluation from the oracle module.
    """
    t0 = time.perf_counter()
    grid = build_time_grid(1.0, 2.0**50)
    lams = np.logspace(0.0, 50.0 * np.log10(2.0), 200)
    lams_ext = lams.astype(np.longdouble)
    worst = 0.0
    for m in list(range(1, 9)) + [10]:
        for alpha in (0.1, 0.5, 0.9):
            limit = 1.5 * scheme_error_bound(m, alpha, 1.0, 2.0**50)
            if m <= 8:
                p = build_pade(m, alpha)
                err = float(np.abs(scalar_mu(p, grid, lams) - lams ** (-alpha)).max())
            else:
                mu = scalar_mu(pade_extended(m, alpha), grid, lams_ext)
                err = float(np.abs(mu - lams_ext ** np.longdouble(-alpha)).max())
            assert err <= limit, (m, alpha, err, limit)
            worst = max(worst, err / limit)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(5, f"worst error/bound fraction {worst:.3f} (<= 1), {elapsed:.2f}s")


ALPHAS_6 = (0.01, 0.3, 0.5, 0.7, 0.99)
ORDERS_6 = (1, 2, 3, 4, 5, 6)


def _criterion6_body(instances, alphas, label):
    worst_fraction = 0.0
    slopes = []
    for name, (op, f_h, dec) in instances.items():
        fnorm = op.m_norm(f_h)
        for alpha in alphas:
            exact = dense_fractional(op, alpha, f_h, dec)
            errs = []
            for m in ORDERS_6:
                cfg = SolverConfig(lambda_hat=1.0, m=m, cg_rel_tol=1e-13)
                res = fractional_apply(op, f_h, alpha, cfg)
                rel = op.m_norm(res.solution - exact) / fnorm
                limit = 1.5 * scheme_error_bound(m, alpha, 1.0, res.lambda_max_used)
                assert rel <= limit, (name, alpha, m, rel, limit)
                worst_fraction = max(worst_fraction, rel / limit)
                errs.append(rel)
            slope = float(np.polyfit(ORDERS_6, np.log2(errs), 1)[0])
            assert -6.0 <= slope <= -4.0, (name, alpha, slope)
            slopes.append(slope)
    return worst_fraction, slopes


def test_criterion_06_oracle_equivalence(instances):
    """Solver vs dense spectral oracle: bound with 1.5 safety, 4-6 bits per order."""
    t0 = time.perf_counter()
    worst, slopes = _criterion6_body(instances, ALPHAS_6, "criterion 6")
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(6, f"worst error/bound fraction {worst:.3f}, slopes "
               f"[{min(slopes):.2f}, {max(slopes):.2f}] bits/order, {elapsed:.1f}s")


def test_criterion_07_sphere_convergence_rates(tmp_path):
    """Observed L2 rates on nested spheres within 0.2 of min(0.5 + 2a, 2), by the CLI's study."""
    t0 = time.perf_counter()
    assert cli_main(["--out", str(tmp_path), "sphere-convergence", "--levels", "2,3,4,5",
                     "--alpha", "0.01,0.3,0.5,0.7,0.99", "--m", "3", "--lambda-hat", "1",
                     "--n-terms", "4000", "--cg-tol", "1e-12"]) == 0
    level, _, alpha, _, rate = np.loadtxt(tmp_path / "sphere_convergence.csv", delimiter=",",
                                          skiprows=1, unpack=True)
    np.testing.assert_array_equal(level, np.tile([2, 3, 4, 5], 5))
    np.testing.assert_array_equal(alpha, np.repeat([0.01, 0.3, 0.5, 0.7, 0.99], 4))
    theory = np.minimum(0.5 + 2.0 * alpha, 2.0)
    later = level > 2  # each later level's rate against the level before
    assert np.all(np.abs(rate[later] - theory[later]) <= 0.2), rate
    finest = level == 5
    summary = [f"a={a:g}: {r:.2f}/{t:.2f}"
               for a, r, t in zip(alpha[finest], rate[finest], theory[finest])]
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(7, "rates within 0.2 of theory (" + ", ".join(summary) + f"), {elapsed:.0f}s")


def test_criterion_08_sphere_spectrum():
    """Smallest nonzero pencil eigenvalue on the level-3 sphere within 3% of 2."""
    t0 = time.perf_counter()
    mesh = gen_sphere(3)
    op = assemble(mesh, coefficient_field(mesh), "zero-mean")
    lam = scipy.linalg.eigh(
        op.stiffness.toarray(), op.mass.toarray(), eigvals_only=True, subset_by_index=[0, 1]
    )
    assert abs(lam[0]) <= 1e-8
    assert abs(lam[1] - 2.0) / 2.0 <= 0.03, lam[1]
    elapsed = time.perf_counter() - t0
    assert elapsed < 20.0
    _report(8, f"lambda_1 = {lam[1]:.4f}, off by {abs(lam[1] - 2) / 2:.2%} (<= 3%), "
               f"{elapsed:.1f}s")


def test_criterion_09_step_stability(instances):
    """Every per-step dense iteration matrix has spectrum inside (0, 1)."""
    t0 = time.perf_counter()
    op, _, dec = instances["square"]
    lam_hat = 0.95 * dec.eigenvalues[0]
    lam_max = 1.1 * dec.eigenvalues[-1]
    grid = build_time_grid(lam_hat, lam_max)
    M = op.mass.toarray()
    S = op.stiffness.toarray()
    eye = np.eye(op.n)
    margin = 1e-12
    lo, hi = 1.0, 0.0
    for alpha, m in ((0.1, 3), (0.9, 2)):
        p = build_pade(m, alpha)
        for l in range(grid.num_steps):
            t_l = grid.nodes[l]
            tau = grid.nodes[l + 1] - t_l
            B = (1 - t_l) * lam_hat * M + t_l * S
            T = p.beta[0] * eye
            for i in range(m):
                s = t_l + p.den_roots[i] * tau
                A = (1 - s) * lam_hat * M + s * S
                T = T + p.beta[i + 1] * np.linalg.solve(A, B)
            eigs = np.linalg.eigvals(T)
            assert np.abs(eigs.imag).max() <= 1e-9
            assert eigs.real.min() >= margin, (alpha, m, l, eigs.real.min())
            assert eigs.real.max() <= 1.0 - margin, (alpha, m, l, eigs.real.max())
            lo = min(lo, eigs.real.min())
            hi = max(hi, eigs.real.max())
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(9, f"step spectra within [{lo:.3f}, {1 - hi:.2e} below 1], {elapsed:.1f}s")


def test_criterion_10_alpha_robustness(instances):
    """Criterion 6 unchanged at alpha = 0.001 and 0.999."""
    t0 = time.perf_counter()
    worst, slopes = _criterion6_body(instances, (0.001, 0.999), "criterion 10")
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(10, f"endpoint alphas: worst error/bound fraction {worst:.3f}, slopes "
                f"[{min(slopes):.2f}, {max(slopes):.2f}], {elapsed:.1f}s")


def test_extra_graded_square_end_to_end(tmp_path):
    """Desk-scale checkerboard run completes; L+1 matches the step-count formula."""
    t0 = time.perf_counter()
    out = tmp_path / "o"
    code = cli_main(
        ["--out", str(out), "solve", "--builtin", "square:25,12", "--alpha", "0.5",
         "--m", "3", "--lambda-hat", "4.0", "--cg-tol", "1e-8", "--cg-max-iter", "30000",
         "--rhs", "interpolate", "--f", "checkerboard"]
    )
    assert code == 0
    import json

    manifest = json.loads((out / "manifest_solve.json").read_text())
    run = manifest["config"]["runs"][0]
    expected = math.ceil(math.log2(run["lambda_max_used"] / 4.0))
    assert run["L_plus_1"] == expected
    assert run["total_solves"] == 3 * expected
    elapsed = time.perf_counter() - t0
    _report("2d-Rec", f"N0=25, p=12 end-to-end, L+1 = {run['L_plus_1']} matches "
                      f"ceil(log2(Lambda/4)) for measured Lambda = "
                      f"{run['lambda_max_used']:.3e}, {elapsed:.0f}s")
