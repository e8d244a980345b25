import json

import numpy as np
import pytest

from fracsurf.cli import main
from util import cg_budget, write_msh22, write_msh41


def _read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    return header, data


class TestPadeTable:
    def test_columns_and_reference_row(self, tmp_path):
        out = tmp_path / "o"
        assert main(["--out", str(out), "pade-table", "--m", "1", "--alpha", "0.5"]) == 0
        header, data = _read_csv(out / "pade_table.csv")
        assert header == ["m", "alpha", "t", "actual_err", "bound"]
        t1 = data[np.isclose(data[:, 2], 1.0)][0]
        assert t1[3] == pytest.approx(5.0 / 7.0 - 2.0 ** (-0.5), abs=1e-12)
        assert t1[4] == pytest.approx(0.015625, abs=1e-15)
        t0 = data[np.isclose(data[:, 2], 0.0)][0]
        assert t0[3] == 0.0 and t0[4] == 0.0
        assert np.all(data[:, 3] <= 1.5 * data[:, 4] + 1e-15)

    def test_actual_err_against_the_product_form(self, tmp_path):
        # the table evaluates r in partial fractions; the product form agrees
        # with it up to rounding
        from util import eval_rm

        from fracsurf.pade import build_pade

        out = tmp_path / "o"
        assert main(["--out", str(out), "pade-table", "--m", "1,3,6", "--alpha", "0.3,0.9"]) == 0
        _, data = _read_csv(out / "pade_table.csv")
        assert len(data) == 6 * 101
        for m, alpha, t, actual, _ in data:
            product = eval_rm(build_pade(int(m), alpha), t) - (1.0 + t) ** (-alpha)
            assert abs(actual - product) <= 1e-15, (m, alpha, t)

    def test_actual_err_is_the_exact_gap(self, tmp_path):
        # at m = 8 the gap lies below double-precision rounding; the table
        # holds the exact gap rounded once, so sampled rows equal it
        from fracsurf.oracle import rm_minus_power_exact

        out = tmp_path / "o"
        assert main(["--out", str(out), "pade-table", "--m", "8", "--alpha", "0.1,0.9"]) == 0
        _, data = _read_csv(out / "pade_table.csv")
        assert len(data) == 2 * 101
        for _, alpha, t, actual, _ in data[::7]:
            assert actual == float(rm_minus_power_exact(8, alpha, t)), (alpha, t)

    def test_bad_range_exit_code(self, tmp_path):
        assert main(["--out", str(tmp_path), "pade-table", "--m", "0"]) == 2


class TestScalarError:
    def test_high_order_accuracy(self, tmp_path):
        out = tmp_path / "o"
        code = main(
            ["--out", str(out), "scalar-error", "--m", "10", "--alpha", "0.1,0.5,0.9",
             "--lambda-hat", "1.0"]
        )
        assert code == 0
        for alpha in ("0.1", "0.5", "0.9"):
            header, data = _read_csv(out / f"scalar_error_a{alpha}.csv")
            assert header == ["lambda", "mu", "exact", "abs_err", "rel_err", "bound",
                              "certified"]
            assert data[:, 4].max() <= 1e-12
            # the certificate covers the whole range, so every sampled error
            assert np.all(data[:, 6] == data[0, 6]) and np.all(data[:, 3] <= data[:, 6])
        manifest = json.loads((out / "manifest_scalar_error.json").read_text())
        assert manifest["config"]["L_plus_1"] == 50

    def test_shift_row_exact(self, tmp_path):
        out = tmp_path / "o"
        main(["--out", str(out), "scalar-error", "--m", "3", "--alpha", "0.5",
              "--lambda-hat", "2.0", "--lambda-max", "2048"])
        _, data = _read_csv(out / "scalar_error_a0.5.csv")
        row = data[np.isclose(data[:, 0], 2.0)][0]
        assert row[3] == 0.0  # grid starts at lambda_hat = 2, mu is exact there

    def test_invalid_spread(self, tmp_path):
        assert main(["--out", str(tmp_path), "scalar-error", "--lambda-hat", "4.0",
                     "--lambda-max", "2.0"]) == 2

    def test_ratio_beyond_2p1023_exits_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["--out", str(out), "scalar-error", "--lambda-hat", "1e-300",
                     "--lambda-max", "1e10"]) == 2
        assert capsys.readouterr().err.startswith("error: lambda_max_bound/lambda_hat = 2^")
        assert not out.exists()

    def test_scan_stays_in_the_range_below_2(self, tmp_path):
        # the scan starts at 2 only when Lambda lies above 2
        out = tmp_path / "o"
        assert main(["--out", str(out), "scalar-error", "--m", "3", "--alpha", "0.5",
                     "--lambda-hat", "1.0", "--lambda-max", "1.5", "--n-lambda", "5"]) == 0
        _, data = _read_csv(out / "scalar_error_a0.5.csv")
        assert len(data) == 5 and data[0, 0] == 1.0 and data[-1, 0] == 1.5
        assert np.all(np.diff(data[:, 0]) > 0.0)

    def test_no_lambda_rejected(self, tmp_path, capsys):
        out = tmp_path / "o"
        for n in ("0", "-1"):
            assert main(["--out", str(out), "scalar-error", "--n-lambda", n]) == 2
            assert "n_lambda must be positive" in capsys.readouterr().err
            assert not out.exists()


class TestSolve:
    def test_torus_runs_and_reports(self, tmp_path):
        out = tmp_path / "o"
        code = main(
            ["--out", str(out), "solve", "--builtin", "torus:0.5,0.2,24,16",
             "--alpha", "0.5", "--m", "2", "--lambda-hat", "1.0", "--rhs", "interpolate"]
        )
        assert code == 0
        manifest = json.loads((out / "manifest_solve.json").read_text())
        run = manifest["config"]["runs"][0]
        assert run["total_solves"] == 2 * run["L_plus_1"]
        assert manifest["mesh"]["vertices"] == 24 * 16
        header, data = _read_csv(out / "solution_a0.5.csv")
        assert header == ["vertex", "x", "y", "z", "u"]
        assert len(data) == 24 * 16
        assert np.all(np.isfinite(data))

    def test_run_reports_its_certificate_and_theta(self, tmp_path, capsys):
        from fracsurf import assemble, coefficient_field, dense_decompose, gen_sphere
        from fracsurf.scheme import certified_scheme_error

        out = tmp_path / "o"
        assert main(["--out", str(out), "solve", "--builtin", "sphere:2", "--alpha", "0.5",
                     "--m", "2"]) == 0
        run = json.loads((out / "manifest_solve.json").read_text())["config"]["runs"][0]
        assert run["scheme_certificate"] == certified_scheme_error(2, 0.5, 1.0,
                                                                   run["lambda_max_used"])
        assert run["cg_error_bound"] < run["certified_error"] <= 1.01 * run["a_priori_bound"]
        # the Ritz value that checked lambda_hat: just above the smallest nonzero eigenvalue
        mesh = gen_sphere(2)
        lam_min = dense_decompose(assemble(mesh, coefficient_field(mesh),
                                           "zero-mean")).eigenvalues[1]
        assert lam_min <= run["theta"] <= lam_min * (1.0 + 1e-4)
        line = capsys.readouterr().out.splitlines()[0]
        assert f"bound={run['a_priori_bound']:.3e} certified={run['certified_error']:.3e}" in line

    def test_oversized_torus_exits_2_before_allocating(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["--out", str(out), "solve", "--builtin",
                     "torus:1,0.3,1000000,1000000"]) == 2
        assert "exceeds the 163842" in capsys.readouterr().err
        assert not out.exists()

    def test_memory_error_exits_2(self, tmp_path, capsys, monkeypatch):
        from fracsurf import cli

        def exhausted(config, out_dir):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setitem(cli._RUNNERS, "solve", exhausted)
        out = tmp_path / "o"
        assert main(["--out", str(out), "solve", "--builtin", "sphere:1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "7.28 TiB" in err and "Traceback" not in err
        assert not out.exists()
        # a directory the run did not create stays, with what it holds
        kept = tmp_path / "kept"
        kept.mkdir()
        assert main(["--out", str(kept), "solve", "--builtin", "sphere:1"]) == 2
        assert kept.is_dir()

    def test_zero_source_zero_solution(self, tmp_path):
        out = tmp_path / "o"
        code = main(
            ["--out", str(out), "solve", "--builtin", "sphere:1", "--alpha", "0.3",
             "--m", "2", "--f", "csv:" + _zero_csv(tmp_path, 42)]
        )
        assert code == 0
        _, data = _read_csv(out / "solution_a0.3.csv")
        assert np.all(data[:, 4] == 0.0)

    def test_gmsh_mesh_input(self, tmp_path):
        from fracsurf.mesh import gen_unit_square

        mesh = gen_unit_square(4)  # small mesh with interior vertices
        msh = tmp_path / "square.msh"
        write_msh22(msh, mesh.vertices, mesh.triangles)
        out = tmp_path / "o"
        code = main(
            ["--out", str(out), "solve", "--mesh", str(msh), "--alpha", "0.5",
             "--m", "2", "--lambda-hat", "1.0", "--f", "ones"]
        )
        assert code == 0

    @pytest.mark.parametrize("writer", [write_msh22, write_msh41])
    @pytest.mark.parametrize("rhs", ["interpolate", "l2_project"])
    def test_stray_node_exits_2(self, tmp_path, capsys, writer, rhs):
        from fracsurf.mesh import gen_sphere

        sphere = gen_sphere(1)
        msh = tmp_path / "stray.msh"
        writer(msh, np.vstack([sphere.vertices, [[2.0, 0.0, 0.0]]]), sphere.triangles)
        out = tmp_path / "o"
        assert main(["--out", str(out), "solve", "--mesh", str(msh), "--rhs", rhs]) == 2
        assert "vertex 42 belongs to no triangle" in capsys.readouterr().err
        assert not out.exists()

    def test_both_mesh_and_builtin_rejected(self, tmp_path):
        assert main(["--out", str(tmp_path), "solve", "--mesh", "x.msh",
                     "--builtin", "sphere:1"]) == 2

    def test_neither_mesh_nor_builtin_rejected(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path / "o"), "solve"]) == 2
        assert "exactly one of --mesh or --builtin" in capsys.readouterr().err

    def test_no_subcommand_exits_2(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path / "o")]) == 2
        assert "no subcommand" in capsys.readouterr().err

    def test_degenerate_builtin_exits_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["--out", str(out), "solve", "--builtin", "square:4,60"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: bad builtin spec 'square:4,60': degenerate triangle")
        assert not out.exists()

    def test_oversized_degenerate_builtin_exits_2(self, tmp_path, capsys):
        # rejected from the grading axis, before 5.1M vertices are built
        out = tmp_path / "o"
        assert main(["--out", str(out), "solve", "--builtin", "square:4,1100"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: bad builtin spec 'square:4,1100': degenerate triangle")
        assert not out.exists()

    def test_unknown_builtin(self, tmp_path):
        assert main(["--out", str(tmp_path), "solve", "--builtin", "cube:3"]) == 2

    def test_lambda_max_is_not_an_option(self, tmp_path, capsys):
        # Lambda is the assembled ceiling; a caller-supplied value could undercut it
        with pytest.raises(SystemExit) as info:
            main(["--out", str(tmp_path), "solve", "--builtin", "sphere:3",
                  "--lambda-max", "20"])
        assert info.value.code == 2
        assert "--lambda-max" in capsys.readouterr().err

    def test_cg_failure_names_the_budget_share(self, tmp_path, capsys):
        from fracsurf.pade import build_pade

        out = tmp_path / "o"
        assert main(["--out", str(out), "solve", "--builtin", "sphere:1"]) == 0
        capsys.readouterr()
        run = json.loads((out / "manifest_solve.json").read_text())["config"]["runs"][0]
        # lambda_hat times the budget, split over the steps and the weights
        budget = cg_budget(run["a_priori_bound"], run["certified_error"] - run["cg_error_bound"])
        share = budget / (run["L_plus_1"] * float(np.sum(build_pade(3, 0.5).beta[1:])))
        assert main(["--out", str(tmp_path / "f"), "solve", "--builtin", "sphere:1",
                     "--cg-max-iter", "1"]) == 3
        err = capsys.readouterr().err
        assert "CG failed to reach 1.0e-12 or the weighted residual " in err
        assert "share of the error budget" in err
        figure = float(err.split("weighted residual ")[1].split()[0])
        assert figure == pytest.approx(share, rel=1e-3)
        # an explicit tolerance runs no weighted test, and the message names none
        assert main(["--out", str(tmp_path / "g"), "solve", "--builtin", "sphere:1",
                     "--cg-max-iter", "1", "--cg-tol", "1e-8"]) == 3
        err = capsys.readouterr().err
        assert "CG failed to reach 1.0e-08 in 1 iterations" in err and "weighted" not in err

    def test_non_positive_iteration_cap_exits_2(self, tmp_path, capsys):
        for cap in ("0", "-5"):
            assert main(["--out", str(tmp_path), "solve", "--builtin", "sphere:2",
                         "--cg-max-iter", cap]) == 2
            assert "cg_max_iter" in capsys.readouterr().err

    @pytest.mark.parametrize("args, name", [
        (["solve", "--builtin", "sphere:2", "--cg-tol", "inf"], "cg_rel_tol"),
        (["solve", "--builtin", "sphere:2", "--cg-tol", "nan"], "cg_rel_tol"),
        (["sphere-convergence", "--levels", "1,2", "--alpha", "0.5", "--cg-tol", "inf"],
         "cg_rel_tol"),
        (["scalar-error", "--lambda-max", "inf"], "lambda_max_bound"),
        (["scalar-error", "--lambda-max", "nan"], "lambda_max_bound"),
        (["scalar-error", "--lambda-hat", "nan"], "lambda_hat"),
    ], ids=["solve-tol-inf", "solve-tol-nan", "convergence-tol-inf", "lambda-max-inf",
            "lambda-max-nan", "lambda-hat-nan"])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, args, name):
        out = tmp_path / "o"
        assert main(["--out", str(out)] + args) == 2
        assert f"{name} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["solve", "--builtin", "sphere:2", "--alpha", ","],
        ["pade-table", "--m", ","],
        ["compare-oracle", "--builtin", "sphere:1", "--m", ","],
    ], ids=["solve", "pade-table", "compare-oracle"])
    def test_empty_comma_list_exits_2(self, tmp_path, capsys, args):
        out = tmp_path / "o"
        assert main(["--out", str(out)] + args) == 2
        assert "empty comma list" in capsys.readouterr().err
        assert not out.exists()

    def test_mesh_built_once_per_solve(self, tmp_path, monkeypatch):
        # the manifest's mesh block comes from the mesh the solve used, not a rebuild
        from fracsurf import cli
        from fracsurf.mesh import gen_unit_square, read_gmsh

        calls = {"gen_sphere": 0, "read_gmsh": 0}
        for name in calls:
            def counted(*args, _name=name, _original=getattr(cli, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(cli, name, counted)

        out = tmp_path / "sphere"
        assert main(["--out", str(out), "solve", "--builtin", "sphere:2", "--m", "2"]) == 0
        assert calls == {"gen_sphere": 1, "read_gmsh": 0}
        manifest = json.loads((out / "manifest_solve.json").read_text())
        assert manifest["mesh"] == {"vertices": 162, "triangles": 320,
                                    "boundary_vertices": 0, "mode_hint": "zero-mean"}

        msh = tmp_path / "square.msh"
        square = gen_unit_square(4)
        write_msh22(msh, square.vertices, square.triangles)
        mesh = read_gmsh(str(msh))
        out = tmp_path / "gmsh"
        assert main(["--out", str(out), "solve", "--mesh", str(msh), "--m", "2",
                     "--f", "ones"]) == 0
        assert calls == {"gen_sphere": 1, "read_gmsh": 1}
        manifest = json.loads((out / "manifest_solve.json").read_text())
        assert manifest["mesh"] == {"vertices": mesh.num_vertices,
                                    "triangles": mesh.num_triangles,
                                    "boundary_vertices": int(mesh.boundary_vertices.sum()),
                                    "mode_hint": mesh.mode_hint}


def _zero_csv(tmp_path, n):
    path = tmp_path / "zeros.csv"
    with open(path, "w") as fh:
        fh.write("vertex,value\n")
        for k in range(n):
            fh.write(f"{k},0.0\n")
    return str(path)


class TestLambdaHatCheck:
    def test_above_minimum_exits_2(self, tmp_path, capsys):
        # sphere:4 has n = 2562 and lambda_min = 2.003; square:25,12 has
        # lambda_min = 4.939, so 5 is only 1.2% above it
        for builtin, lambda_hat in (("sphere:4", "3"), ("square:25,12", "5")):
            assert main(["--out", str(tmp_path), "solve", "--builtin", builtin,
                         "--lambda-hat", lambda_hat]) == 2
            assert "Ritz estimate" in capsys.readouterr().err

    def test_torus_at_default_shift(self, tmp_path):
        # b = 1 makes lambda_min exactly 1, the default --lambda-hat
        assert main(["--out", str(tmp_path), "solve", "--builtin", "torus:1,0.3,32,16"]) == 0

    def test_tiny_closed_mesh_exits_2(self, tmp_path, capsys):
        # four unknowns are checked like any other size: the tetrahedron's
        # least eigenvalue off the constants is 2, so 1 passes and 3 does not
        vertices = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float)
        triangles = np.array([[0, 1, 2], [0, 3, 1], [0, 2, 3], [1, 3, 2]])
        msh = tmp_path / "tetrahedron.msh"
        write_msh22(msh, vertices, triangles)
        assert main(["--out", str(tmp_path), "solve", "--mesh", str(msh)]) == 0
        assert main(["--out", str(tmp_path), "solve", "--mesh", str(msh),
                     "--lambda-hat", "3"]) == 2
        assert "Ritz estimate" in capsys.readouterr().err


class TestCsvSource:
    @pytest.mark.parametrize("rows, message", [
        ("0,1.0\n42,2.0\n", "vertex indices"),  # sphere:1 has 42 vertices
        ("0\n1\n", "column"),
        ("-1,1.0\n", "vertex indices"),
        ("1.5,1.0\n", "vertex indices"),
        ("0,nan\n", "finite"),
    ], ids=["out-of-range", "one-column", "negative", "non-integer", "nan"])
    def test_malformed_source_exits_2(self, tmp_path, capsys, rows, message):
        path = tmp_path / "source.csv"
        path.write_text("vertex,value\n" + rows)
        assert main(["--out", str(tmp_path), "solve", "--builtin", "sphere:1",
                     "--f", f"csv:{path}"]) == 2
        assert message in capsys.readouterr().err


class TestWriteCsv:
    def test_matches_per_cell_formatting(self, tmp_path):
        # the reference is the per-cell f"{float(x):.17g}" join the whole-table
        # format replaced
        from fracsurf.cli import _write_csv

        special = np.array([[np.nan, np.inf, -np.inf, -0.0],
                            [5e-324, 1e300, 3.0, -7.0],
                            [0.0, 0.1, 1.0 / 3.0, 2.0**60]])
        # more rows than one formatting block
        table = np.concatenate([special, np.random.default_rng(0).standard_normal((9000, 4))])
        header = ["a", "b", "c", "d"]
        reference = ",".join(header) + "\n" + "".join(
            ",".join(f"{float(x):.17g}" for x in row) + "\n" for row in table)
        path = tmp_path / "t.csv"
        _write_csv(str(path), header, table)
        assert path.read_bytes() == reference.encode()
        assert reference.startswith(
            "a,b,c,d\nnan,inf,-inf,-0\n"
            "4.9406564584124654e-324,1.0000000000000001e+300,3,-7\n"
            "0,0.10000000000000001,0.33333333333333331,1.152921504606847e+18\n")


class TestCompareOracle:
    def test_error_decays_and_bound_holds(self, tmp_path):
        out = tmp_path / "o"
        code = main(
            ["--out", str(out), "compare-oracle", "--builtin", "sphere:2",
             "--alpha", "0.01,0.5,0.99", "--m", "1,2,3,4"]
        )
        assert code == 0
        header, data = _read_csv(out / "compare_oracle.csv")
        assert header == ["alpha", "m", "rel_err", "bound", "certified"]
        assert np.all(data[:, 2] <= 1.5 * data[:, 3])
        # the decay of the scheme's own error: solved tightly, the CG error
        # does not mix in (under the default budget it is up to the whole
        # budget, which falls back to a hundredth of the bound at alpha 0.99, m 4)
        out = tmp_path / "tight"
        assert main(["--out", str(out), "compare-oracle", "--builtin", "sphere:2",
                     "--alpha", "0.01,0.5,0.99", "--m", "1,2,3,4", "--cg-tol", "1e-12"]) == 0
        _, data = _read_csv(out / "compare_oracle.csv")
        for alpha in (0.01, 0.5, 0.99):
            rows = data[np.isclose(data[:, 0], alpha)]
            slope = np.polyfit(rows[:, 1], np.log2(rows[:, 2]), 1)[0]
            assert -6.0 <= slope <= -4.0
        # robustness: endpoint-alpha errors do not blow up past the middle
        for m in (1, 2, 3, 4):
            rows = data[np.isclose(data[:, 1], m)]
            mid = rows[np.isclose(rows[:, 0], 0.5)][0, 2]
            for alpha in (0.01, 0.99):
                assert rows[np.isclose(rows[:, 0], alpha)][0, 2] <= 10.0 * mid

    @pytest.mark.parametrize("builtin", ["sphere:2", "torus:1,0.3,16,8", "square:4,2"])
    def test_every_row_within_certified(self, tmp_path, builtin):
        # the default orders and exponents, m up to 6, where the certificate
        # has reached its cell cap and is looser than the a-priori bound
        out = tmp_path / "o"
        assert main(["--out", str(out), "compare-oracle", "--builtin", builtin]) == 0
        _, data = _read_csv(out / "compare_oracle.csv")
        assert len(data) == 18
        assert np.all(data[:, 2] <= data[:, 4])


class TestDeterminismAndManifest:
    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["scalar-error", "--m", "4", "--alpha", "0.3", "--lambda-max", "1e6"]
        assert main(["--out", str(a)] + args) == 0
        assert main(["--out", str(b)] + args) == 0
        assert (a / "scalar_error_a0.3.csv").read_bytes() == (
            b / "scalar_error_a0.3.csv"
        ).read_bytes()

    def test_manifest_replay(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["--out", str(a), "compare-oracle", "--builtin", "sphere:1",
                     "--alpha", "0.5", "--m", "1,2"]) == 0
        manifest = a / "manifest_compare_oracle.json"
        assert main(["--from-manifest", str(manifest), "--out", str(b)]) == 0
        assert (a / "compare_oracle.csv").read_bytes() == (b / "compare_oracle.csv").read_bytes()

    def test_solve_manifest_replay_at_default_tolerance(self, tmp_path):
        # the default tolerance is written as null and replays byte for byte;
        # a manifest holding an explicit 1e-12 replays the run it came from
        args = ["solve", "--builtin", "sphere:2", "--alpha", "0.5", "--m", "2"]
        a, b, c, d = (tmp_path / k for k in "abcd")
        assert main(["--out", str(a)] + args) == 0
        manifest = json.loads((a / "manifest_solve.json").read_text())
        assert manifest["config"]["cg_tol"] is None
        run = manifest["config"]["runs"][0]
        # the solves spend at most their budget, and the certified total stays
        # within 1.01 times the a-priori bound
        scheme_error = run["certified_error"] - run["cg_error_bound"]
        assert 0.0 < scheme_error < run["a_priori_bound"]
        assert 0.0 < run["cg_error_bound"] <= cg_budget(run["a_priori_bound"], scheme_error)
        assert run["certified_error"] <= 1.01 * run["a_priori_bound"]
        assert main(["--from-manifest", str(a / "manifest_solve.json"), "--out", str(b)]) == 0
        assert (a / "solution_a0.5.csv").read_bytes() == (b / "solution_a0.5.csv").read_bytes()

        assert main(["--out", str(c)] + args + ["--cg-tol", "1e-12"]) == 0
        run = json.loads((c / "manifest_solve.json").read_text())["config"]["runs"][0]
        # the certified bound holds whatever rule stopped the solves
        assert run["cg_error_bound"] > 0.0 and run["max_cg_residual"] <= 1e-12
        manifest["config"]["cg_tol"] = 1e-12
        old = tmp_path / "old_manifest.json"
        old.write_text(json.dumps(manifest))
        assert main(["--from-manifest", str(old), "--out", str(d)]) == 0
        assert (c / "solution_a0.5.csv").read_bytes() == (d / "solution_a0.5.csv").read_bytes()

    def test_lambda_max_in_a_manifest(self, tmp_path, capsys):
        # manifests written while solve took --lambda-max hold "auto" and replay
        # byte for byte; one holding a number would override the ceiling and exits 2
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["--out", str(a), "solve", "--builtin", "sphere:2", "--m", "2"]) == 0
        manifest = json.loads((a / "manifest_solve.json").read_text())
        assert "lambda_max" not in manifest["config"]
        for value, code in (("auto", 0), (20.0, 2), ("20", 2)):
            manifest["config"]["lambda_max"] = value
            old = tmp_path / "old_manifest.json"
            old.write_text(json.dumps(manifest))
            assert main(["--from-manifest", str(old), "--out", str(b)]) == code
            if code == 0:
                assert (a / "solution_a0.5.csv").read_bytes() == (
                    b / "solution_a0.5.csv").read_bytes()
                replayed = json.loads((b / "manifest_solve.json").read_text())["config"]
                assert "lambda_max" not in replayed
            else:
                assert "lambda_max" in capsys.readouterr().err

    def test_unknown_key_in_a_manifest_exits_2(self, tmp_path, capsys):
        # the run would ignore a key that no flag of its subcommand writes; the
        # keys runners add (L_plus_1, runs, f_resolved) still replay
        a = tmp_path / "a"
        assert main(["--out", str(a), "scalar-error", "--m", "2", "--alpha", "0.5",
                     "--n-lambda", "5"]) == 0
        assert main(["--out", str(a), "solve", "--builtin", "sphere:1", "--m", "1"]) == 0
        for name, key, value in (("solve", "mode", "dirichlet"), ("scalar_error", "cg_tol", None)):
            manifest = a / f"manifest_{name}.json"
            assert main(["--from-manifest", str(manifest), "--out", str(tmp_path / "ok")]) == 0
            edited = json.loads(manifest.read_text())
            edited["config"][key] = value
            path = tmp_path / "edited.json"
            path.write_text(json.dumps(edited))
            out = tmp_path / f"edited_{name}"
            assert main(["--from-manifest", str(path), "--out", str(out)]) == 2
            assert f"['{key}']" in capsys.readouterr().err
            assert not out.exists()

    def test_wrongly_typed_value_in_a_manifest_exits_2(self, tmp_path, capsys):
        # each value must have the type the subcommand's parser gives it; a JSON
        # integer stands for a float and replays byte for byte
        a = tmp_path / "a"
        assert main(["--out", str(a), "solve", "--builtin", "sphere:1", "--m", "1"]) == 0
        manifest = json.loads((a / "manifest_solve.json").read_text())
        for key, value in (("m", "3"), ("m", 1.0), ("m", True), ("alpha_list", [0.5, "0.7"]),
                           ("alpha_list", 0.5), ("alpha_list", []), ("lambda_hat", "1"),
                           ("cg_tol", "1e-8"), ("builtin", 1), ("rhs", "spectral"),
                           ("f", None)):
            edited = json.loads(json.dumps(manifest))
            edited["config"][key] = value
            path = tmp_path / "edited.json"
            path.write_text(json.dumps(edited))
            out = tmp_path / "edited"
            assert main(["--from-manifest", str(path), "--out", str(out)]) == 2
            assert repr(key) in capsys.readouterr().err
            assert not out.exists()
        manifest["config"]["lambda_hat"] = 1
        path = tmp_path / "integer.json"
        path.write_text(json.dumps(manifest))
        b = tmp_path / "b"
        assert main(["--from-manifest", str(path), "--out", str(b)]) == 0
        assert (a / "solution_a0.5.csv").read_bytes() == (b / "solution_a0.5.csv").read_bytes()
        assert json.loads((b / "manifest_solve.json").read_text())["config"]["lambda_hat"] == 1.0

    def test_durations_ignore_a_wall_clock_step(self, tmp_path, monkeypatch):
        # time.time steps back an hour on every call, as if the system clock were set
        import itertools
        import time

        clock = itertools.count(2e9, -3600.0)
        monkeypatch.setattr(time, "time", lambda: next(clock))
        out = tmp_path / "o"
        assert main(["--out", str(out), "solve", "--builtin", "sphere:1", "--m", "1"]) == 0
        manifest = json.loads((out / "manifest_solve.json").read_text())
        assert manifest["timing_seconds"] >= 0.0
        run = manifest["config"]["runs"][0]
        assert run["seconds"] >= 0.0
        # the set-up spans and the stages of each run are measured on the same clock
        setup = manifest["config"]["setup_seconds"]
        assert sorted(setup) == ["assemble_s", "mesh_s", "rhs_s"]
        assert min(setup.values()) >= 0.0
        stages = run["stages"]
        assert sorted(stages) == ["hierarchy_s", "lambda_hat_check_s", "pcg_s", "steps_s",
                                  "term_workers"]
        assert len(stages["steps_s"]) == run["L_plus_1"]
        assert 0.0 <= stages["pcg_s"] <= sum(stages["steps_s"]) <= run["seconds"]

    def test_manifest_without_mesh_exits_2(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["--out", str(a), "solve", "--builtin", "sphere:1", "--m", "1"]) == 0
        manifest = json.loads((a / "manifest_solve.json").read_text())
        manifest["config"].update(mesh_path=None, builtin=None)
        path = tmp_path / "no_mesh.json"
        path.write_text(json.dumps(manifest))
        assert main(["--from-manifest", str(path), "--out", str(b)]) == 2
        assert "exactly one of --mesh or --builtin" in capsys.readouterr().err
        assert not b.exists()

    @pytest.mark.parametrize("args", [
        ["solve", "--builtin", "sphere:1", "--alpha", "0.1234567,0.1234568"],
        ["solve", "--builtin", "sphere:1", "--alpha", "0.5,0.50"],
        ["sphere-convergence", "--levels", "1,2,3", "--alpha", "0.5,0.5"],
        ["sphere-convergence", "--levels", "1,2,2", "--alpha", "0.5"],
        ["pade-table", "--m", "2,3,2"],
        ["compare-oracle", "--builtin", "sphere:1", "--m", "1,1"],
    ], ids=["solve-colliding", "solve-repeated", "sphere-alpha", "sphere-levels",
            "pade-table-m", "compare-oracle-m"])
    def test_repeated_list_entry_exits_2(self, tmp_path, capsys, args):
        # two runs with one output name would overwrite each other and share a table row
        out = tmp_path / "o"
        assert main(["--out", str(out)] + args) == 2
        assert "repeats an entry" in capsys.readouterr().err
        assert not out.exists()

    def test_replay_of_incomplete_manifest_exits_2(self, tmp_path, capsys):
        a = tmp_path / "a"
        assert main(["--out", str(a), "solve", "--builtin", "sphere:1", "--m", "1"]) == 0
        manifest = json.loads((a / "manifest_solve.json").read_text())
        for drop in ("subcommand", "config", "f"):
            broken = json.loads(json.dumps(manifest))
            if drop == "f":
                del broken["config"]["f"]
            else:
                del broken[drop]
            path = tmp_path / f"without_{drop}.json"
            path.write_text(json.dumps(broken))
            assert main(["--from-manifest", str(path), "--out", str(tmp_path / "b")]) == 2
            assert f"lacks key '{drop}'" in capsys.readouterr().err
        for text in ("[]", '{"subcommand": "solve", "config": 3}'):
            path = tmp_path / "not_an_object.json"
            path.write_text(text)
            assert main(["--from-manifest", str(path), "--out", str(tmp_path / "b")]) == 2
            assert "JSON object" in capsys.readouterr().err

    def test_manifest_lists_outputs(self, tmp_path):
        out = tmp_path / "o"
        main(["--out", str(out), "pade-table", "--m", "2", "--alpha", "0.5"])
        manifest = json.loads((out / "manifest_pade_table.json").read_text())
        assert manifest["subcommand"] == "pade-table"
        import os

        for path in manifest["outputs"]:
            assert os.path.exists(path)
        assert "numpy" in manifest["versions"]
