"""Command-line harness: reproducible CSV experiments and solves on user meshes.

Every run writes its outputs plus a JSON manifest holding the fully resolved
configuration; `--from-manifest` replays a manifest and reproduces the CSV
outputs byte for byte (all computations are deterministic, no RNG anywhere).
Exit codes: 0 success, 2 validation error (also an input too large for memory),
3 solver failure. A failed run removes the output directory if it created it
and wrote nothing there.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import time

import numpy as np
import scipy

from . import __version__
from .assembly import assemble, build_rhs, coefficient_field
from .mesh import (
    MODE_REACTION,
    MODE_ZERO_MEAN,
    SurfaceMesh,
    _write_rows,
    gen_graded_square,
    gen_sphere,
    gen_torus,
    read_gmsh,
    write_off,
)
from .oracle import (
    convergence_rate,
    dense_decompose,
    dense_fractional,
    l2_error_on_mesh,
    rm_minus_power_exact,
    sphere_series_solution,
    torus_fields,
)
from .pade import build_pade, pade_error_bound
from .scheme import build_time_grid, certified_scheme_error, scalar_mu, scheme_error_bound
from .solver import SolverConfig, fractional_apply

log = logging.getLogger(__name__)


def _parse_list(kind, text: str) -> list:
    values = [kind(tok) for tok in text.split(",") if tok]
    if not values:
        raise ValueError(f"empty comma list {text!r}")
    return values


def _write_csv(path: str, header: list[str], table) -> None:
    """Write a 2-d float table under a header, each number to 17 significant digits."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        _write_rows(fh, ",".join(["%.17g"] * len(header)) + "\n", table)


def _load_builtin(spec: str) -> SurfaceMesh:
    kind, _, rest = spec.partition(":")
    try:
        if kind == "sphere":
            return gen_sphere(int(rest))
        if kind == "torus":
            R, r, n1, n2 = rest.split(",")
            return gen_torus(float(R), float(r), int(n1), int(n2))
        if kind == "square":
            n0, p = rest.split(",")
            return gen_graded_square(int(n0), int(p))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad builtin spec {spec!r}: {exc}") from exc
    raise ValueError(f"unknown builtin {kind!r} (use sphere:L, torus:R,r,n1,n2, square:N0,p)")


def _source_field(name: str, mesh: SurfaceMesh, builtin: str | None):
    if name == "auto":
        kind = (builtin or "").partition(":")[0]
        name = {"sphere": "sign-x3", "torus": "torus-source", "square": "checkerboard"}.get(
            kind, "ones"
        )
        log.info("source field resolved to %r", name)
    if name == "ones":
        return name, lambda x: np.ones(len(x))
    if name == "sign-x3":
        return name, lambda x: np.sign(x[:, 2])
    if name == "checkerboard":
        def checker(x):
            s = np.sign(x[:, 0] * x[:, 1])
            s[s == 0] = 1.0
            return s
        return name, checker
    if name == "torus-source":
        if not (builtin or "").startswith("torus:"):
            raise ValueError("torus-source needs a torus builtin mesh")
        R, r = (float(v) for v in builtin.partition(":")[2].split(",")[:2])
        return name, lambda x: torus_fields(R, r, x)[1]
    if name.startswith("csv:"):
        data = np.loadtxt(name[4:], delimiter=",", skiprows=1, ndmin=2)
        if data.shape[1] != 2:
            raise ValueError(f"{name}: expected rows vertex,value, got {data.shape[1]} column(s)")
        index, values = data.T
        n = mesh.num_vertices
        if not np.all((index == np.floor(index)) & (index >= 0) & (index < n)):
            raise ValueError(f"{name}: vertex indices must be integers in [0, {n})")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{name}: values must be finite")
        vals = np.zeros(n)
        vals[index.astype(int)] = values
        return name, vals
    raise ValueError(f"unknown source field {name!r}")


def _problem(config: dict, mesh: SurfaceMesh, builtin: str | None, setup: dict):
    """Assemble the problem the mesh's topology selects and its right-hand side.

    The reaction coefficient is 1 in positive-reaction mode and 0 otherwise;
    the resolved source name is recorded in `config["f_resolved"]`, and the
    seconds spent in `assemble` and `build_rhs` in `setup`.
    """
    mode = mesh.mode_hint
    b_coeff = 1.0 if mode == MODE_REACTION else 0.0
    t0 = time.perf_counter()
    op = assemble(mesh, coefficient_field(mesh, a=1.0, b=b_coeff), mode)
    t1 = time.perf_counter()
    name, f = _source_field(config["f"], mesh, builtin)
    config["f_resolved"] = name
    f_h = build_rhs(mesh, f, op, method=config["rhs"])
    setup["assemble_s"] = t1 - t0
    setup["rhs_s"] = time.perf_counter() - t1
    return op, f_h


def _manifest(out_dir: str, subcommand: str, config: dict, outputs: list[str],
              mesh_stats: dict | None, t0: float) -> str:
    manifest = {
        "subcommand": subcommand,
        "config": config,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "fracsurf": __version__,
        },
        "mesh": mesh_stats,
        "timing_seconds": time.perf_counter() - t0,
        "outputs": outputs,
    }
    path = os.path.join(out_dir, f"manifest_{subcommand.replace('-', '_')}.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


class _ManifestFields(dict):
    """A JSON object read from a manifest; a missing key is a validation error."""

    def __missing__(self, key):
        raise ValueError(f"manifest lacks key {key!r}")


def _mesh_stats(mesh: SurfaceMesh) -> dict:
    return {
        "vertices": mesh.num_vertices,
        "triangles": mesh.num_triangles,
        "boundary_vertices": int(mesh.boundary_vertices.sum()),
        "mode_hint": mesh.mode_hint,
    }


# ---------------------------------------------------------------- subcommands
# Each runner returns its output paths and the statistics of the mesh it
# solved on (None when it solves on no single mesh) for the manifest.

def run_pade_table(config: dict, out_dir: str) -> tuple[list[str], None]:
    rows = []
    root_rows = []
    ts = np.round(np.arange(0, 101) * 0.01, 10)
    for m in config["m_list"]:
        for alpha in config["alpha_list"]:
            p = build_pade(m, alpha)
            # the exact gap, rounded once: at m >= 6 the double-precision
            # difference is rounding noise above the bound
            actual = [float(rm_minus_power_exact(m, alpha, t)) for t in ts]
            bound = pade_error_bound(m, alpha, ts)
            for t, a, b in zip(ts, actual, bound):
                rows.append((m, alpha, t, a, b))
            for i in range(m):
                root_rows.append(
                    (m, alpha, i + 1, p.num_roots[i], p.den_roots[i], p.beta[i + 1])
                )
            root_rows.append((m, alpha, 0, math.nan, math.nan, p.beta[0]))
    path = os.path.join(out_dir, "pade_table.csv")
    _write_csv(path, ["m", "alpha", "t", "actual_err", "bound"], np.array(rows))
    roots_path = os.path.join(out_dir, "pade_roots.csv")
    _write_csv(
        roots_path, ["m", "alpha", "index", "num_root", "den_root", "beta"], np.array(root_rows)
    )
    return [path, roots_path], None


def run_scalar_error(config: dict, out_dir: str) -> tuple[list[str], None]:
    lh = config["lambda_hat"]
    lam_max = config["lambda_max"]
    if config["n_lambda"] < 1:
        raise ValueError(f"n_lambda must be positive, got {config['n_lambda']}")
    grid = build_time_grid(lh, lam_max)
    config["L_plus_1"] = grid.num_steps
    # the scan starts at max(2, lambda_hat), or at lambda_hat when Lambda <= 2,
    # and so stays in [lambda_hat, Lambda]
    lams = np.geomspace(max(2.0, lh) if lam_max > 2.0 else lh, lam_max, config["n_lambda"])
    paths = []
    for alpha in config["alpha_list"]:
        p = build_pade(config["m"], alpha)
        mu = scalar_mu(p, grid, lams)
        exact = lams ** (-alpha)
        abs_err = np.abs(mu - exact)
        rel_err = abs_err * lams**alpha
        bound = scheme_error_bound(config["m"], alpha, lh, lam_max)
        certified = certified_scheme_error(config["m"], alpha, lh, lam_max)
        table = np.column_stack([lams, mu, exact, abs_err, rel_err, np.full(len(lams), bound),
                                 np.full(len(lams), certified)])
        path = os.path.join(out_dir, f"scalar_error_a{alpha:g}.csv")
        _write_csv(path, ["lambda", "mu", "exact", "abs_err", "rel_err", "bound", "certified"],
                   table)
        paths.append(path)
    return paths, None


def run_sphere_convergence(config: dict, out_dir: str) -> tuple[list[str], None]:
    levels = config["levels"]
    if max(levels) > 5:
        raise ValueError("rate study limited to refinement level 5 (10242 dofs)")
    alphas = config["alpha_list"]
    m = config["m"]
    lh = config["lambda_hat"]
    n_terms = config["n_terms"]
    errors: dict[float, list[float]] = {a: [] for a in alphas}
    dofs: list[int] = []
    for level in levels:
        mesh = gen_sphere(level)
        op = assemble(mesh, coefficient_field(mesh), MODE_ZERO_MEAN)
        f_h = build_rhs(mesh, lambda x: np.sign(x[:, 2]), op, method="l2_project")
        cfg = SolverConfig(lambda_hat=lh, m=m, cg_rel_tol=config["cg_tol"])
        dofs.append(op.n)
        for alpha in alphas:
            result = fractional_apply(op, f_h, alpha, cfg)

            def u_ref(x, _a=alpha):
                z = x[:, 2] / np.linalg.norm(x, axis=1)  # lift to the sphere
                return sphere_series_solution(_a, z, n_terms=n_terms)

            errors[alpha].append(l2_error_on_mesh(mesh, op, result.solution, u_ref))
        log.info("level %d done (dof=%d)", level, op.n)
    rows = []
    print(f"{'alpha':>6} {'dof':>8} {'l2_error':>13} {'rate':>6}")
    for alpha in alphas:
        for k, level in enumerate(levels):
            rate = (
                convergence_rate(errors[alpha][k - 1], dofs[k - 1], errors[alpha][k], dofs[k])
                if k
                else float("nan")
            )
            rows.append((level, dofs[k], alpha, errors[alpha][k], rate))
            print(f"{alpha:6g} {dofs[k]:8d} {errors[alpha][k]:13.6e} "
                  + (f"{rate:6.2f}" if k else "     -"))
    path = os.path.join(out_dir, "sphere_convergence.csv")
    _write_csv(path, ["level", "dof", "alpha", "l2_error", "rate"], np.array(rows))
    return [path], None


def run_solve(config: dict, out_dir: str) -> tuple[list[str], dict]:
    # Lambda is always the assembled ceiling; older manifests record it as "auto"
    if config.pop("lambda_max", "auto") != "auto":
        raise ValueError("manifest sets lambda_max; Lambda is always the assembled ceiling")
    if bool(config["mesh_path"]) == bool(config["builtin"]):
        raise ValueError("give exactly one of --mesh or --builtin")
    t0 = time.perf_counter()
    if config["mesh_path"]:
        mesh = read_gmsh(config["mesh_path"])
    else:
        mesh = _load_builtin(config["builtin"])
    setup = {"mesh_s": time.perf_counter() - t0}
    op, f_h = _problem(config, mesh, config["builtin"], setup)
    config["setup_seconds"] = setup
    cfg = SolverConfig(
        lambda_hat=config["lambda_hat"],
        m=config["m"],
        cg_rel_tol=config["cg_tol"],
        cg_max_iter=config.get("cg_max_iter"),
    )
    off_path = os.path.join(out_dir, "mesh.off")
    write_off(mesh, off_path)  # geometry once; solution CSVs key vertices by index
    paths = [off_path]
    run_stats = []
    for alpha in config["alpha_list"]:
        t0 = time.perf_counter()
        result = fractional_apply(op, f_h, alpha, cfg)
        wall = time.perf_counter() - t0
        full = op.expand(result.solution)
        path = os.path.join(out_dir, f"solution_a{alpha:g}.csv")
        table = np.column_stack([np.arange(mesh.num_vertices), mesh.vertices, full])
        _write_csv(path, ["vertex", "x", "y", "z", "u"], table)
        paths.append(path)
        run_stats.append(
            {
                "alpha": alpha,
                "L_plus_1": result.time_grid.num_steps,
                "total_solves": result.total_solves,
                "lambda_max_used": result.lambda_max_used,
                "a_priori_bound": result.a_priori_bound,
                "scheme_certificate": certified_scheme_error(
                    cfg.m, alpha, cfg.lambda_hat, result.lambda_max_used),
                "certified_error": result.certified_error,
                "theta": result.theta,
                "max_cg_residual": result.max_residual,
                "cg_error_bound": result.cg_error_bound,
                "cg_iters_total": sum(r.iterations for r in result.solve_log),
                "cg_iters_max": max((r.iterations for r in result.solve_log), default=0),
                "mg_levels": list(result.mg_levels),
                "seconds": wall,
                "stages": result.stages,
            }
        )
        print(
            f"alpha={alpha:g}: L+1={result.time_grid.num_steps} "
            f"solves={result.total_solves} bound={result.a_priori_bound:.3e} "
            f"certified={result.certified_error:.3e} time={wall:.2f}s"
        )
    config["runs"] = run_stats
    return paths, _mesh_stats(mesh)


def run_compare_oracle(config: dict, out_dir: str) -> tuple[list[str], dict]:
    mesh = _load_builtin(config["builtin"])
    op, f_h = _problem(config, mesh, config["builtin"], {})
    if op.n > 2000:
        raise ValueError(f"compare-oracle limited to 2000 dofs, mesh has {op.n}")
    fnorm = op.m_norm(f_h)
    decomp = dense_decompose(op)
    rows = []
    for alpha in config["alpha_list"]:
        exact = dense_fractional(op, alpha, f_h, decomp)
        for m in config["m_list"]:
            cfg = SolverConfig(
                lambda_hat=config["lambda_hat"], m=m, cg_rel_tol=config["cg_tol"]
            )
            result = fractional_apply(op, f_h, alpha, cfg)
            diff = result.solution - exact
            rel = op.m_norm(diff) / fnorm
            bound = scheme_error_bound(m, alpha, config["lambda_hat"], result.lambda_max_used)
            rows.append((alpha, m, rel, bound, result.certified_error / fnorm))
    path = os.path.join(out_dir, "compare_oracle.csv")
    _write_csv(path, ["alpha", "m", "rel_err", "bound", "certified"], np.array(rows))
    return [path], _mesh_stats(mesh)


_RUNNERS = {
    "pade-table": run_pade_table,
    "scalar-error": run_scalar_error,
    "sphere-convergence": run_sphere_convergence,
    "solve": run_solve,
    "compare-oracle": run_compare_oracle,
}


_CG_TOL_HELP = ("relative CG residual at which every solve stops "
                "(default: each solve stops at its share of an error budget)")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    # SUPPRESS keeps a top-level --out from being clobbered by the subparser default
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="output directory (default: out)")
    common.add_argument("-v", "--verbose", action="store_true", default=argparse.SUPPRESS)

    top = argparse.ArgumentParser(
        prog="fracsurf",
        description="Inverse fractional powers of elliptic surface operators "
        "by the rational product scheme.",
    )
    top.add_argument("--from-manifest", help="replay a previous run's manifest")
    top.add_argument("--out", default="out", help="output directory (default: out)")
    top.add_argument("-v", "--verbose", action="store_true")
    sub = top.add_subparsers(dest="subcommand")

    p = sub.add_parser("pade-table", parents=[common],
                       help="approximation error vs bound on a t grid")
    p.add_argument("--m", dest="m_list", default="1,2,3,4,6,8", help="comma list of orders")
    p.add_argument("--alpha", dest="alpha_list", default="0.1,0.5,0.9",
                   help="comma list of exponents")

    p = sub.add_parser("scalar-error", parents=[common],
                       help="scalar transfer-function error scan")
    p.add_argument("--m", type=int, default=10)
    p.add_argument("--alpha", dest="alpha_list", default="0.1,0.5,0.9")
    p.add_argument("--lambda-hat", type=float, default=1.0)
    p.add_argument("--lambda-max", type=float, default=2.0**50)
    p.add_argument("--n-lambda", type=int, default=200)

    p = sub.add_parser("sphere-convergence", parents=[common],
                       help="rate study on nested sphere meshes")
    p.add_argument("--levels", default="2,3,4,5")
    p.add_argument("--alpha", dest="alpha_list", default="0.01,0.3,0.5,0.7,0.99")
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--lambda-hat", type=float, default=1.0)
    p.add_argument("--n-terms", type=int, default=4000)
    p.add_argument("--cg-tol", type=float, default=None, help=_CG_TOL_HELP)

    p = sub.add_parser("solve", parents=[common], help="solve on a builtin or Gmsh mesh")
    p.add_argument("--mesh", dest="mesh_path", help="path to an ASCII .msh file")
    p.add_argument("--builtin", help="sphere:L | torus:R,r,n1,n2 | square:N0,p")
    p.add_argument("--alpha", dest="alpha_list", default="0.5")
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--lambda-hat", type=float, default=1.0)
    p.add_argument("--cg-tol", type=float, default=None, help=_CG_TOL_HELP)
    p.add_argument("--cg-max-iter", type=int, default=None,
                   help="solver iteration budget (default max(200, 10*sqrt(n)))")
    p.add_argument("--rhs", choices=["interpolate", "l2_project"], default="interpolate")
    p.add_argument("--f", default="auto",
                   help="auto|ones|sign-x3|checkerboard|torus-source|csv:PATH")

    p = sub.add_parser("compare-oracle", parents=[common],
                       help="solver vs dense spectral reference")
    p.add_argument("--builtin", default="sphere:2")
    p.add_argument("--alpha", dest="alpha_list", default="0.01,0.5,0.99")
    p.add_argument("--m", dest="m_list", default="1,2,3,4,5,6")
    p.add_argument("--lambda-hat", type=float, default=1.0)
    p.add_argument("--cg-tol", type=float, default=None, help=_CG_TOL_HELP)
    p.add_argument("--rhs", choices=["interpolate", "l2_project"], default="l2_project")
    p.add_argument("--f", default="auto")
    return top


_LIST_KINDS = {"alpha_list": float, "m_list": int, "levels": int}
_NOT_CONFIG = ("subcommand", "from_manifest", "out", "verbose")
_WRITTEN_KEYS = {"runs", "L_plus_1", "f_resolved", "setup_seconds"}  # keys a runner adds


def _config_from_args(args) -> dict:
    config = {k: v for k, v in vars(args).items() if k not in _NOT_CONFIG}
    for key, kind in _LIST_KINDS.items():
        if key in config:
            config[key] = _parse_list(kind, config[key])
    return config


def _as_parsed(key: str, kind: type, value):
    """A replayed value as the parser's `kind` gives it; a JSON integer stands for a float."""
    kinds = (int, float) if kind is float else kind
    if not isinstance(value, kinds) or isinstance(value, bool):
        raise ValueError(f"manifest config {key!r} holds {value!r}, not {kind.__name__}")
    return kind(value)


def _check_replayed(subcommand: str, config: dict) -> None:
    """Check a replayed config against what the subcommand's parser produces.

    It may hold only the parser's keys and those a runner writes. Each value
    has the parser's type: a non-empty list of its kind for a list key, and
    None only where the parser's default is None.
    """
    top = _build_parser()
    sub = next(a for a in top._actions if a.dest == "subcommand").choices[subcommand]
    actions = {a.dest: a for a in sub._actions if a.dest not in _NOT_CONFIG + ("help",)}
    known = set(actions) | _WRITTEN_KEYS
    if subcommand == "solve":
        known.add("lambda_max")  # older manifests hold "auto"; run_solve rejects a number
    unknown = set(config) - known
    if unknown:
        raise ValueError(f"manifest config has keys {sorted(unknown)} "
                         f"that {subcommand} does not take")
    for key, action in actions.items():
        if key not in config:
            continue  # the runner that reads it names the missing key
        value = config[key]
        if key in _LIST_KINDS:
            if not isinstance(value, list) or not value:
                raise ValueError(f"manifest config {key!r} holds {value!r}, not a list")
            config[key] = [_as_parsed(key, _LIST_KINDS[key], v) for v in value]
        elif value is not None or action.default is not None:
            config[key] = _as_parsed(key, action.type or str, value)
            if action.choices is not None and value not in action.choices:
                raise ValueError(f"manifest config {key!r} holds {value!r}, "
                                 f"not one of {list(action.choices)}")


def _check_distinct(config: dict) -> None:
    # output files are named by f"{alpha:g}"; orders and levels are small integers,
    # which :g prints exactly
    for key in _LIST_KINDS:
        names = [f"{v:g}" for v in config.get(key, ())]
        if len(set(names)) < len(names):
            raise ValueError(f"{key} repeats an entry: {','.join(names)}")


def _remove_if_empty(out_dir: str, created: bool) -> None:
    """Remove the output directory of a failed run if this run created it and wrote nothing."""
    if created and os.path.isdir(out_dir) and not os.listdir(out_dir):
        os.rmdir(out_dir)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    created = not os.path.exists(args.out)
    try:
        if args.from_manifest:
            with open(args.from_manifest) as fh:
                manifest = json.load(fh, object_hook=_ManifestFields)
            if not isinstance(manifest, dict) or not isinstance(manifest["config"], dict):
                raise ValueError("a manifest is a JSON object whose config is an object")
            subcommand = manifest["subcommand"]
            if subcommand not in _RUNNERS:
                raise ValueError(f"unknown subcommand {subcommand!r}")
            config = manifest["config"]
            _check_replayed(subcommand, config)
            for key in ("runs", "L_plus_1", "setup_seconds"):  # regenerated on replay
                config.pop(key, None)
        else:
            subcommand = args.subcommand
            if subcommand is None:
                raise ValueError("no subcommand given (see --help)")
            config = _config_from_args(args)
        _check_distinct(config)
        os.makedirs(args.out, exist_ok=True)
        t0 = time.perf_counter()
        outputs, mesh_stats = _RUNNERS[subcommand](config, args.out)
        manifest_path = _manifest(args.out, subcommand, config, outputs, mesh_stats, t0)
        print(f"wrote {len(outputs)} output file(s) and {os.path.basename(manifest_path)}")
        return 0
    except (ValueError, OSError) as exc:  # bad input, or an input file that cannot be read
        print(f"error: {exc}", file=sys.stderr)
        _remove_if_empty(args.out, created)
        return 2
    except MemoryError as exc:  # an input too large for this host, found only as it is built
        print(f"error: out of memory: {exc}", file=sys.stderr)
        _remove_if_empty(args.out, created)
        return 2
    except RuntimeError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        _remove_if_empty(args.out, created)
        return 3


if __name__ == "__main__":
    sys.exit(main())
