"""The benchmark's workloads: seeded inputs, timed set-up, timed operations, checks.

Each workload draws its inputs from the seed and writes any files it needs
before anything is timed. `setup()` is the timed set-up (mesh, `assemble`,
`build_rhs`); `ops()` lists one pass of timed operations; `check()` compares an
output with a reference computed once, after the timed loop, by a method
independent of the solver under test.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import shutil
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse.linalg as spla


@dataclass
class Op:
    kind: str  # "apply" (a fractional_apply call) or "cli" (a cli.main call)
    key: str  # names the reference the output is checked against
    run: Callable[[], object]  # the timed call
    collect: Callable[[object], "Output"]  # untimed: turn its return value into an Output


@dataclass
class Output:
    solution: np.ndarray  # on the free dofs
    steps: int
    solves: int
    lambda_max: float
    nbytes: int = 0  # bytes the CLI wrote


@dataclass
class Target:
    op: object  # AssembledOperator the distance is measured in
    ref: np.ndarray
    allowed: Callable[[Output], float]  # largest M-norm distance accepted
    lambda_max: float | None = None  # the Lambda the reference was built with, if it used one


class Case(NamedTuple):
    mesh: object
    op: object
    source: Callable  # the source field as a function of (k, 3) points
    f_h: np.ndarray
    lambda_hat: float
    builtin: str  # the same mesh as a CLI builtin spec


def _unit_normal(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _write_vertex_csv(path, values) -> None:
    with open(path, "w") as fh:
        fh.write("vertex,value\n")
        fh.writelines(f"{k},{v:.17g}\n" for k, v in enumerate(values))


def write_gmsh41(mesh, path) -> None:
    """ASCII Gmsh 4.1 file with one node block and one triangle block."""
    n, t = mesh.num_vertices, mesh.num_triangles
    with open(path, "w") as fh:
        fh.write("$MeshFormat\n4.1 0 8\n$EndMeshFormat\n")
        fh.write(f"$Nodes\n1 {n} 1 {n}\n2 1 0 {n}\n")
        fh.writelines(f"{k + 1}\n" for k in range(n))
        fh.writelines(f"{x:.17g} {y:.17g} {z:.17g}\n" for x, y, z in mesh.vertices)
        fh.write(f"$EndNodes\n$Elements\n1 {t} 1 {t}\n2 1 2 {t}\n")
        fh.writelines(f"{k + 1} {a + 1} {b + 1} {c + 1}\n"
                      for k, (a, b, c) in enumerate(mesh.triangles))
        fh.write("$EndElements\n")


class Workload:
    name = ""
    setup_reps = 3
    min_passes = 2

    def __init__(self, fs, seed: int, workdir: str):
        self.fs = fs
        self.cli = fs.cli
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.targets: dict[str, Target] = {}
        self._cli_runs = 0

    def apply_op(self, key, op, f_h, alpha, cfg) -> Op:
        def run():
            return self.fs.fractional_apply(op, f_h, alpha, cfg)

        def collect(r):
            return Output(r.solution, r.time_grid.num_steps, r.total_solves, r.lambda_max_used)

        return Op("apply", key, run, collect)

    def cli_op(self, key, args: list[str], op) -> Op:
        self._cli_runs += 1
        out_dir = os.path.join(self.workdir, f"cli-{self._cli_runs}")

        def run():
            # the CLI's progress lines are not part of the benchmark's report
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                return self.cli.main(["--out", out_dir, *args])

        def collect(code):
            if code != 0:
                raise RuntimeError(f"fracsurf exited with code {code}")
            with open(os.path.join(out_dir, "manifest_solve.json")) as fh:
                run_stats = json.load(fh)["config"]["runs"][0]
            csv = os.path.join(out_dir, f"solution_a{run_stats['alpha']:g}.csv")
            u = np.loadtxt(csv, delimiter=",", skiprows=1, usecols=4)[op.free_dofs]
            nbytes = sum(e.stat().st_size for e in os.scandir(out_dir))
            shutil.rmtree(out_dir)
            return Output(u, run_stats["L_plus_1"], run_stats["total_solves"],
                          run_stats["lambda_max_used"], nbytes)

        return Op("cli", key, run, collect)

    def verify(self, key: str, out: Output, m: int, lambda_hat: float) -> tuple[str | None, float]:
        """(failure message or None, distance to the reference over the distance accepted)."""
        expected = math.ceil(math.log2(out.lambda_max / lambda_hat))
        if out.steps != expected:
            return f"{key}: L+1 = {out.steps}, ceil(log2(Lambda/lambda_hat)) = {expected}", math.inf
        if out.solves != m * out.steps:
            return f"{key}: {out.solves} solves, expected m*(L+1) = {m * out.steps}", math.inf
        t = self.targets[key]
        if t.lambda_max is not None and out.lambda_max != t.lambda_max:
            return (f"{key}: Lambda {out.lambda_max!r} differs from the reference's "
                    f"{t.lambda_max!r}", math.inf)
        err = t.op.m_norm(out.solution - t.ref)
        allowed = t.allowed(out)
        if not err <= allowed:
            return f"{key}: M-norm distance {err:.3e} to reference exceeds {allowed:.3e}", math.inf
        return None, err / allowed

    def perturbed(self, key: str, out: Output) -> Output:
        """out moved along the reference by ten times the accepted distance."""
        t = self.targets[key]
        shift = 10.0 * t.allowed(out) / t.op.m_norm(t.ref)
        return dataclasses.replace(out, solution=out.solution + shift * t.ref)

    def report(self) -> list[str]:
        """Extra lines for the run's printed summary."""
        return []


class SphereL6(Workload):
    """gen_sphere(6), zero-mean mode, l2_project of sign(n.x) with a seeded normal."""

    name = "sphere-l6"
    alpha, m, lambda_hat = 0.5, 3, 1.0
    rel_tol_direct = 1e-3  # relative M-norm distance to the series solution
    rel_tol_cli = 2e-2  # the CLI interpolates the jump instead of projecting it

    def __init__(self, fs, seed, workdir):
        super().__init__(fs, seed, workdir)
        self.normal = _unit_normal(self.rng)
        mesh = fs.gen_sphere(6)
        self.csv = os.path.join(workdir, "source.csv")
        _write_vertex_csv(self.csv, np.sign(mesh.vertices @ self.normal))

    def source(self, x):
        return np.sign(x @ self.normal)

    def setup(self):
        fs = self.fs
        self.mesh = fs.gen_sphere(6)
        self.op = fs.assemble(self.mesh, fs.coefficient_field(self.mesh), "zero-mean")
        self.f_h = fs.build_rhs(self.mesh, self.source, self.op, method="l2_project")

    def ops(self):
        cfg = self.fs.SolverConfig(lambda_hat=self.lambda_hat, m=self.m)
        args = ["solve", "--builtin", "sphere:6", "--alpha", str(self.alpha), "--m", str(self.m),
                "--lambda-hat", str(self.lambda_hat), "--rhs", "interpolate",
                "--f", f"csv:{self.csv}"]
        return [self.apply_op("direct", self.op, self.f_h, self.alpha, cfg),
                self.cli_op("cli", args, self.op)]

    def references(self, outputs):
        fs = self.fs
        u = fs.sphere_series_solution(self.alpha, self.mesh.vertices @ self.normal, n_terms=4000)
        ref = fs.deflate_mean(u[self.op.free_dofs], self.op)
        scale = self.op.m_norm(ref)
        self.targets["direct"] = Target(self.op, ref, lambda out: self.rel_tol_direct * scale)
        self.targets["cli"] = Target(self.op, ref, lambda out: self.rel_tol_cli * scale)

    def check(self, key, out):
        return self.verify(key, out, self.m, self.lambda_hat)


class GradedCli(Workload):
    """fracsurf solve on square:25,12 read from a Gmsh 4.1 file, checkerboard csv source."""

    name = "graded-cli"
    setup_reps = 9
    alpha, m, lambda_hat = 0.5, 3, 4.0
    rel_tol = 1e-6  # relative M-norm distance to the sparse-direct evaluation

    def __init__(self, fs, seed, workdir):
        super().__init__(fs, seed, workdir)
        self.centre = self.rng.uniform(-0.5, 0.5, size=2)
        mesh = fs.gen_graded_square(25, 12)
        self.msh = os.path.join(workdir, "square.msh")
        write_gmsh41(mesh, self.msh)
        x = mesh.vertices
        self.values = np.sign((x[:, 0] - self.centre[0]) * (x[:, 1] - self.centre[1]))
        self.values[self.values == 0] = 1.0
        self.csv = os.path.join(workdir, "source.csv")
        _write_vertex_csv(self.csv, self.values)

    def setup(self):
        fs = self.fs
        self.mesh = fs.read_gmsh(self.msh)
        self.op = fs.assemble(self.mesh, fs.coefficient_field(self.mesh), "dirichlet")
        self.f_h = fs.build_rhs(self.mesh, self.values, self.op, method="interpolate")

    def ops(self):
        args = ["solve", "--mesh", self.msh, "--alpha", str(self.alpha), "--m", str(self.m),
                "--lambda-hat", str(self.lambda_hat), "--cg-tol", "1e-8",
                "--cg-max-iter", "30000", "--rhs", "interpolate", "--f", f"csv:{self.csv}"]
        return [self.cli_op("cli", args, self.op)]

    def references(self, outputs):
        lam = outputs[0].lambda_max
        ref = self._direct_product(lam)
        scale = self.op.m_norm(ref)
        self.targets["cli"] = Target(self.op, ref, lambda out: self.rel_tol * scale, lam)

    def _direct_product(self, lam_max):
        """The same rational factors, each solve done by a sparse LU factorisation."""
        fs, lh = self.fs, self.lambda_hat
        p = fs.build_pade(self.m, self.alpha)
        grid = fs.build_time_grid(lh, lam_max)
        M, S = self.op.mass.tocsc(), self.op.stiffness.tocsc()
        U = lh ** (-self.alpha) * self.f_h
        for n in range(grid.num_steps):
            t_n = grid.nodes[n]
            tau = grid.nodes[n + 1] - t_n
            rhs = ((1.0 - t_n) * lh * M + t_n * S) @ U
            nxt = p.beta[0] * U
            for i in range(self.m):
                s = t_n + p.den_roots[i] * tau
                lu = spla.splu(((1.0 - s) * lh * M + s * S).tocsc(), permc_spec="MMD_AT_PLUS_A",
                               diag_pivot_thresh=0.0, options={"SymmetricMode": True})
                nxt = nxt + p.beta[i + 1] * lu.solve(rhs)
            U = nxt
        return U

    def check(self, key, out):
        return self.verify(key, out, self.m, self.lambda_hat)

    def report(self):
        # library defaults on this mesh: cg_rel_tol 1e-12 and a 10*sqrt(n) iteration cap
        fs = self.fs
        t0 = time.perf_counter()
        try:
            fs.fractional_apply(self.op, self.f_h, self.alpha,
                                fs.SolverConfig(lambda_hat=self.lambda_hat, m=self.m))
        except RuntimeError as exc:
            return [f"known defect: at library defaults square:25,12 raises after "
                    f"{time.perf_counter() - t0:.2f} s: {str(exc)[:90]}"]
        return [f"known defect not reproduced: library defaults solve square:25,12 in "
                f"{time.perf_counter() - t0:.2f} s"]


class SmallSweep(Workload):
    """sphere:3 (zero-mean) and torus 1,0.3,32,16 (b = 1), alpha x m sweep, seeded sources."""

    name = "small-sweep"
    setup_reps = 15
    alphas = (0.01, 0.5, 0.99)
    orders = range(1, 7)
    torus = (1.0, 0.3, 32, 16)
    bound_factor = 1.5  # accepted distance to the dense reference, in a-priori bounds

    def __init__(self, fs, seed, workdir):
        super().__init__(fs, seed, workdir)
        self.normal = _unit_normal(self.rng)
        self.phase = self.rng.uniform(0.0, 2.0 * math.pi)
        self.csv = {"sphere": os.path.join(workdir, "sphere.csv"),
                    "torus": os.path.join(workdir, "torus.csv")}
        _write_vertex_csv(self.csv["sphere"], self.sphere_source(fs.gen_sphere(3).vertices))
        _write_vertex_csv(self.csv["torus"], self.torus_source(fs.gen_torus(*self.torus).vertices))

    def sphere_source(self, x):
        return np.sign(x @ self.normal)

    def torus_source(self, x):
        H = self.fs.torus_fields(self.torus[0], self.torus[1], x)[0]
        return H * np.cos(np.arctan2(x[:, 1], x[:, 0]) + self.phase)

    def setup(self):
        fs = self.fs
        ms = fs.gen_sphere(3)
        op_s = fs.assemble(ms, fs.coefficient_field(ms), "zero-mean")
        mt = fs.gen_torus(*self.torus)
        op_t = fs.assemble(mt, fs.coefficient_field(mt, a=1.0, b=1.0), "positive-reaction")
        self.cases = {
            "sphere": Case(ms, op_s, self.sphere_source,
                           fs.build_rhs(ms, self.sphere_source, op_s, method="l2_project"), 1.0,
                           "sphere:3"),
            "torus": Case(mt, op_t, self.torus_source,
                          fs.build_rhs(mt, self.torus_source, op_t, method="l2_project"), 0.9,
                          "torus:" + ",".join(f"{v:g}" for v in self.torus)),
        }

    def ops(self):
        ops = []
        for name, c in self.cases.items():
            for alpha in self.alphas:
                for m in self.orders:
                    cfg = self.fs.SolverConfig(lambda_hat=c.lambda_hat, m=m)
                    ops.append(self.apply_op(f"{name}/{alpha:g}/{m}", c.op, c.f_h, alpha, cfg))
        for name, c in self.cases.items():
            args = ["solve", "--builtin", c.builtin, "--alpha", "0.5", "--m", "3",
                    "--lambda-hat", str(c.lambda_hat), "--rhs", "interpolate",
                    "--f", f"csv:{self.csv[name]}"]
            ops.append(self.cli_op(f"{name}/cli", args, c.op))
        return ops

    def _key_params(self, key):
        name, _, rest = key.partition("/")
        if rest == "cli":
            return name, 0.5, 3
        alpha, m = rest.split("/")
        return name, float(alpha), int(m)

    def references(self, outputs):
        fs = self.fs
        for name, c in self.cases.items():
            mesh, op, lh = c.mesh, c.op, c.lambda_hat
            decomp = fs.dense_decompose(op)
            vertex_f = fs.build_rhs(mesh, c.source(mesh.vertices), op, method="interpolate")
            for key in [f"{name}/{a:g}/{m}" for a in self.alphas for m in self.orders] + [
                    f"{name}/cli"]:
                _, alpha, m = self._key_params(key)
                f = vertex_f if key.endswith("/cli") else c.f_h
                fnorm = op.m_norm(f)

                def allowed(out, m=m, alpha=alpha, lh=lh, fnorm=fnorm):
                    return self.bound_factor * fs.apriori_bound(m, alpha, lh, out.lambda_max,
                                                                fnorm)

                self.targets[key] = Target(op, fs.dense_fractional(op, alpha, f, decomp), allowed)

    def check(self, key, out):
        name, _, m = self._key_params(key)
        return self.verify(key, out, m, self.cases[name].lambda_hat)


WORKLOADS = {w.name: w for w in (SphereL6, GradedCli, SmallSweep)}
