"""Span recorder that wraps fracsurf's public module attributes from outside.

Spans (name, start, end, parent, and counts taken from the call's arguments
and result) are kept in memory and written out once, at the end of a run.
Calls are synchronous on one thread, so spans nest strictly and a span's self
time is its duration minus its direct children's.
Nothing inside the library changes: the recorder swaps module attributes for
timing wrappers and puts the originals back afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, on_result=None):
        """Wrap fn so that each call records a span; on_result(args, result, info) adds counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            s = Span(name, 0.0, parent=self._open[-1] if self._open else None)
            self.spans.append(s)
            self._open.append(idx)
            s.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                s.info["error"] = f"{type(exc).__name__}: {exc}"
                raise
            finally:
                s.end = time.perf_counter()
                self._open.pop()
            if on_result is not None:
                on_result(args, result, s.info)
            return result

        return wrapper

    def patch(self, module, attr: str, name: str, on_result=None) -> None:
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.span(name, original, on_result))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.duration
        return [s.duration - c for s, c in zip(self.spans, child)]

    def ancestors(self, idx: int):
        p = self.spans[idx].parent
        while p is not None:
            yield self.spans[p]
            p = self.spans[p].parent

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for k, s in enumerate(self.spans):
                fh.write(json.dumps({"id": k, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, **s.info}) + "\n")


def _csr_bytes(A) -> int:
    return A.data.nbytes + A.indices.nbytes + A.indptr.nbytes


def _pcg_counts(args, result, info) -> None:
    A = args[0]
    info["iterations"] = int(result[1])
    info["n"] = int(A.shape[0])
    info["nnz"] = int(A.nnz)
    # one CSR matvec per iteration: read data, indices, indptr and p, write A @ p
    info["matvec_bytes"] = int(result[1]) * (_csr_bytes(A) + 2 * A.shape[0] * 8)


def _apply_counts(args, result, info) -> None:
    op = args[0]
    info["steps"] = result.time_grid.num_steps
    info["solves"] = result.total_solves
    iters = [r.iterations for r in result.solve_log]
    info["cg_iters"] = sum(iters)
    info["cg_iters_max"] = max(iters, default=0)
    info["lambda_max_over_ceiling"] = result.lambda_max_used / op.lambda_max_ceiling
    info["n"] = op.n
    info["nnz"] = int(max(op.mass.nnz, op.stiffness.nnz))
    info["csr_bytes"] = max(_csr_bytes(op.mass), _csr_bytes(op.stiffness))


# (module, attribute, span name, count hook); the module is named relative to
# the fracsurf package, "" being the package itself
FULL_TARGETS = [
    ("solver", "pcg", "solver.pcg", _pcg_counts),
    ("solver", "estimate_lambda_max", "solver.estimate_lambda_max", None),
    ("solver", "suggest_lambda_hat", "solver.suggest_lambda_hat", None),
    ("solver", "build_pade", "pade.build_pade", None),
    ("solver", "build_time_grid", "scheme.build_time_grid", None),
    ("solver", "deflate_mean", "assembly.deflate_mean", None),
    ("cli", "main", "cli.main", None),
    ("cli", "read_gmsh", "mesh.read_gmsh", None),
    ("cli", "gen_sphere", "mesh.gen_sphere", None),
    ("cli", "gen_torus", "mesh.gen_torus", None),
    ("cli", "assemble", "assembly.assemble", None),
    ("cli", "build_rhs", "assembly.build_rhs", None),
    ("cli", "write_off", "mesh.write_off", None),
    ("cli", "fractional_apply", "solver.fractional_apply", _apply_counts),
    ("", "read_gmsh", "mesh.read_gmsh", None),
    ("", "gen_sphere", "mesh.gen_sphere", None),
    ("", "gen_torus", "mesh.gen_torus", None),
    ("", "assemble", "assembly.assemble", None),
    ("", "build_rhs", "assembly.build_rhs", None),
    ("", "fractional_apply", "solver.fractional_apply", _apply_counts),
]

# untraced runs wrap only the fractional_apply that cli.main calls, so that
# apply_s can be read off a CLI-only workload; the wrapper costs microseconds
# against calls of tens of milliseconds or more
APPLY_ONLY_TARGETS = [("cli", "fractional_apply", "solver.fractional_apply", None)]


@contextlib.contextmanager
def installed(recorder: Recorder, package, targets):
    """Wrap the targets of the fracsurf package for the duration of the block."""
    try:
        for mod_name, attr, name, hook in targets:
            module = getattr(package, mod_name) if mod_name else package
            recorder.patch(module, attr, name, hook)
        yield recorder
    finally:
        recorder.restore()


# per-layer metric name -> unit; every traced run reports each of them
LAYER_UNITS = {
    "solver.pcg_s": "s",
    "solver.pcg_calls": "count",
    "solver.cg_iters": "count",
    "solver.cg_iters_max": "count",
    "solver.cg_iters_per_s": "1/s",
    "solver.cg_failures": "count",
    "solver.lambda_max_s": "s",
    "solver.lambda_hat_probe_s": "s",
    "solver.useful_solve_frac": "ratio",
    "solver.solves": "count",
    "solver.lambda_max_over_ceiling": "ratio",
    "solver.apply_self_s": "s",
    "solver.matvec_bytes_computed": "bytes",
    "solver.kernel_n": "count",
    "solver.kernel_nnz": "count",
    "solver.kernel_csr_bytes": "bytes",
    "scheme.steps": "count",
    "scheme.build_time_grid_s": "s",
    "pade.build_pade_s": "s",
    "mesh.gen_sphere_s": "s",
    "mesh.gen_torus_s": "s",
    "mesh.read_gmsh_s": "s",
    "mesh.read_gmsh_calls": "count",
    "mesh.write_off_s": "s",
    "assembly.assemble_s": "s",
    "assembly.build_rhs_s": "s",
    "assembly.deflate_mean_s": "s",
    "assembly.deflate_mean_calls": "count",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_frac": "ratio",
    "fail_frac": "ratio",
}


def layer_metrics(rec: Recorder, setup_spans: int, passes: int) -> dict[str, float]:
    """Per-layer figures for one traced set-up plus one traced pass.

    Spans before index `setup_spans` belong to the traced set-up; the rest to
    `passes` traced passes that repeat the same work, and are averaged over
    them, so counts come out exactly as for one pass.
    """
    sums: dict[str, list[float]] = {}

    def add(key: str, k: int, value: float) -> None:
        sums.setdefault(key, [0, 0])[k >= setup_spans] += value

    def get(key: str) -> float:
        setup, in_passes = sums.get(key, (0, 0))
        return setup + in_passes / passes

    spans = rec.spans
    for k, (s, self_t) in enumerate(zip(spans, rec.self_times())):
        add(s.name, k, s.duration)
        add(s.name + ".calls", k, 1)
        add(s.name + ".self", k, self_t)
        if s.name == "solver.pcg" and any(a.name == "solver.fractional_apply"
                                          for a in rec.ancestors(k)):
            add("pcg", k, s.duration)
            add("pcg.calls", k, 1)
            add("pcg.failures", k, "error" in s.info)
            add("pcg.matvec_bytes", k, s.info.get("matvec_bytes", 0))
            if spans[s.parent].name == "solver.fractional_apply":
                add("pcg.scheme", k, s.duration)
        if s.name == "solver.fractional_apply" and "steps" in s.info:
            for key in ("steps", "solves", "cg_iters", "lambda_max_over_ceiling"):
                add(f"apply.{key}", k, s.info[key])
    applies = [s for s in spans if s.name == "solver.fractional_apply" and "steps" in s.info]

    def largest(key: str) -> int:
        return max((a.info[key] for a in applies), default=0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    return {
        "solver.pcg_s": get("pcg"),
        "solver.pcg_calls": get("pcg.calls"),
        "solver.cg_iters": get("apply.cg_iters"),
        "solver.cg_iters_max": largest("cg_iters_max"),
        "solver.cg_iters_per_s": ratio(get("apply.cg_iters"), get("pcg.scheme")),
        "solver.cg_failures": get("pcg.failures"),
        "solver.lambda_max_s": get("solver.estimate_lambda_max"),
        "solver.lambda_hat_probe_s": get("solver.suggest_lambda_hat"),
        "solver.useful_solve_frac": ratio(get("apply.solves"), get("pcg.calls")),
        "solver.solves": get("apply.solves"),
        "solver.lambda_max_over_ceiling": ratio(get("apply.lambda_max_over_ceiling"),
                                                get("solver.fractional_apply.calls")),
        "solver.apply_self_s": get("solver.fractional_apply.self"),
        "solver.matvec_bytes_computed": get("pcg.matvec_bytes"),
        "solver.kernel_n": largest("n"),
        "solver.kernel_nnz": largest("nnz"),
        "solver.kernel_csr_bytes": largest("csr_bytes"),
        "scheme.steps": get("apply.steps"),
        "scheme.build_time_grid_s": get("scheme.build_time_grid"),
        "pade.build_pade_s": get("pade.build_pade"),
        "mesh.gen_sphere_s": get("mesh.gen_sphere"),
        "mesh.gen_torus_s": get("mesh.gen_torus"),
        "mesh.read_gmsh_s": get("mesh.read_gmsh"),
        "mesh.read_gmsh_calls": get("mesh.read_gmsh.calls"),
        "mesh.write_off_s": get("mesh.write_off"),
        "assembly.assemble_s": get("assembly.assemble"),
        "assembly.build_rhs_s": get("assembly.build_rhs"),
        "assembly.deflate_mean_s": get("assembly.deflate_mean"),
        "assembly.deflate_mean_calls": get("assembly.deflate_mean.calls"),
        "cli.self_s": get("cli.main.self"),
    }
