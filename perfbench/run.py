"""fracsurf benchmark: one workload per run, a closed loop with one caller.

    python3 perfbench/run.py --workload sphere-l6 --seed 1 --seconds 25 --trace 0

Run it from the repository root; it imports fracsurf from ./src. The inputs
are drawn from --seed. Each call waits for the previous one to finish, whole
passes over the workload's operations repeat until --seconds have elapsed,
and the outputs are checked against references computed after the timed
loop. The last line of standard output is one JSON object: with --trace 0 it
holds the end-to-end metrics, with --trace 1 the per-layer metrics of traced
passes, each run after an untraced one (perfbench/README.md defines them all).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from tracing import APPLY_ONLY_TARGETS, FULL_TARGETS, LAYER_UNITS, Recorder, installed, \
    layer_metrics

ROOT = Path(__file__).resolve().parent.parent

END_TO_END_UNITS = {
    "setup_s": "s",
    "apply_s": "s",
    "apply_tail_s": "s",
    "cli_s": "s",
    "peak_rss_mb": "MB",
}


def cap_blas_threads() -> int:
    """Cap BLAS and OpenMP threads at the CPUs this process may use; call before numpy loads."""
    cap = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(cap)
    return cap


def import_fracsurf():
    """The fracsurf package under ./src of this checkout, never an installed copy."""
    src = ROOT / "src"
    if not (src / "fracsurf" / "__init__.py").is_file():
        raise ImportError(f"no fracsurf sources under {src}")
    sys.path.insert(0, str(src))
    import fracsurf
    import fracsurf.cli
    import fracsurf.solver

    if Path(fracsurf.__file__).resolve().parent != (src / "fracsurf").resolve():
        raise ImportError(f"fracsurf imported from {fracsurf.__file__}, not from {src}")
    return fracsurf


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples above it: (value, percentile, samples).

    With ten samples or fewer no percentile qualifies, and the maximum is given
    as percentile 100.
    """
    xs = sorted(samples)
    if len(xs) <= 10:
        return xs[-1], 100.0, len(xs)
    k = len(xs) - 10  # 1-based rank with exactly ten samples above it
    return xs[k - 1], 100.0 * k / len(xs), len(xs)


class Run:
    """Timed passes over one workload's operations, with every output kept for checking.

    `inner`, when given, is a recorder wrapping the fractional_apply that
    cli.main calls; its spans count as apply samples of the pass they fall in.
    """

    def __init__(self, wl, inner=None):
        self.wl = wl
        self.inner = inner
        self.ops = wl.ops()
        self.outputs: list[tuple[str, object]] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.apply_times: list[list[float]] = []  # per pass, per fractional_apply call
        self.cli_times: list[list[float]] = []  # per pass, per cli.main call
        self.pass_times: list[float] = []  # summed operation time of each pass

    def one_pass(self) -> None:
        applies, clis = [], []
        first_inner = len(self.inner.spans) if self.inner is not None else 0
        busy = 0.0
        for op in self.ops:
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                ret = op.run()
            except Exception as exc:  # a failed operation is counted, not fatal
                busy += time.perf_counter() - t0
                self.failures.append(f"{op.key}: {type(exc).__name__}: {exc}")
                continue
            dt = time.perf_counter() - t0
            busy += dt
            (applies if op.kind == "apply" else clis).append(dt)
            try:
                self.outputs.append((op.key, op.collect(ret)))
            except (OSError, RuntimeError, ValueError, KeyError, IndexError) as exc:
                self.failures.append(f"{op.key}: {type(exc).__name__}: {exc}")
        if self.inner is not None:
            applies += [s.duration for s in self.inner.spans[first_inner:]]
        self.apply_times.append(applies)
        self.cli_times.append(clis)
        self.pass_times.append(busy)

    def absorb(self, other: "Run") -> None:
        """Take over another run's outputs and failures, to be checked with these."""
        self.outputs += other.outputs
        self.failures += other.failures
        self.attempted += other.attempted

    def passes_for(self, seconds: float, min_passes: int) -> None:
        t0 = time.perf_counter()
        while len(self.pass_times) < min_passes or time.perf_counter() - t0 < seconds:
            self.one_pass()

    def check(self) -> tuple[bool, float]:
        """Check every output. Returns whether a perturbed output is rejected, as it
        must be, and the largest distance to a reference as a share of the distance accepted."""
        if not self.outputs:
            return False, 0.0
        wl = self.wl
        wl.references([out for _, out in self.outputs])
        worst = 0.0
        for key, out in self.outputs:
            msg, ratio = wl.check(key, out)
            worst = max(worst, ratio)
            if msg:
                self.failures.append(msg)
        key, out = self.outputs[0]
        return wl.check(key, wl.perturbed(key, out))[0] is not None, worst


def median_of_pass_means(per_pass: list[list[float]]) -> float:
    """Median over passes of the mean call time in each pass.

    A pass of small-sweep mixes 36 configurations whose times differ tenfold;
    the plain median of such a mixture jumps between them as the inputs change,
    the per-pass mean does not.
    """
    return statistics.median(sum(p) / len(p) for p in per_pass if p)


def timed_setups(wl, reps: int) -> list[float]:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        wl.setup()
        times.append(time.perf_counter() - t0)
    return times


def end_to_end_report(run: Run, setup_times: list[float], peak_rss_mb: float) -> dict:
    tail_value, pct, count = tail([t for p in run.apply_times for t in p])
    print(f"{len(run.pass_times)} passes; apply_s and cli_s are medians over passes of the "
          f"mean call time; apply_tail_s is the p{pct:.2f} of {count} fractional_apply "
          f"calls; setup_s is the median of {len(setup_times)} set-ups")
    return {
        "setup_s": statistics.median(setup_times),
        "apply_s": median_of_pass_means(run.apply_times),
        "apply_tail_s": tail_value,
        "cli_s": median_of_pass_means(run.cli_times),
        "peak_rss_mb": peak_rss_mb,
    }


def layer_report(run: Run, traced_run: Run, traced, setup_spans: int) -> dict:
    """Per-layer metrics, and a line showing that the self times add up to the traced time."""
    passes = len(traced_run.pass_times)
    in_passes = range(setup_spans, len(traced.spans))
    selfs = traced.self_times()
    roots = sum(traced.spans[k].duration for k in in_passes if traced.spans[k].parent is None)
    print(f"per-layer figures are for the traced set-up plus the mean of {passes} traced "
          f"passes, each run after an untraced one")
    print(f"per pass: untraced operations {sum(run.pass_times) / len(run.pass_times):.4f} s, "
          f"traced operations {roots / passes:.4f} s, "
          f"self times of their spans {sum(selfs[k] for k in in_passes) / passes:.4f} s")
    metrics = layer_metrics(traced, setup_spans, passes)
    metrics["cli.output_bytes"] = sum(out.nbytes for _, out in traced_run.outputs) / passes
    metrics["trace.overhead_frac"] = sum(traced_run.pass_times) / sum(run.pass_times) - 1.0
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    blas_cap = cap_blas_threads()
    try:
        fs = import_fracsurf()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # numpy loads only now, after the thread cap is in the environment
    import numpy as np
    import scipy
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    # the library logs a warning per call on these inputs; keep stderr for errors
    logging.getLogger("fracsurf").setLevel(logging.ERROR)

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"env: python {platform.python_version()}, numpy {np.__version__}, "
          f"scipy {scipy.__version__}, nproc {os.cpu_count()}, BLAS thread cap {blas_cap}, "
          "closed loop, 1 caller")

    state_dir = ROOT / ".perfbench"
    workdir = state_dir / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](fs, args.seed, str(workdir))
        setup_times = timed_setups(wl, wl.setup_reps)
        inner = Recorder()
        run = Run(wl, inner)
        if args.trace:
            traced = Recorder()
            with installed(traced, fs, FULL_TARGETS):
                timed_setups(wl, 1)
            setup_spans = len(traced.spans)
            traced_run = Run(wl)
            # untraced and traced passes alternate, so that drift in the
            # machine's speed falls on both sides of trace.overhead_frac
            t0 = time.perf_counter()
            while not traced_run.pass_times or time.perf_counter() - t0 < args.seconds:
                with installed(inner, fs, APPLY_ONLY_TARGETS):
                    run.one_pass()
                with installed(traced, fs, FULL_TARGETS):
                    traced_run.one_pass()
            run.absorb(traced_run)
        else:
            with installed(inner, fs, APPLY_ONLY_TARGETS):
                run.passes_for(args.seconds, wl.min_passes)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        perturbation_rejected, worst = run.check()
        for line in wl.report():
            print(line)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(run.failures)
    for msg in run.failures[:10]:
        print(f"FAILED {msg}")
    if not perturbation_rejected:
        print("FAILED the check accepted a perturbed output")
    fail_frac = failed / run.attempted
    print(f"checked {len(run.outputs)} outputs, worst distance {worst:.3g} of the accepted; "
          f"perturbed output rejected: {perturbation_rejected}; "
          f"fail_frac = {fail_frac:g} ({failed}/{run.attempted})")

    if args.trace:
        trace_dir = state_dir / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_path = trace_dir / f"{args.workload}-seed{args.seed}.jsonl"
        traced.dump(trace_path)
        print(f"{len(traced.spans)} spans written to {trace_path.relative_to(ROOT)}")
        metrics = layer_report(run, traced_run, traced, setup_spans)
        metrics["fail_frac"] = fail_frac
        units = LAYER_UNITS
    else:
        metrics = end_to_end_report(run, setup_times, peak_rss_mb)
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0 and perturbation_rejected,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
