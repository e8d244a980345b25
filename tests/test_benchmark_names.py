"""The names that the benchmark under `perfbench/` reads from the library.

The benchmark's tracer wraps module attributes by name, and its workloads
read result attributes and package exports. A library change that deletes or
renames one of them passes every other test and fails only the traced
benchmark run; this test catches it without running the benchmark.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import scipy.sparse as sp

import fracsurf
import fracsurf.cli
import fracsurf.solver
from fracsurf.solver import SolverConfig, fractional_apply

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_traced_targets_resolve():
    tracing = _tracing()
    targets = tracing.FULL_TARGETS + tracing.APPLY_ONLY_TARGETS
    assert targets
    for mod_name, attr, name, _ in targets:
        module = getattr(fracsurf, mod_name) if mod_name else fracsurf
        assert callable(getattr(module, attr, None)), f"{name}: fracsurf.{mod_name}.{attr}"


def test_names_the_workloads_read(sphere2, sphere2_op, sphere2_sign_rhs):
    result = fractional_apply(sphere2_op, sphere2_sign_rhs, 0.5, SolverConfig(m=1))
    assert result.total_solves == len(result.solve_log)
    assert result.lambda_max_used == result.time_grid.lambda_max_bound
    for name in ("apriori_bound", "deflate_mean"):
        assert name in fracsurf.__all__ and callable(getattr(fracsurf, name))
    # the sphere-l6 check: the series at one alpha, on the vertices' heights along a normal
    normal = np.array([0.48, 0.6, 0.64])
    u = fracsurf.sphere_series_solution(0.5, sphere2.vertices @ normal, n_terms=4000)
    assert isinstance(u, np.ndarray) and u.dtype == np.float64
    assert u.shape == (sphere2.num_vertices,)


def test_pcg_receives_a_csr_matrix(sphere2_op, sphere2_sign_rhs, monkeypatch):
    # the tracer's pcg hook reads shape, nnz, data, indices and indptr of the
    # matrix that fractional_apply passes
    matrices = []
    pcg = fracsurf.solver.pcg

    def recording_pcg(A, b, **kwargs):
        matrices.append(A)
        return pcg(A, b, **kwargs)

    monkeypatch.setattr(fracsurf.solver, "pcg", recording_pcg)
    result = fractional_apply(sphere2_op, sphere2_sign_rhs, 0.5, SolverConfig(m=1))
    assert len(matrices) == result.total_solves
    for A in matrices:
        assert sp.issparse(A) and A.format == "csr"
        assert A.shape == (sphere2_op.n, sphere2_op.n) and A.nnz == len(A.data)
        assert len(A.indices) == A.nnz and len(A.indptr) == sphere2_op.n + 1
