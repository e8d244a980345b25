"""Inverse fractional powers of elliptic operators on triangulated surfaces.

The pipeline: build or read a surface mesh, assemble the P1 mass/stiffness
pencil, and apply the inverse fractional power to data through a product of
low-order rational factors, each factor costing m sparse SPD solves. Scalar
building blocks (the rational approximant, the temporal grid, error bounds)
and brute-force oracles are exposed alongside the solver.
"""

__version__ = "0.1.0"

from .assembly import (
    AssembledOperator,
    CoefficientField,
    assemble,
    build_rhs,
    coefficient_field,
    deflate_mean,
)
from .mesh import (
    SurfaceMesh,
    gen_graded_square,
    gen_sphere,
    gen_torus,
    gen_unit_square,
    mesh_validate,
    read_gmsh,
    write_off,
)
from .oracle import (
    SpectralDecomposition,
    convergence_rate,
    dense_decompose,
    dense_fractional,
    l2_error_on_mesh,
    sphere_series_solution,
    torus_fields,
    torus_mean_curvature,
)
from .pade import (
    PadeApproximant,
    build_pade,
    jacobi_roots,
    pade_error_bound,
)
from .scheme import (
    TimeGrid,
    build_time_grid,
    certified_scheme_error,
    scalar_mu,
    scheme_error_bound,
)
from .solver import (
    FracSolveResult,
    SolverConfig,
    apriori_bound,
    estimate_lambda_max,
    fractional_apply,
    pcg,
    suggest_lambda_hat,
)

__all__ = [
    "__version__",
    "AssembledOperator",
    "CoefficientField",
    "FracSolveResult",
    "PadeApproximant",
    "SolverConfig",
    "SpectralDecomposition",
    "SurfaceMesh",
    "TimeGrid",
    "apriori_bound",
    "assemble",
    "build_pade",
    "build_rhs",
    "build_time_grid",
    "certified_scheme_error",
    "coefficient_field",
    "convergence_rate",
    "deflate_mean",
    "dense_decompose",
    "dense_fractional",
    "estimate_lambda_max",
    "fractional_apply",
    "gen_graded_square",
    "gen_sphere",
    "gen_torus",
    "gen_unit_square",
    "jacobi_roots",
    "l2_error_on_mesh",
    "mesh_validate",
    "pade_error_bound",
    "pcg",
    "read_gmsh",
    "scalar_mu",
    "scheme_error_bound",
    "sphere_series_solution",
    "suggest_lambda_hat",
    "torus_fields",
    "torus_mean_curvature",
    "write_off",
]
