"""P1 finite element assembly of the mass/stiffness pencil on a triangulated surface.

The operator is the bilinear form integral of a*grad(w).grad(v) + b*w*v with
vertex-interpolated coefficients. Per triangle the stiffness uses the vertex
average of a (exact, the gradients are constant), and the b-term and the mass
matrix use the 3-point edge-midpoint rule (exact for quadratics, so the mass
matrix is the exact consistent mass; the cubic b-term integrand is a committed
quadrature choice). Dirichlet constraints are removed by row/column
elimination so the reduced pencil stays symmetric.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .mesh import MODE_DIRICHLET, MODE_REACTION, MODE_ZERO_MEAN, SurfaceMesh

log = logging.getLogger(__name__)

__all__ = [
    "CoefficientField",
    "AssembledOperator",
    "coefficient_field",
    "assemble",
    "build_rhs",
    "deflate_mean",
    "dot",
    "TRI_QUAD_POINTS",
    "TRI_QUAD_WEIGHTS",
]

# degree-5 7-point rule on the reference triangle, barycentric points, weights sum to 1
_S15 = np.sqrt(15.0)
TRI_QUAD_POINTS = np.array(
    [
        [1 / 3, 1 / 3, 1 / 3],
        [(9 + 2 * _S15) / 21, (6 - _S15) / 21, (6 - _S15) / 21],
        [(6 - _S15) / 21, (9 + 2 * _S15) / 21, (6 - _S15) / 21],
        [(6 - _S15) / 21, (6 - _S15) / 21, (9 + 2 * _S15) / 21],
        [(9 - 2 * _S15) / 21, (6 + _S15) / 21, (6 + _S15) / 21],
        [(6 + _S15) / 21, (9 - 2 * _S15) / 21, (6 + _S15) / 21],
        [(6 + _S15) / 21, (6 + _S15) / 21, (9 - 2 * _S15) / 21],
    ]
)
TRI_QUAD_WEIGHTS = np.array(
    [9 / 40] + 3 * [(155 - _S15) / 1200] + 3 * [(155 + _S15) / 1200]
)


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product summed by numpy's own loop rather than by BLAS.

    Its value does not depend on the BLAS thread count, and it wakes no BLAS
    threads: at the sizes of a solve their hand-off costs more than the sum.
    """
    return float(np.einsum("i,i->", a, b))


@dataclass(frozen=True)
class CoefficientField:
    """Per-vertex values of the diffusion coefficient a and reaction coefficient b."""

    a: np.ndarray
    b: np.ndarray


def coefficient_field(mesh: SurfaceMesh, a=1.0, b=0.0) -> CoefficientField:
    """Build a CoefficientField from scalars, per-vertex arrays, or callables of x."""
    av = _vertex_values(mesh, a)
    bv = _vertex_values(mesh, b)
    for name, vals in (("diffusion coefficient a", av), ("reaction coefficient b", bv)):
        if not np.isfinite(vals).all():
            raise ValueError(f"{name} must be finite")
    if av.min() <= 0.0:
        raise ValueError(f"diffusion coefficient must be positive, min is {av.min()}")
    if bv.min() < 0.0:
        raise ValueError(f"reaction coefficient must be non-negative, min is {bv.min()}")
    av.setflags(write=False)
    bv.setflags(write=False)
    return CoefficientField(a=av, b=bv)


def _vertex_values(mesh: SurfaceMesh, f) -> np.ndarray:
    if callable(f):
        vals = np.asarray(f(mesh.vertices), dtype=float)
    elif np.ndim(f) == 0:
        vals = np.full(mesh.num_vertices, float(f))
    else:
        vals = np.asarray(f, dtype=float).copy()
    if vals.shape != (mesh.num_vertices,):
        raise ValueError(f"expected one value per vertex, got shape {vals.shape}")
    return vals


@dataclass(frozen=True)
class AssembledOperator:
    """Sparse symmetric pencil (mass, stiffness) restricted to the free dofs.

    stiffness includes the reaction term; free_dofs indexes into the mesh
    vertex list (all vertices unless the mode is dirichlet).
    lambda_max_ceiling is a rigorous upper bound on the largest generalized
    eigenvalue, from the per-element pencils. mass_diagonal_floor is a c with
    M >= c * diag(M) in the Loewner order (1/2 for the consistent P1 mass).
    `prepared` holds what `fractional_apply` computes from the operator alone
    (the multigrid hierarchy and the Ritz value checked per lambda_hat), so
    that later calls reuse it; it starts empty, also after
    `dataclasses.replace`, and dies with the operator. Concurrent first calls
    may each compute an entry; they compute the same bits, and one is kept.
    """

    mass: sp.csr_matrix
    stiffness: sp.csr_matrix
    mode: str
    free_dofs: np.ndarray
    vertex_count: int
    lambda_max_ceiling: float
    mass_diagonal_floor: float
    prepared: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.mass.shape[0]

    def m_norm(self, v: np.ndarray) -> float:
        return math.sqrt(dot(v, self.mass @ v))

    def expand(self, v: np.ndarray) -> np.ndarray:
        """Pad a free-dof vector with zeros on constrained vertices."""
        full = np.zeros(self.vertex_count)
        full[self.free_dofs] = v
        return full


def _element_geometry(mesh: SurfaceMesh):
    p0 = mesh.vertices[mesh.triangles[:, 0]]
    p1 = mesh.vertices[mesh.triangles[:, 1]]
    p2 = mesh.vertices[mesh.triangles[:, 2]]
    e1 = p2 - p1
    e2 = p0 - p2
    e3 = p1 - p0
    normal = np.cross(e3, -e2)
    double_area = np.linalg.norm(normal, axis=1)
    nhat = normal / double_area[:, None]
    # grad phi_i = (nhat x e_i) / (2A), e_i the edge opposite vertex i
    grads = np.stack(
        [np.cross(nhat, e1), np.cross(nhat, e2), np.cross(nhat, e3)], axis=1
    ) / double_area[:, None, None]
    return 0.5 * double_area, grads


# phi values at the three edge midpoints (rows: midpoint of edges 01, 12, 20)
_MID_PHI = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])


def assemble(mesh: SurfaceMesh, coeffs: CoefficientField, mode: str) -> AssembledOperator:
    """Assemble the (mass, stiffness) pencil for the given problem mode."""
    _check_mode(mesh, coeffs, mode)
    area, grads = _element_geometry(mesh)
    tris = mesh.triangles

    a_bar = coeffs.a[tris].mean(axis=1)
    stiff_el = (a_bar * area)[:, None, None] * np.einsum("tid,tjd->tij", grads, grads)

    mass_local = (np.ones((3, 3)) + np.eye(3)) / 12.0
    mass_el = area[:, None, None] * mass_local

    b_mid = coeffs.b[tris] @ _MID_PHI.T  # linear b at the edge midpoints
    react_el = np.einsum("tq,qi,qj->tij", b_mid, _MID_PHI, _MID_PHI) * (area / 3.0)[:, None, None]

    n = mesh.num_vertices
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    M, S = _accumulate(rows, cols, n, mass_el.ravel(), (stiff_el + react_el).ravel())
    _check_assembled(mesh, area, M, S, mode)

    if mode == MODE_DIRICHLET:
        free = np.nonzero(~mesh.boundary_vertices)[0]
        M = M[free][:, free].tocsr()
        S = S[free][:, free].tocsr()
    else:
        free = np.arange(n)

    # rigorous pencil ceiling: the element stiffness has zero row sums, so its
    # generalized maximum against the consistent element mass (area/12)(I+J) is
    # lambda_max(S_K) * 12/area; the reaction part is dominated by the largest
    # b at the quadrature points, since it shares the mass quadrature
    tr = np.trace(stiff_el, axis1=1, axis2=2)
    minor_sum = 0.5 * (tr**2 - np.einsum("tij,tji->t", stiff_el, stiff_el))
    top = 0.5 * (tr + np.sqrt(np.maximum(tr**2 - 4.0 * minor_sum, 0.0)))
    ceiling = float(np.max(top * 12.0 / area)) + float(b_mid.max(initial=0.0))

    return AssembledOperator(
        mass=M,
        stiffness=S,
        mode=mode,
        free_dofs=free,
        vertex_count=n,
        lambda_max_ceiling=ceiling,
        # the element mass (area/12)(I + J) less half its diagonal is (area/12) J,
        # positive semidefinite; so is the sum M - diag(M)/2 and each principal
        # submatrix of it, so the factor survives Dirichlet elimination
        mass_diagonal_floor=0.5,
    )


def _accumulate(rows, cols, n, *vals) -> list[sp.csr_matrix]:
    # canonical summation order: entries sorted by (row, col) before reduction,
    # so assembly is independent of triangle ordering to machine precision; a
    # stable sort of the key row*n + col is that order, found once for every
    # value array
    keys = rows.astype(np.int64) * n + cols
    order = np.argsort(keys, kind="stable")
    k = keys[order]
    boundary = np.ones(len(k), dtype=bool)
    boundary[1:] = k[1:] != k[:-1]
    starts = np.nonzero(boundary)[0]
    r, c = np.divmod(k[starts], n)
    return [sp.csr_matrix((np.add.reduceat(v[order], starts), (r, c)), shape=(n, n))
            for v in vals]


def _check_mode(mesh: SurfaceMesh, coeffs: CoefficientField, mode: str) -> None:
    has_boundary = bool(mesh.boundary_vertices.any())
    if mode == MODE_DIRICHLET:
        if not has_boundary:
            raise ValueError("dirichlet mode requires a mesh with boundary")
    elif mode == MODE_ZERO_MEAN:
        if has_boundary:
            raise ValueError("zero-mean mode requires a closed surface")
        if coeffs.b.max(initial=0.0) != 0.0:
            raise ValueError("zero-mean mode requires b identically zero")
    elif mode == MODE_REACTION:
        if has_boundary:
            raise ValueError("positive-reaction mode requires a closed surface")
        if coeffs.b.max(initial=0.0) <= 0.0:
            raise ValueError("positive-reaction mode requires b > 0 somewhere")
    else:
        raise ValueError(f"unknown mode {mode!r}")


def _check_assembled(mesh, area, M, S, mode) -> None:
    # checks run on the full matrices, before any Dirichlet elimination
    for name, A in (("mass", M), ("stiffness", S)):
        gap = abs(A - A.T).max()
        if gap > 1e-13 * abs(A).max():
            raise AssertionError(f"{name} matrix not symmetric (gap {gap:.3e})")
    # partition of unity: row sums of M equal the third of the adjacent areas
    thirds = np.zeros(mesh.num_vertices)
    np.add.at(thirds, mesh.triangles.ravel(), np.repeat(area / 3.0, 3))
    row_sums = np.asarray(M.sum(axis=1)).ravel()
    gap = np.abs(row_sums - thirds).max()
    if gap > 1e-12 * thirds.max():
        raise AssertionError(f"mass row sums off by {gap:.3e}")
    if mode == MODE_ZERO_MEAN:
        drift = np.abs(S @ np.ones(S.shape[0])).max()
        if drift > 1e-12 * abs(S).max():
            raise AssertionError(f"stiffness does not annihilate constants (drift {drift:.3e})")


def build_rhs(mesh: SurfaceMesh, f, op: AssembledOperator, method: str = "l2_project") -> np.ndarray:
    """Discrete right-hand side on the free dofs, by interpolation or L2 projection.

    f is a callable on (k,3) point arrays, a per-vertex array, or a scalar (a
    constant). l2_project integrates f against each basis function with the
    degree-5 rule and solves the mass system; rough f near a jump is flagged
    but the rule is still applied. In zero-mean mode the result is deflated so
    its M-weighted mean vanishes.
    """
    log.info("building rhs by %s", method)
    if method == "interpolate":
        fh = _vertex_values(mesh, f)[op.free_dofs]
    elif method == "l2_project":
        b = _moment_vector(mesh, f)[op.free_dofs]
        from .solver import pcg

        fh, _, _ = pcg(op.mass, b, rel_tol=1e-14)
    else:
        raise ValueError(f"unknown rhs method {method!r}")
    if op.mode == MODE_ZERO_MEAN:
        fh = deflate_mean(fh, op)
    return fh


def _moment_vector(mesh, f) -> np.ndarray:
    vertex_vals = None if callable(f) else _vertex_values(mesh, f)
    area = mesh.triangle_areas()
    tris = mesh.triangles
    p = [mesh.vertices[tris[:, k]] for k in range(3)]
    b = np.zeros(mesh.num_vertices)
    fq_all = np.empty((len(TRI_QUAD_WEIGHTS), len(tris)))
    for q, (bc, w) in enumerate(zip(TRI_QUAD_POINTS, TRI_QUAD_WEIGHTS)):
        if vertex_vals is None:
            x = bc[0] * p[0] + bc[1] * p[1] + bc[2] * p[2]
            fq = np.asarray(f(x), dtype=float)
        else:  # P1 interpolant of vertex data at the quadrature point
            fq = bc[0] * vertex_vals[tris[:, 0]] + bc[1] * vertex_vals[tris[:, 1]] \
                + bc[2] * vertex_vals[tris[:, 2]]
        fq_all[q] = fq
        for k in range(3):
            np.add.at(b, tris[:, k], area * w * fq * bc[k])
    local_range = fq_all.max(axis=0) - fq_all.min(axis=0)
    global_range = fq_all.max() - fq_all.min()
    if global_range > 0:
        rough = int(np.sum(local_range > 0.5 * global_range))
        if rough:
            log.warning(
                "quadrature note: %d triangles see jump-scale variation of f; "
                "the degree-5 rule is applied there unchanged", rough,
            )
    return b


def deflate_mean(v: np.ndarray, op: AssembledOperator) -> np.ndarray:
    """Remove the M-weighted mean (the constant-mode component); idempotent."""
    if op.mode != MODE_ZERO_MEAN:
        raise ValueError("deflation only applies in zero-mean mode")
    m_ones = op.mass @ np.ones(op.n)
    return v - dot(m_ones, v) / float(m_ones.sum())
