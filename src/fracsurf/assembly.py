"""P1 finite element assembly of the mass/stiffness pencil on a triangulated surface.

The operator is the bilinear form integral of a*grad(w).grad(v) + b*w*v with
vertex-interpolated coefficients. Per triangle the stiffness uses the vertex
average of a (exact, the gradients are constant), and the b-term and the mass
matrix use the 3-point edge-midpoint rule (exact for quadratics, so the mass
matrix is the exact consistent mass; the cubic b-term integrand is a committed
quadrature choice). Dirichlet constraints are removed by row/column
elimination so the reduced pencil stays symmetric.

Assembly works on whole arrays of per-triangle entries, six per triangle and
matrix (three diagonal, three edge), with no element matrices: the stiffness
entries come from edge dot products, and the sums keep the order of the
element-matrix assembly that the tests keep as a reference, so the mass
matrix and the L2 right-hand side are bit-identical to it. The entries are
summed straight onto one CSR pattern built from the mesh's sorted edges and
shared by both matrices, with no COO stage: the values are those of the
COO-to-CSR conversion the tests keep as a reference, bit for bit, and the
transient memory of a call is about 4.7 times what it returns. Each edge
value is written to its upper and its lower slot from one array, so both
matrices are symmetric, in pattern and values, by construction; every row
holds its diagonal, since a vertex in no triangle is rejected. The triangle
areas are the mesh's `SurfaceMesh.double_areas`, computed once per mesh (by
its validation, or on first use for a sphere), not computed again.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .mesh import (
    MODE_DIRICHLET,
    MODE_REACTION,
    MODE_ZERO_MEAN,
    SurfaceMesh,
    _triangle_sides,
)

log = logging.getLogger(__name__)

__all__ = [
    "CoefficientField",
    "AssembledOperator",
    "coefficient_field",
    "assemble",
    "build_rhs",
    "constant_mode",
    "csr_matvec_into",
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


def csr_matvec_into(A: sp.csr_matrix, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """A @ x for a CSR matrix A, written into `out` (which must not share memory with x).

    It zeroes `out` and calls `scipy.sparse._sparsetools.csr_matvec`, the
    compiled kernel that scipy's own `A @ x` calls after allocating a zero
    result (verified on scipy 1.17.1): the kernel adds each row's products to
    `out` in stored order, so the result has the bits of `A @ x`, without the
    operator dispatch and the fresh result. The kernel checks no length, so
    the shapes are checked here. Returns `out`.
    """
    n_row, n_col = A.shape
    if A.format != "csr" or x.shape != (n_col,) or out.shape != (n_row,):
        raise ValueError(f"expected a CSR matrix, x of shape ({n_col},) and out of shape "
                         f"({n_row},); got {A.format}, {x.shape} and {out.shape}")
    out.fill(0.0)
    _sparsetools.csr_matvec(n_row, n_col, A.indptr, A.indices, A.data, x, out)
    return out


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
    `prepared` holds what is computed from the operator alone (the multigrid
    hierarchy, the Ritz value checked per lambda_hat, and M*1 with its sum
    from `constant_mode`), so that later calls reuse it; it starts empty, also
    after `dataclasses.replace`, and dies with the operator. Concurrent first
    calls may each compute an entry; they compute the same bits, and one is
    kept.
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


def assemble(mesh: SurfaceMesh, coeffs: CoefficientField, mode: str) -> AssembledOperator:
    """Assemble the (mass, stiffness) pencil for the given problem mode."""
    _check_mode(mesh, coeffs, mode)
    tris = mesh.triangles
    n = mesh.num_vertices
    u, v = _triangle_sides(mesh.vertices, tris)
    double_area = mesh.double_areas
    edges = (v - u, -v, u)  # edges[k] lies opposite vertex k
    area = 0.5 * double_area
    a = coeffs.a
    a_bar = (a[tris[:, 0]] + a[tris[:, 1]] + a[tris[:, 2]]) / 3.0
    # grad phi_k = (nhat x edges[k]) / (2A), so the stiffness entry
    # a_bar A grad phi_i . grad phi_j is a_bar (edges[i] . edges[j]) / (4A)
    scale = a_bar / (2.0 * double_area)
    sq = [_dot3(e, e) for e in edges]
    # local entries, one column per vertex k and one per local edge (k, k+1)
    stiff_diag = np.column_stack([scale * s for s in sq])
    stiff_off = np.column_stack([scale * _dot3(edges[k], edges[(k + 1) % 3]) for k in range(3)])
    del u, v, edges  # freed before the pattern is built, which lowers the peak

    # rigorous pencil ceiling: the element stiffness has zero row sums, so its
    # generalized maximum against the consistent element mass (area/12)(I+J) is
    # lambda_max(S_K) * 12/area; the reaction part is dominated by the largest
    # b at the quadrature points, since it shares the mass quadrature. S_K is
    # `scale` times the Gram matrix of the edges, whose nonzero eigenvalues
    # have sum sum_k l_k and product 3 (2A)^2 for the squared lengths l_k;
    # Heron's formula turns the discriminant into 2 sum_(i<j) (l_i - l_j)^2,
    # a sum of squares that cannot cancel
    spread = np.sqrt(2.0 * ((sq[0] - sq[1]) ** 2 + (sq[1] - sq[2]) ** 2 + (sq[2] - sq[0]) ** 2))
    top = 0.5 * scale * (sq[0] + sq[1] + sq[2] + spread)
    ceiling = float(np.max(top * 12.0 / area))
    del sq, spread, top

    if coeffs.b.any():  # the b-term, by the edge-midpoint rule
        bt = coeffs.b[tris]
        b_mid = 0.5 * (bt + np.roll(bt, -1, axis=1))  # b on the midpoint of edge (k, k+1)
        third = (area / 3.0)[:, None]
        stiff_diag += (0.25 * (b_mid + np.roll(b_mid, 1, axis=1))) * third
        stiff_off += (0.25 * b_mid) * third
        ceiling += float(b_mid.max())

    mass_diag = np.repeat(area * (2.0 / 12.0), 3)
    mass_off = np.repeat(area * (1.0 / 12.0), 3)
    M, S = _accumulate(tris, n, (mass_diag, mass_off), (stiff_diag.ravel(), stiff_off.ravel()))

    if mode == MODE_DIRICHLET:
        free = np.nonzero(~mesh.boundary_vertices)[0]
        M = M[free][:, free].tocsr()
        S = S[free][:, free].tocsr()
    else:
        free = np.arange(n)

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


def _dot3(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _accumulate(tris, n, *local) -> list[sp.csr_matrix]:
    """Sum per-triangle entries into CSR matrices on one shared edge pattern.

    Each element of `local` is a pair of triangle-major arrays: the entries
    (k, k) and those of the local edges (k, k+1), for k = 0, 1, 2. The pattern
    is built once from the sorted keys min*n + max of each triangle's edges
    01, 12 and 20, the keys `mesh._edge_incidence` sorts: row i holds its
    lower edges, then its diagonal, then its upper edges, so the indices are
    sorted and the matrices are in canonical format. An edge's upper slot
    follows from key order, its lower slot from a stable sort of the larger
    ends. Both matrices share the index arrays (int32 where they fit), which
    the multigrid hierarchy then takes without a copy. Each edge value goes
    to its upper and its lower slot from one array, so pattern and values
    are symmetric for every triangle array. A vertex in no triangle (which a
    directly built `SurfaceMesh` may hold) raises the validator's
    ValueError, so every row holds its diagonal.

    An edge value is the sum of its one or two entries, taken in key order
    from the first, as scipy's duplicate sum takes them; two addends give the
    same sum in either order. A diagonal sum adds the entries of the vertex's
    triangles in triangle order, then the first triangle's entry: the order
    of the sorted element-matrix assembly kept in the tests as a reference,
    which summed with `np.add.reduceat`, for a vertex in up to nine triangles.
    The values are thus those of the COO assembly the tests keep as a
    reference, bit for bit.
    """
    flat = tris.ravel()
    first = np.full(n, len(flat))
    np.minimum.at(first, flat, np.arange(len(flat)))
    unused = np.flatnonzero(first == len(flat))
    if unused.size:  # the validator's check, for a mesh built directly
        raise ValueError(f"vertex {unused[0]} belongs to no triangle")

    nxt = tris[:, [1, 2, 0]].ravel()
    keys = np.minimum(flat, nxt).astype(np.int64, copy=False)
    keys *= n
    keys += np.maximum(flat, nxt)
    del nxt
    order = np.argsort(keys)
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    lo, hi = np.divmod(keys[starts], n)
    del keys
    n_lower, n_upper = np.bincount(hi, minlength=n), np.bincount(lo, minlength=n)
    row_len = n_lower + 1 + n_upper
    nnz = int(row_len.sum())
    index = np.int32 if max(nnz, n) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(row_len, out=indptr[1:])
    row_start = indptr[:-1].astype(np.int64)
    rank = np.arange(len(lo))
    # an edge's rank in key order, less the edges of earlier rows, is its
    # place among its row's upper edges; among the lower ones, in hi order
    upper = (row_start + n_lower + 1 - (np.cumsum(n_upper) - n_upper))[lo]
    upper += rank
    by_hi = np.argsort(hi, kind="stable")
    lower = np.empty_like(upper)
    lower[by_hi] = (row_start - (np.cumsum(n_lower) - n_lower))[hi[by_hi]] + rank
    del by_hi, rank
    diag = row_start + n_lower
    indices = np.empty(nnz, dtype=index)
    indices[upper], indices[lower], indices[diag] = hi, lo, np.arange(n)
    del lo, hi

    out = []
    for on_diag, on_edge in local:
        data = np.empty(nnz)
        rest = on_diag.copy()
        rest[first] = 0.0
        data[diag] = np.bincount(flat, rest, minlength=n) + on_diag[first]
        del rest
        edge = np.add.reduceat(on_edge[order], starts)
        data[upper], data[lower] = edge, edge
        out.append(sp.csr_matrix((data, indices, indptr), shape=(n, n)))
    return out


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


def build_rhs(mesh: SurfaceMesh, f, op: AssembledOperator, method: str = "l2_project") -> np.ndarray:
    """Discrete right-hand side on the free dofs, by interpolation or L2 projection.

    f is a callable on (k,3) point arrays, a per-vertex array, or a scalar (a
    constant). l2_project integrates f against each basis function with the
    degree-5 rule and solves the mass system by Jacobi-preconditioned CG,
    raising ValueError at the first row whose mass diagonal is not positive;
    rough f near a jump is flagged but the rule is still applied. In
    zero-mean mode the result is deflated so its M-weighted mean vanishes.
    """
    log.info("building rhs by %s", method)
    if method == "interpolate":
        fh = _vertex_values(mesh, f)[op.free_dofs]
    elif method == "l2_project":
        b = _moment_vector(mesh, f)[op.free_dofs]
        from .solver import pcg

        diag = op.mass.diagonal()
        bad = ~(diag > 0.0)  # also catches NaN
        if bad.any():
            k = int(np.argmax(bad))
            raise ValueError(f"row {k} has mass diagonal {diag[k]:.6g}; it must be positive")
        fh, _, _ = pcg(op.mass, b, rel_tol=1e-14,
                       precond=lambda r, out: np.divide(r, diag, out=out))
    else:
        raise ValueError(f"unknown rhs method {method!r}")
    if op.mode == MODE_ZERO_MEAN:
        fh = deflate_mean(fh, op)
    return fh


def _moment_vector(mesh, f) -> np.ndarray:
    vertex_vals = None if callable(f) else _vertex_values(mesh, f)
    area = mesh.triangle_areas()
    tris = mesh.triangles
    n = mesh.num_vertices
    values = mesh.vertices if vertex_vals is None else vertex_vals
    corners = [np.take(values, tris[:, k], axis=0) for k in range(3)]
    fq_all = np.empty((len(TRI_QUAD_WEIGHTS), len(tris)))
    for q, bc in enumerate(TRI_QUAD_POINTS):
        # f at the quadrature point, or the P1 interpolant of vertex data there
        x = bc[0] * corners[0] + bc[1] * corners[1] + bc[2] * corners[2]
        fq_all[q] = x if vertex_vals is not None else np.asarray(f(x), dtype=float)
    # b adds its terms quadrature point by point, then basis function by basis
    # function, then triangle by triangle: the order of the np.add.at loop the
    # tests keep as a reference. Each bincount carries on from the sums so
    # far, which it is given as its first n terms.
    index = np.concatenate([np.arange(n), tris.T.ravel()])
    b = np.zeros(n)
    for q, (bc, w) in enumerate(zip(TRI_QUAD_POINTS, TRI_QUAD_WEIGHTS)):
        terms = (area * w * fq_all[q]) * bc[:, None]
        b = np.bincount(index, np.concatenate([b, terms.ravel()]), minlength=n)
    local_range = fq_all.max(axis=0) - fq_all.min(axis=0)
    global_range = fq_all.max() - fq_all.min()
    if global_range > 0:
        rough = int(np.sum(local_range > 0.5 * global_range))
        if rough:
            log.info(
                "quadrature note: %d triangles see jump-scale variation of f; "
                "the degree-5 rule is applied there unchanged", rough,
            )
    return b


def constant_mode(op: AssembledOperator) -> tuple[np.ndarray, float]:
    """M*1 and its sum 1^T M 1, computed on the first call on `op` and kept in `op.prepared`."""
    pair = op.prepared.get("constant_mode")
    if pair is None:
        m_ones = op.mass @ np.ones(op.n)
        m_ones.setflags(write=False)
        pair = op.prepared["constant_mode"] = (m_ones, float(m_ones.sum()))
    return pair


def deflate_mean(v: np.ndarray, op: AssembledOperator,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Remove the M-weighted mean (the constant-mode component); idempotent.

    The result is written into `out` when given, which may be v itself.
    """
    if op.mode != MODE_ZERO_MEAN:
        raise ValueError("deflation only applies in zero-mean mode")
    m_ones, total = constant_mode(op)
    return np.subtract(v, dot(m_ones, v) / total, out=out)
