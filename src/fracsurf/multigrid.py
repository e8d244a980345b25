"""Smoothed-aggregation multigrid shared by every shifted pencil c1*M + c2*S.

One hierarchy is built from the stiffness matrix by the method of Vanek,
Mandel and Brezina (1996). The constant vector is the near-nullspace. A greedy
aggregation of the strength-of-connection graph visits nodes in index order,
so the hierarchy, and every result computed with it, is deterministic. It
takes two passes: every node that the first passes over has a neighbour in a
first-pass aggregate, which the second joins. The piecewise-constant
tentative prolongator is smoothed by one damped-Jacobi step of the filtered
stiffness (weak connections lumped into the diagonal), which keeps the coarse
stencils narrow on anisotropic meshes.

The Galerkin coarse mass and stiffness are kept apart on every level, as two
value arrays on one CSR pattern (the union of theirs, with the diagonal), so
c1*M + c2*S on any level is the value array c1*m + c2*s on that pattern and
its diagonal is c1*dm + c2*ds: no shift runs a sparse add. The coarsest
pencil is diagonalised once, S_c V = M_c V diag(lam) with V^T M_c V = I, after
which a coarse solve with any shift is V diag(1/(c1 + c2 lam)) V^T: no solve
factorises anything.

The hierarchy is read-only. A `ShiftedVCycle` is the mutable part: a
workspace that holds every level's matrix, smoother and vectors, shifted in
place, and that each solving call builds once and owns. A cycle writes its
result into a vector the caller passes, and its products write into the
workspace's own vectors through `assembly.csr_matvec_into`, which calls scipy's
internal compiled kernel `scipy.sparse._sparsetools.csr_matvec` (verified on
scipy 1.17.1), the kernel and summation order of `A @ x`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from .assembly import csr_matvec_into, dot

__all__ = ["Hierarchy", "PencilLevel", "ShiftedVCycle", "build_hierarchy"]

# Coarsening stops at this many unknowns, so that OpenBLAS runs the coarse
# eigendecomposition on one thread: a larger one wakes its thread pool, which
# can stall the call (measured in the CHANGES.md entry that added this module).
MAX_COARSE = 24
STRENGTH_THETA = 0.08  # j is a strong neighbour of i if |s_ij| > theta * sqrt(s_ii s_jj)
POWER_ITERS = 15  # power iterations for the spectral radius of diag(A)^-1 A
COMBINE_CHUNK = 8192  # values per pass of a shift's combine, which stay in cache


@dataclass(frozen=True)
class PencilLevel:
    """Mass and stiffness of one level as value arrays on one shared CSR pattern."""

    indptr: np.ndarray
    indices: np.ndarray  # sorted within each row; every diagonal entry is stored
    mass: np.ndarray
    stiffness: np.ndarray
    mass_diagonal: np.ndarray
    stiffness_diagonal: np.ndarray

    @property
    def n(self) -> int:
        return len(self.indptr) - 1


@dataclass(frozen=True)
class Hierarchy:
    levels: list[PencilLevel]  # Galerkin mass and stiffness per level, finest first
    prolong: list[sp.csr_matrix]  # prolong[k] maps level k+1 to level k
    restrict: list[sp.csr_matrix]  # restrict[k] is prolong[k] transposed
    jacobi_weights: list[float]  # per level above the coarsest; valid for every shift
    coarse_vectors: np.ndarray  # M_c-orthonormal eigenvectors of (S_c, M_c)
    coarse_values: np.ndarray  # their eigenvalues, clipped at 0

    @property
    def sizes(self) -> tuple[int, ...]:
        """Unknowns per level, finest first."""
        return tuple(level.n for level in self.levels)


class ShiftedVCycle:
    """Workspace for the symmetric V(1,1)-cycle of A = c1*M + c2*S (c1 > 0, c2 >= 0).

    Pre- and post-smoothing are the same damped-Jacobi step and the coarsest
    solve is exact, so the cycle is a symmetric positive definite operator and
    may precondition conjugate gradients. `build_hierarchy` has checked once
    that the fine mass diagonal is positive and the stiffness diagonal
    non-negative, so a shift checks only c1 > 0 and c2 >= 0, which give A a
    positive diagonal, and raises ValueError otherwise.

    The workspace holds, per level, one CSR matrix on the level's pattern,
    the Jacobi smoother and the cycle's vectors, all allocated here once;
    only `shift` writes them, in place, and `matrix` is the fine A. A cycle
    allocates nothing: it writes its result into the caller's `out`, never
    into a workspace vector, so a result stays the caller's. Each call
    that solves owns its workspace (`fractional_apply` and
    `suggest_lambda_hat` build one per call), so the hierarchy stays
    read-only and may be shared between threads, but one workspace may not.
    Every product goes through `assembly.csr_matvec_into`, which writes into
    a workspace vector by calling `scipy.sparse._sparsetools.csr_matvec`, the
    kernel of scipy's own `A @ x` (verified on scipy 1.17.1), so the cycle
    has the bits of one that allocates its matrices and vectors afresh.
    """

    def __init__(self, h: Hierarchy, c1: float, c2: float):
        self._h = h
        self._ops = [sp.csr_matrix((np.empty(len(lv.indices)), lv.indices, lv.indptr),
                                   shape=(lv.n, lv.n)) for lv in h.levels]
        self._smoothers = [np.empty(lv.n) for lv in h.levels[:len(h.jacobi_weights)]]
        self._residuals = [np.empty(lv.n) for lv in h.levels[:-1]]
        # restricted residual and correction of each coarser level
        self._coarse = [(np.empty(lv.n), np.empty(lv.n)) for lv in h.levels[1:]]
        self._coarse_work = np.empty(len(h.coarse_values))
        self._scratch = np.empty(min(COMBINE_CHUNK, max(len(lv.indices) for lv in h.levels)))
        self.matrix = self._ops[0]
        self.shift(c1, c2)

    def shift(self, c1: float, c2: float) -> None:
        """Refill every level for A = c1*M + c2*S, rounded as c1*m + c2*s on its values.

        It checks only c1 > 0 and c2 >= 0 (see the class docstring); a
        rejected shift leaves the workspace as it was.
        """
        if not (c1 > 0.0 and c2 >= 0.0):
            raise ValueError("matrix has non-positive diagonal, not SPD")
        h, scratch = self._h, self._scratch
        for lv, A in zip(h.levels, self._ops):
            _combine(c1, lv.mass, c2, lv.stiffness, A.data, scratch)
        for lv, w, smoother in zip(h.levels, h.jacobi_weights, self._smoothers):
            _combine(c1, lv.mass_diagonal, c2, lv.stiffness_diagonal, smoother, scratch)
            np.divide(w, smoother, out=smoother)
        self._coarse_scale = 1.0 / (c1 + c2 * h.coarse_values)

    def __call__(self, r: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The cycle applied to r, written into the caller's `out` (not r itself)."""
        return self._cycle(0, r, out)

    def _cycle(self, k: int, r: np.ndarray, x: np.ndarray) -> np.ndarray:
        h = self._h
        if k == len(self._smoothers):
            V, work = h.coarse_vectors, self._coarse_work
            np.multiply(self._coarse_scale, np.einsum("ij,i->j", V, r, out=work), out=work)
            return np.einsum("ij,j->i", V, work, out=x)
        A, d, res = self._ops[k], self._smoothers[k], self._residuals[k]
        coarse_r, coarse_x = self._coarse[k]
        np.multiply(d, r, out=x)
        np.subtract(r, csr_matvec_into(A, x, res), out=res)
        self._cycle(k + 1, csr_matvec_into(h.restrict[k], res, coarse_r), coarse_x)
        x += csr_matvec_into(h.prolong[k], coarse_x, res)
        np.subtract(r, csr_matvec_into(A, x, res), out=res)
        res *= d
        x += res
        return x


def _combine(c1: float, a: np.ndarray, c2: float, b: np.ndarray, out: np.ndarray,
             scratch: np.ndarray) -> np.ndarray:
    """c1*a + c2*b written into `out`, rounded as that expression is.

    It works through the values in chunks of len(scratch), which holds each
    chunk's c2*b, so that the three passes over a chunk run in cache.
    """
    for start in range(0, len(b), len(scratch)):
        stop = min(start + len(scratch), len(b))
        part = np.multiply(a[start:stop], c1, out=out[start:stop])
        part += np.multiply(b[start:stop], c2, out=scratch[:stop - start])
    return out


def build_hierarchy(mass: sp.csr_matrix, stiffness: sp.csr_matrix) -> Hierarchy:
    """Coarsen (mass, stiffness) by smoothed aggregation of the stiffness graph.

    It first checks, once per operator, that the mass diagonal is positive and
    the stiffness diagonal non-negative, and raises ValueError naming the
    first row that is not. The divisions by the fine diagonals that follow,
    and the fine smoother of every shift, rest on this check.
    """
    M, S = sp.csr_matrix(mass), sp.csr_matrix(stiffness)
    levels, prolongs, restricts, weights = [_pencil_level(M, S)], [], [], []
    dm, ds = levels[0].mass_diagonal, levels[0].stiffness_diagonal
    bad = ~(dm > 0.0) | ~(ds >= 0.0)  # also catches NaN
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"row {k} has mass diagonal {dm[k]:.6g} and stiffness diagonal "
                         f"{ds[k]:.6g}; they must be positive and non-negative")
    while M.shape[0] > MAX_COARSE:
        dm, ds = levels[-1].mass_diagonal, levels[-1].stiffness_diagonal
        G = _strength(S, ds, STRENGTH_THETA)
        agg, n_agg = _aggregate(G)
        if n_agg == 0:  # every connection weak: aggregate along the matrix graph
            G = _strength(S, ds, 0.0)
            agg, n_agg = _aggregate(G)
            if n_agg == 0:
                break
        P = _smoothed_prolongator(S, G, _tentative(agg, n_agg))
        # for A = c1 M + c2 S the Rayleigh quotient of diag(A)^-1 A is a mediant
        # of those of M and S, so the larger radius bounds every shift
        rho = max(_spectral_radius(M, 1.0 / dm), _spectral_radius(S, 1.0 / ds))
        weights.append(4.0 / (3.0 * rho))
        R = P.T.tocsr()
        prolongs.append(P)
        restricts.append(R)
        M, S = (R @ M @ P).tocsr(), (R @ S @ P).tocsr()
        levels.append(_pencil_level(M, S))
    lam, V = la.eigh(S.toarray(), M.toarray())
    return Hierarchy(levels, prolongs, restricts, weights, V, np.maximum(lam, 0.0))


def _pencil_level(M: sp.csr_matrix, S: sp.csr_matrix) -> PencilLevel:
    """Align M and S on the union of their patterns and the diagonal.

    An assembled operator stores both on one canonical pattern that holds the
    diagonal, and the level then takes their arrays as they are, with no copy.
    Galerkin products drop exact zeros, so on coarse levels the two patterns
    can differ; the union is found once here, from the row-major keys i*n + j
    of the entries.
    """
    n = M.shape[0]
    if (M.has_canonical_format and np.array_equal(M.indptr, S.indptr)
            and np.array_equal(M.indices, S.indices)):
        at_diag = np.flatnonzero(M.indices == np.repeat(np.arange(n), np.diff(M.indptr)))
        if len(at_diag) == n:
            return PencilLevel(M.indptr, M.indices, M.data, S.data, M.data[at_diag],
                               S.data[at_diag])
    coo = [A.tocoo() for A in (M, S)]
    for A in coo:
        A.sum_duplicates()
    entry_keys = [A.row.astype(np.int64) * n + A.col for A in coo]
    diag = np.arange(n, dtype=np.int64) * (n + 1)
    keys = np.sort(np.concatenate(entry_keys + [diag]))
    keys = keys[np.append(True, keys[1:] != keys[:-1])]  # np.unique hashes, 10x slower here
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    # scipy narrows the index arrays here, once, so that the workspace's matrices copy neither
    pattern = sp.csr_matrix((np.zeros(len(keys)), keys % n, indptr), shape=(n, n))
    m, s = np.zeros(len(keys)), np.zeros(len(keys))
    for values, A, k in zip((m, s), coo, entry_keys):
        values[np.searchsorted(keys, k)] = A.data
    at_diag = np.searchsorted(keys, diag)
    return PencilLevel(pattern.indptr, pattern.indices, m, s, m[at_diag], s[at_diag])


def _strength(S: sp.csr_matrix, diag: np.ndarray, theta: float) -> sp.csr_matrix:
    """Pattern of strong off-diagonal connections: |s_ij| > theta * sqrt(|s_ii s_jj|)."""
    C = S.tocoo()
    scale = np.sqrt(np.abs(diag))
    keep = (C.row != C.col) & (np.abs(C.data) > theta * scale[C.row] * scale[C.col])
    G = sp.csr_matrix((np.ones(int(keep.sum())), (C.row[keep], C.col[keep])), shape=S.shape)
    G.sort_indices()
    return G


def _aggregate(G: sp.csr_matrix) -> tuple[np.ndarray, int]:
    """Greedy aggregation of the strength graph, visiting nodes in index order.

    Pass 1 makes an aggregate of every node whose strong neighbourhood is still
    free; pass 2 attaches each remaining node to the pass-1 aggregate of its
    first strong neighbour that has one. That leaves no node with strong
    neighbours unassigned: pass 1 passes over such a node only for a neighbour
    that already holds a pass-1 aggregate. Nodes without strong neighbours are
    left out (-1): damped Jacobi alone reduces their error, and the coarse
    level does not see them.
    """
    indptr, indices = G.indptr.tolist(), G.indices.tolist()
    agg = [-1] * (len(indptr) - 1)
    linked = np.flatnonzero(np.diff(G.indptr)).tolist()  # the nodes with strong neighbours
    count = 0
    for i in linked:
        if agg[i] >= 0:
            continue
        nbrs = indices[indptr[i]:indptr[i + 1]]
        for j in nbrs:
            if agg[j] >= 0:
                break
        else:
            agg[i] = count
            for j in nbrs:
                agg[j] = count
            count += 1
    first = agg[:]
    for i in linked:
        if agg[i] < 0:
            for j in indices[indptr[i]:indptr[i + 1]]:
                if first[j] >= 0:
                    agg[i] = first[j]
                    break
    return np.array(agg, dtype=np.int64), count


def _tentative(agg: np.ndarray, n_agg: int) -> sp.csr_matrix:
    """Piecewise-constant prolongator with orthonormal columns; zero rows where agg < 0."""
    rows = np.nonzero(agg >= 0)[0]
    cols = agg[rows]
    size = np.bincount(cols, minlength=n_agg)
    return sp.csr_matrix((1.0 / np.sqrt(size[cols]), (rows, cols)), shape=(len(agg), n_agg))


def _smoothed_prolongator(S: sp.csr_matrix, G: sp.csr_matrix, T: sp.csr_matrix) -> sp.csr_matrix:
    """(I - omega D_F^-1 F) T, F the stiffness filtered to G with its row sums kept.

    Lumping the weak connections into the diagonal keeps the row sums, so a
    constant that T reproduces stays reproduced where S annihilates it.
    Rows whose filtered diagonal is not positive are not smoothed.
    """
    F = S.multiply(G).tocsr()
    diag = np.asarray(S.sum(axis=1)).ravel() - np.asarray(F.sum(axis=1)).ravel()
    F = (F + sp.diags(diag)).tocsr()
    dinv = np.divide(1.0, diag, out=np.zeros_like(diag), where=diag > 0.0)
    omega = 4.0 / (3.0 * _spectral_radius(F, dinv))
    return (T - omega * (sp.diags(dinv) @ (F @ T))).tocsr()


def _spectral_radius(A: sp.csr_matrix, dinv: np.ndarray) -> float:
    """Power-iteration estimate of the spectral radius of diag(dinv) @ A."""
    x = np.sin(np.arange(1, A.shape[0] + 1, dtype=float))
    lam = 0.0
    for _ in range(POWER_ITERS):
        y = dinv * (A @ x)
        norm_y = math.sqrt(dot(y, y))
        lam = norm_y / math.sqrt(dot(x, x))
        x = y / norm_y
    return lam
