"""Smoothed-aggregation multigrid shared by every shifted pencil c1*M + c2*S.

One hierarchy is built from the stiffness matrix by the method of Vanek,
Mandel and Brezina (1996). The constant vector is the near-nullspace. A greedy
aggregation of the strength-of-connection graph visits nodes in index order,
so the hierarchy, and every result computed with it, is deterministic. The
piecewise-constant tentative prolongator is smoothed by one damped-Jacobi step
of the filtered stiffness (weak connections lumped into the diagonal), which
keeps the coarse stencils narrow on anisotropic meshes.

The Galerkin coarse mass and stiffness are kept apart on every level, so the
coarse operators of any shift cost one sparse add per level. The coarsest
pencil is diagonalised once, S_c V = M_c V diag(lam) with V^T M_c V = I, after
which a coarse solve with any shift is V diag(1/(c1 + c2 lam)) V^T: no solve
factorises anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from .assembly import dot

__all__ = ["Hierarchy", "ShiftedVCycle", "build_hierarchy"]

# Coarsening stops at this many unknowns. OpenBLAS runs the coarse
# eigendecomposition on one thread below about 32 unknowns; above that it wakes
# its thread pool, which on a loaded host can stall the call for 0.1 to 0.6 s.
MAX_COARSE = 24
STRENGTH_THETA = 0.08  # j is a strong neighbour of i if |s_ij| > theta * sqrt(s_ii s_jj)
POWER_ITERS = 15  # power iterations for the spectral radius of diag(A)^-1 A


@dataclass(frozen=True)
class Hierarchy:
    mass: list[sp.csr_matrix]  # Galerkin mass per level, finest first
    stiffness: list[sp.csr_matrix]  # Galerkin stiffness per level
    prolong: list[sp.csr_matrix]  # prolong[k] maps level k+1 to level k
    restrict: list[sp.csr_matrix]  # restrict[k] is prolong[k] transposed
    jacobi_weights: list[float]  # per level above the coarsest; valid for every shift
    coarse_vectors: np.ndarray  # M_c-orthonormal eigenvectors of (S_c, M_c)
    coarse_values: np.ndarray  # their eigenvalues, clipped at 0

    @property
    def sizes(self) -> tuple[int, ...]:
        """Unknowns per level, finest first."""
        return tuple(M.shape[0] for M in self.mass)


class ShiftedVCycle:
    """Symmetric V(1,1)-cycle for A = c1*M + c2*S (c1 > 0, c2 >= 0); `matrix` is the fine A.

    Pre- and post-smoothing are the same damped-Jacobi step and the coarsest
    solve is exact, so the cycle is a symmetric positive definite operator and
    may precondition conjugate gradients.
    """

    def __init__(self, h: Hierarchy, c1: float, c2: float):
        self._h = h
        self._ops = [c1 * M + c2 * S for M, S in zip(h.mass, h.stiffness)]
        self._smoothers = [w / A.diagonal() for w, A in zip(h.jacobi_weights, self._ops)]
        self._coarse_scale = 1.0 / (c1 + c2 * h.coarse_values)
        self.matrix = self._ops[0]

    def __call__(self, r: np.ndarray) -> np.ndarray:
        return self._cycle(0, r)

    def _cycle(self, k: int, r: np.ndarray) -> np.ndarray:
        if k == len(self._smoothers):
            V = self._h.coarse_vectors
            return np.einsum("ij,j->i", V, self._coarse_scale * np.einsum("ij,i->j", V, r))
        A, d, h = self._ops[k], self._smoothers[k], self._h
        x = d * r
        x += h.prolong[k] @ self._cycle(k + 1, h.restrict[k] @ (r - A @ x))
        x += d * (r - A @ x)
        return x


def build_hierarchy(mass: sp.csr_matrix, stiffness: sp.csr_matrix) -> Hierarchy:
    """Coarsen (mass, stiffness) by smoothed aggregation of the stiffness graph."""
    M, S = sp.csr_matrix(mass), sp.csr_matrix(stiffness)
    masses, stiffnesses, prolongs, restricts, weights = [M], [S], [], [], []
    while M.shape[0] > MAX_COARSE:
        dm, ds = M.diagonal(), S.diagonal()
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
        masses.append(M)
        stiffnesses.append(S)
    lam, V = la.eigh(S.toarray(), M.toarray())
    return Hierarchy(masses, stiffnesses, prolongs, restricts, weights, V, np.maximum(lam, 0.0))


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
    first strong neighbour that has one; pass 3 groups what is left with its
    free neighbours. Nodes without strong neighbours are left out (-1): damped
    Jacobi alone reduces their error, and the coarse level does not see them.
    """
    indptr, indices = G.indptr.tolist(), G.indices.tolist()
    n = len(indptr) - 1
    agg = [-1] * n
    count = 0
    for i in range(n):
        nbrs = indices[indptr[i]:indptr[i + 1]]
        if nbrs and agg[i] < 0 and all(agg[j] < 0 for j in nbrs):
            agg[i] = count
            for j in nbrs:
                agg[j] = count
            count += 1
    first = agg[:]
    for i in range(n):
        if agg[i] < 0:
            for j in indices[indptr[i]:indptr[i + 1]]:
                if first[j] >= 0:
                    agg[i] = first[j]
                    break
    for i in range(n):
        nbrs = indices[indptr[i]:indptr[i + 1]]
        if nbrs and agg[i] < 0:
            agg[i] = count
            for j in nbrs:
                if agg[j] < 0:
                    agg[j] = count
            count += 1
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
