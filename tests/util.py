"""Shared test helpers: fixture writers for Gmsh files, small meshes and pencils,
and the product form of the rational factor, the independent check of the
partial-fraction form that the library evaluates."""

import numpy as np
import scipy.sparse as sp

from fracsurf.assembly import AssembledOperator


def write_msh22(path, vertices, triangles):
    """Minimal ASCII Gmsh 2.2 writer for test fixtures."""
    with open(path, "w") as fh:
        fh.write("$MeshFormat\n2.2 0 8\n$EndMeshFormat\n")
        fh.write(f"$Nodes\n{len(vertices)}\n")
        for k, v in enumerate(vertices, start=1):
            fh.write(f"{k} {float(v[0])!r} {float(v[1])!r} {float(v[2])!r}\n")
        fh.write("$EndNodes\n")
        fh.write(f"$Elements\n{len(triangles)}\n")
        for k, t in enumerate(triangles, start=1):
            fh.write(f"{k} 2 2 0 1 {t[0] + 1} {t[1] + 1} {t[2] + 1}\n")
        fh.write("$EndElements\n")


def write_msh41(path, vertices, triangles):
    """Minimal ASCII Gmsh 4.1 writer (single entity block each)."""
    with open(path, "w") as fh:
        fh.write("$MeshFormat\n4.1 0 8\n$EndMeshFormat\n")
        fh.write(f"$Nodes\n1 {len(vertices)} 1 {len(vertices)}\n")
        fh.write(f"2 1 0 {len(vertices)}\n")
        for k in range(1, len(vertices) + 1):
            fh.write(f"{k}\n")
        for v in vertices:
            fh.write(f"{float(v[0])!r} {float(v[1])!r} {float(v[2])!r}\n")
        fh.write("$EndNodes\n")
        fh.write(f"$Elements\n1 {len(triangles)} 1 {len(triangles)}\n")
        fh.write(f"2 1 2 {len(triangles)}\n")
        for k, t in enumerate(triangles, start=1):
            fh.write(f"{k} {t[0] + 1} {t[1] + 1} {t[2] + 1}\n")
        fh.write("$EndElements\n")


def two_triangle_patch():
    """Unit square split along its diagonal: 4 vertices, 2 triangles, all on the boundary."""
    vertices = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], dtype=float)
    triangles = np.array([[0, 1, 2], [0, 2, 3]])
    return vertices, triangles


def fibonacci_sphere_mesh(n_points):
    """Closed triangulated sphere with exactly n_points vertices (convex hull)."""
    from scipy.spatial import ConvexHull

    k = np.arange(n_points, dtype=float)
    golden = (1.0 + np.sqrt(5.0)) / 2.0
    z = 1.0 - (2.0 * k + 1.0) / n_points
    theta = 2.0 * np.pi * k / golden
    rho = np.sqrt(1.0 - z * z)
    pts = np.column_stack([rho * np.cos(theta), rho * np.sin(theta), z])
    hull = ConvexHull(pts)
    tris = hull.simplices.copy()
    # orient every face outward (positive volume with the centroid)
    p0, p1, p2 = pts[tris[:, 0]], pts[tris[:, 1]], pts[tris[:, 2]]
    centers = (p0 + p1 + p2) / 3.0
    flip = np.einsum("ij,ij->i", np.cross(p1 - p0, p2 - p0), centers) < 0
    tris[flip] = tris[flip][:, [0, 2, 1]]
    return pts, tris


def diagonal_op(m_diag, s_diag, mode="positive-reaction"):
    """Operator of the diagonal pencil (diag(s_diag), diag(m_diag)) with both certificates.

    The ceiling is the exact largest eigenvalue max(s_ii / m_ii), and the mass
    floor is 1, since a diagonal mass equals its own diagonal.
    """
    m_diag = np.asarray(m_diag, dtype=float)
    s_diag = np.asarray(s_diag, dtype=float)
    n = len(m_diag)
    return AssembledOperator(
        mass=sp.csr_matrix(np.diag(m_diag)),
        stiffness=sp.csr_matrix(np.diag(s_diag)),
        mode=mode,
        free_dofs=np.arange(n),
        vertex_count=n,
        lambda_max_ceiling=float(np.max(s_diag / m_diag)),
        mass_diagonal_floor=1.0,
    )


def eval_rm(p, t):
    """Product-form evaluation of r; value in (0,1], strictly decreasing in t."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("t must be non-negative")
    out = np.ones_like(t)
    for i in range(p.m):
        out *= (1.0 + p.num_roots[i] * t) / (1.0 + p.den_roots[i] * t)
    return out if out.ndim else float(out)
