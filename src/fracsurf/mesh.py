"""Triangulated 2-d surfaces embedded in R^3: generators, a Gmsh reader, validation.

A mesh is valid when every vertex belongs to a triangle, every triangle is
non-degenerate, every edge is shared by at most two triangles (exactly one
marks a boundary edge), and the two triangles of an interior edge traverse it
in opposite directions (consistent orientation). Boundary vertices are always
detected from edge incidence, never taken from file tags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "SurfaceMesh",
    "mesh_validate",
    "gen_sphere",
    "gen_torus",
    "gen_graded_square",
    "gen_unit_square",
    "read_gmsh",
    "write_off",
]

MODE_DIRICHLET = "dirichlet"
MODE_REACTION = "positive-reaction"
MODE_ZERO_MEAN = "zero-mean"
MODES = (MODE_DIRICHLET, MODE_REACTION, MODE_ZERO_MEAN)
# the most vertices a generated torus or square may have: the sphere's at its top level, 7
MAX_GENERATED_VERTICES = 10 * 4**7 + 2
# a triangle is degenerate when its area is at most this fraction of the squared diameter
DEGENERATE_AREA = 1e-14


@dataclass(frozen=True)
class SurfaceMesh:
    """Vertex coordinates (n,3), triangle index triples (t,3), boundary mask, mode hint."""

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_vertices: np.ndarray  # bool mask, length n
    mode_hint: str

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    @cached_property
    def double_areas(self) -> np.ndarray:
        """Twice the area of each triangle (read-only), computed once per mesh.

        A validated mesh (read, or generated other than a sphere) holds the
        values its validation computed; a sphere, and a mesh built directly,
        compute them on first use, or from the sides that `assemble` forms
        (`_double_areas_from_sides`). They are not fields, so
        `dataclasses.replace` does not carry them over.
        """
        return _double_areas_from_sides(self, *_triangle_sides(self.vertices, self.triangles))

    def triangle_areas(self) -> np.ndarray:
        return 0.5 * self.double_areas


def _triangle_sides(vertices: np.ndarray, triangles: np.ndarray):
    """(u, v) of each triangle (p0, p1, p2): u = p1 - p0 and v = p2 - p0, as (3, t) arrays."""
    vt = np.ascontiguousarray(vertices.T)
    p0, p1, p2 = (np.take(vt, triangles[:, k], axis=1) for k in range(3))
    return p1 - p0, p2 - p0


def _double_areas(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The length of u x v per triangle, its squared components summed in order."""
    c0 = u[1] * v[2] - u[2] * v[1]
    c1 = u[2] * v[0] - u[0] * v[2]
    c2 = u[0] * v[1] - u[1] * v[0]
    return np.sqrt(c0 * c0 + c1 * c1 + c2 * c2)


def _double_areas_from_sides(mesh: SurfaceMesh, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """`mesh.double_areas`, formed from the sides (u, v) of its triangles if none are cached.

    (u, v) are `_triangle_sides` of the mesh; the values formed are cached
    read-only, so the sides of a mesh are formed once when its caller holds them.
    """
    if "double_areas" not in mesh.__dict__:
        double_areas = _double_areas(u, v)
        double_areas.setflags(write=False)
        mesh.__dict__["double_areas"] = double_areas
    return mesh.__dict__["double_areas"]


def _edge_keys(i: np.ndarray, j: np.ndarray, n: int) -> np.ndarray:
    # encode a vertex pair as one integer so uniqueness scans stay fast on
    # million-edge meshes
    return i.astype(np.int64) * n + j


def _edge_incidence(n: int, tris: np.ndarray):
    """The sorted keys i*n + j (i < j) of the undirected edges, from one sort.

    Also returns, per edge, how many triangles hold it and how many traverse it i -> j.
    """
    i, j = tris.ravel(), tris[:, [1, 2, 0]].ravel()  # each triangle's edges 01, 12, 20
    keys, inverse, counts = np.unique(
        _edge_keys(np.minimum(i, j), np.maximum(i, j), n), return_inverse=True, return_counts=True
    )
    forward = np.bincount(inverse[i < j], minlength=len(keys))
    return keys, counts, forward


def _checked_boundary(vertices, triangles, mode_hint) -> tuple[np.ndarray, np.ndarray]:
    """Check every mesh invariant but the mask.

    Returns the mask edge incidence gives, and twice each triangle's area.
    """
    n = len(vertices)
    if vertices.ndim != 2 or vertices.shape[1] != 3:
        raise ValueError("vertices must be an (n, 3) array")
    if triangles.ndim != 2 or triangles.shape[1] != 3:
        raise ValueError("triangles must be a (t, 3) index array")
    if triangles.min(initial=0) < 0 or triangles.max(initial=-1) >= n:
        raise ValueError("triangle indices out of range")
    unused = np.flatnonzero(np.bincount(triangles.ravel(), minlength=n) == 0)
    if unused.size:
        raise ValueError(f"vertex {unused[0]} belongs to no triangle")
    if mode_hint not in MODES:
        raise ValueError(f"unknown mode hint {mode_hint!r}")

    diam = float(np.linalg.norm(vertices.max(axis=0) - vertices.min(axis=0)))
    double_areas = _double_areas(*_triangle_sides(vertices, triangles))
    areas = 0.5 * double_areas
    bad = np.nonzero(areas <= DEGENERATE_AREA * diam * diam)[0]
    if bad.size:
        raise ValueError(f"degenerate triangle at index {bad[0]} (area {areas[bad[0]]:.3e})")

    keys, counts, forward = _edge_incidence(n, triangles)
    if np.any(counts > 2):
        key = int(keys[np.argmax(counts > 2)])
        raise ValueError(f"edge ({key // n}, {key % n}) shared by more than two triangles")
    # the two triangles of an interior edge i < j traverse it once each way; if
    # both go i -> j (or both j -> i) that directed edge repeats
    bad = (counts == 2) & (forward != 1)
    if bad.any():
        i, j = np.divmod(keys[bad], n)
        key = int(np.where(forward[bad] == 2, keys[bad], j * n + i).min())
        raise ValueError(
            f"inconsistent orientation: directed edge ({key // n}, {key % n}) repeated"
        )

    single = keys[counts == 1]
    boundary = np.zeros(n, dtype=bool)
    boundary[single // n] = True
    boundary[single % n] = True
    return boundary, double_areas


def mesh_validate(mesh: SurfaceMesh) -> None:
    """Check all mesh invariants, the boundary mask included. Raises ValueError on violation."""
    boundary, _ = _checked_boundary(mesh.vertices, mesh.triangles, mesh.mode_hint)
    if not np.array_equal(boundary, mesh.boundary_vertices):
        raise ValueError("boundary_vertices mask does not match edge incidence")


def _read_only(vertices, triangles, boundary, mode_hint) -> SurfaceMesh:
    """The mesh of these arrays, each made read-only."""
    for arr in (vertices, triangles, boundary):
        arr.setflags(write=False)
    return SurfaceMesh(vertices, triangles, boundary, mode_hint)


def _finalize(vertices, triangles, closed_mode=MODE_ZERO_MEAN) -> SurfaceMesh:
    """The validated, read-only mesh; its mode hint is dirichlet if it has a boundary."""
    vertices = np.ascontiguousarray(vertices, dtype=float)
    triangles = np.ascontiguousarray(triangles, dtype=np.int64)
    boundary, double_areas = _checked_boundary(vertices, triangles, closed_mode)
    double_areas.setflags(write=False)
    mesh = _read_only(vertices, triangles, boundary,
                      MODE_DIRICHLET if boundary.any() else closed_mode)
    mesh.__dict__["double_areas"] = double_areas  # validation's values, kept
    return mesh


# icosahedron with consistently outward-oriented faces
_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
_ICO_VERTS = np.array(
    [
        [-1, _GOLDEN, 0], [1, _GOLDEN, 0], [-1, -_GOLDEN, 0], [1, -_GOLDEN, 0],
        [0, -1, _GOLDEN], [0, 1, _GOLDEN], [0, -1, -_GOLDEN], [0, 1, -_GOLDEN],
        [_GOLDEN, 0, -1], [_GOLDEN, 0, 1], [-_GOLDEN, 0, -1], [-_GOLDEN, 0, 1],
    ],
    dtype=float,
)
_ICO_FACES = np.array(
    [
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [5, 4, 9], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ]
)


def gen_sphere(refinement_level: int) -> SurfaceMesh:
    """Unit sphere: icosahedron subdivided `refinement_level` times, vertices projected.

    The mesh is valid by construction, a closed, consistently oriented surface
    (the tests run `mesh_validate` on every level), so it is not validated
    again: its boundary mask is all False, its mode hint zero-mean, and its
    double areas are computed on first use.
    """
    if not 0 <= refinement_level <= 7:
        raise ValueError("refinement level must be in [0, 7]")
    verts = _ICO_VERTS / np.linalg.norm(_ICO_VERTS, axis=1)[:, None]
    faces = _ICO_FACES.copy()  # made read-only with the mesh
    for _ in range(refinement_level):
        n = len(verts)
        # the edges ab, bc, ca of each face in turn; a new vertex is numbered by
        # the first face edge that reaches it
        edges = np.sort(faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
        _, first, inverse = np.unique(
            _edge_keys(edges[:, 0], edges[:, 1], n), return_index=True, return_inverse=True
        )
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        ends = edges[first[order]]
        p = verts[ends[:, 0]] + verts[ends[:, 1]]
        # np.linalg.norm of one vector is sqrt(v.dot(v)); the stacked 1x3 @ 3x1
        # product takes the same dot per vertex and rounds alike, while
        # norm(p, axis=1) differs in the last bit on about a tenth of them
        norms = np.sqrt((p[:, None, :] @ p[:, :, None]).ravel())
        verts = np.concatenate([verts, p / norms[:, None]])
        ab, bc, ca = (n + rank[inverse]).reshape(-1, 3).T
        a, b, c = faces.T
        faces = np.stack([a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca], axis=1).reshape(-1, 3)
    return _read_only(verts, faces, np.zeros(len(verts), dtype=bool), MODE_ZERO_MEAN)


def _check_vertex_count(name: str, count: int) -> None:
    """Reject a generated mesh of more than MAX_GENERATED_VERTICES, before it is built."""
    if count > MAX_GENERATED_VERTICES:
        raise ValueError(f"{name} = {count} vertices exceeds the "
                         f"{MAX_GENERATED_VERTICES} of the finest generated sphere")


def gen_torus(R: float, r: float, n1: int, n2: int) -> SurfaceMesh:
    """Structured torus: n1 x n2 grid in the (phi1, phi2) angles, quads split into triangles.

    The n1*n2 vertices are counted before anything is allocated, and more
    than MAX_GENERATED_VERTICES raise ValueError.
    """
    if not 0.0 < r < R:
        raise ValueError(f"need 0 < r < R, got r={r}, R={R}")
    if n1 < 3 or n2 < 3:
        raise ValueError("need at least 3 subdivisions in each angle")
    _check_vertex_count(f"torus of {n1}x{n2}", n1 * n2)
    phi1 = 2.0 * np.pi * np.arange(n1) / n1
    phi2 = 2.0 * np.pi * np.arange(n2) / n2
    P1, P2 = np.meshgrid(phi1, phi2, indexing="ij")
    ring = R + r * np.cos(P1)
    verts = np.column_stack(
        [(ring * np.cos(P2)).ravel(), (ring * np.sin(P2)).ravel(), (r * np.sin(P1)).ravel()]
    )
    i = np.repeat(np.arange(n1), n2)
    j = np.tile(np.arange(n2), n1)
    v00 = i * n2 + j
    v10 = ((i + 1) % n1) * n2 + j
    v11 = ((i + 1) % n1) * n2 + (j + 1) % n2
    v01 = i * n2 + (j + 1) % n2
    tris = np.concatenate(
        [np.column_stack([v00, v10, v11]), np.column_stack([v00, v11, v01])]
    )
    return _finalize(verts, tris, MODE_REACTION)


def _graded_axis(N0: int, p: int) -> np.ndarray:
    # uniform subdivision of [-1,1] into 2*N0 intervals, then p extra nodes in the
    # first/last interval and the two around 0, clustered at -1+, 0-, 0+, 1- with
    # offsets h*2^-n measured from the clustered endpoint
    N1 = 2 * N0
    h = 2.0 / N1
    base = -1.0 + h * np.arange(N1 + 1)
    offs = h * 0.5 ** np.arange(1, p + 1)
    extra = np.concatenate([-1.0 + offs, -offs, offs, 1.0 - offs]) if p else np.empty(0)
    return np.unique(np.concatenate([base, extra]))


def gen_graded_square(N0: int, p: int) -> SurfaceMesh:
    """Tensor mesh of [-1,1]^2 graded toward the boundary and both axes.

    Per direction 2*N0 uniform intervals plus p exponentially clustered nodes
    in each of the four marked intervals, so the spacing ratio is exactly 2^p.
    Every cell is split along the same diagonal, keeping the triangulation
    deterministic. The (2*N0 + 1 + 4*p)^2 vertices, an upper bound since
    clustered nodes can merge, are counted first, and more than
    MAX_GENERATED_VERTICES raise ValueError before the axis is built. A p
    whose thinnest triangle, half a d x d cell with d the smallest axis
    spacing, fails validation's area test is then rejected from the axis
    alone, before the tensor product is built (from p = 20 at N0 = 4, also
    where clustered nodes coincide in double precision and merge).
    """
    if N0 < 2:
        raise ValueError("N0 must be at least 2")
    if p < 0:
        raise ValueError("p must be non-negative")
    k = 2 * N0 + 1 + 4 * p
    _check_vertex_count(f"graded square of {k}x{k}", k * k)
    axis = _graded_axis(N0, p)
    d_min = float(np.diff(axis).min())
    diam = float(np.linalg.norm((axis[-1] - axis[0], axis[-1] - axis[0], 0.0)))
    if 0.5 * d_min * d_min <= DEGENERATE_AREA * diam * diam:
        raise ValueError(f"degenerate triangle for p={p}: the thinnest cell is {d_min:.3e} wide")
    return _tensor_square(axis)


def gen_unit_square(n: int) -> SurfaceMesh:
    """Uniform n x n cell mesh of [0,1]^2 (flat, Dirichlet mode).

    More than MAX_GENERATED_VERTICES vertices, (n+1)^2, raise ValueError
    before anything is allocated.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    _check_vertex_count(f"unit square of {n + 1}x{n + 1}", (n + 1) * (n + 1))
    return _tensor_square(np.linspace(0.0, 1.0, n + 1))


def _tensor_square(axis: np.ndarray) -> SurfaceMesh:
    k = len(axis)
    X, Y = np.meshgrid(axis, axis, indexing="ij")
    verts = np.column_stack([X.ravel(), Y.ravel(), np.zeros(k * k)])
    i = np.repeat(np.arange(k - 1), k - 1)
    j = np.tile(np.arange(k - 1), k - 1)
    v00 = i * k + j
    v10 = (i + 1) * k + j
    v11 = (i + 1) * k + j + 1
    v01 = i * k + j + 1
    tris = np.concatenate(
        [np.column_stack([v00, v10, v11]), np.column_stack([v00, v11, v01])]
    )
    return _finalize(verts, tris)


# sections the reader uses; others (such as $NodeData, which may repeat) are skipped
_READ_SECTIONS = ("MeshFormat", "Nodes", "Elements")


def read_gmsh(path) -> SurfaceMesh:
    """Read an ASCII Gmsh .msh file (format 2.2 or 4.1) holding 3-node triangles.

    Point and line elements (boundary markers) are skipped; boundary vertices
    are recomputed from edge incidence. Any other element type is an error.
    Every malformed file raises ValueError naming the line it stopped at.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        lines = raw.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"line {line}: not a text file") from None
    del raw
    sections: dict[str, tuple[int, int]] = {}
    # the `in` test is the cheap filter; only lines holding a "$" are stripped
    marks = [(i, ln.strip()) for i, ln in enumerate(lines)
             if "$" in ln and ln.lstrip().startswith("$")]
    k = 0
    while k < len(marks):
        i, token = marks[k]
        k += 1
        if token.startswith("$End"):
            continue
        name = token[1:]
        if name in sections and name in _READ_SECTIONS:
            raise ValueError(f"line {i + 1}: second {token} section")
        while k < len(marks) and marks[k][1] != f"$End{name}":
            k += 1
        if k == len(marks):
            raise ValueError(f"line {i + 1}: section {token} never closed")
        sections[name] = (i + 1, marks[k][0])
        k += 1
    if "MeshFormat" not in sections:
        raise ValueError("line 1: not a Gmsh file: no $MeshFormat section")
    fmt_line, fmt_end = sections["MeshFormat"]
    fmt = lines[fmt_line].split() if fmt_line < fmt_end else []
    if len(fmt) != 3:
        raise ValueError(f"line {fmt_line + 1}: expected 'version file-type data-size'")
    version, file_type, _ = fmt
    if file_type != "0":
        raise ValueError(f"line {fmt_line + 1}: binary .msh not supported")
    if version.startswith("2."):
        read_nodes, read_elements = _read_nodes_v2, _read_elements_v2
    elif version.startswith("4.1"):
        read_nodes, read_elements = _read_nodes_v41, _read_elements_v41
    else:
        raise ValueError(f"line {fmt_line + 1}: unsupported .msh version {version}")
    verts, tag_map = read_nodes(lines, *_section(lines, sections, "Nodes"))
    el_start, el_end = _section(lines, sections, "Elements")
    tris = read_elements(lines, el_start, el_end, tag_map)
    if len(tris) == 0:
        raise ValueError(f"line {el_start}: no triangle elements in $Elements")
    try:
        return _finalize(verts, tris)
    except ValueError as exc:
        raise ValueError(f"lines {el_start + 1}-{el_end} ($Elements): {exc}") from None


def _section(lines, sections, name) -> tuple[int, int]:
    """(first content line, $End line) of a section, both 0-based."""
    if name not in sections:
        raise ValueError(f"line {len(lines)}: end of file without a ${name} section")
    return sections[name]


def _count(value, ln) -> int:
    """A count read from line ln (0-based), which must not be negative."""
    if value < 0:
        raise ValueError(f"line {ln + 1}: negative count {value}")
    return int(value)


def _line(lines, ln, end, width, dtype, prefix=False) -> np.ndarray:
    """The `width` numbers on line ln (0-based); with prefix, the first `width` of more."""
    if ln >= end:
        raise ValueError(f"line {end + 1}: section ends before its declared content")
    parts = lines[ln].split()
    if len(parts) < width or (len(parts) > width and not prefix):
        raise ValueError(f"line {ln + 1}: expected {width} fields, found {len(parts)}")
    try:
        return np.array(parts[:width], dtype=dtype)
    except (ValueError, OverflowError):
        raise ValueError(f"line {ln + 1}: malformed number in {lines[ln].strip()!r}") from None


def _table(lines, ln, count, end, width, dtype) -> np.ndarray:
    """`count` lines from ln (0-based), each of `width` numbers, as a (count, width) array.

    Integers, or finite floats. np.loadtxt parses the block; only a block it
    rejects is read again line by line, to name the line at fault.
    """
    count = _count(count, ln - 1)
    if ln + count > end:
        raise ValueError(f"line {end + 1}: section ends before its declared content")
    table = None
    if count:
        try:
            table = np.loadtxt(lines[ln:ln + count], dtype=dtype, comments=None, ndmin=2)
        except ValueError:
            pass
    if table is None or table.shape != (count, width):
        rows = [_line(lines, k, end, width, dtype) for k in range(ln, ln + count)]
        table = np.array(rows, dtype=dtype).reshape(count, width)
    if dtype is float and not np.isfinite(table).all():
        k = int(np.nonzero(~np.isfinite(table).all(axis=1))[0][0])
        raise ValueError(f"line {ln + k + 1}: non-finite coordinate")
    return table


def _check_end(lines, ln, end) -> None:
    for k in range(ln, end):
        if lines[k].strip():
            raise ValueError(f"line {k + 1}: content after the declared entries")


def _tag_map(tags: np.ndarray, tag_lines) -> tuple[np.ndarray, np.ndarray]:
    """The sorted node tags and their stable argsort (the vertex index of each).

    tag_lines[k] is the 0-based line of the k-th tag; a repeat is named at its earliest line.
    """
    order = np.argsort(tags, kind="stable")
    sorted_tags = tags[order]
    repeat = sorted_tags[1:] == sorted_tags[:-1]
    if repeat.any():
        k = int(order[1:][repeat].min())
        raise ValueError(f"line {tag_lines[k] + 1}: node tag {tags[k]} repeated")
    return sorted_tags, order


def _connectivity(conn: np.ndarray, tag_map, conn_lines) -> np.ndarray:
    """Vertex indices of (k, 3) node tags; conn_lines[k] is the 0-based line of row k."""
    sorted_tags, order = tag_map
    pos = np.searchsorted(sorted_tags, conn)
    known = pos < len(sorted_tags)
    known[known] = sorted_tags[pos[known]] == conn[known]
    if not known.all():
        k, j = (int(a[0]) for a in np.nonzero(~known))
        raise ValueError(f"line {conn_lines[k] + 1}: element references unknown node {conn[k, j]}")
    return order[pos]


# nodes per element of the types a surface file may hold
_ELEMENT_NODES = {15: 1, 1: 2, 8: 3, 2: 3}


def _element_nodes(etype, ln) -> int:
    if etype not in _ELEMENT_NODES:
        raise ValueError(f"line {ln + 1}: unsupported element type {etype} (need 3-node triangles)")
    return _ELEMENT_NODES[etype]


def _read_nodes_v2(lines, start, end):
    (count,) = _line(lines, start, end, 1, np.int64)
    table = _table(lines, start + 1, count, end, 4, float)
    _check_end(lines, start + 1 + count, end)
    tags = table[:, 0]
    if (tags != np.trunc(tags)).any():
        k = int(np.nonzero(tags != np.trunc(tags))[0][0])
        raise ValueError(f"line {start + k + 2}: node tag {float(tags[k])!r} is not an integer")
    return table[:, 1:], _tag_map(tags.astype(np.int64), range(start + 1, start + 1 + count))


def _read_elements_v2(lines, start, end, tag_map):
    (count,) = _line(lines, start, end, 1, np.int64)
    count = _count(count, start)
    conn, conn_lines = [], []
    for ln in range(start + 1, start + 1 + count):
        _, etype, ntags = _line(lines, ln, end, 3, np.int64, prefix=True)
        width = 3 + _count(ntags, ln) + _element_nodes(int(etype), ln)
        row = _line(lines, ln, end, width, np.int64)
        if etype == 2:
            conn.append(row[-3:])
            conn_lines.append(ln)
    _check_end(lines, start + 1 + count, end)
    conn = np.array(conn, dtype=np.int64).reshape(-1, 3)
    return _connectivity(conn, tag_map, conn_lines)


def _read_nodes_v41(lines, start, end):
    n_blocks, n_nodes, _, _ = _line(lines, start, end, 4, np.int64)
    tags, verts, tag_lines = [], [], []
    ln = start + 1
    for _ in range(_count(n_blocks, start)):
        dim, _, parametric, in_block = _line(lines, ln, end, 4, np.int64)
        ln += 1
        tags.append(_table(lines, ln, in_block, end, 1, np.int64).ravel())
        tag_lines.append(np.arange(ln, ln + in_block))
        ln += in_block
        width = 3 + (int(dim) if parametric else 0)
        verts.append(_table(lines, ln, in_block, end, width, float)[:, :3])
        ln += in_block
    _check_end(lines, ln, end)
    tags = np.concatenate(tags) if tags else np.zeros(0, dtype=np.int64)
    if len(tags) != n_nodes:
        raise ValueError(f"line {start + 1}: declared {n_nodes} nodes, found {len(tags)}")
    tag_lines = np.concatenate(tag_lines) if tag_lines else tags
    verts = np.concatenate(verts) if verts else np.zeros((0, 3))
    return verts, _tag_map(tags, tag_lines)


def _read_elements_v41(lines, start, end, tag_map):
    n_blocks, n_elements, _, _ = _line(lines, start, end, 4, np.int64)
    tris = []
    found = 0
    ln = start + 1
    for _ in range(_count(n_blocks, start)):
        _, _, etype, in_block = _line(lines, ln, end, 4, np.int64)
        width = 1 + _element_nodes(int(etype), ln)
        ln += 1
        rows = _table(lines, ln, in_block, end, width, np.int64)
        if etype == 2:
            tris.append(_connectivity(rows[:, 1:], tag_map, range(ln, ln + in_block)))
        ln += in_block
        found += in_block
    _check_end(lines, ln, end)
    if found != n_elements:
        raise ValueError(f"line {start + 1}: declared {n_elements} elements, found {found}")
    return np.concatenate(tris) if tris else np.zeros((0, 3), dtype=np.int64)


# rows per %-format call: a call holds a Python object per number it formats;
# one call over the whole vertex array raised peak memory by 6.5 MB at sphere level 6
_ROWS_PER_WRITE = 4096


def _format_floats(values: np.ndarray) -> np.ndarray:
    """The '%.17g' string of each entry of a float array, as an object array of its shape.

    Each distinct bit pattern is formatted once, in one %-format call, and
    its string shared by every entry that holds it: the 122886 coordinates
    of sphere level 6 hold 17731 distinct values. The distinct values are
    found as `np.unique(..., return_inverse=True)` would, with the inverse
    in the narrowest integer type, which keeps the peak at sphere level 6
    at 3.2 MB (np.unique took 5.2 MB).
    """
    values = np.ascontiguousarray(values, dtype=float)
    bits = values.ravel().view(np.int64)
    order = np.argsort(bits)
    ordered = bits[order]
    first = np.ones(len(bits), dtype=bool)  # ordered[k] is the first of its value
    first[1:] = ordered[1:] != ordered[:-1]
    distinct = ordered[first].view(np.float64)
    del ordered  # freed before the inverse is formed, to lower the peak
    inverse = np.empty(len(bits), dtype=np.min_scalar_type(len(bits)))
    inverse[order] = np.cumsum(first, dtype=inverse.dtype) - 1
    del order, first
    text = ("%.17g\n" * len(distinct) % tuple(distinct.tolist())).split("\n")
    text.pop()  # the empty string after the last newline
    return np.array(text, dtype=object)[inverse].reshape(values.shape)


def _write_rows(fh, row: str, *columns: np.ndarray) -> None:
    """Write the rows of the columns side by side with the %-format `row`, a block per call.

    Each column holds one entry (1-d) or one row of entries (2-d) per row;
    the block's columns are stacked into one table only for that block.
    """
    for start in range(0, len(columns[0]), _ROWS_PER_WRITE):
        block = np.column_stack([c[start:start + _ROWS_PER_WRITE] for c in columns])
        fh.write(row * len(block) % tuple(block.ravel().tolist()))


def write_off(mesh: SurfaceMesh, path) -> None:
    """Write the mesh in OFF format (vertex scalars go in a separate CSV).

    Coordinates are written to 17 significant digits, as '%.17g'.
    """
    with open(path, "w") as fh:
        fh.write(f"OFF\n{mesh.num_vertices} {mesh.num_triangles} 0\n")
        _write_rows(fh, "%s %s %s\n", _format_floats(mesh.vertices))
        _write_rows(fh, "3 %d %d %d\n", mesh.triangles)
