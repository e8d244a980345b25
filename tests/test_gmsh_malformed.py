"""Property tests: a malformed Gmsh file is rejected with a ValueError that names a line.

Each example takes a valid 5-node file (format 4.1 or 2.2) and applies one to
three mutations: a dropped, blanked or repeated line, a token replaced by junk,
junk appended to a line, or the file cut short. The result may still be a
valid file; if not, the reader must raise ValueError naming the line, never
another exception, and `fracsurf solve --mesh` must exit with code 2.
"""

import re

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from util import write_msh22, write_msh41

from fracsurf import read_gmsh
from fracsurf.cli import main

# four corners of the unit square around one interior vertex
VERTICES = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0], [0.5, 0.5, 0]], dtype=float)
TRIANGLES = np.array([[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]])
JUNK = ["", "x", "-1", "0", "7", "99", "1.5", "nan", "inf", "1e400", "$Nodes", "$EndElements"]
NAMES_A_LINE = re.compile(r"^lines? \d+")
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


def _base_lines(tmp_path, writer):
    path = tmp_path / "base.msh"
    writer(path, VERTICES, TRIANGLES)
    return path.read_text().splitlines()


@st.composite
def mutations(draw):
    """(writer, list of (kind, line index, token index, junk)) applied in order."""
    writer = draw(st.sampled_from([write_msh41, write_msh22]))
    steps = draw(st.lists(
        st.tuples(st.sampled_from(["drop", "blank", "repeat", "token", "append", "cut"]),
                  st.integers(0, 40), st.integers(0, 8), st.sampled_from(JUNK)),
        min_size=1, max_size=3))
    return writer, steps


def _apply(lines, steps) -> str:
    lines = list(lines)
    for kind, k, j, junk in steps:
        if not lines:
            break
        k %= len(lines)
        if kind == "drop":
            del lines[k]
        elif kind == "blank":
            lines.insert(k, "")
        elif kind == "repeat":
            lines.insert(k, lines[k])
        elif kind == "token":
            toks = lines[k].split() or [""]
            toks[j % len(toks)] = junk
            lines[k] = " ".join(toks)
        elif kind == "append":
            lines[k] = f"{lines[k]} {junk}"
        else:  # cut the file short inside line k
            lines = lines[:k] + [lines[k][: j % (len(lines[k]) + 1)]]
    return "\n".join(lines) + "\n"


def _read(path):
    """None when the file loads, else the ValueError's message; other exceptions propagate."""
    try:
        read_gmsh(path)
    except ValueError as exc:
        return str(exc)
    return None


@SETTINGS
@given(mutations())
def test_mutated_file_loads_or_names_a_line(tmp_path, mutation):
    writer, steps = mutation
    path = tmp_path / "mutated.msh"
    path.write_text(_apply(_base_lines(tmp_path, writer), steps))
    message = _read(path)
    assert message is None or NAMES_A_LINE.match(message), message


@settings(SETTINGS, max_examples=40)
@given(mutations())
def test_cli_exits_2_on_malformed_mesh(tmp_path, mutation):
    writer, steps = mutation
    path = tmp_path / "mutated.msh"
    path.write_text(_apply(_base_lines(tmp_path, writer), steps))
    if _read(path) is not None:
        code = main(["--out", str(tmp_path / "out"), "solve", "--mesh", str(path),
                     "--alpha", "0.5", "--m", "1", "--f", "ones"])
        assert code == 2


def test_known_mutations(tmp_path):
    lines = _base_lines(tmp_path, write_msh41)
    # dropping the format line or the node header raised IndexError, and
    # dropping a coordinate line a ValueError that named no line
    for k in (1, 4, 12):
        path = tmp_path / f"drop{k}.msh"
        path.write_text("\n".join(lines[:k] + lines[k + 1:]) + "\n")
        message = _read(path)
        assert message is not None and NAMES_A_LINE.match(message), message
    path = tmp_path / "binary.msh"
    path.write_bytes(b"$MeshFormat\n4.1 0 8\n\xff\xfe\n")
    assert _read(path) == "line 3: not a text file"
    path = tmp_path / "nan.msh"
    path.write_text("\n".join(lines).replace("0.5 0.5 0.0", "nan 0.5 0.0") + "\n")
    assert re.match(r"line \d+: non-finite coordinate", _read(path))


def test_cli_exits_2_on_missing_mesh(tmp_path):
    assert main(["--out", str(tmp_path / "out"), "solve", "--mesh",
                 str(tmp_path / "missing.msh")]) == 2
