"""Byte-for-byte CLI output on the shipped fixtures.

``cli_golden.txt`` holds the exit code, stdout and stderr of
``hodgespec.cli.main`` for every command in ``COMMANDS``; fixture paths are
written relative to the repository root so the file holds no absolute
paths.  Regenerate it (only when an output change is intended) with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import sys
from pathlib import Path

from hodgespec.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "cli_golden.txt"

ONE_FUNCTION = [
    "x2", "x3", "x4", "x5", "x6", "x7", "x8",
    "x2y", "cusp", "d_curve_N2", "d_curve_N3", "d_curve_N4", "d_curve_N5",
]


def _fx(name):
    return f"fixtures/{name}.json"


def _commands():
    cmds = []
    for name in ONE_FUNCTION:
        cmds.append(["spectrum", "--datum", _fx(name)])
        cmds.append(["spectrum", "--datum", _fx(name), "--phi"])
        cmds.append(["zeta", "--datum", _fx(name)])
        cmds.append(["zeta", "--datum", _fx(name), "--truncate", "12"])
    cmds.append(["iterated", "--joint", _fx("x2y_y_joint")])
    cmds.append(["convolve", "--left", _fx("class_x2"), "--right", _fx("class_x3")])
    for N in (2, 3, 4, 5):
        cmds.append([
            "steenbrink", "--f", _fx("x2y"), "--fg", _fx(f"d_curve_N{N}"),
            "--joint", _fx("x2y_y_joint"), "--N", str(N),
        ])
    for exps in ("2,3", "3,4,5", "2,2,2,2", "5,7,9"):
        cmds.append(["ts", "--exponents", exps])
    cmds.append(["fixtures", "--rederive"])
    return cmds


COMMANDS = _commands()


def _run(argv):
    absolute = [str(ROOT / a) if a.startswith("fixtures/") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(absolute)
    return code, out.getvalue(), err.getvalue()


def _block(argv):
    code, out, err = _run(argv)
    return f"$ hodgespec {' '.join(argv)}\nexit: {code}\n--- stdout\n{out}--- stderr\n{err}"


def _split(text):
    """Golden text -> {command line: block}."""
    blocks = {}
    for chunk in text.split("$ hodgespec ")[1:]:
        blocks[chunk.split("\n", 1)[0]] = "$ hodgespec " + chunk
    return blocks


def render_all():
    return "".join(_block(argv) for argv in COMMANDS)


def test_cli_output_matches_golden():
    expected = _split(GOLDEN.read_text(encoding="utf-8"))
    assert len(COMMANDS) == 63 == len(expected)
    got = _split(render_all())
    differ = [cmd for cmd in expected if got.get(cmd) != expected[cmd]]
    assert not differ, f"CLI output changed for: {differ}"
    assert str(ROOT) not in "".join(got.values())


if __name__ == "__main__":
    GOLDEN.write_text(render_all(), encoding="utf-8")
    sys.exit(0)
