"""The package stays within its line ceiling."""

import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "tranad"
CEILING = 2334


def test_package_within_line_ceiling():
    # newline characters, as `wc -l` counts lines
    lines = sum(path.read_bytes().count(b"\n") for path in PACKAGE.glob("*.py"))
    assert lines <= CEILING, f"src/tranad/*.py holds {lines} lines, over {CEILING}"
