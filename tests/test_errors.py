"""The error surface: the exact `TranadError` subclasses, pinned so that a new
error type takes a deliberate test edit, and each one raised somewhere in the
package."""

import pathlib
import re

from tranad import errors

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "tranad"


def error_types():
    found, todo = set(), [errors.TranadError]
    while todo:
        for cls in todo.pop().__subclasses__():
            found.add(cls)
            todo.append(cls)
    return found


def test_error_surface():
    assert {cls.__name__ for cls in error_types()} == {
        "ParseError", "ShapeMismatch", "NonFiniteInput", "NonFiniteLoss", "EmptyInput",
        "DegenerateTruth", "CorruptCheckpoint", "InvalidConfig"}


def test_each_error_type_is_raised():
    source = "".join(path.read_text() for path in PACKAGE.glob("*.py"))
    for cls in error_types():
        name = cls.__name__
        assert re.search(rf"raise {name}\(|error={name}\b", source), f"{name} is never raised"
