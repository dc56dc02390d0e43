"""Design rules the package keeps, checked on its source rather than its behaviour."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "loccsynth"


def test_no_module_imports_a_private_name_from_a_sibling():
    # A name another module needs is part of its owner's interface and
    # drops the underscore; private names stay inside the module that owns them.
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            sibling = isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "loccsynth"
            )
            if sibling:
                offenders += [
                    f"{path.name}:{node.lineno} {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert offenders == []


def test_no_source_line_is_longer_than_100_characters():
    # Keeps a net line count from being won by packing expressions onto one line.
    long_lines = [
        f"{path.name}:{number} ({len(line)} characters)"
        for path in sorted(PACKAGE.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if len(line) > 100
    ]
    assert long_lines == []
