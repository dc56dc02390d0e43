"""Design rules the package keeps, checked on its source rather than its behaviour."""

import ast
import pathlib

import loccsynth

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


PUBLIC_NAMES = [
    "BranchNode",
    "DimensionMismatchError",
    "EnvCode",
    "FlatteningResult",
    "GuessLeaf",
    "KrausChannel",
    "MultipartiteProtocol",
    "NonOrthogonalInputError",
    "NotNormalizedError",
    "Protocol",
    "StateVector",
    "TAU_NORM",
    "TAU_ORTH",
    "TAU_ZERO",
    "TruncatedMessagePlan",
    "VerificationReport",
    "build_env_code",
    "epsilon_truncate",
    "multipartite_success_probability",
    "overlap_matrix",
    "stinespring",
    "success_probability",
    "synthesize",
    "synthesize_multipartite",
    "uflat2",
    "uflatgen",
    "verify_flat",
]


def test_public_names_are_pinned_and_resolve():
    # A name joins or leaves the interface only by editing this list.
    assert sorted(loccsynth.__all__) == loccsynth.__all__ == PUBLIC_NAMES
    assert [name for name in PUBLIC_NAMES if not hasattr(loccsynth, name)] == []


def _imported_names(tree):
    """(lineno, bound name) for each import in a module, less ``__future__`` ones."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, a.asname or a.name.split(".")[0]) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((node.lineno, a.asname or a.name) for a in node.names)


def test_no_module_imports_a_name_it_does_not_use():
    # __init__ only re-exports, so what it imports must be exactly its __all__.
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = list(_imported_names(tree))
        if path.name == "__init__.py":
            assert sorted(name for _, name in imported) == sorted(loccsynth.__all__)
            continue
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for line, name in imported if name not in used]
    assert unused == []
