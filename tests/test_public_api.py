"""graphmon exports only what its own modules or the benchmark use.

A name in ``__all__`` that nothing in ``src/graphmon`` or ``bench/``
refers to exists only for the tests; the tests should reach what they
need through the used API or through ``tests/_helpers.py`` instead.

The package also enforces no invariant with a bare ``assert``: ``python -O``
strips those, so the check would silently vanish. And it parses as Python
3.10, the oldest version pyproject.toml accepts, importing nothing from
outside graphmon and the standard library.
"""

from __future__ import annotations

import ast
import sys
from collections import Counter
from pathlib import Path

import pytest

import graphmon
from graphmon.version import VERSION

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "graphmon"

# Exported without an in-repo caller, each for a stated reason.
UNUSED_ON_PURPOSE = {
    "__version__": "the package version, read by installers and users",
}


def referenced_names(paths) -> set[str]:
    """Names used as identifiers or attributes in the given files.

    Definitions, imports, strings and comments do not count as uses.
    """
    names: set[str] = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_all_has_no_duplicates():
    assert [name for name, k in Counter(graphmon.__all__).items() if k > 1] == []


def test_every_export_resolves():
    assert [name for name in graphmon.__all__ if not hasattr(graphmon, name)] == []


def test_every_export_is_used_outside_the_tests():
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    used = referenced_names(sources + list((ROOT / "bench").glob("*.py")))
    unused = [n for n in graphmon.__all__ if n not in used and n not in UNUSED_ON_PURPOSE]
    assert unused == []
    assert set(UNUSED_ON_PURPOSE) <= set(graphmon.__all__)


def bare_asserts(paths) -> list[str]:
    """``file:line`` of every assert statement in the given files."""
    return [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]


def test_no_bare_assert_in_the_package():
    assert bare_asserts(sorted(PACKAGE.glob("*.py"))) == []


def test_bare_assert_scan_flags_an_assert(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text("def f(x):\n    assert x > 0\n    return x\n")
    assert bare_asserts([planted]) == ["planted.py:2"]


def foreign_imports(paths) -> list[str]:
    """``file:line name`` of every absolute import in the given files whose
    top-level package is neither graphmon nor in Python 3.10's standard
    library. Each file must parse as Python 3.10."""
    # sys.stdlib_module_names is the running interpreter's; tomllib came in 3.11.
    allowed = (sys.stdlib_module_names - {"tomllib"}) | {"graphmon"}
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), str(path), feature_version=(3, 10))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {name}" for name in names if name.split(".")[0] not in allowed
            ]
    return found


def test_package_parses_as_python_3_10():
    # pyproject.toml promises requires-python >= 3.10 and no dependencies;
    # newer syntax or a third-party import would break that promise without
    # failing on a newer interpreter that happens to have the package.
    assert foreign_imports(sorted(PACKAGE.glob("*.py"))) == []


def test_foreign_import_scan_flags_a_dependency(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text("import json\nfrom . import core\nimport numpy.linalg\nfrom tomllib import loads\n")
    assert foreign_imports([planted]) == ["planted.py:3 numpy.linalg", "planted.py:4 tomllib"]


def test_foreign_import_scan_rejects_newer_syntax(tmp_path):
    planted = tmp_path / "planted.py"
    # Exception groups parse from Python 3.11 on, but not as 3.10.
    planted.write_text("try:\n    pass\nexcept* ValueError:\n    pass\n")
    with pytest.raises(SyntaxError):
        foreign_imports([planted])


def test_version_has_one_source():
    tomllib = pytest.importorskip("tomllib")
    config = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    dynamic = config["tool"]["setuptools"]["dynamic"]["version"]
    assert dynamic == {"attr": "graphmon.version.VERSION"}
    assert graphmon.__version__ == VERSION
