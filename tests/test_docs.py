"""README's method tags against the tags the library emits.

The tags are read from the source by AST: the lower_method and
upper_method arguments of every Bounds(...) call in src/graphmon,
either string literals or local names whose assignments hold them.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from graphmon.report import SECTIONS

ROOT = Path(__file__).resolve().parent.parent
TICKED = re.compile(r"`([^`]+)`")


def emitted_tags() -> tuple[set[str], set[str]]:
    """The (lower, upper) method tags passed to Bounds(...) in src/graphmon."""
    lower: set[str] = set()
    upper: set[str] = set()
    for path in sorted((ROOT / "src" / "graphmon").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            assigned: dict[str, set[str]] = {}
            for node in ast.walk(func):
                if isinstance(node, ast.Assign):
                    strings = {
                        c.value
                        for c in ast.walk(node.value)
                        if isinstance(c, ast.Constant) and isinstance(c.value, str)
                    }
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            assigned.setdefault(target.id, set()).update(strings)
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Bounds":
                    for tags, arg in ((lower, node.args[3]), (upper, node.args[4])):
                        if isinstance(arg, ast.Constant):
                            tags.add(arg.value)
                        else:
                            assert isinstance(arg, ast.Name), ast.dump(arg)
                            tags.update(assigned[arg.id])
    return lower, upper


def method_tags_section() -> str:
    """README's "Method tags" paragraph and its tag list, up to the next heading."""
    text = (ROOT / "README.md").read_text()
    start = text.index("Method tags say where a number came from.")
    return text[start : text.index("\n## ", start)]


def test_readme_describes_every_emitted_tag_and_no_other():
    lower, upper = emitted_tags()
    # Each bullet opens with the tags it describes, before its first colon.
    heads = re.findall(r"^\* ([^:]*):", method_tags_section(), flags=re.MULTILINE)
    described = [tag for head in heads for tag in TICKED.findall(head)]
    assert len(described) == len(set(described))
    assert set(described) == lower | upper


def test_readme_lists_every_upper_method():
    lower, upper = emitted_tags()
    section = method_tags_section()
    sentence = section[section.index("is one of") : section.index("Tags are outputs only")]
    assert set(TICKED.findall(sentence)) - set(SECTIONS) == upper
