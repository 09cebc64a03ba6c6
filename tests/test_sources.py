"""Source-tree rules that no single module's tests see."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _names_used(paths) -> list:
    """(path, line, name) of every name and attribute in code (f-string
    expressions included, docstrings and comments not)."""
    return [(path, node.lineno, node.id if isinstance(node, ast.Name) else node.attr)
            for path in paths for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.Name, ast.Attribute))]


def _uncalled(path: Path, uses: list, text: str = "") -> list[str]:
    """The top-level functions and classes of ``path`` that no use names
    outside the definition's own lines and no whole word of ``text`` is."""
    unused = []
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        own = range(first, node.end_lineno + 1)
        if not any(name == node.name and (p != path or line not in own)
                   for p, line, name in uses) \
                and not re.search(rf"\b{re.escape(node.name)}\b", text):
            unused.append(f"{path.name}:{node.lineno} {node.name}")
    return unused


def test_every_top_level_definition_has_a_caller_outside_tests():
    # A function or class in the package that only tests name is a
    # test-only helper; it belongs in tests/helpers.py.  perfbench wraps
    # some functions by string, so there a whole-word mention anywhere
    # counts.
    sources = sorted((ROOT / "src" / "cmcheck").glob("*.py"))
    bench = "\n".join(p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py")))
    uses = _names_used(sources)
    assert not [name for path in sources for name in _uncalled(path, uses, bench)]


def test_every_test_helper_has_a_caller():
    # A helper, or a reference, does not outlive its last test.
    uses = _names_used(sorted((ROOT / "tests").glob("*.py")))
    assert not _uncalled(ROOT / "tests" / "helpers.py", uses)
