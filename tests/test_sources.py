"""Source-tree rules that no single module's tests see."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_top_level_definition_has_a_caller_outside_tests():
    # A function or class in the package that only tests name is a
    # test-only helper; it belongs in tests/helpers.py.  In src/ a caller
    # is a name or an attribute in code (f-string expressions included,
    # docstrings and comments not) outside the definition's own lines.
    # perfbench wraps some functions by string, so there a whole-word
    # mention anywhere counts.
    trees = {p: ast.parse(p.read_text()) for p in sorted((ROOT / "src" / "cmcheck").glob("*.py"))}
    bench = "\n".join(p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py")))
    uses = [(path, node.lineno, node.id if isinstance(node, ast.Name) else node.attr)
            for path, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]
    unused = []
    for path, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            own = range(first, node.end_lineno + 1)
            if not any(name == node.name and (p != path or line not in own)
                       for p, line, name in uses) \
                    and not re.search(rf"\b{re.escape(node.name)}\b", bench):
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unused
