"""Source-tree rules that no single module's tests see."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_top_level_definition_has_a_caller_outside_tests():
    # A function or class in the package that only tests name is a
    # test-only helper; it belongs in tests/helpers.py.  "Named" is a
    # whole-word match anywhere in src/ or perfbench/ outside the
    # definition's own lines (perfbench wraps some functions by string).
    sources = sorted((ROOT / "src" / "cmcheck").glob("*.py"))
    lines = {p: p.read_text().splitlines() for p in
             sources + sorted((ROOT / "perfbench").glob("*.py"))}
    unused = []
    for path in sources:
        for node in ast.parse("\n".join(lines[path])).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            own = range(first - 1, node.end_lineno)
            if not any(word.search(line)
                       for p, text in lines.items()
                       for i, line in enumerate(text) if p != path or i not in own):
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unused
