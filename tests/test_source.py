"""The package holds no code that only the tests use.

Every top-level function and class of ``src/psp4obs``, and every method
of such a class but the dunders, must be named in ``src/``, ``scripts/``
or ``perfbench/`` outside its own definition.  Reference implementations
that only the tests need live in ``tests/oracles.py``.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "psp4obs"


def test_every_top_level_name_is_used_outside_the_tests():
    texts = {path: path.read_text()
             for folder in ("src", "scripts", "perfbench")
             for path in sorted((ROOT / folder).rglob("*.py"))}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = texts[path].splitlines(True)
        top = ast.parse(texts[path]).body
        methods = [node for cls in top if isinstance(cls, ast.ClassDef)
                   for node in cls.body
                   if isinstance(node, ast.FunctionDef)
                   and not node.name.startswith("__")]
        for node in top + methods:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            start = min([node.lineno] + [d.lineno
                                         for d in node.decorator_list])
            rest = "".join(lines[:start - 1] + lines[node.end_lineno:])
            word = re.compile(rf"\b{node.name}\b")
            if not any(word.search(rest if other == path else text)
                       for other, text in texts.items()):
                unused.append(f"{path.name}: {node.name}")
    assert unused == []
