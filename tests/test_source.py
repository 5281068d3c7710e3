"""The package holds no code that only the tests use, and one reader.

Every top-level function and class of ``src/psp4obs``, and every method
of such a class but the dunders, must be named in ``src/``, ``scripts/``
or ``perfbench/`` outside its own definition.  Reference implementations
that only the tests need live in ``tests/oracles.py``.  Only
``psp4obs.readers`` reads files or screens integers.
"""

import ast
import pathlib
import re
import warnings

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


def _reads_a_file(call):
    """Whether ``call`` opens a file for reading: ``open`` without a write
    mode, ``read_text`` or ``read_bytes``, or ``json.load``."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr",
                                                              None)
    if name == "open":
        modes = call.args[1:2] + [k.value for k in call.keywords
                                  if k.arg == "mode"]
        return not any(isinstance(m, ast.Constant)
                       and set(str(m.value)) & set("wax") for m in modes)
    return (name in ("read_text", "read_bytes")
            or (name == "load" and isinstance(func.value, ast.Name)
                and func.value.id == "json"))


def _is_integer_regex(text):
    """Whether ``text``, as a regular expression, matches integers such as
    12 and 345 in full but not x1."""
    try:
        with warnings.catch_warnings():  # docstrings read as odd patterns
            warnings.simplefilter("ignore")
            pattern = re.compile(text)
    except (re.error, ValueError):
        return False
    return bool(pattern.fullmatch("12") and pattern.fullmatch("345")
                and not pattern.fullmatch("x1"))


def test_only_readers_reads_input_files():
    """Every input format is read through ``psp4obs.readers``: no other
    module of the package opens a file for reading or defines an integer
    regex, so no format grows a reader of its own."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "readers.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and _reads_a_file(node):
                found.append(f"{path.name}:{node.lineno}: reads a file")
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and _is_integer_regex(node.value)):
                found.append(f"{path.name}:{node.lineno}: integer regex "
                             f"{node.value!r}")
    assert found == []
