"""Every function, class and method of src/qskein is named again in src
(not in __init__.py) or perfbench/; code that only tests or demos use
lives with them.

A method is reached only by an attribute access .name or a string
constant (the benchmark tracer names its hooks by string); a name of the
same spelling, such as a builtin or a local function, does not reach it.
Any other function or class is reached by a name, an import, an attribute
or a string.

A static scan cannot see what the program runs, so two kinds of dead code
pass it.  Operator methods (__add__, __mul__, __hash__, ...) are entered
by syntax or by the runtime, not by name, and are never checked.  A method
whose name another class also defines is reached by any access of that
name, as NormalCurve.to_json was by the uses of Triangulation.to_json.  A
line tracer over the whole program finds both."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_no_src_name_is_reached_only_from_tests():
    src = sorted((ROOT / "src" / "qskein").glob("*.py"))
    corpus = [p for p in src if p.name != "__init__.py"]
    corpus += sorted((ROOT / "perfbench").rglob("*.py"))
    by_attribute, by_name = set(), set()
    for p in corpus:
        for node in ast.walk(ast.parse(p.read_text())):
            if isinstance(node, ast.Attribute):
                by_attribute.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                by_attribute.add(node.value)
            elif isinstance(node, ast.Name):
                by_name.add(node.id)
            elif isinstance(node, ast.alias):
                by_name.add(node.name)
    by_name |= by_attribute
    unreached = []
    for p in src:
        tree = ast.parse(p.read_text())
        owner = {id(item): node.name for node in ast.walk(tree)
                 if isinstance(node, ast.ClassDef) for item in node.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            cls = owner.get(id(node))
            if node.name not in (by_name if cls is None else by_attribute):
                unreached.append(node.name if cls is None else "%s.%s" % (cls, node.name))
    assert not unreached, "reached only from tests: %s" % sorted(unreached)
