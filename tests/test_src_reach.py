"""Every function, class and method of src/qskein is named again in src
(not in __init__.py), demos/ or perfbench/; test-only code lives in tests."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_no_src_name_is_reached_only_from_tests():
    src = sorted((ROOT / "src" / "qskein").glob("*.py"))
    corpus = [p for p in src if p.name != "__init__.py"]
    corpus += sorted((ROOT / "demos").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    words = Counter(w for p in corpus for w in re.findall(r"\w+", p.read_text()))
    defined = Counter(
        node.name
        for p in src
        for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    )
    # each definition spells its name once; the program must spell it again
    unreached = sorted(name for name, n in defined.items() if words[name] <= n)
    assert not unreached, "named only by their definitions: %s" % unreached
