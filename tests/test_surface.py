"""Every public name of the library is reached from the library or the benchmark.

A public module-level function, class or constant of ``src/agecomp`` is kept
only while another line of ``src/agecomp`` refers to it, or a
``perfbench/*.py`` file names it.  A name that only the tests reach is a
candidate for deletion: tests then compute its job in place.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _definitions(tree):
    """{public module-level name: (first line, last line) of its definition}."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        found.update({name: (node.lineno, node.end_lineno) for name in names
                      if not name.startswith("_")})
    return found


def _references(tree):
    """(name, line) of every ``ast.Name``, ``ast.Attribute`` and import alias in ``tree``."""
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, node.lineno))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                refs.extend((part, node.lineno) for part in alias.name.split("."))
    return refs


def _unreached(trees, named_text):
    """Public names defined in ``trees`` ({file: module AST}) that no line
    outside their own definition refers to, and that ``named_text`` does not
    name as a word, as "file:name"."""
    refs = {}
    for f, tree in trees.items():
        for name, line in _references(tree):
            refs.setdefault(name, []).append((f, line))
    unreached = []
    for f, tree in trees.items():
        for name, (first, last) in _definitions(tree).items():
            reached = any(g != f or not first <= line <= last for g, line in refs.get(name, ()))
            if not reached and not re.search(rf"\b{re.escape(name)}\b", named_text):
                unreached.append(f"{f}:{name}")
    return sorted(unreached)


def test_every_public_name_is_reached_from_the_library_or_the_benchmark():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "agecomp").glob("*.py"))}
    named = "\n".join(path.read_text(encoding="utf-8")
                      for path in sorted((ROOT / "perfbench").glob("*.py")))
    assert _unreached(trees, named) == []


def test_the_surface_guard_sees_each_kind_of_reference():
    a = ("import b\nfrom .c import by_alias\n\nLIMIT = 1\nSPARE: int = 2\n\n\n"
         "def by_name():\n    return LIMIT\n\n\ndef only_itself():\n    return only_itself\n\n\n"
         "@b.wrap\ndef traced():\n    pass\n\n\ndef _private():\n    pass\n")
    b = ("def wrap(f):\n    return f\n\n\ndef by_alias():\n    pass\n\n\n"
         "def by_attribute():\n    pass\n\n\nclass Unused:\n    pass\n\n\n"
         "x = b.by_attribute(by_name())\n")
    trees = {"a.py": ast.parse(a), "b.py": ast.parse(b)}
    assert _unreached(trees, "") == ["a.py:SPARE", "a.py:only_itself", "a.py:traced",
                                     "b.py:Unused", "b.py:x"]
    assert _unreached(trees, 'TRACED = ("traced", "x")') == [
        "a.py:SPARE", "a.py:only_itself", "b.py:Unused"]


def test_the_benchmark_text_must_name_the_whole_word():
    trees = {"a.py": ast.parse("def fit():\n    pass\n\n\ndef fit_all():\n    pass\n")}
    assert _unreached(trees, "refit fit_all_twice") == ["a.py:fit", "a.py:fit_all"]
    assert _unreached(trees, "wrappers.fit_all(x)") == ["a.py:fit"]


def test_a_reference_from_another_file_counts_on_any_line():
    # a.py defines on lines 1-2; b.py refers on line 2, inside the same span of
    # numbers but in another file. Methods and nested functions are not
    # module-level names, so they need no reference.
    a = "def shared():\n    pass\n\n\nclass Box:\n    def method(self):\n        def inner():\n            pass\n"
    b = "import a\nx = a.shared\n"
    trees = {"a.py": ast.parse(a), "b.py": ast.parse(b)}
    assert _unreached(trees, "") == ["a.py:Box", "b.py:x"]
