"""Every result the library keeps is cleared before each test.

``linalg._keep_last`` keeps the last result of the function it wraps for the
life of the process.  The autouse ``no_kept_results`` fixture of
``tests/conftest.py`` clears each such wrapper, so no test's result depends
on which tests ran before it.  A wrapper is a module-level function
decorated by ``_keep_last``, or a module-level name assigned a call of it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _is_keep_last(node):
    """Whether ``node`` is ``_keep_last`` or ``<module>._keep_last``."""
    return ((isinstance(node, ast.Name) and node.id == "_keep_last")
            or (isinstance(node, ast.Attribute) and node.attr == "_keep_last"))


def _wrappers(trees):
    """{"module.name"} of every ``_keep_last`` wrapper in ``trees`` ({module: AST})."""
    found = set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and any(map(_is_keep_last, node.decorator_list)):
                found.add(f"{module}.{node.name}")
            elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                  and _is_keep_last(node.value.func)):
                found.update(f"{module}.{t.id}" for t in node.targets if isinstance(t, ast.Name))
    return found


def _cleared(tree):
    """{"module.name"} of every ``module.name.cache_clear()`` call in the
    ``no_kept_results`` fixture of ``tree``, if that fixture is autouse."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == "no_kept_results":
            autouse = any(isinstance(d, ast.Call) and ast.unparse(d.func) == "pytest.fixture"
                          and any(k.arg == "autouse" and ast.literal_eval(k.value)
                                  for k in d.keywords)
                          for d in node.decorator_list)
            calls = (n for n in ast.walk(node) if isinstance(n, ast.Call))
            return {ast.unparse(c.func.value) for c in calls if autouse
                    and isinstance(c.func, ast.Attribute) and c.func.attr == "cache_clear"}
    return set()


def test_the_autouse_fixture_clears_every_kept_result():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "agecomp").glob("*.py"))}
    wrappers = _wrappers(trees)
    assert "linalg._svd" in wrappers  # the search sees the library's own wrappers
    cleared = _cleared(ast.parse((ROOT / "tests" / "conftest.py").read_text(encoding="utf-8")))
    assert sorted(wrappers - cleared) == []


def test_the_kept_result_guard_sees_each_kind_of_wrapper():
    a = ("from . import linalg\nfrom .linalg import _keep_last\n\n\n"
         "def _keep_last(body):\n    return body\n\n\n"
         "@_keep_last\ndef _bare():\n    pass\n\n\n"
         "@linalg._keep_last\ndef _dotted():\n    pass\n\n\n"
         "@other\ndef _plain():\n    pass\n\n\n"
         "_assigned = linalg._keep_last(_plain, key=len)\n_called = _plain(1)\n")
    wrappers = _wrappers({"a": ast.parse(a)})
    assert wrappers == {"a._bare", "a._dotted", "a._assigned"}
    fixture = ("import pytest\n\n\n@pytest.fixture({})\ndef no_kept_results():\n"
               "    a._bare.cache_clear()\n    a._dotted.cache_clear()\n    a._plain(1)\n")
    assert wrappers - _cleared(ast.parse(fixture.format("autouse=True"))) == {"a._assigned"}
    assert _cleared(ast.parse(fixture.format(""))) == set()
    assert _cleared(ast.parse(fixture.format("autouse=False"))) == set()
