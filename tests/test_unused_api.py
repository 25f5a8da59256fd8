"""Every public top-level name of ``src/pavesim`` has a user besides the
tests.

A public function, class or constant (a top-level name that does not
start with ``_``) must be referenced somewhere other than its own
definition: by an AST name, attribute or import in ``src/pavesim``, in
``perfbench/*.py`` (not ``perfbench/reference/``, the frozen copy the
benchmark compares against), or in the README's Python example.
Docstrings and comments are not references. A name that only tests
reach is a second path for one job, or no job at all: delete it, and
test the behaviour through the path that uses it.
"""

import ast
import re
from pathlib import Path

import pavesim

SRC = Path(pavesim.__file__).parent
ROOT = SRC.parents[1]


def _defined(statement):
    """The public names a top-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
        names = [statement.name]
    elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = (statement.targets if isinstance(statement, ast.Assign)
                   else [statement.target])
        names = [node.id for target in targets for node in ast.walk(target)
                 if isinstance(node, ast.Name)]
    else:
        names = []
    return [name for name in names if not name.startswith("_")]


def _references(tree):
    """The names that `tree` loads, reads as attributes or imports."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
    return found


def unused_names(modules, others):
    """The ``module.name`` of each public top-level name of `modules` (a
    ``{module: source}`` map) that no other statement of `modules` and no
    source of `others` references."""
    statements = [(module, statement, _references(statement))
                  for module, source in sorted(modules.items())
                  for statement in ast.parse(source).body]
    outside = set().union(*map(_references, map(ast.parse, others)))
    unused = []
    for module, statement, _ in statements:
        for name in _defined(statement):
            if name not in outside and not any(
                    name in refs
                    for _, other, refs in statements if other is not statement):
                unused.append(f"{module}.{name}")
    return unused


def readme_python(text):
    """The source of the README's ```python blocks."""
    return re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)


def test_every_public_name_has_a_user_besides_the_tests():
    modules = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    others = [path.read_text(encoding="utf-8")
              for path in sorted((ROOT / "perfbench").glob("*.py"))]
    others += readme_python((ROOT / "README.md").read_text(encoding="utf-8"))
    assert unused_names(modules, others) == []


def test_the_guard_sees_a_name_only_its_definition_reaches():
    modules = {
        "a": '"""Mentions c and D."""\n'
             "A = 1\nB, _C = 2, 3\n"
             "def c():\n    return c()  # recursion is its own definition\n"
             "class D:\n    pass\n"
             "def e():\n    return A\n",
        "b": "from .a import e\n",
    }
    assert unused_names(modules, ["B.x"]) == ["a.c", "a.D"]
    assert readme_python("x\n```python\nimport a\n```\n```sh\nb\n```\n") == [
        "import a\n"]
