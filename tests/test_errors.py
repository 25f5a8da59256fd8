"""``check_number``, the one rule for a number from any source, and a
guard that keeps the rule in one place."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import pavesim
from pavesim.errors import DataError, check_number


@pytest.mark.parametrize("value, kw", [
    (0.5, {}), (-3, {}), (np.float64(2.5), {}), (np.float32(2.5), {}),
    (7, {"integer": True}), (np.int64(7), {"integer": True, "low": 1}),
    (0, {"low": 0, "below": 1}), (1e-320, {"above": 0}),
    (1.7e308, {}), (100.0, {"low": 0, "high": 100}),
])
def test_a_number_within_its_bounds_is_returned_as_is(value, kw):
    assert check_number("x", value, **kw) is value


@pytest.mark.parametrize("value, kw, message", [
    (True, {}, "x must be a finite number, got True"),
    (np.True_, {}, "x must be a finite number, got np.True_"),
    (False, {"integer": True}, "x must be an integer, got False"),
    ("3.0", {}, "x must be a finite number, got '3.0'"),
    (None, {}, "x must be a finite number, got None"),
    ([1.0], {}, "x must be a finite number, got [1.0]"),
    (2.0, {"integer": True}, "x must be an integer, got 2.0"),
    (np.float64(2.0), {"integer": True},
     "x must be an integer, got np.float64(2.0)"),
    (math.nan, {}, "x must be a finite number, got nan"),
    (-math.inf, {}, "x must be a finite number, got -inf"),
    (10 ** 400, {}, "x must be a finite number, got 1" + "0" * 400),
    (10 ** 400, {"integer": True}, "x must be an integer, got 1" + "0" * 400),
    (0, {"integer": True, "low": 1}, "x must be an integer >= 1, got 0"),
    (0.0, {"above": 0}, "x must be a finite number > 0, got 0.0"),
    (1, {"low": 0, "below": 1}, "x must be a finite number >= 0 and < 1, got 1"),
    (math.nextafter(100.0, math.inf), {"low": 0, "high": 100},
     "x must be a finite number >= 0 and <= 100, got 100.00000000000001"),
])
def test_anything_else_is_refused_with_the_whole_rule(value, kw, message):
    with pytest.raises(DataError) as info:
        check_number("x", value, **kw)
    assert str(info.value) == message


def _bool_checks(tree):
    """Line numbers of the ``isinstance(..., bool)`` calls in `tree`,
    a tuple of types holding ``bool`` too, outside ``check_number``."""
    found = []

    def visit(node, inside):
        if isinstance(node, ast.FunctionDef) and node.name == "check_number":
            inside = True
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2
                and not inside):
            kinds = node.args[1]
            names = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
            if any(isinstance(n, ast.Name) and n.id == "bool" for n in names):
                found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, False)
    return found


def test_only_check_number_tells_a_bool_from_a_number():
    src = Path(pavesim.__file__).parent
    found = {path.name: lines for path in sorted(src.glob("*.py"))
             if (lines := _bool_checks(ast.parse(path.read_text())))}
    assert found == {}


def test_the_guard_sees_a_bool_check():
    tree = ast.parse("def f(v):\n    return isinstance(v, (int, bool))\n"
                     "def check_number(v):\n    return isinstance(v, bool)\n")
    assert _bool_checks(tree) == [2]
