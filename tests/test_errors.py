"""``check_number``, the one rule for a number from any source,
``check_choice``, the one rule for a value from a fixed set, guards that
keep each rule in one place, ``check_record``, the one rule for a
record's keys, and a guard that keeps model files to ``check_keys``."""

import ast
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import pavesim
from pavesim.errors import (DataError, check_choice, check_number,
                            check_record)


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


@pytest.mark.parametrize("value, choices", [
    ("per_truckload", ("per_replication", "per_truckload")),
    (0.95, (0.9, 0.95, 0.99)), (np.float64(0.99), (0.9, 0.95, 0.99)),
    (1, (0, 1)), (0.0, (0, 1)), (-0.0, (0, 1)),
])
def test_a_value_from_its_set_is_returned_as_is(value, choices):
    assert check_choice("x", value, choices) is value


@pytest.mark.parametrize("value, choices, message", [
    ("per_Truckload", ("per_replication", "per_truckload"),
     "mode must be per_replication or per_truckload, got 'per_Truckload'"),
    ("0.95", (0.9, 0.95, 0.99), "mode must be 0.9 or 0.95 or 0.99, got '0.95'"),
    (0.8, (0.9, 0.95, 0.99), "mode must be 0.9 or 0.95 or 0.99, got 0.8"),
    (math.nan, (0.9, 0.95, 0.99), "mode must be 0.9 or 0.95 or 0.99, got nan"),
    (2.0, (0, 1), "mode must be 0 or 1, got 2.0"),
    (0.5, (0, 1), "mode must be 0 or 1, got 0.5"),
    (None, (0, 1), "mode must be 0 or 1, got None"),
    ([0], (0, 1), "mode must be 0 or 1, got [0]"),
    ({"a": 1}, ("a",), "mode must be a, got {'a': 1}"),
])
def test_a_value_outside_its_set_is_refused_with_the_set(value, choices,
                                                         message):
    with pytest.raises(DataError) as info:
        check_choice("mode", value, choices)
    assert str(info.value) == message


def _choice_checks(tree):
    """Line numbers of the ``if ... not in ...:`` statements in `tree`
    whose body raises an error of its own (``DataError``, argparse's
    ``ArgumentTypeError``; a bare re-raise is not one), outside
    ``check_choice``, and of the ``choices=`` keywords of any call."""
    found = []

    def visit(node, inside):
        if isinstance(node, ast.FunctionDef) and node.name == "check_choice":
            inside = True
        if (isinstance(node, ast.If) and not inside
                and any(isinstance(op, ast.NotIn)
                        for n in ast.walk(node.test)
                        if isinstance(n, ast.Compare) for op in n.ops)
                and any(isinstance(stmt, ast.Raise) and stmt.exc is not None
                        for stmt in node.body)):
            found.append(node.lineno)
        if isinstance(node, ast.keyword) and node.arg == "choices":
            found.append(node.value.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, False)
    return found


def test_only_check_choice_refuses_a_value_outside_a_fixed_set():
    # nor does the CLI keep a copy of a set: the record that owns it refuses
    src = Path(pavesim.__file__).parent
    found = {path.name: lines for path in sorted(src.glob("*.py"))
             if (lines := _choice_checks(ast.parse(path.read_text())))}
    assert found == {}


def test_the_guard_sees_a_choice_check():
    tree = ast.parse(
        "def f(v):\n"
        "    if v not in (1, 2):\n        raise DataError(v)\n"
        "    if v.mode not in MODES and v:\n"
        "        raise DataError(f'{v}')\n"
        "    if v not in (1, 2):\n        raise ValueError(v)\n"
        "    if v in (1, 2):\n        raise DataError(v)\n"
        "    if v not in (1, 2):\n        raise\n"
        "    p.add_argument('--level', choices=(1, 2))\n"
        "def check_choice(v):\n"
        "    if v not in (1, 2):\n        raise DataError(v)\n")
    assert _choice_checks(tree) == [2, 4, 6, 12]


def _key_error_handlers(tree):
    """Line numbers of the ``except`` clauses in `tree` that name
    ``KeyError``, alone or in a tuple of types."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            kinds = node.type
            names = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
            if any(isinstance(n, ast.Name) and n.id == "KeyError"
                   for n in names):
                found.append(node.lineno)
    return found


def test_modelfile_reads_keys_only_through_check_keys():
    # a missing key is named by check_keys, never caught as a bare KeyError
    path = Path(pavesim.__file__).parent / "modelfile.py"
    assert _key_error_handlers(ast.parse(path.read_text())) == []


def test_the_guard_sees_a_key_error_handler():
    tree = ast.parse("try:\n    f()\nexcept (KeyError, TypeError):\n    g()\n"
                     "try:\n    f()\nexcept KeyError:\n    g()\n"
                     "try:\n    f()\nexcept ValueError:\n    g()\n")
    assert _key_error_handlers(tree) == [3, 7]


@dataclass(frozen=True)
class Record:
    size: int
    label: str
    parent: object
    scale: float = 1.0

    def __post_init__(self):
        check_number("size", self.size, integer=True, low=1)


def test_a_complete_record_is_built_from_its_object():
    obj = {"size": 2, "label": "a", "parent": None, "scale": 0.5}
    assert check_record(Record, "record", obj) == Record(2, "a", None, 0.5)


def test_a_given_field_is_not_read_from_the_object():
    parent = object()
    built = check_record(Record, "record", {"size": 2, "label": "a",
                                            "scale": 1.0}, parent=parent)
    assert built.parent is parent
    with pytest.raises(DataError) as info:
        check_record(Record, "record", {"size": 2, "label": "a", "scale": 1.0,
                                        "parent": None}, parent=parent)
    assert str(info.value) == "unknown record keys: parent"


def test_an_incomplete_record_may_leave_out_a_field_with_a_default():
    obj = {"size": 2, "label": "a"}
    built = check_record(Record, "record", obj, complete=False, parent=None)
    assert built == Record(2, "a", None)
    with pytest.raises(DataError) as info:
        check_record(Record, "record", obj, parent=None)
    assert str(info.value) == "record is missing keys: scale"


@pytest.mark.parametrize("obj, complete, message", [
    ([1], True, "record must be a JSON object, got [1]"),
    (None, False, "record must be a JSON object, got None"),
    ({"size": 2, "label": "a", "scale": 1.0, "zeta": 0, "alpha": 0}, True,
     "unknown record keys: alpha, zeta"),
    ({"size": 2}, True, "record is missing keys: label, scale"),
    ({"scale": 2.0}, False, "record is missing keys: label, size"),
    # an unknown key is reported before a missing one
    ({"sise": 2, "label": "a"}, False, "unknown record keys: sise"),
    # each value is checked by the class itself
    ({"size": 0, "label": "a"}, False, "size must be an integer >= 1, got 0"),
])
def test_anything_else_is_refused_naming_the_record(obj, complete, message):
    with pytest.raises(DataError) as info:
        check_record(Record, "record", obj, complete=complete, parent=None)
    assert str(info.value) == message
