"""tools/code_lines.py on a fixed snippet."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SNIPPET = '''"""A module docstring
over two lines."""

# a comment line
import os  # a comment after code


def f(x):
    """A function docstring."""

    text = """a string
that is not a docstring"""
    return (x,
            text)


class C:
    """One line."""
'''


def test_code_lines_count_statement_lines_outside_docstrings():
    # import, def, text (two lines), return (two lines), class
    assert code_lines.code_lines(SNIPPET) == 7


def test_code_lines_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [
        ["7", "18"], ["1", "2"], ["8", "20"]]
    assert lines[-1].endswith("total (code lines, file lines)")
