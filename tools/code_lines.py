"""Count the code lines of Python modules: the lines that hold a token of
a statement outside a docstring.

A comment line, a blank line and a line of a docstring (the string that
opens a module, class or function body) hold none, so they do not count;
a string that spans lines counts each line it covers. So the count moves
with code, not with how much of it is explained. Each module's code
lines and file lines are printed, then the totals::

    python3 tools/code_lines.py src/pavesim

A directory stands for the ``*.py`` files directly in it.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

#: Tokens that are layout or commentary, never part of a statement.
_NOT_CODE = frozenset({tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                       tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
                       tokenize.ENDMARKER})


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that docstrings cover."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """How many lines of `source` hold a token of a statement outside a
    docstring."""
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def _modules(paths: list[str]) -> list[Path]:
    modules = []
    for path in map(Path, paths):
        modules += sorted(path.glob("*.py")) if path.is_dir() else [path]
    return modules


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+",
                        help="Python files, or directories of them")
    args = parser.parse_args(argv)
    total_code = total_file = 0
    for module in _modules(args.paths):
        source = module.read_text(encoding="utf-8")
        code, file = code_lines(source), len(source.splitlines())
        print(f"{code:6d} {file:6d}  {module}")
        total_code += code
        total_file += file
    print(f"{total_code:6d} {total_file:6d}  total (code lines, file lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
