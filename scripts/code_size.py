"""Count the lines of a Python package, per module and in total.

    python scripts/code_size.py src/chipfire

For every ``.py`` file under the given directory, in path order, it prints
the physical lines (as ``wc -l`` counts them), the code lines (the lines
that hold a token of code, leaving out docstrings, which are the first
statement of a module, class or function when it is a string, comments
and blank lines) and the tokens that CPython's parser holds while it
compiles the module (every ``tokenize`` token but comments, non-logical
newlines and the encoding; a docstring is one token).  The parser doubles
its token array at 4 096 tokens, so a module past that costs every
process that compiles it more peak memory.  A last line gives the totals.
Stdlib only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}
_NOT_PARSED = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """Lines of ``source`` with a code token outside every docstring."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in _tokens(source):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def parser_tokens(source: str) -> int:
    """Tokens of ``source`` that the parser holds."""
    return sum(tok.type not in _NOT_PARSED for tok in _tokens(source))


def _tokens(source: str):
    return tokenize.generate_tokens(io.StringIO(source).readline)


def sizes(root: Path) -> list[tuple[str, int, int, int]]:
    """``(path, physical lines, code lines, parser tokens)`` of every module
    under ``root``."""
    rows = []
    for path in sorted(root.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        rows.append((
            path.relative_to(root).as_posix(), source.count("\n"), code_lines(source),
            parser_tokens(source),
        ))
    return rows


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1 or not Path(argv[0]).is_dir():
        sys.stderr.write("usage: python scripts/code_size.py SOURCE_DIR\n")
        return 2
    rows = sizes(Path(argv[0]))
    width = max([len("total"), *(len(row[0]) for row in rows)])
    print(f"{'module':<{width}}  physical  code  tokens")
    total = ("total", *(sum(row[k] for row in rows) for k in (1, 2, 3)))
    for name, physical, code, tokens in [*rows, total]:
        print(f"{name:<{width}}  {physical:>8}  {code:>4}  {tokens:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
