"""Print the code lines and bytes of each module of a Python package.

A code line holds a token of code: blank lines, comment-only lines and
the lines of docstrings (the leading string of a module, class or
function) do not count; every line that a multi-line statement or string
spans does. Bytes are the whole file's.

    python tools/codelines.py            # src/scmpc
    python tools/codelines.py some/pkg   # any directory of .py files
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "scmpc"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(source: str) -> set:
    """The line numbers spanned by the docstrings of source."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(source))


def count(package=PACKAGE) -> dict:
    """{module file name: (code lines, bytes)} of the package's .py files."""
    return {path.name: (code_lines(path.read_text(encoding="utf-8")),
                        path.stat().st_size)
            for path in sorted(Path(package).glob("*.py"))}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package", nargs="?", default=str(PACKAGE))
    args = parser.parse_args(argv)
    counts = count(args.package)
    for name, (lines, size) in counts.items():
        print(f"{name:<16} {lines:>6} {size:>8}")
    print(f"{'total':<16} {sum(c[0] for c in counts.values()):>6} "
          f"{sum(c[1] for c in counts.values()):>8}")


if __name__ == "__main__":
    main()
