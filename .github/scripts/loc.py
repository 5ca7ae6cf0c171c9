"""Code lines per ``src/repro/*`` package: the number "net lines fall" means.

A code line holds at least one token that is not a comment, a blank or a
docstring (a string expression statement that opens a module, class or
function body).  Multi-line statements count every physical line they
touch, so reflowing an expression moves the number.

    python .github/scripts/loc.py [ROOT]       # ROOT defaults to src
"""

import ast
import io
import sys
import tokenize
from collections import Counter
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
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
    doc = _docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - doc)


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src")
    per_package: Counter[str] = Counter()
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root).parts
        # src/repro/<package>/... -> <package>; top-level modules -> "."
        package = parts[1] if len(parts) > 2 else "."
        per_package[package] += code_lines(path.read_text(encoding="utf-8"))
    for package, count in sorted(per_package.items()):
        print(f"{package:<14}{count:>7}")
    print(f"{'total':<14}{sum(per_package.values()):>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
