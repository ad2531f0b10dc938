"""Count the code lines of the qdyn package, per module and in total, and
the names in its public `__all__`.

A code line holds at least one token that is not part of a comment or a
docstring; blank lines do not count.  A statement or string that spans
several lines counts each of them.  `__all__` is read from the source with
`ast`, so the package need not be importable.

    python scripts/code_lines.py
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def public_names(source: str) -> int:
    """Length of the list assigned to `__all__` at module level."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return len(node.value.elts)
    raise ValueError("no __all__ assignment")


def main() -> int:
    package = Path(__file__).resolve().parents[1] / "src" / "qdyn"
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:<20} {count:>5}")
    print(f"{'total':<20} {total:>5}")
    print(f"{'__all__':<20} {public_names((package / '__init__.py').read_text()):>5}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
