"""Count the lines of each module of src/spectral_tsp: code, docstring, comment and blank.

    python tools/loc.py

Every line falls in exactly one class, so the four counts of a module add
up to its `wc -l`.  A docstring line is one that a module, class or
function docstring spans, found with `ast`.  Any other line that a token
other than a comment touches (a multi-line string counts on each of its
lines) is code.  Of the rest, a line holding a comment is a comment line,
and the others are blank.  Takes no options.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "spectral_tsp"
KINDS = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                if isinstance(first.value.value, str):
                    lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def classify(source: str) -> list[str]:
    """The kind of each line of source, in order."""
    doc = _docstring_lines(ast.parse(source))
    code, comment = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    kinds = []
    for k in range(1, len(source.splitlines()) + 1):
        if k in doc:
            kinds.append("docstring")
        elif k in code:
            kinds.append("code")
        else:
            kinds.append("comment" if k in comment else "blank")
    return kinds


def count(path: Path) -> dict[str, int]:
    """{"lines": wc -l of the file, and one count per kind}."""
    data = path.read_bytes()
    kinds = classify(data.decode())
    return {"lines": data.count(b"\n"), **{kind: kinds.count(kind) for kind in KINDS}}


def main() -> int:
    rows = [(path.name, count(path)) for path in sorted(PACKAGE.glob("*.py"))]
    rows.append(("total", {key: sum(c[key] for _, c in rows) for key in ("lines", *KINDS)}))
    print(f"{'module':<14}{'lines':>7}" + "".join(f"{kind:>11}" for kind in KINDS))
    for name, c in rows:
        print(f"{name:<14}{c['lines']:>7}" + "".join(f"{c[kind]:>11}" for kind in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
