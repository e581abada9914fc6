"""Print each src/opuc module's code lines as a Markdown table: non-blank
lines that are neither comments nor docstrings.  This is the size figure
that ROADMAP's Baseline and CHANGES quote.  Standard library only; run it
from anywhere as ``python .github/code_lines.py``."""

import ast
from pathlib import Path


def code_lines(path: Path) -> int:
    text, docs = path.read_text(), set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docs.update(range(first.lineno, first.end_lineno + 1))
    return sum(1 for i, line in enumerate(text.splitlines(), 1)
               if line.strip() and not line.lstrip().startswith("#") and i not in docs)


def main() -> None:
    src = Path(__file__).resolve().parent.parent / "src" / "opuc"
    rows, total = [], 0
    for path in sorted(src.glob("*.py")):
        n = code_lines(path)
        rows.append(f"| {path.name} | {n} |")
        total += n
    print("| src/opuc module | code lines |", "|---|---|", *rows, f"| total | {total} |", sep="\n")


if __name__ == "__main__":
    main()
