"""Count the lines of the package's source by kind: docstring, comment, blank, code.

A docstring line is any line from `lineno` to `end_lineno` of a module,
class or function docstring (found with `ast`); a comment line is any other
line whose first non-blank character is `#`; a blank line is any other empty
line; every remaining line is code.

    python3 tools/src_lines.py [DIR]    # DIR defaults to the repo's src/minimaxctrl

It exits 1 with a message when DIR holds no .py file.
"""
import ast
import pathlib
import sys

KINDS = ("total", "code", "docstring", "comment", "blank")


def docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(path):
    text = path.read_text()
    docs = docstring_lines(ast.parse(text))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), start=1):
        kind = ("docstring" if number in docs else
                "comment" if line.lstrip().startswith("#") else
                "blank" if not line.strip() else "code")
        counts[kind] += 1
        counts["total"] += 1
    return counts


def main(argv):
    default = pathlib.Path(__file__).resolve().parents[1] / "src" / "minimaxctrl"
    root = pathlib.Path(argv[1]) if len(argv) > 1 else default
    rows = {path.name: count(path) for path in sorted(root.glob("*.py"))}
    if not rows:
        sys.exit(f"src_lines.py: no .py file in {root}")
    rows["total"] = {k: sum(r[k] for r in rows.values()) for k in KINDS}
    print(f"{'file':18}" + "".join(f"{k:>10}" for k in KINDS))
    for name, counts in rows.items():
        print(f"{name:18}" + "".join(f"{counts[k]:10}" for k in KINDS))


if __name__ == "__main__":
    main(sys.argv)
