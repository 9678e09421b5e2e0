"""Count each module's code lines: those that are neither docstring, comment
nor blank.

    python tests/line_count.py [DIR ...]

With one directory (default src/exprk) it prints each module's count and
the total.  With several, say a checkout of the base commit's src/exprk
and this one's, it prints one column per directory, side by side, and a
module missing from one is shown as "-"; then, in the same columns, each
top-level function or class whose code lines differ between them, added
and removed ones included.  It only reports.
"""

import ast
import glob
import os
import sys


def code_lines(path):
    """(code lines of the module at path, {name: code lines} over its
    top-level functions and classes, decorators included)."""
    with open(path) as f:
        src = f.read()
    tree = ast.parse(src)
    doc = {ln for n in ast.walk(tree)
           if isinstance(n, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
           and ast.get_docstring(n) is not None
           for ln in range(n.body[0].lineno, n.body[0].end_lineno + 1)}
    code = [k for k, line in enumerate(src.splitlines(), 1)
            if k not in doc and line.strip()[:1] not in ("", "#")]
    defs = {}
    for n in tree.body:
        if isinstance(n, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([n.lineno] + [d.lineno for d in n.decorator_list])
            defs[n.name] = sum(first <= k <= n.end_lineno for k in code)
    return len(code), defs


def _row(counts, name):
    return " ".join(f"{c[name]:5d}" if name in c else "    -" for c in counts) + " " + name


def main(dirs):
    if len(dirs) == 1:
        total = 0
        for f in sorted(glob.glob(os.path.join(dirs[0], "*.py"))):
            code = code_lines(f)[0]
            total += code
            print(f"{code:5d} {f}")
        print(f"{total:5d} code lines in total")
        return
    found = [{os.path.basename(f): code_lines(f)
              for f in glob.glob(os.path.join(d, "*.py"))} for d in dirs]
    counts = [{name: code for name, (code, _) in c.items()} for c in found]
    defs = [{f"{name}:{d}": n for name, (_, ds) in c.items() for d, n in ds.items()}
            for c in found]
    for k, d in enumerate(dirs):
        print(f"column {k + 1}: {d}")
    for name in sorted(set().union(*counts)):
        print(_row(counts, name))
    print(" ".join(f"{sum(c.values()):5d}" for c in counts), "code lines in total")
    changed = [name for name in sorted(set().union(*defs))
               if len({c.get(name) for c in defs}) > 1]
    print("top-level functions and classes whose code lines differ:" if changed
          else "no top-level function or class differs in code lines")
    for name in changed:
        print(_row(defs, name))


if __name__ == "__main__":
    main(sys.argv[1:] or ["src/exprk"])
