"""Count each module's code lines: those that are neither docstring, comment
nor blank.

    python tests/line_count.py [DIR ...]

With one directory (default src/exprk) it prints each module's count and
the total.  With several, say a checkout of the base commit's src/exprk
and this one's, it prints one column per directory, side by side, and a
module missing from one is shown as "-".  It only reports.
"""

import ast
import glob
import os
import sys


def code_lines(path):
    with open(path) as f:
        src = f.read()
    doc = {ln for n in ast.walk(ast.parse(src))
           if isinstance(n, (ast.Module, ast.ClassDef, ast.FunctionDef))
           and ast.get_docstring(n) is not None
           for ln in range(n.body[0].lineno, n.body[0].end_lineno + 1)}
    return sum(k not in doc and line.strip()[:1] not in ("", "#")
               for k, line in enumerate(src.splitlines(), 1))


def main(dirs):
    if len(dirs) == 1:
        total = 0
        for f in sorted(glob.glob(os.path.join(dirs[0], "*.py"))):
            code = code_lines(f)
            total += code
            print(f"{code:5d} {f}")
        print(f"{total:5d} code lines in total")
        return
    counts = [{os.path.basename(f): code_lines(f)
               for f in glob.glob(os.path.join(d, "*.py"))} for d in dirs]
    for k, d in enumerate(dirs):
        print(f"column {k + 1}: {d}")
    for name in sorted(set().union(*counts)):
        print(" ".join(f"{c[name]:5d}" if name in c else "    -" for c in counts), name)
    print(" ".join(f"{sum(c.values()):5d}" for c in counts), "code lines in total")


if __name__ == "__main__":
    main(sys.argv[1:] or ["src/exprk"])
