"""Count the code lines of Python source files.

A code line is a line that holds a token other than a comment, a
docstring or a line break; blank lines, comment lines and the lines of
module, class and function docstrings are left out.  Prints one line per
file and a total.

    python3 tools/code_lines.py src/preproj
"""

import ast
import io
import os
import sys
import tokenize


def _docstring_lines(tree):
    """The line numbers covered by every docstring in a parsed module."""
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, owners) and ast.get_docstring(node) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines in one file's source text."""
    skip = _docstring_lines(ast.parse(source))
    ignored = (
        tokenize.COMMENT,
        tokenize.NL,
        tokenize.NEWLINE,
        tokenize.INDENT,
        tokenize.DEDENT,
        tokenize.ENDMARKER,
    )
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in ignored:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def python_files(paths):
    """The .py files named by the paths, walking directories in order."""
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs.sort()
                for name in sorted(files):
                    if name.endswith(".py"):
                        yield os.path.join(root, name)
        else:
            yield path


def main(argv):
    if not argv:
        print("usage: python3 tools/code_lines.py PATH...", file=sys.stderr)
        return 2
    total = 0
    for path in python_files(argv):
        with open(path, encoding="utf-8") as f:
            n = code_lines(f.read())
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
