"""Lines of Python by kind: code, docstring, comment and blank, per directory.

    python tests/line_counts.py    (from the repository's root)

Each line of each `*.py` file counts once, by `tokenize`: a docstring line
is a line of a string that is a statement of its own; a comment line holds
only a comment; a blank line holds no token outside a string; every other
line is code, a continued string included.
"""

import io
import pathlib
import tokenize

KINDS = ("code", "docstring", "comment", "blank")
SKIP = {tokenize.NL, tokenize.NEWLINE, tokenize.ENDMARKER}


def count(source: str) -> dict:
    """The lines of `source` of each kind in KINDS, and their total."""
    kind = {}  # line number -> kind; code takes precedence
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(source).readline)
              if t.type not in (tokenize.INDENT, tokenize.DEDENT)]
    for i, tok in enumerate(tokens):
        if tok.type == tokenize.COMMENT:
            kind.setdefault(tok.start[0], "comment")
        elif tok.type not in SKIP:
            alone = (tok.type == tokenize.STRING and (i == 0 or tokens[i - 1].type in SKIP)
                     and tokens[i + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER))
            for line in range(tok.start[0], tok.end[0] + 1):
                kind[line] = "code" if not alone or kind.get(line) == "code" else "docstring"
    lines = source.splitlines()
    out = {k: sum(v == k for v in kind.values()) for k in KINDS}
    out["blank"] = sum(n not in kind for n in range(1, len(lines) + 1))
    return {**out, "total": len(lines)}


def count_dir(path) -> dict:
    totals = dict.fromkeys((*KINDS, "total"), 0)
    for file in sorted(pathlib.Path(path).glob("*.py")):
        for k, v in count(file.read_text()).items():
            totals[k] += v
    return totals


if __name__ == "__main__":
    for path in ("src/so3track", "tests"):
        print(path, " ".join(f"{k}={v}" for k, v in count_dir(path).items()))
