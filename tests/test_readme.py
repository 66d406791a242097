"""The README's quick-start blocks run, and every value their comments
state is what the code returns."""

import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

# What each quick-start comment states, as a check of the value of the
# statement it annotates (an assignment's value is its target's).
CHECKS = {
    "~50.16 deg": lambda v: round(v, 2) == 50.16,
    "~0.0805 mm central-lobe width": lambda v: round(v, 4) == 0.0805,
    "0.0: cos 90 deg, grazing incidence": lambda v: v == 0.0,
    "-> (1.5042157411677022, 41.82): the index and the angle it steers to":
        lambda v: v == (1.5042157411677022, 41.82),
    "3..5 V, n 1.508..1.9": lambda c: (
        (c.v_on_v, c.v_sat_v, c.n_base, round(c.n_base + c.delta_n, 12))
        == (3.0, 5.0, 1.508, 1.9)),
    "~4.53 V": lambda v: round(v, 2) == 4.53,
    "(~4.53 V, ~0.5 mm landing achieved)":
        lambda v: (round(v[0], 2), round(v[1], 1)) == (4.53, 0.5),
}


def quick_start_blocks() -> list[str]:
    text = README.read_text()
    section = text[text.index("## Quick start"):text.index("## Command line")]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def commented_values() -> dict:
    """Run the blocks in one namespace; {comment: value} for each
    statement with a comment on its last line or alone on the next."""
    namespace, values = {}, {}
    for block in quick_start_blocks():
        comments = {tok.start[0]: (tok.string[1:].strip(), tok.line.lstrip())
                    for tok in tokenize.generate_tokens(
                        io.StringIO(block).readline)
                    if tok.type == tokenize.COMMENT}
        for stmt in ast.parse(block).body:
            if isinstance(stmt, ast.Expr):
                value = eval(compile(ast.Expression(stmt.value), "README",
                                     "eval"), namespace)
            else:
                exec(compile(ast.Module([stmt], []), "README", "exec"),
                     namespace)
                value = (namespace[stmt.targets[0].id]
                         if isinstance(stmt, ast.Assign) else None)
            end = stmt.end_lineno
            for row in (end, end + 1):
                comment, line = comments.get(row, (None, ""))
                if comment and (row == end or line.startswith("#")):
                    values[comment] = value
    return values


def test_quick_start_comments_hold():
    values = commented_values()
    assert sorted(values) == sorted(CHECKS)
    for comment, check in CHECKS.items():
        assert check(values[comment]), (comment, values[comment])
