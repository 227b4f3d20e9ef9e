"""The README's Python examples run as written and give the results their
comments state."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks():
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_python_examples_run_in_order():
    # one namespace, as a reader pastes the blocks into one session; a line
    # that is a bare expression with a comment, as `result.verdict()  # 'tight'`,
    # must evaluate to the literal the comment starts with (up to a colon)
    blocks = _python_blocks()
    assert len(blocks) >= 3
    namespace: dict = {}
    stated = 0
    for block in blocks:
        lines = block.splitlines()
        for stmt in ast.parse(block).body:
            code = compile(ast.Module([stmt], []), str(README), "exec")
            line = lines[stmt.lineno - 1]
            if not isinstance(stmt, ast.Expr) or "#" not in line:
                exec(code, namespace)
                continue
            comment = line.split("#", 1)[1].split(":", 1)[0].strip()
            value = eval(compile(ast.Expression(stmt.value), str(README), "eval"), namespace)
            assert value == ast.literal_eval(comment), line
            stated += 1
    assert stated >= 3
