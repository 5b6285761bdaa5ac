"""scripts/code_lines.py counts the lines that hold code: not blank lines,
comments or docstrings, and each line of a continued statement."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"

SNIPPET = '''"""Module docstring,
over two lines."""

import math  # a trailing comment does not hide the code


# a comment line
def f(x):
    """Function docstring."""
    total = (x +
             math.pi)
    text = """a multi-line string
that is not a docstring"""
    return total, text
'''


def load_script():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_only():
    # import, def, the two lines of the continued sum, the two of the
    # string assignment and the return
    assert load_script().code_lines(SNIPPET) == 7


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n\n# note\n")
    assert load_script().main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["7", "a.py", "1", "b.py", "8", "total"]
