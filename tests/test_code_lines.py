import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _counter():
    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SAMPLE = '''"""Module docstring,
two lines."""

# a comment

import os  # code with a comment


class A:
    """Class docstring."""

    x = """a string that is
    not a docstring"""

    def f(self):
        """Function
        docstring."""
        # comment
        return (1,
                2)
'''


def test_code_lines_skips_blanks_comments_and_docstrings():
    # counted: import, class, x = (2 lines), def, return (2 lines)
    assert _counter().code_lines(SAMPLE) == 7


def test_code_lines_totals_the_package(capsys):
    assert _counter().main([str(ROOT / "src" / "cohft")]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[-1][1] == "total"
    assert sum(int(count) for count, _ in rows[:-1]) == int(rows[-1][0])
    assert "config.py" in {name for _, name in rows}
