"""The code-line count of tools/code_lines.py on hand-made sources."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)


def test_blank_comment_and_docstring_lines_do_not_count():
    source = '''"""Module docstring,
over two lines."""

# a comment line
import math


class Thing:
    """Class docstring."""

    def method(self):
        """Method docstring,
        over two lines.
        """
        # an indented comment

        return math.pi


def function():
    """Function docstring."""
    return 1
'''
    # import, class, def, return, def, return
    assert code_lines.code_lines(source) == 6


def test_a_multiline_string_that_is_no_docstring_counts_on_every_line():
    source = 'def f():\n    x = 1\n    return """a\nb\nc"""\n'
    assert code_lines.code_lines(source) == 5
    assert code_lines.docstring_lines(source) == set()


def test_a_code_line_with_a_trailing_comment_counts():
    assert code_lines.code_lines("x = 1  # one\n# alone\ny = 2\n") == 2


def test_main_prints_the_sum_of_the_module_counts(capsys):
    assert code_lines.main() == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    *modules, (label, total) = rows
    assert label == "total" and len(modules) > 1
    assert int(total) == sum(int(count) for _, count in modules)
    assert all(name.endswith(".py") for name, _ in modules)
