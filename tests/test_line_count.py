"""Tests for the source line counter ``tools/line_count.py``."""

from util import load_tool

line_count = load_tool("line_count")

SOURCE = '''"""Module docstring,
two lines."""
import math  # a trailing comment keeps the line code

    # an indented comment-only line
class C:
    """Class docstring."""
    def f(self):
        \'\'\'Function docstring.\'\'\'
        return "a string, but no docstring"

x = 1
"""A string statement past the first one is code."""
'''


def test_code_lines_leave_out_docstrings_comments_and_blank_lines():
    assert line_count.counts(SOURCE) == (13, 6)
