import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "codelines.py"
spec = importlib.util.spec_from_file_location("codelines", TOOL)
codelines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(codelines)

SOURCE = '''"""Module docstring,
on two lines."""

# A comment.
import math


class Box:
    """Class docstring."""

    size = 2  # a trailing comment keeps the line

    def area(self):
        """Method docstring,

        with a blank line."""
        text = """a string that is
not a docstring"""
        return (self.size
                * self.size)
'''


def test_code_lines_skip_blanks_comments_and_docstrings():
    # import, class, size, def, the two lines of text and of the return.
    assert codelines.docstring_lines(SOURCE) == {1, 2, 9, 14, 15, 16}
    assert codelines.code_lines(SOURCE) == 8


def test_count_reports_lines_and_bytes_per_module(tmp_path):
    (tmp_path / "b.py").write_text(SOURCE)
    (tmp_path / "a.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "notes.txt").write_text("y = 2\n")
    counts = codelines.count(tmp_path)
    assert list(counts) == ["a.py", "b.py"]
    assert counts["a.py"] == (1, 14)
    assert counts["b.py"] == (8, len(SOURCE.encode()))
