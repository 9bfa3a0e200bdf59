import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _code_size():
    spec = importlib.util.spec_from_file_location("code_size", ROOT / "scripts" / "code_size.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


A = '''"""Module docstring,
on two lines."""

import os  # a comment on a code line


def f(x):
    """One-line docstring."""
    # a comment line
    return (x +
            1)
'''

B = '''class C:
    """Class docstring."""

    text = """a string that is
not a docstring"""

    def g(self):
        return 1
'''


def test_counts_a_two_file_package(tmp_path, capsys):
    pkg = tmp_path / "pkg"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "a.py").write_text(A)
    (pkg / "sub" / "b.py").write_text(B)
    # a.py: import, def, return and its continuation; b.py: class, the
    # two-line string assignment, def, return.  Tokens: every token but the
    # comments and the NL tokens (blank lines, breaks inside brackets), so a
    # docstring is one and each INDENT, DEDENT, NEWLINE and ENDMARKER counts.
    assert _code_size().main([str(pkg)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "module    physical  code  tokens",
        "a.py            11     4      24",
        "sub/b.py         8     5      25",
        "total           19     9      49",
    ]


def test_refuses_anything_but_one_directory(tmp_path, capsys):
    assert _code_size().main([]) == 2
    assert _code_size().main([str(tmp_path / "missing")]) == 2
    assert capsys.readouterr().err.startswith("usage: ")
