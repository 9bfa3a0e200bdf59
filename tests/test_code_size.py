import importlib.util
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import chipfire

ROOT = Path(__file__).resolve().parents[1]

#: Parser tokens of the modules that ``import chipfire.cli`` loads, which
#: every command compiles: the package, the dispatcher and the kernel.
DISPATCHER_TOKENS = 3324


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


def test_no_module_reaches_the_parsers_token_step():
    # CPython's parser doubles its token array at 4 096 tokens, which raises
    # the peak RSS of every process that compiles the module by about
    # 0.3 MiB (with PYTHONDONTWRITEBYTECODE set, every CLI call does).
    sizes = _code_size().sizes(ROOT / "src" / "chipfire")
    assert sizes
    assert [(path, tokens) for path, _, _, tokens in sizes if tokens >= 4096] == []


def test_the_dispatcher_stays_below_its_ceiling():
    # Every call compiles what ``import chipfire.cli`` loads before it
    # compiles the module of its own command, so that stays small: 6 271
    # tokens when the dispatcher held every command and the kernel every
    # lane job, at most 4 000 since.
    probe = (
        "import sys, chipfire.cli\n"
        "print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'chipfire'))"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    files = [
        "__init__.py" if name == "chipfire" else name.partition(".")[2] + ".py"
        for name in proc.stdout.split()
    ]
    tokens = {path: tokens for path, _, _, tokens in _code_size().sizes(ROOT / "src" / "chipfire")}
    assert sum(tokens[f] for f in files) <= DISPATCHER_TOKENS <= 4000


def _names_read(path):
    """The names that a module reads: its NAME tokens but the one that a
    ``def`` or ``class`` defines, and its strings whose value is exactly a
    name (the benchmark's tracer names its targets as strings).  Comments
    and docstrings read nothing."""
    names, previous = set(), None
    with tokenize.open(path) as f:
        for tok in tokenize.generate_tokens(f.readline):
            if tok.type == tokenize.NAME and previous not in ("def", "class"):
                names.add(tok.string)
            elif tok.type == tokenize.STRING and tok.string[:1] in "'\"":
                names.add(tok.string[1:-1])
            if tok.type not in (tokenize.COMMENT, tokenize.NL):
                previous = tok.string
    return names


def test_every_public_name_is_read_outside_the_tests():
    # A public name that no module of the package, no script and no
    # benchmark file reads serves only the tests, and leaves the package.
    paths = [
        *(p for p in (ROOT / "src" / "chipfire").glob("*.py") if p.name != "__init__.py"),
        *(ROOT / "scripts").glob("*.py"),
        *(ROOT / "perfbench").glob("*.py"),
    ]
    read = set().union(*map(_names_read, paths))
    assert [name for name in chipfire.__all__ if name not in read] == []
