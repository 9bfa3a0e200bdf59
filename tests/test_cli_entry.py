"""The process entry, ``python -m chipfire.cli``, against in-process ``main``,
and the parser that each call builds."""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chipfire
from chipfire import checks, cli
from forge import corrupted_table

#: This chipfire, and this directory for the probe's ``forge``.
PATH = os.pathsep.join([str(Path(chipfire.__file__).parents[1]), str(Path(__file__).parent)])
ENV = dict(os.environ, PYTHONPATH=PATH, COLUMNS="80")


def python(*args):
    """``python *args`` in a fresh interpreter with this chipfire importable."""
    return subprocess.run([sys.executable, *args], capture_output=True, timeout=60, env=ENV)


def in_process(capsys, argv):
    """Exit status, stdout and stderr of ``main(argv)`` as bytes."""
    try:
        status = cli.main(argv)
    except SystemExit as exc:
        status = exc.code
    out, err = capsys.readouterr()
    return status, out.encode(), err.encode()


#: Runs ``chipfire.cli`` as ``__main__``, as ``python -m`` does, with
#: ``sys.argv`` from the probe's own arguments, after patching in the
#: corrupted table when the first of them is ``corrupt``; at exit it writes
#: whether the entry froze the heap to stderr.
ENTRY_PROBE = """
import atexit, gc, runpy, sys
atexit.register(lambda: sys.stderr.write(f"frozen={gc.get_freeze_count() > 0}\\n"))
argv = sys.argv[1:]
if argv[0] == "corrupt":
    from chipfire import checks
    from forge import corrupted_table
    rows = corrupted_table(6)
    checks.intermediate_configuration = lambda n: iter(rows)
    argv = argv[1:]
sys.argv = ["chipfire", *argv]
runpy.run_module("chipfire.cli", run_name="__main__", alter_sys=True)
"""


class TestEntryBytes:
    """Every byte and exit status of the entry is that of ``main``."""

    @pytest.fixture(autouse=True)
    def columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    @pytest.mark.parametrize("command", ["table", "diff"])
    @pytest.mark.parametrize("options", [[], ["--header"], ["--format", "json"]])
    def test_stdout(self, capsys, command, options):
        argv = [command, "--n", "6", *options]
        proc = python("-m", "chipfire.cli", *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == in_process(capsys, argv)
        assert proc.returncode == 0 and proc.stdout

    @pytest.mark.parametrize("command", ["table", "diff"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_out_file(self, capsys, tmp_path, command, fmt):
        argv = [command, "--n", "6", "--format", fmt, "--out"]
        proc = python("-m", "chipfire.cli", *argv, str(tmp_path / "entry"))
        status = in_process(capsys, [*argv, str(tmp_path / "main")])
        assert (proc.returncode, proc.stdout, proc.stderr) == status == (0, b"", b"")
        assert (tmp_path / "entry").read_bytes() == (tmp_path / "main").read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "--n", "3", "extra"],  # argparse's usage error
            ["bogus"],
            ["segment", "--n", "0"],  # a ValueError from the library
        ],
    )
    def test_usage_errors_exit_two(self, capsys, argv):
        proc = python("-m", "chipfire.cli", *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == in_process(capsys, argv)
        assert proc.returncode == 2 and proc.stderr

    def test_unwritable_out_exits_three(self, capsys, tmp_path):
        argv = ["table", "--n", "2", "--out", str(tmp_path / "no" / "file.csv")]
        proc = python("-m", "chipfire.cli", *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == in_process(capsys, argv)
        assert proc.returncode == 3 and proc.stderr

    def test_failed_invariant_exits_one(self, capsys, monkeypatch):
        argv = ["verify", "--n", "6", "--trials", "0"]
        proc = python("-c", ENTRY_PROBE, "corrupt", *argv)
        rows = corrupted_table(6)
        monkeypatch.setattr(checks, "intermediate_configuration", lambda n: iter(rows))
        status, out, err = in_process(capsys, argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (status, out, err + b"frozen=True\n")
        assert status == 1 and b" FAIL " in out


class TestEntryModule:
    """The entry compiles and runs ``cli.py`` once."""

    @pytest.mark.parametrize("argv", [["table", "--n", "2"], ["segment", "--n", "2"]])
    def test_entry_runs_the_dispatcher_once(self, argv):
        # python -m runs cli.py as __main__; the command modules import
        # chipfire.cli, which is that same module, not a second copy.
        probe = (
            "import atexit, sys\n"
            "atexit.register(lambda: sys.stderr.write("
            "f\"cli={sys.modules['chipfire.cli'].__name__}\\n\"))\n"
        ) + ENTRY_PROBE
        proc = python("-c", probe, *argv)
        assert proc.returncode == 0
        assert proc.stderr == b"frozen=True\ncli=__main__\n"


class TestHeapFreeze:
    """Only the process entry freezes the heap, whatever its exit status."""

    @pytest.mark.parametrize("argv,status", [(["table", "--n", "3"], 0), (["bogus"], 2)])
    def test_entry_freezes_before_exit(self, argv, status):
        proc = python("-c", ENTRY_PROBE, *argv)
        assert proc.returncode == status
        assert proc.stderr.endswith(b"frozen=True\n")

    def test_import_and_main_freeze_nothing(self):
        proc = python(
            "-c",
            "import contextlib, gc, io\n"
            "import chipfire.cli\n"
            "print(gc.get_freeze_count())\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    chipfire.cli.main(['table', '--n', '3'])\n"
            "print(gc.get_freeze_count())\n",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [b"0", b"0"]


def commands_built(argv):
    parser = cli.build_parser(argv)
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return list(sub.choices)


class TestParser:
    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_a_leading_command_builds_its_subparser_alone(self, command):
        assert commands_built([command, "--help"]) == [command]

    @pytest.mark.parametrize(
        "argv",
        [[], ["-h", "table"], ["--n", "3", "table"], ["--", "table", "--n", "3"], ["bogus"]],
    )
    def test_anything_else_builds_every_subparser(self, argv):
        assert commands_built(argv) == list(cli._COMMANDS)
