"""The command block under "## Command line" in README.md runs as written,
the scorecard table matches the checks and the tests that break them, and
the "Sequences" bullet names every id of ``SEQUENCES`` and its OEIS id.

Every ``chipfire ...`` line of the block runs in process through
``cli.main``, in a temporary directory, and must exit 0.  The figures its
comments state are read back from the output.
"""

import json
import re
import shlex
from pathlib import Path

import test_checks
from chipfire import checks, cli, sequences

README = Path(__file__).resolve().parent.parent / "README.md"


def _command_lines() -> list[tuple[list[str], str]]:
    """``(argv, comment)`` of each line of the block, ``chipfire`` dropped."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1]
    block = re.search(r"^```\n(.*?)^```$", section, re.S | re.M).group(1)
    lines = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "chipfire", line
        lines.append((argv[1:], comment.strip()))
    return lines


def _row_count(out: str, stated: re.Match) -> None:
    assert json.loads(out)["row_count"] == int(stated[1])


def _total_firings(out: str, stated: re.Match) -> None:
    assert out == f"{stated[1]},{stated[2]}\n"


def _row_split(out: str, stated: re.Match) -> None:
    # n, then the start and stop of the four parts, then the longest row.
    bounds = [int(v) for v in out.split(",")[1:9]]
    sizes = [stop - start for start, stop in zip(bounds[::2], bounds[1::2])]
    assert sizes == [int(v) for v in stated.groups()]


#: The figures the comments state, and how each is read from the output.
FIGURES = {
    r"row_count \((\d+)\)": _row_count,
    r"T\((\d+)\) = (\d+)": _total_firings,
    r"(\d+) \+ (\d+) \+ (\d+) \+ (\d+) row split": _row_split,
}


def test_command_block_runs(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    lines = _command_lines()
    assert len(lines) == 11
    checked = []
    for argv, comment in lines:
        capsys.readouterr()
        assert cli.main(argv) == 0, argv
        out = capsys.readouterr().out
        for pattern, check in FIGURES.items():
            stated = re.search(pattern, comment)
            if stated:
                check(out, stated)
                checked.append(pattern)
    assert sorted(checked) == sorted(FIGURES)


def _scorecard_table() -> list[list[str]]:
    """The cells of each row of the scorecard table, backticks dropped."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## The `verify` scorecard and the paper\n", 1)[1]
    rows = [line for line in section.split("\n## ", 1)[0].splitlines() if line.startswith("|")]
    return [[cell.strip().strip("`") for cell in row.strip("|").split("|")] for row in rows[2:]]


#: The parts of the paper's abstract a scorecard line may check.
SUBJECTS = {
    "parity theorem", "top triangle", "midsection", "bottom triangle",
    "row properties", "row count", "difference tables", "the game",
}


def test_scorecard_table():
    table = _scorecard_table()
    assert [row[0] for row in table] == list(checks.CHECK_NAMES)
    assert {row[1] for row in table} <= SUBJECTS
    flags = {r.name: r.advisory for r in checks.scorecard([6], oracle_trials=2)}
    assert {name: kind == "advisory" for name, _, kind, _ in table} == flags
    for name, _, _, fails in table:
        keyed = re.fullmatch(r'(TABLE_CORRUPTIONS|DIFF_CORRUPTIONS)\["([\w-]+)"\]', fails)
        if keyed:
            assert keyed[2] == name and name in getattr(test_checks, keyed[1]), fails
        else:
            assert callable(getattr(test_checks.TestRerouteMutations, fails)), fails


def test_sequences_bullet_names_the_registry():
    text = README.read_text(encoding="utf-8")
    bullet = text.split("\n- **Sequences**", 1)[1].split("\n- ", 1)[0].split("\n\n", 1)[0]
    bullet = " ".join(bullet.split())
    for seq in sequences.SEQUENCES.values():
        assert f"`{seq.id}`" in bullet, seq.id
        assert seq.oeis_id in bullet, seq.oeis_id
