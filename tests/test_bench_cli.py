import importlib.util
import json
import os
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _bench_cli():
    spec = importlib.util.spec_from_file_location("bench_cli", ROOT / "scripts" / "bench_cli.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_runs_scripts_and_commands_on_each_tree(tmp_path):
    # A command whose first word ends in .py runs that script of each tree.
    out = tmp_path / "bench.json"
    commands = ["perfbench/stream_pass.py --n 4 --out /dev/stdout", "table --n 3"]
    trees = ["--tree", f"a={ROOT / 'src'}", "--tree", f"b={ROOT / 'src'}"]
    assert _bench_cli().main([*trees, "--rounds", "1", "--out", str(out), *commands]) == 0
    report = json.loads(out.read_text())
    assert [(r["command"], r["exit"]) for r in report["runs"]] == [
        (c, 0) for c in commands for _ in "ab"
    ]
    assert set(report["results"]) == set(commands)


def test_wins_count_the_rounds_each_tree_ran_faster(tmp_path):
    # wins[name] is the number of rounds in which tree name ran faster than
    # the first tree; a tie counts for neither.
    out = tmp_path / "bench.json"
    trees = [arg for name in "abc" for arg in ("--tree", f"{name}={ROOT / 'src'}")]
    assert _bench_cli().main([*trees, "--rounds", "3", "--out", str(out), "table --n 3"]) == 0
    report = json.loads(out.read_text())
    wall = {(r["tree"], r["round"]): r["wall_s"] for r in report["runs"]}
    assert report["results"]["table --n 3"]["wins"] == {
        name: len([r for r in range(3) if wall[name, r] < wall["a", r]]) for name in "bc"
    }


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
def test_runs_pinned_to_one_cpu(tmp_path):
    # Every command sees the one CPU the script pins; the caller's affinity
    # is back once main returns.
    (tmp_path / "src").mkdir()
    (tmp_path / "affinity.py").write_text(
        "import os, sys\n"
        "open(sys.argv[1], 'w').write(repr(sorted(os.sched_getaffinity(0))))\n"
    )
    seen, out = tmp_path / "seen.txt", tmp_path / "bench.json"
    before = os.sched_getaffinity(0)
    tree = ["--tree", f"t={tmp_path / 'src'}"]
    assert _bench_cli().main([*tree, "--rounds", "1", "--out", str(out), f"affinity.py {seen}"]) == 0
    assert os.sched_getaffinity(0) == before
    assert seen.read_text() == repr([min(before)])
    assert json.loads(out.read_text())["host"]["pinned_cpu"] == min(before)
