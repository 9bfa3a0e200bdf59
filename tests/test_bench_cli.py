import importlib.util
import json
from pathlib import Path

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
