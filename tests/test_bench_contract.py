"""What the benchmark under ``perfbench/`` reads of the package.

The benchmark runs the committed ``perfbench/`` scripts against each
version of the package, so a name they wrap or call that the package drops
would break the benchmark and no test.  These tests load the scripts by
path, from their source (no bytecode is written next to them), and pin
that reach, and the bytes of the outputs that the smoke run checks.
"""

import hashlib
import importlib
import json
import types
from pathlib import Path

import pytest

from chipfire.cli import main

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
SMOKE = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))["smoke"]


def _load(name):
    path = BENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def test_every_traced_name_resolves_but_the_cache():
    # The package has no cache module; its two names stay 0 in every run.
    absent = []
    for module_name, names in _load("tracer").TARGETS.items():
        try:
            module = importlib.import_module(f"chipfire.{module_name}")
        except ImportError:
            absent.extend(f"{module_name}.{name}" for name in names)
            continue
        absent.extend(f"{module_name}.{name}" for name in names if not hasattr(module, name))
    assert absent == ["cache.cache_get", "cache.cache_put"]


def test_stream_pass_matches_the_smoke_reference():
    expected = SMOKE["stream"]
    result = _load("stream_pass").run(9)
    assert {key: result[key] for key in expected} == expected


#: The smoke run's CLI commands, at its sizes, by the reference they meet.
SMOKE_COMMANDS = {
    **{(name, "cli-session"): f"{name} --n 8" for name in
       ("table", "stable", "distance", "firings", "diff", "segment")},
    ("verify-checks", "verify"): "verify --n 8 --trials 0",
    ("verify-oracle", "verify"): "verify --n 2..4 --trials 3 --seed 0",
}


@pytest.mark.parametrize("name, workload", sorted(SMOKE_COMMANDS))
def test_cli_outputs_match_the_smoke_reference(tmp_path, name, workload):
    out = tmp_path / "out.txt"
    assert main([*SMOKE_COMMANDS[name, workload].split(), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SMOKE[workload][name]
    if name == "firings":
        assert out.read_text().strip() == f"8,{SMOKE[workload]['total_firings']}"
