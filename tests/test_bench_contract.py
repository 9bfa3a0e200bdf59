"""What the benchmark under ``perfbench/`` reads of the package.

The benchmark runs the committed ``perfbench/`` scripts against each
version of the package, so a name they wrap or call that the package drops
would break the benchmark and no test.  These tests load the scripts by
path, from their source (no bytecode is written next to them), and pin
that reach.
"""

import importlib
import json
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    expected = reference["smoke"]["stream"]
    result = _load("stream_pass").run(9)
    assert {key: result[key] for key in expected} == expected
