"""Run one workload process with timing wrappers on chipfire's public functions.

The wrappers are installed from outside the package: each public function
named in ``TARGETS`` is replaced at every ``chipfire.*`` module attribute
that holds it, which is where its callers look it up (``from .core import
intermediate_configuration`` binds a second attribute in the importing
module, and that one is replaced too).  A module or name that does not
exist at the traced commit is listed as absent; its metrics stay 0.

Times are inclusive and summed over calls.  ``cli.self_s`` is the time
inside ``cli.main`` minus the time spent in wrapped calls below it.

    PYTHONPATH=src python3 perfbench/tracer.py --counters c.json cli table --n 20 --out t.csv
    PYTHONPATH=src python3 perfbench/tracer.py --counters c.json stream --n 24 --out s.json

The counters file holds ``{"totals": {metric: value}, "absent": [name, ...]}``.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

#: Wrapped public names, by module, with the metric that sums their time.
TARGETS = {
    "core": {"intermediate_configuration": "core.stream_s", "Row": "core.row_build_s"},
    "difftable": {
        "diff_row": "difftable.diff_row_s",
        "row_max_abs": "difftable.row_max_abs_s",
        "unimodal_check": "difftable.unimodal_s",
    },
    "structure": {
        "row_profile": "structure.row_profile_s",
        "segment": "structure.segment_s",
        "check_bottom_conjecture": "structure.conjecture_s",
    },
    "stable": {
        "stable_row": "stable.stable_row_s",
        "distance_distribution": "stable.distance_s",
        "second_raw_moment": "stable.moment_s",
    },
    "checks": {"run_checks": "checks.run_checks_s"},
    "oracle": {"confluence_check": "oracle.confluence_s", "simulate": "oracle.simulate_s"},
    "cache": {"cache_get": "cache.get_s", "cache_put": "cache.put_s"},
    "cli": {"main": "cli.main_s"},
}


class Tracer:
    """Per-metric totals plus a stack of child time for self-time accounting."""

    def __init__(self) -> None:
        self.totals: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.row_cls = None
        # stack[-1] accumulates the time of wrapped calls made inside the
        # innermost open wrapped call; stack[0] belongs to the top level.
        self.stack = [0.0]

    def timed(self, key: str, fn, after=None):
        totals, stack = self.totals, self.stack
        self_key = key[:-2] + "_self_s"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                child = stack.pop()
                stack[-1] += dur
                totals[key] += dur
                totals[self_key] += dur - child
            if after is not None:
                after(result)
            return result

        return wrapper

    def stream(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return _TracedStream(tracer, fn(*args, **kwargs))

        return wrapper

    def rebuild(self, row) -> None:
        """Build ``row`` again through the public constructor: the validation cost."""
        try:
            self.row_cls(index=row.index, y_min=row.y_min, values=row.values)
        except (TypeError, AttributeError):
            self.absent.append("core.Row(index, y_min, values)")
            self.row_cls = None


class _TracedStream:
    """Row iterator that times each step and counts rows and values."""

    def __init__(self, tracer: Tracer, inner):
        self._tracer = tracer
        self._inner = iter(inner)

    def __iter__(self):
        return self

    def __getattr__(self, name):
        # Callers may read stream attributes such as ``rows_emitted``.
        return getattr(self._inner, name)

    def __next__(self):
        tracer = self._tracer
        totals = tracer.totals
        t0 = perf_counter()
        try:
            row = next(self._inner)
        except StopIteration:
            dur = perf_counter() - t0
            totals["core.stream_s"] += dur
            tracer.stack[-1] += dur
            raise
        t1 = perf_counter()
        width = len(row.values)
        totals["core.rows"] += 1
        totals["core.values"] += width
        if width > totals["core.widest_row"]:
            totals["core.widest_row"] = width
        if tracer.row_cls is not None:
            tracer.rebuild(row)
        t2 = perf_counter()
        totals["core.stream_s"] += t1 - t0
        totals["core.row_build_s"] += t2 - t1
        tracer.stack[-1] += t2 - t0
        return row


def _count_checks(tracer: Tracer, results) -> None:
    tracer.totals["checks.results"] += len(results)
    tracer.totals["checks.failures"] += sum(
        1 for r in results if not r.passed and not getattr(r, "advisory", False)
    )


def _count_simulation(tracer: Tracer, state) -> None:
    tracer.totals["oracle.simulations"] += 1
    tracer.totals["oracle.moves"] += state.moves


def _count_lookup(tracer: Tracer, rows) -> None:
    tracer.totals["cache.lookups"] += 1
    tracer.totals["cache.hits"] += rows is not None


def _count_put(tracer: Tracer, path) -> None:
    tracer.totals["cache.file_bytes"] += os.path.getsize(path)


AFTER = {
    "checks.run_checks": _count_checks,
    "oracle.simulate": _count_simulation,
    "cache.cache_get": _count_lookup,
    "cache.cache_put": _count_put,
}


def _replace(original, wrapper) -> None:
    """Point every chipfire module attribute that holds ``original`` at ``wrapper``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "chipfire" or name.startswith("chipfire.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    importlib.import_module("chipfire")
    for mod_name, names in TARGETS.items():
        try:
            module = importlib.import_module(f"chipfire.{mod_name}")
        except ImportError:
            tracer.absent.extend(f"{mod_name}.{name}" for name in names)
            continue
        for name, key in names.items():
            qual = f"{mod_name}.{name}"
            original = getattr(module, name, None)
            if original is None:
                tracer.absent.append(qual)
            elif qual == "core.Row":
                tracer.row_cls = original
            elif qual == "core.intermediate_configuration":
                _replace(original, tracer.stream(original))
            else:
                after = AFTER.get(qual)
                hook = functools.partial(after, tracer) if after else None
                _replace(original, tracer.timed(key, original, hook))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--counters", required=True, help="where to write the counters JSON")
    parser.add_argument("kind", choices=("cli", "stream"))
    parser.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args()

    tracer = Tracer()
    install(tracer)
    code = 0
    try:
        if opts.kind == "stream":
            import stream_pass

            stream_pass.main(opts.args)
        else:
            code = importlib.import_module("chipfire.cli").main(opts.args)
    finally:
        with open(opts.counters, "w", encoding="utf-8") as fh:
            json.dump({"totals": tracer.totals, "absent": tracer.absent}, fh, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
