"""Chip-firing on the first-quadrant lattice: streaming tables and checks.

The package computes the arrival table of the game that starts with
``2**n`` chips at the origin, derives the stable configuration, distance
distribution, firing counts, row structure, and difference tables from it,
and cross-validates everything against a brute-force simulator at small n.

Names resolve lazily (PEP 562): ``import chipfire`` loads no submodule, and
the first read of a public name, by ``chipfire.X`` or
``from chipfire import X``, imports the one submodule that defines it.  The
submodules that define public names are attributes too, imported on first
access; :mod:`chipfire.checks` reads ``chipfire.oracle`` that way, so only a
pass that plays the oracle imports it.

So a command of :mod:`chipfire.cli` compiles only the code it runs: this
module, the dispatcher :mod:`chipfire.cli` and the kernel
:mod:`chipfire.core`, which every command loads, then the module of its
family (``_cli_tables`` for ``table``, ``diff`` and ``stable``,
``_cli_summaries`` for ``distance``, ``firings`` and ``segment``,
``_cli_sequences``, ``_cli_verify`` and ``_cli_render``), and the library
modules that command runs.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Every public name, in ``__all__`` order, with the submodule defining it.
_SOURCES = {
    "MAX_EXPONENT": "core",
    "ChipfireError": "core",
    "ChipOverflowError": "core",
    "RowCapExceededError": "core",
    "ParityError": "stable",
    "DegenerateSegmentationError": "structure",
    "Row": "core",
    "initial_row": "core",
    "next_row": "core",
    "intermediate_configuration": "core",
    "row_bound": "core",
    "StableRow": "stable",
    "DistanceDistribution": "stable",
    "stable_row": "stable",
    "stable_configuration": "stable",
    "distance_distribution": "stable",
    "firing_routes": "stable",
    "second_raw_moment": "stable",
    "total_firings": "stable",
    "RowProfile": "structure",
    "LongestRow": "structure",
    "Segmentation": "structure",
    "BottomTriangleReport": "structure",
    "pascal_row": "structure",
    "row_profile": "structure",
    "longest_row": "structure",
    "minimal_row": "structure",
    "minimal_row_sum": "structure",
    "is_minimal": "structure",
    "segment": "structure",
    "check_bottom_conjecture": "structure",
    "DiffRow": "difftable",
    "SignRow": "difftable",
    "diff_row": "difftable",
    "diff_table": "difftable",
    "row_max_abs": "difftable",
    "unimodal_check": "difftable",
    "sign_map": "difftable",
    "OracleState": "oracle",
    "ConfluenceReport": "oracle",
    "STRATEGIES": "oracle",
    "simulate": "oracle",
    "arrivals": "oracle",
    "confluence_check": "oracle",
    "SequenceTable": "sequences",
    "SEQUENCES": "sequences",
    "generate": "sequences",
    "half_nonzero_rows": "sequences",
    "CheckResult": "checks",
    "run_checks": "checks",
    "failures": "checks",
    "minimal_descent_check": "checks",
}

__all__ = list(_SOURCES)


def __getattr__(name: str):
    module = _SOURCES.get(name)
    if module is not None:
        value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
        return value
    if name in _SOURCES.values():
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SOURCES.values()})
