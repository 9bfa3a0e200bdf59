"""Time ``chipfire`` commands on several source trees, side by side.

    python scripts/bench_cli.py --tree parent=../parent/src --tree change=src \\
        --rounds 5 --out BENCH_11.json \\
        "verify --n 18 --trials 0" "verify --n 2..9 --trials 10 --seed 0"

A command is the arguments of ``python -m chipfire.cli``, or, when its
first word ends in ``.py``, a script and its arguments: each tree runs its
own copy of the script, taken relative to the tree's root (the directory
above its source tree), as in

    python scripts/bench_cli.py --tree parent=../parent/src --tree change=src \\
        --out BENCH_15.json "perfbench/stream_pass.py --n 21 --out /dev/stdout"

Each round runs every command once on every tree, alternating from round to
round which tree goes first.  A run's wall time and peak RSS are those of
the command's own Python process alone, read by the launcher of
``tests/peak_rss.py``.  The JSON written to ``--out`` records the command
line, the host, every run, and per command and tree the median and
quartiles of both; ``wall_ratio`` divides the first tree's median wall time
by each other tree's, and ``wins`` counts, for each tree after the first,
the rounds in which that tree ran the command faster than the first tree
(a tie counts for neither), and ``wall_delta_s`` is the median over the
rounds of that tree's wall time less the first tree's in the same round,
which drift of the host's speed between rounds moves less than the
medians.  Every tree must print the same output for a command, or the
script stops.

A process's peak RSS follows the length of the paths it imports from, so
every tree runs from paths of one length: tree ``k`` of a run is reached
through the symlinks ``<tmp>/<k>/src``, to its source tree, and
``<tmp>/<k>/tree``, to the directory above it, in one temporary directory,
and the child is given these paths unresolved.  ``trees`` in the JSON maps
each name to the real path of its source tree, relative to the working
directory.

The script and every command it starts run pinned to the first CPU the
script may run on, recorded as ``host["pinned_cpu"]``, since the speed of a
shared host can drift differently on each CPU.  Where the platform cannot
set the affinity, the runs are unpinned and ``pinned_cpu`` is null.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shlex
import statistics
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
import peak_rss  # noqa: E402


@contextlib.contextmanager
def _pinned():
    """Pin this process, and so every child it starts, to its first allowed
    CPU, and yield that CPU (None where affinity cannot be set); the old
    affinity is restored on exit."""
    if not hasattr(os, "sched_setaffinity"):
        yield None
        return
    allowed = os.sched_getaffinity(0)
    cpu = min(allowed)
    os.sched_setaffinity(0, {cpu})
    try:
        yield cpu
    finally:
        os.sched_setaffinity(0, allowed)


def _host() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "cpus": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def _argv(command: str, root: Path) -> list[str]:
    """The arguments of ``python`` that run ``command`` on the tree whose
    scripts lie under ``root``."""
    words = command.split()
    if words[0].endswith(".py"):
        return [str(root / words[0]), *words[1:]]
    return ["-m", "chipfire.cli", *words]


def _links(real: dict[str, Path], tmp: Path) -> dict[str, Path]:
    """For each tree, ``tmp/<k>`` holding the symlinks ``src`` to its source
    tree and ``tree`` to the directory above it; ``k`` is the tree's place,
    zero-padded, so every tree's paths have one length."""
    width = len(str(len(real) - 1))
    links = {}
    for k, (name, src) in enumerate(real.items()):
        link = tmp / f"{k:0{width}d}"
        link.mkdir()
        (link / "src").symlink_to(src, target_is_directory=True)
        (link / "tree").symlink_to(src.parent, target_is_directory=True)
        links[name] = link
    return links


def _runs(args: argparse.Namespace, links: dict[str, Path]) -> list[dict]:
    """Every run of every command, each tree reached through its links."""
    runs = []
    for command in args.commands:
        outputs = {}
        for r in range(args.rounds):
            order = list(links) if r % 2 == 0 else list(links)[::-1]
            for name in order:
                link = links[name]
                report = peak_rss.run_python(_argv(command, link / "tree"), args.timeout, link / "src")
                outputs.setdefault(report["out"], name)
                runs.append({"command": command, "tree": name, "round": r, "exit": report["exit"],
                             "wall_s": round(report["wall_s"], 4),
                             "peak_mib": round(report["peak_kib"] / 1024, 2)})
                print(json.dumps(runs[-1]), file=sys.stderr)
        if len(outputs) != 1:
            raise SystemExit(f"trees {sorted(outputs.values())} print different output for {command!r}")
    return runs


def main(argv: list[str] | None = None) -> int:
    with _pinned() as cpu:
        return _bench(argv, cpu)


def _bench(argv: list[str] | None, cpu: int | None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", required=True, metavar="NAME=SRC",
                        help="a source tree holding the chipfire package; repeat for each")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--timeout", type=float, default=600)
    parser.add_argument("--out", required=True)
    parser.add_argument("commands", nargs="+",
                        help="chipfire arguments or a .py script and its arguments, one string per command")
    args = parser.parse_args(argv)
    trees = {name: Path(src).resolve() for name, src in (t.split("=", 1) for t in args.tree)}
    with tempfile.TemporaryDirectory() as tmp:
        runs = _runs(args, _links(trees, Path(tmp)))

    results = {}
    for command in args.commands:
        per_tree = {}
        for name in trees:
            mine = [run for run in runs if run["command"] == command and run["tree"] == name]
            per_tree[name] = {
                "wall_s": _summary([run["wall_s"] for run in mine]),
                "peak_mib": _summary([run["peak_mib"] for run in mine]),
            }
        first, *others = trees
        wall = {(run["tree"], run["round"]): run["wall_s"] for run in runs if run["command"] == command}
        results[command] = {
            **per_tree,
            "wall_ratio": {
                name: round(per_tree[first]["wall_s"]["median"] / per_tree[name]["wall_s"]["median"], 3)
                for name in others
            },
            "wins": {
                name: sum(wall[name, r] < wall[first, r] for r in range(args.rounds))
                for name in others
            },
            "wall_delta_s": {
                name: round(statistics.median(wall[name, r] - wall[first, r] for r in range(args.rounds)), 4)
                for name in others
            },
        }
    report = {
        "command": shlex.join(["python", "scripts/bench_cli.py", *(sys.argv[1:] if argv is None else argv)]),
        "host": {**_host(), "pinned_cpu": cpu},
        "rounds": args.rounds,
        "trees": {name: os.path.relpath(src) for name, src in trees.items()},
        "results": results,
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
