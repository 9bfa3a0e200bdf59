"""Benchmark for the chipfire package.

Run from the repository root; only the standard library is needed:

    python3 perfbench/run.py --workload stream --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke        # each workload once at tiny n
    python3 perfbench/run.py --self-test    # a corrupted reference must count as failed

A run repeats one workload in fresh child processes, one at a time, for
``--seconds`` seconds: it starts another repetition only while one more
fits.  The run and its children are pinned to one CPU, and every child is
bracketed by samples of the calibration kernel in ``calibrate.py``, so
that times can be rescaled to the reference host speed (see there).
Each child's output is checked against the frozen reference in
``reference.json``.  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it alternates plain repetitions with traced
ones (``tracer.py``) and reports the per-layer metrics.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Workloads (see README.md for why each exists and what it should move):

    stream       one process: the n=21 streaming pass of stream_pass.py
    cli-session  six ``python -m chipfire.cli`` commands at n=18 sharing a
                 fresh CHIPFIRE_CACHE directory
    verify       ``verify --n 18 --trials 0`` and
                 ``verify --n 2..9 --trials 10 --seed <seed>``

An operation is one child process; it fails on a nonzero exit, a timeout or
an output that differs from the reference.  Peak RSS is read per child with
``os.wait4``.  Scratch files go to ``.perfbench_tmp/`` in the checkout and
are deleted afterwards.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from calibrate import REFERENCE_S, HostClock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench_tmp"
REFERENCE = BENCH / "reference.json"
#: CPUs this process may use at start; the run pins itself to the first.
CPUS = sorted(os.sched_getaffinity(0))

#: Every run, repetitions included, must end well inside 180 s.
RUN_CAP_S = 165.0
#: No single child may run longer than this.
PROC_TIMEOUT_S = 120.0
#: Fresh-interpreter imports after each untraced repetition; setup_s is
#: the median over the run.
SETUP_PER_ROUND = 3

SIZES = {
    "full": {"stream": 21, "cli": 18, "verify": 18, "oracle": "2..9", "trials": 10},
    "smoke": {"stream": 9, "cli": 8, "verify": 8, "oracle": "2..4", "trials": 3},
}
WORKLOADS = ("stream", "cli-session", "verify")
CLI_SESSION = ("table", "stable", "distance", "firings", "diff", "segment")
CLI_COMMANDS = CLI_SESSION + ("verify-checks", "verify-oracle")

END_TO_END = {
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "ok_frac": "ratio",
}
_TRACE_UNITS = {
    "core.rows": "count",
    "core.values": "count",
    "core.widest_row": "count",
    "core.stream_s": "s",
    "core.row_build_s": "s",
    "difftable.diff_row_s": "s",
    "difftable.row_max_abs_s": "s",
    "difftable.unimodal_s": "s",
    "structure.row_profile_s": "s",
    "structure.segment_s": "s",
    "structure.conjecture_s": "s",
    "stable.stable_row_s": "s",
    "stable.distance_s": "s",
    "stable.moment_s": "s",
    "checks.run_checks_s": "s",
    "checks.results": "count",
    "checks.failures": "count",
    "oracle.confluence_s": "s",
    "oracle.simulate_s": "s",
    "oracle.simulations": "count",
    "oracle.moves": "count",
    "oracle.moves_per_s": "1/s",
    "cache.lookups": "count",
    "cache.hits": "count",
    "cache.hit_ratio": "ratio",
    "cache.get_s": "s",
    "cache.put_s": "s",
    "cache.file_bytes": "B",
    "cli.self_s": "s",
    "cli.output_bytes": "B",
}
PER_LAYER = {
    **_TRACE_UNITS,
    **{f"cli.{c}.{m}": u for c in CLI_COMMANDS for m, u in (("wall_s", "s"), ("peak_rss_mb", "MiB"))},
    "trace.overhead_frac": "ratio",
    "trace.absent_names": "count",
    "host.cal_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here (no package, or it does not import)."""


# ---------------------------------------------------------------------------
# child processes


@dataclass
class Proc:
    name: str
    wall_s: float
    peak_rss_mb: float
    error: str | None
    #: Reference seconds per wall second while this child ran (calibrate.py).
    scale: float
    out_bytes: int = 0
    counters: dict | None = None

    @property
    def ref_s(self) -> float:
        return self.wall_s * self.scale


def _child_env(tmp: Path, cache_dir: Path | None = None) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("CHIPFIRE_CACHE", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(tmp)
    if cache_dir is not None:
        env["CHIPFIRE_CACHE"] = str(cache_dir)
    return env


def spawn(argv: list[str], env: dict, log: Path, deadline: float) -> tuple[float, float, str | None]:
    """Run one child to completion: (wall seconds, peak RSS in MiB, error or None)."""
    timeout = max(0.0, min(PROC_TIMEOUT_S, deadline - time.perf_counter()))
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=subprocess.STDOUT)
        # The parent blocks instead of polling, so it takes no time from the
        # child on their shared CPU; a timer kills a child that overruns.
        # The child is waited for without reaping first, so the timer can
        # never signal a reused pid.
        lock = threading.Lock()
        state = {"ended": False, "killed": False}

        def kill() -> None:
            with lock:
                if not state["ended"]:
                    os.kill(proc.pid, signal.SIGKILL)
                    state["killed"] = True

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        except BaseException:
            kill()
            raise
        finally:
            with lock:
                state["ended"] = True
            timer.cancel()
            _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    timed_out = state["killed"]
    # The child is reaped; recording its status keeps Popen from waiting again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    peak = usage.ru_maxrss / 1024  # KiB on Linux
    if timed_out:
        return wall, peak, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        tail = log.read_text(errors="replace").strip().splitlines()[-3:]
        return wall, peak, f"exit {proc.returncode}: {' | '.join(tail)}"
    return wall, peak, None


# ---------------------------------------------------------------------------
# workloads and their reference checks


@dataclass
class Command:
    name: str
    kind: str  # "cli" or "stream"
    args: list[str]
    out: Path
    check: Callable[[Path], str | None]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _digest_check(expected: str, extra: Callable[[Path], str | None] | None = None):
    def check(path: Path) -> str | None:
        got = _sha256(path)
        if got != expected:
            return f"sha256 {got} != reference {expected}"
        return extra(path) if extra else None
    return check


def _firings_check(expected: int):
    def check(path: Path) -> str | None:
        n_text, _, total = path.read_text().strip().partition(",")
        return None if total == str(expected) else f"T({n_text}) = {total}, expected {expected}"
    return check


def _no_failures(path: Path) -> str | None:
    last = path.read_text().rstrip("\n").rsplit("\n", 1)[-1]
    return None if last.endswith(", 0 failures") else f"scorecard summary: {last!r}"


def _stream_check(expected: dict):
    def check(path: Path) -> str | None:
        got = json.loads(path.read_text())
        bad = {k: got.get(k) for k, v in expected.items() if got.get(k) != v}
        return f"stream summary differs: {bad} (reference {expected})" if bad else None
    return check


def commands(workload: str, size: dict, ref: dict, seed: int, tmp: Path) -> list[Command]:
    if workload == "stream":
        out = tmp / "stream.json"
        return [Command("stream", "stream", ["--n", str(size["stream"]), "--out", str(out)],
                        out, _stream_check(ref))]
    if workload == "cli-session":
        cmds = []
        for name in CLI_SESSION:
            out = tmp / f"{name}.csv"
            extra = _firings_check(ref["total_firings"]) if name == "firings" else None
            cmds.append(Command(name, "cli", [name, "--n", str(size["cli"]), "--out", str(out)],
                                out, _digest_check(ref[name], extra)))
        return cmds
    checks_out, oracle_out = tmp / "verify-checks.txt", tmp / "verify-oracle.txt"
    return [
        Command("verify-checks", "cli",
                ["verify", "--n", str(size["verify"]), "--trials", "0", "--out", str(checks_out)],
                checks_out, _digest_check(ref["verify-checks"], _no_failures)),
        Command("verify-oracle", "cli",
                ["verify", "--n", size["oracle"], "--trials", str(size["trials"]),
                 "--seed", str(seed), "--out", str(oracle_out)],
                oracle_out, _digest_check(ref["verify-oracle"], _no_failures)),
    ]


def _argv(cmd: Command, counters: Path | None) -> list[str]:
    if counters is not None:
        return [sys.executable, str(BENCH / "tracer.py"), "--counters", str(counters),
                cmd.kind, *cmd.args]
    if cmd.kind == "stream":
        return [sys.executable, str(BENCH / "stream_pass.py"), *cmd.args]
    return [sys.executable, "-m", "chipfire.cli", *cmd.args]


@dataclass
class Op:
    """One repetition of a workload: its child processes, run one after another."""

    traced: bool
    procs: list[Proc]

    @property
    def wall_s(self) -> float:
        """Wall seconds of the children, without the calibration between them."""
        return sum(p.wall_s for p in self.procs)

    @property
    def ref_s(self) -> float:
        """The same time in reference seconds, each child rescaled on its own."""
        return sum(p.ref_s for p in self.procs)

    @property
    def peak_rss_mb(self) -> float:
        return max(p.peak_rss_mb for p in self.procs)


def run_op(workload: str, size: dict, ref: dict, seed: int, traced: bool, deadline: float,
           clock: HostClock) -> Op:
    """Run one repetition in a fresh scratch (and cache) directory, then delete it."""
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=TMP_ROOT))
    try:
        cmds = commands(workload, size, ref, seed, tmp)
        env = _child_env(tmp, tmp / "cache" if workload == "cli-session" else None)
        procs = []
        for cmd in cmds:
            counters = tmp / f"{cmd.name}.counters.json" if traced else None
            wall, peak, error = spawn(_argv(cmd, counters), env, tmp / f"{cmd.name}.log", deadline)
            procs.append(Proc(cmd.name, wall, peak, error, clock.scale()))
        op = Op(traced, procs)
        for cmd, proc in zip(cmds, procs):
            _inspect(cmd, proc, counters=tmp / f"{cmd.name}.counters.json" if traced else None)
        return op
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _inspect(cmd: Command, proc: Proc, counters: Path | None) -> None:
    """Check one child's output against the reference; read its trace counters."""
    try:
        if proc.error is None:
            proc.error = cmd.check(cmd.out)
        if cmd.kind == "cli" and cmd.out.exists():
            proc.out_bytes = cmd.out.stat().st_size
        if counters is not None:
            proc.counters = json.loads(counters.read_text())
    except (OSError, ValueError) as exc:
        proc.error = proc.error or f"{type(exc).__name__}: {exc}"


def measure_setup(count: int, deadline: float, clock: HostClock) -> list[float]:
    """Times of ``count`` fresh interpreters that import chipfire.cli, in
    reference seconds."""
    tmp = Path(tempfile.mkdtemp(prefix="setup-", dir=TMP_ROOT))
    try:
        env = _child_env(tmp)
        argv = [sys.executable, "-c", "import chipfire.cli"]
        samples = []
        for _ in range(count):
            wall, _, error = spawn(argv, env, tmp / "setup.log", deadline)
            if error is not None:
                raise BenchError(f"import chipfire.cli failed: {error}")
            samples.append(wall * clock.scale())
        return samples
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run_workload(workload: str, size: dict, ref: dict, seed: int, seconds: float,
                 trace: bool, deadline: float, clock: HostClock) -> tuple[list[Op], list[float]]:
    """Repeat the workload while one more round fits; return its ops and set-up times.

    An untraced round is one repetition followed by ``SETUP_PER_ROUND``
    set-up probes, so the set-up median spans the whole run.  A traced
    round is one untraced and one traced repetition, with no probes.
    """
    measure_setup(1, deadline, clock)  # warm-up: compiles the package's bytecode
    kinds = (False, True) if trace else (False,)
    end = time.perf_counter() + seconds
    ops: list[Op] = []
    setup: list[float] = []
    while True:
        round_start = time.perf_counter()
        for traced in kinds:
            ops.append(run_op(workload, size, ref, seed, traced, deadline, clock))
        if not trace:
            setup += measure_setup(SETUP_PER_ROUND, deadline, clock)
        now = time.perf_counter()
        if now + (now - round_start) > min(end, deadline):
            return ops, setup


# ---------------------------------------------------------------------------
# metrics


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _layer_figures(op: Op) -> tuple[dict[str, float], set[str]]:
    """Per-layer figures of one traced repetition, summed over its processes,
    and the wrapped names that were absent."""
    raw: dict[str, float] = {}
    absent: set[str] = set()
    for proc in op.procs:
        counters = proc.counters or {"totals": {}, "absent": []}
        absent.update(counters["absent"])
        for key, value in counters["totals"].items():
            if key.endswith("_s"):
                value *= proc.scale  # reference seconds, like every reported time
            merge = max if key == "core.widest_row" else sum
            raw[key] = merge((raw.get(key, 0), value))
    out = {name: float(raw.get(name, 0)) for name in _TRACE_UNITS}
    out["cli.self_s"] = raw.get("cli.main_self_s", 0.0)
    out["cli.output_bytes"] = float(sum(p.out_bytes for p in op.procs))
    if raw.get("cache.lookups"):
        out["cache.hit_ratio"] = raw["cache.hits"] / raw["cache.lookups"]
    if raw.get("oracle.simulate_s"):
        out["oracle.moves_per_s"] = raw["oracle.moves"] / raw["oracle.simulate_s"]
    return out, absent


def end_to_end(ops: list[Op], setup: list[float]) -> dict[str, tuple[float, str, int]]:
    """Metric name -> (value, unit, sample count) for an untraced run."""
    procs = [p for op in ops for p in op.procs]
    return {
        "wall_s": (_median([op.ref_s for op in ops]), "s", len(ops)),
        "peak_rss_mb": (_median([op.peak_rss_mb for op in ops]), "MiB", len(ops)),
        "setup_s": (_median(setup), "s", len(setup)),
        "ok_frac": (sum(p.error is None for p in procs) / len(procs), "ratio", len(procs)),
    }


def per_layer(ops: list[Op], clock: HostClock) -> tuple[dict[str, tuple[float, str, int]], list[str]]:
    """Per-layer metrics of a traced run, and the wrapped names that were absent."""
    plain = [op for op in ops if not op.traced]
    traced = [op for op in ops if op.traced]
    layers = [_layer_figures(op) for op in traced]
    absent = sorted(set().union(*(names for _, names in layers)))
    out = {name: (_median([figures[name] for figures, _ in layers]), unit, len(layers))
           for name, unit in _TRACE_UNITS.items()}
    for name in CLI_COMMANDS:
        walls = [p.ref_s for op in plain for p in op.procs if p.name == name]
        peaks = [p.peak_rss_mb for op in plain for p in op.procs if p.name == name]
        out[f"cli.{name}.wall_s"] = (_median(walls), "s", len(walls))
        out[f"cli.{name}.peak_rss_mb"] = (_median(peaks), "MiB", len(peaks))
    overhead = _median([op.ref_s for op in traced]) / _median([op.ref_s for op in plain]) - 1
    out["trace.overhead_frac"] = (overhead, "ratio", len(traced))
    out["trace.absent_names"] = (float(len(absent)), "count", len(layers))
    out["host.cal_s"] = (_median(clock.samples), "s", len(clock.samples))
    return out, absent


def environment() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": commit,
        "nproc": len(CPUS),
        "pinned_cpu": CPUS[0],
        "python": platform.python_version(),
        "cpu": cpu,
    }


def report(title: str, ops: list[Op], table: dict, clock: HostClock,
           absent: list[str] | None = None) -> None:
    procs = [p for op in ops for p in op.procs]
    failed = [p for p in procs if p.error is not None]
    print(title)
    print("env: " + json.dumps(environment(), sort_keys=True))
    print(f"  times are reference seconds (calibrate.py); the kernel took a median "
          f"{_median(clock.samples):.4f} s here (reference {REFERENCE_S} s), "
          f"n={len(clock.samples)}")
    for name, (value, unit, count) in table.items():
        print(f"  {name:<28} {value:>14.6g} {unit:<6} n={count}")
    print(f"  {'failed_frac':<28} {len(failed) / len(procs):>14.6g} ratio  n={len(procs)}")
    print(f"  {'wall seconds, not rescaled':<28} "
          f"{_median([op.wall_s for op in ops if not op.traced]):>14.6g} s")
    for op in ops:
        parts = " ".join(f"{p.name}={p.wall_s:.3f}" for p in op.procs)
        print(f"  {'traced' if op.traced else 'plain'} repetition {op.ref_s:.3f} ref s, "
              f"{op.wall_s:.3f} wall s: {parts}")
    for p in failed:
        print(f"  FAILED {p.name}: {p.error}")
    if absent is not None:
        print("  absent names: " + (", ".join(absent) or "none"))


# ---------------------------------------------------------------------------
# entry points


def _check_layout() -> dict:
    if not (SRC / "chipfire" / "__init__.py").is_file():
        raise BenchError(f"no chipfire package under {SRC}")
    return json.loads(REFERENCE.read_text())


def pin_to_one_cpu() -> HostClock:
    """Pin this process, and so every child it starts, to one CPU; calibrate there."""
    os.sched_setaffinity(0, {CPUS[0]})
    return HostClock()


def bench(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    refs = _check_layout()
    deadline = time.perf_counter() + RUN_CAP_S
    clock = pin_to_one_cpu()
    ops, setup = run_workload(workload, SIZES["full"], refs["full"][workload], seed, seconds,
                              trace, deadline, clock)
    title = f"workload {workload} seed {seed} seconds {seconds} trace {int(trace)}"
    if trace:
        table, absent = per_layer(ops, clock)
        report(title, ops, table, clock, absent)
    else:
        table = end_to_end(ops, setup)
        report(title, ops, table, clock)
    return _result(ops, table)


def _result(ops: list[Op], table: dict[str, tuple[float, str, int]]) -> dict:
    procs = [p for op in ops for p in op.procs]
    failed = sum(p.error is not None for p in procs)
    return {
        "correct": failed == 0,
        "attempted": len(procs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in table.items()},
    }


def smoke(refs: dict) -> dict:
    """Every workload once untraced and once traced, at the smoke sizes."""
    deadline = time.perf_counter() + RUN_CAP_S
    clock = pin_to_one_cpu()
    all_ops: list[Op] = []
    walls = {}
    for workload in WORKLOADS:
        ops = [run_op(workload, SIZES["smoke"], refs["smoke"][workload], 0, traced, deadline, clock)
               for traced in (False, True)]
        all_ops += ops
        table, absent = per_layer(ops, clock)
        report(f"smoke {workload}", ops, {k: table[k] for k in ("core.rows", "cli.output_bytes")},
               clock, absent)
        walls[f"{workload}.wall_s"] = (ops[0].ref_s, "s", 1)
    return _result(all_ops, walls)


def self_test() -> int:
    """The smoke run passes, a corrupted reference fails every operation, names match."""
    refs = _check_layout()
    problems = []
    good = smoke(refs)
    if good["failed"]:
        problems.append(f"smoke run had {good['failed']} failed operations")

    bad = json.loads(json.dumps(refs))
    for workload, ref in bad["smoke"].items():
        for key, value in ref.items():
            ref[key] = (not value if isinstance(value, bool) else
                        value + 1 if isinstance(value, int) else "0" * 64)
    corrupt = smoke(bad)
    if corrupt["correct"] or corrupt["failed"] != corrupt["attempted"]:
        problems.append(f"corrupted reference: {corrupt['failed']} of {corrupt['attempted']} "
                        "operations failed, expected all")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if declared != END_TO_END:
        problems.append(f"BENCHMARK.json end_to_end {declared} != emitted {END_TO_END}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared != PER_LAYER:
        problems.append(f"BENCHMARK.json per_layer differs from emitted: "
                        f"{set(declared) ^ set(PER_LAYER)}")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ")

    for p in problems:
        print(f"self-test: {p}")
    print("self-test: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="chipfire benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="each workload once at tiny n")
    parser.add_argument("--self-test", action="store_true",
                        help="check that a corrupted reference counts as failed")
    args = parser.parse_args(argv)
    if not (args.smoke or args.self_test or args.workload):
        parser.error("--workload is required")
    try:
        TMP_ROOT.mkdir(exist_ok=True)
        try:
            if args.self_test:
                return self_test()
            if args.smoke:
                result = smoke(_check_layout())
            else:
                result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
        finally:
            shutil.rmtree(TMP_ROOT, ignore_errors=True)
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
