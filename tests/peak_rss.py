"""Run a command and read its own peak RSS.

Linux carries a process's RSS high-water mark into its children across fork
and exec, so a child started straight from the test process would report
the test process's peak.  The launcher below is a small Python process that
starts the command and reads the command's peak with ``os.wait4``, and its
wall time from start to exit.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

_LAUNCHER = """
import json, os, subprocess, sys, time
start = time.perf_counter()
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.PIPE, text=True)
out = proc.stdout.read()
_, status, usage = os.wait4(proc.pid, 0)
wall = time.perf_counter() - start
print(json.dumps({"exit": os.waitstatus_to_exitcode(status), "out": out,
                  "peak_kib": usage.ru_maxrss, "wall_s": wall}))
"""


def run_python(args: list[str], timeout: float, src: Path | None = None) -> dict:
    """Run ``python *args`` with the chipfire under ``src`` importable, by
    default this one.

    Returns the command's ``exit`` code, its stdout as ``out``, its stderr
    as ``err``, its peak RSS in KiB as ``peak_kib`` and its wall time in
    seconds as ``wall_s``.
    """
    if src is None:
        import chipfire

        src = Path(chipfire.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, sys.executable, *args],
        capture_output=True, text=True, timeout=timeout, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return {**json.loads(proc.stdout), "err": proc.stderr}
