"""Run a command and read its own peak RSS.

Linux carries a process's RSS high-water mark into its children across fork
and exec, so a child started straight from the test process would report
the test process's peak.  The launcher below is a small Python process that
starts the command and reads the command's peak with ``os.wait4``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import chipfire

_LAUNCHER = """
import json, os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.PIPE, text=True)
out = proc.stdout.read()
_, status, usage = os.wait4(proc.pid, 0)
print(json.dumps({"exit": os.waitstatus_to_exitcode(status), "out": out, "peak_kib": usage.ru_maxrss}))
"""


def run_python(args: list[str], timeout: float) -> dict:
    """Run ``python *args`` with this chipfire importable.

    Returns the command's ``exit`` code, its stdout as ``out``, its stderr
    as ``err`` and its peak RSS in KiB as ``peak_kib``.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(chipfire.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, sys.executable, *args],
        capture_output=True, text=True, timeout=timeout, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return {**json.loads(proc.stdout), "err": proc.stderr}
