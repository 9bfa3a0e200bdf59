"""Run a command and read its own peak RSS.

Linux carries a process's RSS high-water mark into its children across fork
and exec, so a child started straight from the test process would report
the test process's peak.  The launcher below is a small Python process that
starts the command and reads the command's peak with ``os.wait4``, and its
wall time from start to exit.  The launcher leads a session of its own, so
a run past its timeout is ended by killing that session's process group,
the command included.
"""

import contextlib
import json
import os
import signal
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
    seconds as ``wall_s``.  Past ``timeout`` seconds the launcher and the
    command are killed and ``subprocess.TimeoutExpired`` is raised.
    """
    if src is None:
        import chipfire

        src = Path(chipfire.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    launcher = subprocess.Popen(
        [sys.executable, "-c", _LAUNCHER, sys.executable, *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        start_new_session=True,
    )
    try:
        out, err = launcher.communicate(timeout=timeout)
    except BaseException:
        # A timeout or an interrupt: end the command with its launcher.
        with contextlib.suppress(ProcessLookupError):
            os.killpg(launcher.pid, signal.SIGKILL)
        launcher.communicate()
        raise
    assert launcher.returncode == 0, err
    return {**json.loads(out), "err": err}
