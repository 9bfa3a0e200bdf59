import os
import signal
import subprocess
import time

import pytest

import peak_rss

# The command writes its pid to the file named by its first argument, then
# sleeps far past the timeout given to run_python.
_SLEEPER = "import os, sys, time; open(sys.argv[1], 'w').write(str(os.getpid())); time.sleep(60)"


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process (a zombie has ended)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
def test_timeout_kills_the_command(tmp_path):
    pid_file = tmp_path / "pid"
    with pytest.raises(subprocess.TimeoutExpired):
        peak_rss.run_python(["-c", _SLEEPER, str(pid_file)], timeout=3)
    pid = int(pid_file.read_text())
    try:
        deadline = time.monotonic() + 5
        while _running(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _running(pid)
    finally:
        if _running(pid):
            os.kill(pid, signal.SIGKILL)


def test_reports_exit_and_output():
    report = peak_rss.run_python(["-c", "print('hi'); raise SystemExit(3)"], timeout=30)
    assert report["exit"] == 3
    assert report["out"] == "hi\n"
    assert report["peak_kib"] > 0
