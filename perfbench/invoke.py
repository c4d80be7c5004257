"""Run one `mapdyn` CLI command as a child process and measure it.

Wall time comes from the monotonic clock around the child's whole life.
CPU time and peak RSS come from `os.wait4`, whose rusage covers the child
and every descendant it waited for (the `estimate` worker pool included),
so each invocation is measured on its own rather than through the
cumulative `RUSAGE_CHILDREN` of this process.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Invocation:
    args: list
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    log_tail: str

    @property
    def ok(self) -> bool:
        return self.returncode == 0


def run_cli(args, cwd: Path, log_dir: Path, timeout_s: float) -> Invocation:
    """`python -m mapdyn.cli <args>` in `cwd`, killed with its group after `timeout_s`."""
    cmd = [sys.executable, "-m", "mapdyn.cli", *args]
    log_path = log_dir / f"{args[0]}-{time.monotonic_ns()}.log"
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=cwd, stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        # the group kill also reaches pool workers the CLI started
        timer = threading.Timer(timeout_s, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # no worker may outlive its CLI process
    tail = log_path.read_text(errors="replace")[-2000:]
    return Invocation(
        args=list(args),
        returncode=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        log_tail=tail,
    )


def _kill_group(pgid):
    """SIGKILL the group, then wait (up to 10 s) until no member is left."""
    deadline = time.monotonic() + 10.0
    try:
        os.killpg(pgid, signal.SIGKILL)
        while time.monotonic() < deadline:
            time.sleep(0.01)
            os.killpg(pgid, 0)
    except ProcessLookupError:
        pass
