"""Child processes of the benchmark and the resource probes that watch
them from outside: peak RSS of a whole process tree (pool workers
included) and the bytes a directory holds.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from spans import TRACE_DIR_ENV

HERE = Path(__file__).resolve().parent


def _parents() -> Dict[int, int]:
    """pid -> parent pid for every process visible in /proc."""
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                stat = fh.read()
        except OSError:
            continue
        # The command name may hold spaces or parentheses; the fields
        # after the last ')' are fixed: state, ppid, ...
        table[int(entry)] = int(stat.rsplit(b")", 1)[1].split()[1])
    return table


def tree_pids(root: int) -> List[int]:
    """``root`` and all of its descendants."""
    children: Dict[int, List[int]] = {}
    for pid, ppid in _parents().items():
        children.setdefault(ppid, []).append(pid)
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, ()))
    return out


def peak_rss_bytes(pid: int) -> int:
    """The kernel's high-water mark of ``pid``'s resident set (VmHWM)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


def dir_bytes(path) -> int:
    """Apparent size of every regular file under ``path``."""
    total = 0
    for base, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.lstat(os.path.join(base, name)).st_size
            except OSError:
                pass
    return total


class RssProbe:
    """Follows a process tree until stopped and keeps each process's
    peak RSS.  The kernel tracks every high-water mark itself, so a
    sample only has to land before the process exits; the tree's figure
    is the sum of its processes' peaks, which does not depend on whether
    the peaks of parent and pool workers happened to coincide."""

    def __init__(self, pid: int, interval_s: float = 0.1):
        self.pid = pid
        self.interval_s = interval_s
        self.peaks: Dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while True:
            for pid in tree_pids(self.pid):
                self.peaks[pid] = max(self.peaks.get(pid, 0),
                                      peak_rss_bytes(pid))
            if self._stop.wait(self.interval_s):
                return

    def stop(self) -> int:
        """Stop sampling; returns the summed peak RSS of the tree."""
        self._stop.set()
        self._thread.join()
        return sum(self.peaks.values())


class Program:
    """One ``repro-obfuscade`` process started through ``launch.py``.

    ``t0`` is the ``time.monotonic()`` reading just before the process
    was spawned; the record written by the launcher uses the same clock.
    """

    def __init__(self, argv: List[str], workdir: Path, tag: str,
                 trace_dir: Optional[Path] = None):
        self.record_path = workdir / f"{tag}.record.json"
        self.log_path = workdir / f"{tag}.log"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath("src")
        # Temporary files of the program stay inside the run's directory.
        env["TMPDIR"] = str(workdir)
        env.pop(TRACE_DIR_ENV, None)
        if trace_dir is not None:
            env[TRACE_DIR_ENV] = str(trace_dir)
        self._log = open(self.log_path, "w")
        self.t0 = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launch.py"), str(self.record_path),
             "--", *argv],
            stdout=self._log,
            stderr=subprocess.STDOUT,
            env=env,
            start_new_session=True,
        )
        self.probe = RssProbe(self.proc.pid)
        self.t_exit: Optional[float] = None
        self.peak_rss_bytes = 0

    def wait(self, timeout_s: float) -> int:
        try:
            rc = self.proc.wait(timeout=timeout_s)
        except BaseException:  # timed out, or the benchmark is stopping
            self.kill()
            raise
        self._finish()
        return rc

    def interrupt(self, timeout_s: float = 60.0) -> int:
        """Ask the program to shut down (SIGINT, as Ctrl-C does) and wait;
        kill the whole process group if it does not exit in time."""
        self.proc.send_signal(signal.SIGINT)
        return self.wait(timeout_s)

    def kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self._finish()

    def _finish(self) -> None:
        if self.t_exit is None:
            self.t_exit = time.monotonic()
            self.peak_rss_bytes = self.probe.stop()
            self._log.close()
            # Pool workers live in the program's session; none may
            # outlive it.
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                try:
                    os.killpg(self.proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    break
                time.sleep(0.02)

    @property
    def wall_s(self) -> float:
        return self.t_exit - self.t0

    def record(self) -> dict:
        return json.loads(self.record_path.read_text())

    def output(self) -> str:
        return self.log_path.read_text()
