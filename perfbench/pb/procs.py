"""Program processes, accounted from outside the program.

CPU is user+sys from each program process's own wait4 rusage, which
also covers the children it reaped (the serve worker). Peak RSS is
VmHWM from /proc/<pid>/status while a long-lived process (and each of
its children) is still alive; a short-lived analyze process is gone
before it can be sampled, so its peak comes from ru_maxrss, the same
kernel high-water mark, returned by wait4.
"""

import os
import signal
import subprocess
import time


def vm_hwm_kb(pid):
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def children(pid):
    kids = []
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/children") as f:
                kids += [int(k) for k in f.read().split()]
    except OSError:
        pass
    return kids


def start(argv, **kw):
    """Start a program process in its own process group, so that an
    error path can stop it together with any worker it forked."""
    return subprocess.Popen(argv, start_new_session=True, **kw)


class Accounting:
    """CPU seconds and peak RSS over every program process of a run."""

    def __init__(self):
        self.cpu_s = 0.0
        self.peak_kb = 0

    def sample(self, pid):
        """Fold in the VmHWM of a live process and of its children."""
        for p in [pid] + children(pid):
            self.peak_kb = max(self.peak_kb, vm_hwm_kb(p))

    def reap(self, proc):
        """wait4 the process; charge its rusage; return its exit code."""
        _, status, ru = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.cpu_s += ru.ru_utime + ru.ru_stime
        self.peak_kb = max(self.peak_kb, ru.ru_maxrss)
        return proc.returncode


def stop(proc):
    """Kill a program process and its group, and wait until all of it
    has ended (error paths only)."""
    if proc.returncode is not None:
        return
    group = [proc.pid] + children(proc.pid)
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except OSError:
        pass
    try:
        os.waitpid(proc.pid, 0)
    except ChildProcessError:
        pass
    proc.returncode = -9
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline and any(
        os.path.exists(f"/proc/{p}") for p in group[1:]
    ):
        time.sleep(0.05)
