"""CPU time of the run's processes: the driver and every process it started.
Also the means to stop all of them when the run ends (``stop_descendants``).

A run is pinned to one core (``pin``) before Ray starts, and every process
Ray starts inherits that.  An op's cost is the CPU time all of the run's
processes spent during it, read from the kernel's per-process scheduler
clocks (nanoseconds, every thread of the process).  Unlike wall time it
leaves out the time the core spent on other tenants' work: on a shared
host that moved the same build's wall time by 25% between sets of runs.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time
from collections import defaultdict

PR_SET_CHILD_SUBREAPER = 36
# stop_descendants: SIGTERM after GRACE_S, SIGKILL GRACE_S + KILL_S in
GRACE_S, KILL_S = 5.0, 10.0


def pin() -> tuple[int, int]:
    """Pin this process (and so all it starts) to the highest-numbered
    core it may use.  Returns (cores it could use, the core chosen)."""
    cpus = os.sched_getaffinity(0)
    cpu = max(cpus)
    os.sched_setaffinity(0, {cpu})
    return len(cpus), cpu


def adopt_orphans() -> None:
    """Make this process the one that orphans below it are handed to, so
    a process whose parent exits (a Ray worker after its raylet) is still
    ours to stop and reap."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def reap() -> bool:
    """Reap every child that has ended; True once no child is left."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return True
        if pid == 0:
            return False


def stop_descendants() -> None:
    """Wait until every process this one started, and every process those
    started, has ended and been reaped: first on their own, then after
    SIGTERM, then after SIGKILL.  Raises if one outlives SIGKILL by
    ``KILL_S``.  Needs ``adopt_orphans`` to have been called before they
    started."""
    me = os.getpid()
    t0 = time.monotonic()
    sent = None
    while not reap():
        waited = time.monotonic() - t0
        if waited > GRACE_S + 2 * KILL_S:
            raise RuntimeError(f"processes outlived SIGKILL: {descendants(me)[1:]}")
        sig = (signal.SIGKILL if waited > GRACE_S + KILL_S
               else signal.SIGTERM if waited > GRACE_S else None)
        if sig is not None and sig != sent:
            for pid in descendants(me):
                if pid != me:
                    try:
                        os.kill(pid, sig)
                    except ProcessLookupError:
                        pass
            sent = sig
        time.sleep(0.02)


def process_cpu_ns(pid: int) -> int:
    """CPU time of every thread of ``pid``: its process-wide scheduler
    clock, the clock id Linux derives from the pid."""
    return time.clock_gettime_ns(((~pid) << 3) | 2)


def descendants(root: int) -> list[int]:
    """``root`` and every live process below it."""
    kids = defaultdict(list)
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # the fields after the parenthesised command name: state, ppid, ...
        kids[int(stat[stat.rindex(")") + 2:].split()[1])].append(int(name))
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo += kids[pid]
    return out


class RunCPU:
    """Cumulative CPU seconds of the run's processes.

    ``now(rescan=True)`` first looks for processes started since the last
    scan; one that started during an op is counted from its first
    nanosecond.  A process that has exited keeps the last value read."""

    def __init__(self) -> None:
        self.pids = [os.getpid()]
        self.seen: dict[int, int] = {}

    def now(self, rescan: bool = False) -> float:
        if rescan:
            self.pids = descendants(os.getpid())
        for pid in self.pids:
            try:
                self.seen[pid] = process_cpu_ns(pid)
            except OSError:
                pass
        return sum(self.seen.values()) / 1e9
