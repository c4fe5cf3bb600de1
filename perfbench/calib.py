"""Host-speed calibration for a job's CPU time.

On a shared host the speed of a core changes with what other tenants run on
it: a fixed pure-Python loop on the 2-vCPU VM the benchmark was built on ran
anywhere between 0.19 and 0.39 s from one second to the next, and a join
job's CPU time moved with it.  A CPU second is then no fixed amount of work.

A ``Calibrator`` is a forked process pinned, with its parent, to one core.
It calls a fixed reference kernel (edit distance of two fixed strings, in
this file, so that no change to the program moves it) in a loop and
publishes how many calls it has made and its own CPU time.  Its calls per
CPU second over an interval are the core's speed during that interval, and

    calibrated seconds = CPU seconds x calibrator rate / REF_RATE

is what the interval's work would have taken on a core that runs the kernel
REF_RATE times per CPU second.  Sharing the core interleaves the two
processes in slices of a few milliseconds, so both see the same speed
changes; a calibrator run before and after the work would not.

The calibrator runs at nice 19: it takes about 1.5% of the core and still
runs every ~0.1 s, often enough for a job of seconds but not for a step of a
fraction of a second.  It dies with its parent.
"""

from __future__ import annotations

import ctypes
import mmap
import os
import signal
import time

# the reference core speed in kernel calls per CPU second, fixed once; the
# 2-vCPU VM ran between about 4500 and 9800 while the benchmark was built
REF_RATE = 5500.0

_A = "the quick brown fox"
_B = "a quick brown fax"
_PR_SET_PDEATHSIG = 1


def _kernel(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def _loop(shared, parent: int) -> None:
    """The calibrator's body: kernel calls until its parent is gone.

    ``shared`` is [sequence, calls, cpu seconds]; the sequence is odd while
    the other two are being written (a seqlock), so a reader never takes a
    call count and a CPU time from different calls.
    """
    os.nice(19)
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    except (OSError, AttributeError):
        pass  # the getppid check below still ends the loop
    calls = 0
    while os.getppid() == parent:
        for _ in range(100):
            _kernel(_A, _B)
            calls += 1
            shared[0] += 1
            shared[1] = calls
            shared[2] = time.process_time()
            shared[0] += 1


class Calibrator:
    """A running calibrator beside the calling process, on one core."""

    def __init__(self) -> None:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        self._buf = mmap.mmap(-1, 3 * ctypes.sizeof(ctypes.c_double))
        self._shared = (ctypes.c_double * 3).from_buffer(self._buf)
        parent = os.getpid()
        self.pid = os.fork()
        if self.pid == 0:
            try:
                _loop(self._shared, parent)
            finally:
                os._exit(0)
        while self.snapshot()[0] == 0:
            time.sleep(0.001)

    def snapshot(self) -> tuple[float, float]:
        """The calibrator's (calls, CPU seconds) so far."""
        s = self._shared
        while True:
            seq = s[0]
            calls, cpu = s[1], s[2]
            if seq % 2 == 0 and s[0] == seq:
                return calls, cpu
            time.sleep(0.0005)  # let the calibrator finish its write

    def rate(self, since: tuple[float, float]) -> float:
        """Kernel calls per CPU second since an earlier snapshot."""
        calls, cpu = self.snapshot()
        if cpu <= since[1]:
            raise RuntimeError("the calibrator got no CPU time in the interval")
        return (calls - since[0]) / (cpu - since[1])

    def stop(self) -> None:
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)
        del self._shared
        self._buf.close()
