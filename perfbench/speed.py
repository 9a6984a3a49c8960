"""Machine-speed calibration for a shared, noisy host.

On a host whose other tenants load the same cores, the speed of pure-Python
code drifts by 20-40% over tens of seconds.  Jobs are therefore timed in
CPU time, which leaves out the time the host gives to others (steal) and
to other processes, and rescaled for the speed that is left: a fixed
pure-Python kernel, timed in CPU time every ``EVERY_S`` seconds between
jobs, measures the current speed, and each job's CPU time is multiplied by
``REF_KERNEL_S / kernel time`` interpolated at the job.  The rescaled times
are what the job would take on a host where the kernel takes
``REF_KERNEL_S`` (about what it takes on a quiet 2-vCPU virtual machine);
they are scaled figures, not the program's own wall time.

The kernel (exact fractions, dicts, small lists and strings, the kind of
work the library does) runs in a helper process started from this file,
which imports neither the library nor numpy.  So anything the library does
to its own process (a heap that grows, a thread pool left spinning) slows
the jobs but not the kernel, and shows in the rescaled times as it does in
the raw ones.

Jobs that each start a Python process (the ``cli`` workload) spend most of
their time in process start-up and imports, whose speed the kernel does not
follow; for them the probe is the CPU time of a fresh interpreter that
imports numpy, also independent of the library.
"""

from __future__ import annotations

import bisect
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

REF_KERNEL_S = 0.0005
EVERY_S = 0.2
REPEATS = 5
REF_INTERPRETER_S = 0.2


def _kernel():
    table = {}
    acc = Fraction(0)
    for i in range(1, 120):
        acc += Fraction(i, i + 7)
        table[(i, i & 7)] = [acc.numerator & 255, str(i)]
    return len(table)


def kernel_seconds():
    """Median CPU time of ``REPEATS`` runs of the kernel."""
    times = []
    for _ in range(REPEATS):
        t0 = time.process_time()
        _kernel()
        times.append(time.process_time() - t0)
    return statistics.median(times)


def children_cpu_seconds():
    """User plus system CPU time of the waited-for child processes."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Kernel:
    """The kernel, timed on request in a helper process (this file run as a
    script); the helper ends when its standard input closes."""

    ref, every = REF_KERNEL_S, EVERY_S

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, os.path.abspath(__file__)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def measure(self):
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()


class Interpreter:
    """CPU time of ``python3 -c "import numpy"`` in a fresh process."""

    ref, every = REF_INTERPRETER_S, 2.0

    def measure(self):
        c0 = children_cpu_seconds()
        subprocess.run([sys.executable, "-c", "import numpy"], check=True)
        return children_cpu_seconds() - c0

    def close(self):
        pass


class Speedometer:
    """Probe samples over time; ``scale(t)`` rescales a time taken at t.

    ``probe`` is a ``Kernel`` or an ``Interpreter``: ``measure()`` returns
    seconds, ``ref`` is their reference value and ``every`` the least
    interval between samples."""

    def __init__(self, probe):
        self.probe = probe
        self.times, self.kernel = [], []

    def sample(self, force=False):
        now = time.perf_counter()
        if force or not self.times or now - self.times[-1] >= self.probe.every:
            k = self.probe.measure()
            self.times.append(time.perf_counter())
            self.kernel.append(k)

    def scale(self, t):
        """Reference / probe time, linearly interpolated at time t."""
        i = bisect.bisect_left(self.times, t)
        if i == 0:
            k = self.kernel[0]
        elif i == len(self.times):
            k = self.kernel[-1]
        else:
            t0, t1 = self.times[i - 1], self.times[i]
            k0, k1 = self.kernel[i - 1], self.kernel[i]
            k = k0 + (k1 - k0) * (t - t0) / (t1 - t0)
        return self.probe.ref / k


if __name__ == "__main__":
    # helper process for ``Kernel``: one timing per line read
    for _ in sys.stdin:
        print(kernel_seconds(), flush=True)
