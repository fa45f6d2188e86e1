"""The host's speed while an op runs, from a fixed kernel timed on the same
CPU, so that op times can be given at one reference speed.

The vCPUs of a shared host slow down, each on its own, by up to about
1.8x, for spans from a few milliseconds to minutes: the physical core is
shared with other tenants, and the guest sees no steal time.  A whole
run can fall into a slow span, so no estimate made of op times alone
(best pass, median pass) keeps runs of the same code within 25 % of each
other.

``Sampler`` starts a small process pinned to the benchmark's CPU.  Every
``PERIOD_S`` it wakes, preempts whatever runs there (the op, or a
``cli`` child) and times three fixed kernels, each three times, keeping
each one's fastest: a pure-Python dict loop, scattered reads from a 6 MB
list and a chain of small complex matmuls.  Their summed time follows
the ops of every workload: fitted against op times over 40 s of
``rewrite`` and of ``cli`` ops, log op time moves with log kernel time
with a slope of 1.00 and 0.99, where the dict loop alone gives 0.90 and
0.89.
``factor(t0, t1)`` is the mean kernel time over the samples around
``[t0, t1]`` divided by ``KERNEL_REF_S``; an op time divided by it is the
time the op would take on a core where the kernel takes ``KERNEL_REF_S``.

Run as a script, this module is the sampler: it samples until its stdin
closes, then prints one ``time duration`` line per sample and exits.
"""

from __future__ import annotations

import bisect
import os
import select
import statistics
import subprocess
import sys
import time

PERIOD_S = 0.02
# about the kernels' time on an idle 2.1 GHz Xeon core of the host the
# benchmark was written on; it only sets the unit of normalised times
KERNEL_REF_S = 3.2e-4


def kernels() -> list:
    import random

    import numpy as np

    def dict_loop():
        d: dict = {}
        for i in range(800):
            d[i % 577] = d.get(i % 577, 0) + i

    scattered = list(range(200_000))
    random.Random(0).shuffle(scattered)

    def scattered_reads():
        total = 0
        for i in range(0, len(scattered), 97):
            total += scattered[i]

    rng = np.random.default_rng(0)
    a = rng.standard_normal((48, 48)) + 1j * rng.standard_normal((48, 48))

    def matmuls():
        x = a
        for _ in range(6):
            x = a @ x

    return [dict_loop, scattered_reads, matmuls]


def sample_until_eof() -> None:
    samples = []
    stdin = sys.stdin.buffer
    parts = kernels()
    print("ready", flush=True)
    while True:
        t0 = time.perf_counter()
        total = 0.0
        for kernel in parts:
            best = None
            for _ in range(3):
                t1 = time.perf_counter()
                kernel()
                dt = time.perf_counter() - t1
                best = dt if best is None or dt < best else best
            total += best
        samples.append((t0, total))
        readable, _, _ = select.select([stdin], [], [], PERIOD_S)
        if readable and not stdin.read1(4096):
            break
    sys.stdout.write("".join(f"{t!r} {dt!r}\n" for t, dt in samples))


class Sampler:
    """The sampler process, as a context manager.  It runs on the CPU
    this process is pinned to; the samples are read when it ends."""

    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []
        self.proc = None

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        if self.proc.stdout.readline().strip() != "ready":
            self.stop()
            raise RuntimeError("the host-speed sampler did not start")
        return self

    def stop(self) -> None:
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        try:
            out, _ = proc.communicate(timeout=30)  # closes stdin first
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        samples = sorted(tuple(map(float, line.split())) for line in out.splitlines())
        self.times = [t for t, _ in samples]
        self.durations = [dt for _, dt in samples]

    def __exit__(self, *exc):
        self.stop()
        return False

    def factor(self, t0: float, t1: float) -> float:
        """How much slower than the reference the core ran during
        ``[t0, t1]``: the mean kernel time of the samples taken from 1.5
        periods before ``t0`` to 1.5 periods after ``t1``, or of the two
        samples nearest to the window if it holds fewer."""
        pad = 1.5 * PERIOD_S
        i = bisect.bisect_left(self.times, t0 - pad)
        j = bisect.bisect_right(self.times, t1 + pad)
        if j - i < 2:
            k = bisect.bisect_left(self.times, (t0 + t1) / 2)
            i, j = max(0, k - 1), min(len(self.times), k + 1)
        return statistics.fmean(self.durations[i:j]) / KERNEL_REF_S

    def summary(self) -> dict:
        q = statistics.quantiles(self.durations, n=10)
        return {
            "samples": len(self.durations),
            "kernel_ref_ms": KERNEL_REF_S * 1e3,
            "kernel_p10_ms": q[0] * 1e3,
            "kernel_p50_ms": statistics.median(self.durations) * 1e3,
            "kernel_p90_ms": q[-1] * 1e3,
        }


if __name__ == "__main__":
    sample_until_eof()
