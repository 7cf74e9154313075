"""Machine-speed calibration: a fixed pure-Python kernel timed between ops.

The machine the benchmark runs on is shared: neighbours slow every Python
instruction by 10-40% for seconds to minutes at a time, and CPU time slows
with wall time (no steal is reported).  A whole 30-second run can fall in a
slow period, so no estimate taken from the workload's own timings can
separate its cost from the machine's speed.  The worker therefore runs this
kernel, which never calls torsionkit, after each op and scales the op's
times by ``REFERENCE_CHUNK_S / (CPU time per chunk)``, measured over the
kernel runs of the ``WINDOW`` ops before and after it: reported times are
those of a machine running the kernel at its reference speed.  The speed
changes within seconds, so a window of a few ops tracks it more closely
than one factor per pass: over 30 s of lens-cli and wide-torsion, the
spread (CV) of one op's scaled times across passes was 6-10% with the
window against 13% with a factor per pass and 17-25% unscaled.

The kernel is timed with ``time.thread_time``, the CPU time of the calling
thread alone, so nothing the program under test does (threads that hold the
interpreter lock, child processes, blocking) can change the scale: such
costs still show, in full, in the scaled wall times.
"""
from __future__ import annotations

import time

# CPU seconds of one ``chunk()`` on a 2-vCPU Intel Xeon virtual machine
# (2.1 GHz) with Python 3.11: the first quartile of 2000 chunks.
REFERENCE_CHUNK_S = 0.0016

# Kernel time per second of op time, spent after each op.
SHARE = 0.1
# Chunks run, half before and half after set-up, to scale the set-up time.
SETUP_CHUNKS = 100
# Kernel runs on each side of an op that go into its factor.
WINDOW = 2


def chunk() -> int:
    """About 2 ms of interpreter work: half small-integer arithmetic in a
    loop, half building and hashing small tuples, the two kinds of work that
    tracked the workloads' own slowdowns most closely."""
    x = 0
    for i in range(11000):
        x += i * i % 7
    seen: dict = {}
    for i in range(600):
        t = tuple((i * j) % 97 for j in range(8))
        seen[t] = seen.get(t, 0) + 1
    return x + len(seen)


def measure(n: int) -> tuple[int, float]:
    """Run ``n`` chunks; return ``(n, their CPU seconds)``."""
    cpu = time.thread_time
    c0 = cpu()
    for _ in range(n):
        chunk()
    return n, cpu() - c0


def after_op(op_s: float) -> tuple[int, float]:
    """Kernel time in proportion to the op's time, at least one chunk."""
    return measure(max(1, round(op_s * SHARE / REFERENCE_CHUNK_S)))


def scale(samples) -> float:
    """Factor from measured to reference-speed seconds over ``(chunks, cpu
    seconds)`` samples."""
    return REFERENCE_CHUNK_S * sum(n for n, _ in samples) / sum(c for _, c in samples)


def local_scales(samples, window: int = WINDOW) -> list[float]:
    """For each sample in run order, the factor over it and the ``window``
    samples on each side."""
    return [scale(samples[max(0, i - window) : i + window + 1]) for i in range(len(samples))]
