"""Measurement helpers: the tail-percentile rule, memory, and the oracle."""

from __future__ import annotations

import os
import time
import zlib
from pathlib import Path

import numpy as np

#: Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)

#: Samples a reported tail percentile must have beyond it.
TAIL_MIN_BEYOND = 10


def tail_percentile(samples: int, min_beyond: int = TAIL_MIN_BEYOND) -> float:
    """The highest ladder percentile with at least *min_beyond* samples above.

    A percentile ``p`` of ``n`` sorted samples has
    ``n - ceil(n * p / 100)`` samples beyond it; 1000 samples support
    p99 (10 beyond) but 999 only p90.
    """
    best = None
    for p in TAIL_LADDER:
        if _beyond(samples, p) >= min_beyond:
            best = p
    if best is None:
        raise ValueError(
            f"{samples} samples cannot support any tail percentile with "
            f"{min_beyond} samples beyond it"
        )
    return best


def _beyond(samples: int, percentile: float) -> int:
    return samples - int(np.ceil(samples * percentile / 100.0 - 1e-9))


def samples_for(percentile: float, min_beyond: int = TAIL_MIN_BEYOND) -> int:
    """Fewest samples that support *percentile* under the tail rule."""
    n = min_beyond
    while _beyond(n, percentile) < min_beyond:
        n += 1
    return n


def percentile_ms(latencies, p: float) -> float:
    return float(np.percentile(np.asarray(latencies) * 1e3, p))


# -- CPU time ---------------------------------------------------------------


class CpuTimer:
    """CPU seconds used by this process and the given child processes.

    CPU time leaves out what the hypervisor of a shared virtual machine
    steals, which wall-clock numbers carry in full (on a 2-vCPU guest,
    6-18 % between consecutive 8 s windows moved wall-clock throughput
    by about 15 % and CPU per query by about 4 %).  A child's CPU clock is read
    through its Linux process CPU-time clock id, at nanosecond
    resolution.
    """

    def __init__(self, pids=()):
        # clock id of a process's CPU clock: (~pid << 3) | CPUCLOCK_SCHED
        self._clocks = [((~pid) << 3) | 2 for pid in pids]

    def __call__(self) -> float:
        return time.process_time() + sum(time.clock_gettime(c) for c in self._clocks)


class SpeedProbe:
    """How fast this machine runs a fixed kernel, sampled through a run.

    On a shared virtual machine the CPU time one query costs moves with
    other tenants' load, steal or no steal: the same hotspot-delta64
    pass took 15-25 ms of CPU per query from one 5 s window to the next,
    and medians of 30 s windows spread 15 % (quartile distance over
    median).  A fixed kernel of benchmark code (zlib inflate of a page,
    small numpy array operations, a dict loop: the program's mix, none
    of the program's code) slows with it, so timings are reported at
    *reference speed*: multiplied by ``NOMINAL / median kernel time``.
    Over the same windows the query-to-kernel ratio spread 3-4 %.

    The kernel's time is the calling thread's CPU time, so neither the
    hypervisor's steal nor a wait for the GIL counts.  :meth:`tick`
    samples at most every ``interval`` seconds, between operations; the
    time the probe spends is kept in :attr:`wall` and :attr:`cpu`, for
    the timed phase to leave out.
    """

    #: A fixed constant near the kernel's median CPU time on a 2-vCPU
    #: Intel Xeon VM (Python 3.11, numpy 2.4, zlib 1.2), so that values
    #: at reference speed read as that machine's seconds.
    NOMINAL = 0.8e-3
    #: Seconds between tick samples: about 1 % of a phase's time.
    interval = 0.1

    def __init__(self):
        rng = np.random.default_rng(0)
        page = np.cumsum(rng.integers(0, 64, size=512)).astype(np.int64).tobytes()
        self._blob = zlib.compress(page, 6)
        self._arrays = [rng.random(64) for _ in range(16)]
        self.samples: list = []
        self.wall = 0.0
        self.cpu = 0.0
        self._due = 0.0

    def _kernel(self) -> None:
        for _ in range(16):
            zlib.decompress(self._blob)
        for i in range(32):
            a = self._arrays[i & 15]
            a[np.flatnonzero(np.minimum(a, 0.5) > 0.25)].sum()
        counts: dict = {}
        for i in range(2000):
            counts[i & 255] = counts.get(i & 255, 0) + i

    def sample(self, times: int = 1) -> None:
        """Record the CPU time of *times* kernel calls.

        An untimed call first brings the kernel's code and data back
        into the caches, so what the program left there does not move
        the timed calls.
        """
        t0 = time.perf_counter()
        c0 = time.thread_time()
        self._kernel()
        for _ in range(times):
            k0 = time.thread_time()
            self._kernel()
            self.samples.append(time.thread_time() - k0)
        self.cpu += time.thread_time() - c0
        self.wall += time.perf_counter() - t0

    def tick(self) -> None:
        """Sample once if ``interval`` seconds passed since the last tick sample."""
        now = time.perf_counter()
        if now >= self._due:
            self.sample()
            self._due = now + self.interval

    def factor(self) -> float:
        """``NOMINAL / median`` of the samples: timings times this."""
        return self.NOMINAL / float(np.median(self.samples))


def cpu_ticks() -> tuple:
    """``(busy, steal)`` clock ticks of all CPUs since boot (``/proc/stat``).

    Busy is user + nice + system + irq + softirq time; steal is time a
    runnable virtual CPU spent waiting for the hypervisor to run it.
    """
    fields = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    return fields[0] + fields[1] + fields[2] + fields[5] + fields[6], fields[7]


def stolen_share(before: tuple, after: tuple) -> float:
    """Share of the guest's runnable CPU time stolen between two :func:`cpu_ticks`.

    A closed loop that keeps a CPU busy loses about this share of its
    wall time to the hypervisor, so ``wall * (1 - share)`` estimates the
    wall time the same work would have taken with nothing stolen, its
    off-CPU waits included (an idle CPU accrues no steal).
    """
    busy = after[0] - before[0]
    steal = after[1] - before[1]
    return steal / (busy + steal) if busy + steal else 0.0


# -- memory -----------------------------------------------------------------


def child_pids(parent: int | None = None) -> list:
    """Live processes whose parent is *parent* (default: this process)."""
    parent = os.getpid() if parent is None else parent
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # The command name may hold spaces; fields resume after its ')'.
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[1]) == parent:
            pids.append(int(entry.name))
    return pids


class PeakMemory:
    """Peak resident memory of a phase, worker processes included.

    :meth:`reset` sets every process's high-water mark back to its
    current resident size (``5`` into ``/proc/<pid>/clear_refs``), so
    :meth:`peak_mib` reports the phase alone, not the build before it.
    The peak is the sum of the per-process marks.
    """

    def __init__(self):
        self.peak = 0.0

    @staticmethod
    def _pids() -> list:
        return [os.getpid()] + child_pids()

    def reset(self) -> None:
        for pid in self._pids():
            try:
                Path(f"/proc/{pid}/clear_refs").write_text("5")
            except OSError:
                pass

    def sample(self) -> float:
        """Add the current marks up; keep the largest sum seen."""
        total_kib = 0
        for pid in self._pids():
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kib += int(line.split()[1])
        self.peak = max(self.peak, total_kib / 1024.0)
        return self.peak


def directory_bytes(directory) -> int:
    """Bytes of every regular file under *directory*."""
    return sum(p.stat().st_size for p in Path(directory).rglob("*") if p.is_file())


# -- oracle -----------------------------------------------------------------


class BruteForce:
    """Brute-force MBR-intersection oracle over a set of elements.

    Written independently of the program's geometry code: every query
    scans every element (closed boxes), the reference each answer is
    compared to.  Coordinates are held column by column so one scan is
    six contiguous comparisons.
    """

    def __init__(self, mbrs: np.ndarray):
        self.columns = [np.ascontiguousarray(mbrs[:, k]) for k in range(6)]
        self.ids = np.arange(len(mbrs), dtype=np.int64)

    def query(self, query: np.ndarray, live: np.ndarray | None = None) -> np.ndarray:
        """Sorted ids of the (live) elements whose MBR intersects *query*."""
        lo_x, lo_y, lo_z, hi_x, hi_y, hi_z = self.columns
        hit = lo_x <= query[3]
        hit &= lo_y <= query[4]
        hit &= lo_z <= query[5]
        hit &= hi_x >= query[0]
        hit &= hi_y >= query[1]
        hit &= hi_z >= query[2]
        if live is not None:
            hit &= live
        return self.ids[hit]
