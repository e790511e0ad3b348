"""Small helpers shared by the benchmark's processes."""

from __future__ import annotations

import math
import os
import resource
import statistics
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch output (span files, flight-recorder dumps); ignored by git.
OUT = os.path.join(HERE, "out")

#: Seconds one speed chunk takes on the reference machine (a 2.0 GHz Xeon
#: vCPU in its fast state).  Every reported time is scaled to this speed.
#: Never change it: it is the unit of every time the benchmark reports.
REFERENCE_CHUNK_S = 55e-6
#: Chunks the median of which gives the speed around one operation.
SPEED_WINDOW = 65


def speed_chunk() -> tuple[float, float]:
    """(start, seconds) of a fixed arithmetic loop run now.

    The loop allocates nothing the garbage collector tracks and calls no
    program code, so its time depends only on how fast the machine runs
    it at this moment.
    """
    start = time.perf_counter()
    x = 0
    for i in range(500):
        x = (x * 31 + i) & 0xFFFFFFFF
    return start, time.perf_counter() - start


def speed_block(chunks: int = 256) -> list[float]:
    """Seconds of *chunks* consecutive speed chunks."""
    return [speed_chunk()[1] for _ in range(chunks)]


def to_reference(seconds: float, chunks: list[float]) -> float:
    """*seconds* measured while the speed chunks took *chunks*, at reference speed.

    The host slows each vCPU by up to about 2x, in spells of seconds; a
    chunk run on the same vCPU next to the work slows with it, so the
    ratio of the two does not.
    """
    return seconds * REFERENCE_CHUNK_S / statistics.median(chunks)


def local_factors(seconds: list[float]) -> list[float]:
    """Per chunk, ``REFERENCE_CHUNK_S`` over the median of the ``SPEED_WINDOW`` chunks around it."""
    half = SPEED_WINDOW // 2
    return [REFERENCE_CHUNK_S / statistics.median(seconds[max(0, k - half):k + half + 1])
            for k in range(len(seconds))]


def reference_span(begin: float, end: float, chunks: list[tuple[float, float]]) -> float:
    """Seconds from *begin* to *end*, less the chunks, at reference speed.

    *chunks* are the ``(start, seconds)`` of the speed chunks run in the
    span; the stretch before each chunk is scaled by the speed around it.
    """
    factors = local_factors([seconds for _, seconds in chunks])
    total, last = 0.0, begin
    for (start, seconds), factor in zip(chunks, factors):
        total += (start - last) * factor
        last = start + seconds
    return total + (end - last) * factors[-1]


def local_speeds(chunks: list[tuple[float, float]], per_op: int, ops: int) -> list[float]:
    """Per operation, the reference-speed factor of the chunks around it.

    Chunk *k* ran after operation ``k * per_op``.
    """
    factors = local_factors([seconds for _, seconds in chunks])
    return [factors[min(op // per_op, len(factors) - 1)] for op in range(ops)]


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated *q*-th percentile (0 when *values* is empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def latency_stats(passes: list[list[float]], unit: int = 1_000) -> dict:
    """Mean and p99 of operation latencies, as medians over units.

    A unit is a run of consecutive passes holding at least *unit*
    operations, so each unit's p99 has ten samples beyond it.
    """
    units: list[list[float]] = []
    current: list[float] = []
    for samples in passes:
        current.extend(samples)
        if len(current) >= unit:
            units.append(current)
            current = []
    if current:
        if units:
            units[-1].extend(current)
        else:
            units.append(current)
    return {
        "mean": statistics.median(statistics.fmean(u) for u in units),
        "p99": statistics.median(percentile(u, 99) for u in units),
        "count": sum(map(len, units)),
        "units": len(units),
    }


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of *pid* in MiB."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    if pid != "self":
        raise RuntimeError(f"cannot read peak RSS of process {pid}")
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_env() -> dict[str, str]:
    """The environment for benchmark children: no REPRO_* switches.

    Backend, event-core and observability switches select other code paths;
    every child runs the defaults so two commits see the same program.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    return env
