"""Hypervisor steal: the share of busy vCPU time lost to other guests.

On a shared virtual machine the host can take a vCPU away for tens of
percent of the time, for minutes at a stretch, which stretches every wall
time measured meanwhile.  The kernel counts those ticks as "steal" in
/proc/stat.  The benchmark multiplies each measured wall time by the share of
busy vCPU time that was not stolen over the same interval, which leaves the
time the program would have taken on vCPUs it had to itself.  Where
/proc/stat is missing the share is 1 and times stay as measured.
"""

from __future__ import annotations


def cpu_ticks() -> tuple[int, int]:
    """(steal, busy) ticks summed over all CPUs; busy counts steal too, not idle."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    user, nice, system, _idle, _iowait, irq, softirq, stolen = fields
    return stolen, user + nice + system + irq + softirq + stolen


def unstolen(start: tuple[int, int], end: tuple[int, int]) -> float:
    """Share of the busy ticks between two cpu_ticks() readings that were not stolen."""
    busy = end[1] - start[1]
    return 1.0 - (end[0] - start[0]) / busy if busy > 0 else 1.0
