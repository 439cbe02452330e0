"""Timings scaled to a fixed machine speed.

On a shared host the speed of one core swings by up to 1.7x for tens of
seconds at a time with the load of other tenants on the same hardware; the
process's CPU time swings with it, and a slow phase can outlast a whole run.
A fixed piece of pure-Python work, timed right before and right after each
measured interval, gauges the speed during that interval.  The interval's
time is scaled by REFERENCE_S over the gauge's mean, which gives the time the
interval would take on a core that runs the gauge in REFERENCE_S: the
undisturbed speed of one core of a 2-core x86 virtual machine (Python
3.11).  The gauge never changes with the program, so the scale is the
same for every commit compared.
"""

from time import perf_counter

REFERENCE_S = 0.003


def gauge_seconds() -> float:
    """Time of the fixed gauge work at the machine's present speed."""
    start = perf_counter()
    table = {}
    for i in range(10000):
        key = (i % 7, i % 11, i % 13)
        table[key] = table.get(key, 0) + i * i % 32003
    return perf_counter() - start


def scaled(seconds: float, gauge_before: float, gauge_after: float) -> float:
    """seconds measured between two gauges, at the reference speed."""
    return seconds * REFERENCE_S * 2 / (gauge_before + gauge_after)
