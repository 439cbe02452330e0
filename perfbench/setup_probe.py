"""Time one set-up in a fresh interpreter and print it in seconds.

    python3 perfbench/setup_probe.py grid3

Set-up is what a command-line user pays before the first answer: importing
nskoszul, building the workload's case list and running its warm-up case.
run.py starts this several times and reports the median as setup_s.  The
time is scaled to the reference speed (see calibration.py).
"""

import sys
from time import perf_counter

from calibration import gauge_seconds, scaled

gauge_before = gauge_seconds()
start = perf_counter()
import workloads  # noqa: E402  (imports nskoszul)

workload = workloads.WORKLOADS[sys.argv[1]]
workload.cases()
workload.run(workload.warmup_case())
took = perf_counter() - start
print(scaled(took, gauge_before, gauge_seconds()))
