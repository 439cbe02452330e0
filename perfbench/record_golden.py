"""Record the outputs that the benchmark checks against, into golden/.

    python3 perfbench/record_golden.py [workload ...]

Run this only on a commit whose outputs are trusted: the recorded tables are
what later commits must reproduce.  grid3.csv is the sweep's CSV over the
whole acceptance grid (n <= 3, weights <= 4, e <= 12), with two worker
processes, and must hash to the golden value; the other workloads record
the summary of each case that run.py checks.
"""

import json
import sys

import workloads
from workloads import CHAR, GOLDEN, GRID3_GOLDEN_SHA256, GRID3_MAX_HOM, WORKLOADS, sha256_text


def record_grid3():
    rows = workloads.sweep.run_sweep(3, 4, 12, char=CHAR, jobs=2)
    text = workloads.sweep.rows_to_csv(rows, max_hom=GRID3_MAX_HOM)
    if sha256_text(text) != GRID3_GOLDEN_SHA256:
        raise SystemExit("the sweep CSV does not hash to the golden value; nothing written")
    (GOLDEN / "grid3.csv").write_text(text)


def record(name):
    workload = WORKLOADS[name]
    lines = []
    for case in workload.cases():
        summary = workload.summary(case, workload.run(case))
        compact = json.dumps(summary, sort_keys=True, separators=(",", ":"))
        lines.append(f"{json.dumps(workload.key(case))}: {compact}")
    # one case a line, so that a change to a recorded table reads as one line
    text = f'{{"workload": "{name}", "char": {CHAR}, "cases": {{\n' + ",\n".join(sorted(lines)) + "\n}}\n"
    (GOLDEN / f"{name}.json").write_text(text)


def main(names):
    GOLDEN.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        if name == "grid3":
            record_grid3()
        else:
            record(name)
        print(f"recorded {name}", file=sys.stderr)


if __name__ == "__main__":
    main(sys.argv[1:])
