"""The n=200 time-limit check: ``solve_auto`` on the 60 paper classes.

Every class is solved at instance seed 0 with ``time_limit=2``.  Per class
the script prints status, objective, bound, nodes and the wall seconds of
``solve_auto``; then the total, the status counts, the worst wall time and
the peak RSS of the process.  ``time_limit`` is checked between nodes, so a
class overruns it by what its root LPs take.

Run ``python3 benchmarks/bench_n200.py`` (it takes no options; about 90 s
on 2 vCPUs with the numpy backend).  The script puts the repository's
``src/`` first on ``sys.path`` itself, so no install and no ``PYTHONPATH``
is needed.
"""

from __future__ import annotations

import collections
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "src"))

import anchorsched as asd  # noqa: E402
from anchorsched.instances import (  # noqa: E402
    DEVIATION_CLASSES,
    GRAPH_FAMILIES,
    PROCESSING_CLASSES,
    UNCERTAINTY_FIELDS,
)

N = 200
TIME_LIMIT = 2.0


def main() -> int:
    labels = [
        f"{f}_{p}_{d}_{u}"
        for f in GRAPH_FAMILIES
        for p in PROCESSING_CLASSES
        for d in DEVIATION_CLASSES
        for u in UNCERTAINTY_FIELDS
    ]
    print(f"solve_auto, n={N}, seed 0, time_limit={TIME_LIMIT:g}, backend {asd.BACKEND}")
    print(f"{'class':<24} {'status':<10} {'objective':>9} {'bound':>7} {'nodes':>6} {'wall_s':>7}")
    walls, statuses = {}, collections.Counter()
    for label in labels:
        inst = asd.make_instance(label, N, 0)
        t0 = time.perf_counter()
        rep = asd.solve_auto(inst, asd.SolveParams(time_limit=TIME_LIMIT))
        walls[label] = time.perf_counter() - t0
        statuses[rep.status] += 1
        print(f"{label:<24} {rep.status:<10} {rep.objective:>9g} {rep.bound:>7g} "
              f"{rep.nodes:>6} {walls[label]:>7.2f}", flush=True)
    worst = max(walls, key=walls.get)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    counts = ", ".join(f"{k} {v}" for k, v in sorted(statuses.items()))
    print(f"total {sum(walls.values()):.1f} s ({counts})")
    print(f"worst wall {walls[worst]:.2f} s ({worst})")
    print(f"peak RSS {rss_mb:.0f} MB")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
