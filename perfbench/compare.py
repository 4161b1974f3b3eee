"""Compare the metrics of two result files written by run.py.

    python3 perfbench/compare.py perfbench/out/result-A.json result-B.json

Exits with status 2, printing nothing else, when the runs used different
kernel backends: numba and numpy timings are not comparable.
"""

from __future__ import annotations

import json
import sys


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    runs = []
    for path in argv:
        with open(path) as fh:
            runs.append(json.load(fh))
    a, b = runs
    if a["env"]["backend"] != b["env"]["backend"]:
        print(f"refusing to compare: backend {a['env']['backend']} vs "
              f"{b['env']['backend']}", file=sys.stderr)
        return 2
    print(f"{'metric':<34} {'A':>12} {'B':>12} {'B/A':>8}")
    for name, ma in a["metrics"].items():
        mb = b["metrics"].get(name)
        if mb is None:
            continue
        ratio = mb["value"] / ma["value"] if ma["value"] else float("nan")
        print(f"{name:<34} {ma['value']:>12.6g} {mb['value']:>12.6g} {ratio:>8.3f}"
              f"  {ma['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
