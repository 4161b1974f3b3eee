"""Rebuild ``refs_auto_n20.json``: brute-force optima of the auto_n20 instances.

    python3 perfbench/refs.py

Run from the repository root.  Each n = 20 optimum takes a few seconds of
exhaustive search, so the answers are kept in the file, keyed by a digest of
the instance's content; the checker recomputes any instance it cannot find.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import anchorsched as asd  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    refs = {}
    for label in workloads.AUTO_CLASSES:
        inst = asd.make_instance(label, workloads.AUTO_N, workloads.AUTO_INSTANCE_SEED)
        refs[workloads.content_hash(inst)] = entry = workloads.reference(inst)
        print(label, entry["optimum"], flush=True)
    with open(workloads.AUTO_REFS, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
