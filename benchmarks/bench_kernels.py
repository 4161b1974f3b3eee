"""Compare the numba and pure-numpy kernel backends.

The backend is chosen at import time from ``ANCHORSCHED_BACKEND``, so each
measurement runs in a fresh subprocess with the flag set; a backend that
cannot be loaded (numba not installed) is reported and left out of the table.
Workloads cover every accelerated kernel family through public entry points:

* box worst case — the all-sources sweep with one state,
* budgeted worst case — the sweep over (node, used budget) states,
* partitioned worst case — the sweep over mixed-radix budget vectors (for
  both, the budget states left after the height caps and the sweep passes
  of the LD matrix are printed under the table),
* the box and budgeted worst cases once more on a series-parallel graph
  (``SP_pRand_dRand_G2``), where most nodes have one incoming arc and the
  sweep takes its one-arc path (the other n=240 rows are Erdős–Rényi),
* relaxation bound — the bounded dual simplex (and the two sweeps of L0, LD),
* exhaustive optimum — the subset makespan scan,
* branch and bound — the ``dom`` and ``lay`` MIPs, node LPs warm-started by
  the dual simplex, incumbents from the greedy heuristic, and the chain-cut
  master of ``dom_cuts``, separated at every node (nodes and pivots are
  printed under the table),
* model builds — ``build_std``, ``build_dom`` and ``build_lay`` with the
  standard form the simplex reads, L0 and LD computed beforehand (model
  sizes are printed under the table),
* a time-limited solve — ``dom`` at n=200 with ``time_limit=1``, whose wall
  time overruns the limit by what the LPs before the first node check
  take (the root LP's pivots and the count of LPs that complete a proposal
  are printed under the table).

Run ``python3 benchmarks/bench_kernels.py``; the script puts the
repository's ``src/`` first on ``sys.path`` itself, so no install and no
``PYTHONPATH`` is needed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

# the checkout's package, for this process and for the worker (this file too)
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "src"))

WORKLOADS = (
    ("box worst case n=240", "box ER"),
    ("box worst case SP n=240", "box SP"),
    ("budgeted worst case n=240", "budgeted ER"),
    ("budgeted worst case SP n=240", "budgeted SP"),
    ("partition worst case n=240", "partition"),
    ("relaxation bound n=40", "lp"),
    ("exhaustive optimum n=17", "brute"),
    ("branch and bound dom n=40", "bnb"),
    ("branch and bound lay n=20", "bnb_lay"),
    ("branch and cut dom_cuts n=40", "bnc"),
    *(
        (f"build {which} {family} n=100", f"build {which} {family}_pRand_dRand_G2 100")
        for family in ("ER", "SP")
        for which in ("dom", "std", "lay")
    ),
    ("build dom ER n=240", "build dom ER_pRand_dRand_G2 240"),
    ("dom n=200 ER_pZero_dUnif_G3 time_limit=1", "time_limit ER_pZero_dUnif_G3 200"),
)


def _worst_case(label: str):
    """The worst-case sweep of a budgeted n=240 instance, its budget states and passes."""
    import anchorsched as asd
    from anchorsched import _kernels
    from anchorsched.graph import sweep_matrix
    from anchorsched.uncertainty import _dev_full, _state_layout

    inst = asd.make_instance(label, 240, 0)
    g, d = inst.graph, inst.delta
    parts = getattr(d, "parts", None)
    layout = _state_layout(g, d.dhat, d.gammas if parts else [d.gamma], parts)
    real, passes = _kernels.sweep, []
    _kernels.sweep = lambda *a: passes.append(1) or real(*a)
    try:  # untimed: count the kernel calls of the LD matrix
        sweep_matrix(g, g.p, g.p + _dev_full(g, d.dhat), layout)
    finally:
        _kernels.sweep = real
    note = f"{layout[3]} budget states, {len(passes)} sweep passes"
    return lambda: asd.worst_case_longest_paths(g, d), note


def _time_limited(label: str, n: int):
    """A ``dom`` solve with ``time_limit=1``, its root pivots and proposal LPs."""
    import anchorsched as asd
    from anchorsched import milp

    inst = asd.make_instance(label, n, 0)
    params = asd.SolveParams(time_limit=1.0)
    real, lps = milp._simplex, []

    def counting(model, fixes, start=None):
        out = real(model, fixes, start)
        lps.append((len(fixes or ()), out[2]))
        return out

    milp._simplex = counting
    try:  # untimed: count the LPs of one solve
        res = asd.solve_formulation(inst, "dom", params)[0]
    finally:
        milp._simplex = real
    proposals = sum(fixed == inst.n for fixed, _ in lps)  # every binary fixed
    note = (f"{res.status} at {res.value:g}/{res.bound:g}, root LP {lps[0][1]} "
            f"pivots, {proposals} proposal LPs")
    return lambda: asd.solve_formulation(inst, "dom", params)[0], note


def _build(tag: str):
    """The timed call of a workload, and a note printed under the table."""
    import anchorsched as asd

    if tag.startswith("box "):
        inst = asd.make_instance(f"{tag.split()[1]}_pRand_dRand_G2", 240, 0)
        delta = asd.Box(inst.delta.dhat)
        return lambda: asd.worst_case_longest_paths(inst.graph, delta), None
    if tag.startswith("budgeted "):
        return _worst_case(f"{tag.split()[1]}_pRand_dRand_G2")
    if tag == "partition":
        return _worst_case("ER_pRand_dRand_Partition")
    if tag == "lp":
        inst = asd.make_instance("ER_pQCri_dUnif_G1", 40, 0)
        return lambda: asd.lp_bound(inst, "dom"), None
    if tag == "brute":
        inst = asd.make_instance("ER_pRand_dRand_G2", 17, 0)
        return lambda: asd.brute_force_optimum(inst), None
    if tag == "bnb":
        inst = asd.make_instance("ER_pZero_dRand_G1", 40, 0)
        return lambda: asd.solve_formulation(inst, "dom")[0], None
    if tag == "bnb_lay":
        inst = asd.make_instance("ER_pRand_dRand_G3", 20, 0)
        return lambda: asd.solve_formulation(inst, "lay")[0], None
    if tag == "bnc":
        inst = asd.make_instance("ER_pRand_dRand_G1", 40, 0)
        return lambda: asd.solve_dom_cuts(inst)[0], None
    if tag.startswith("time_limit "):
        _, label, n = tag.split()
        return _time_limited(label, int(n))
    if tag.startswith("build "):
        _, which, label, n = tag.split()
        inst = asd.make_instance(label, int(n), 0)
        g = inst.graph
        l0 = asd.all_pairs_longest(g, g.p)
        ld = asd.worst_case_longest_paths(g, inst.delta)
        build = {
            "std": lambda: asd.build_std(inst, ld),
            "dom": lambda: asd.build_dom(inst, l0, ld),
            "lay": lambda: asd.build_lay(inst),
        }[which]

        def fn():
            model = build()
            model._standard_form()
            return model

        model = fn()
        return fn, f"{len(model.rows)} rows, {model.n_vars} columns"
    raise ValueError(tag)


def run_worker(repeat: int) -> dict:
    import anchorsched as asd

    out = {"backend": asd.BACKEND, "times": {}, "counts": {}}
    for label, tag in WORKLOADS:
        fn, note = _build(tag)
        res = fn()  # warm pass: JIT compilation and caches stay out of the timing
        if tag in ("bnb", "bnb_lay", "bnc"):
            note = f"{res.nodes} nodes, {res.iterations} pivots"
        if note:
            out["counts"][label] = note
        best = float("inf")
        for _ in range(repeat):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        out["times"][label] = best
    return out


def _measure(backend: str, repeat: int) -> dict | None:
    env = dict(os.environ, ANCHORSCHED_BACKEND=backend)
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker", "--repeat", str(repeat)],
        env=env,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(f"[{backend}] worker failed:\n{proc.stderr}\n")
        return None
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=3, help="best-of-N timing")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.worker:
        json.dump(run_worker(args.repeat), sys.stdout)
        return 0

    results = {b: _measure(b, args.repeat) for b in ("numba", "numpy")}
    cols = [b for b in ("numba", "numpy") if results[b] is not None]
    if not cols:
        return 1
    for b in cols:
        got = results[b]["backend"]
        if got != b:
            sys.stderr.write(f"warning: requested {b} but backend reports {got}\n")

    width = max(len(lbl) for lbl, _ in WORKLOADS)
    print(f"kernel backends, best of {args.repeat} (seconds, lower is better)")
    header = "workload".ljust(width) + "".join(f"  {b:>10}" for b in cols)
    if len(cols) == 2:
        header += f"  {'speedup':>8}"
    print(header)
    for label, _ in WORKLOADS:
        row = label.ljust(width)
        for b in cols:
            row += f"  {results[b]['times'][label]:>10.4f}"
        if len(cols) == 2:
            ratio = results["numpy"]["times"][label] / results["numba"]["times"][label]
            row += f"  {ratio:>7.1f}x"
        print(row)
    for b in cols:
        for label, note in results[b]["counts"].items():
            print(f"[{b}] {label}: {note}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
