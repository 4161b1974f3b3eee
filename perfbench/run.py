"""Checked benchmark of the anchorsched solver stack.

    python3 perfbench/run.py --workload auto_n20 --seed 0 --seconds 5 --trace 0

Run from the repository root; the package is imported from ``src/``.  Load is
a closed loop with one client: one item at a time, each run in one worker
process under a wall-clock watchdog, BLAS threads pinned to 1.  The timed
phase runs whole passes over the workload's items, at least two and more
until ``--seconds`` have elapsed; an item's latency is its best time over the
first two passes.  Answers are checked afterwards, outside the timed phase; a
wrong answer makes the run exit with status 1.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` gives half of
``--seconds`` and at least one pass to an untraced phase, then the same to a
traced one: each traced item is followed by probe calls
that time its layers one by one (kept out of the traced throughput), and the
per-layer metrics plus the tracing overhead are printed.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  Full results and spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("solved_frac", "frac"),
    ("peak_rss_mb", "MB"),
)

# Probe spans, named after the public call they time, and the metric each feeds.
SPAN_METRICS = {
    "graph.all_pairs_longest": "graph.l0_s",
    "uncertainty.worst_case_longest_paths": "uncertainty.ld_s",
    "exact.preprocess_deadline": "exact.preprocess_s",
    "formulations.build": "formulations.build_s",
    "milp.solve_lp": "milp.root_lp_s",
    "formulations.lp_bound": "cli.lp_bound_s",
}

BASE_LAYERS = (
    ("graph.l0_s", "s"),
    ("uncertainty.ld_s", "s"),
    ("uncertainty.dp_states", "count"),
    ("exact.route.box", "count"),
    ("exact.route.u_lp", "count"),
    ("exact.route.critical_reduction", "count"),
    ("exact.route.dom", "count"),
    ("exact.preprocess_s", "s"),
    ("exact.outside_mip_s", "s"),
    ("formulations.build_s", "s"),
    ("formulations.rows", "count"),
    ("formulations.vars", "count"),
    ("formulations.root_cuts", "count"),
    ("formulations.root_rounds", "count"),
    ("milp.root_lp_s", "s"),
    ("milp.root_pivots", "count"),
    ("milp.pivot_ms", "ms"),
    ("milp.bnb_s", "s"),
    ("milp.nodes", "count"),
    ("milp.pivots", "count"),
    ("milp.pivots_per_node", "count"),
    ("milp.timelimit_n", "count"),
    ("milp.numerical_failure_n", "count"),
    ("cli.bench_task_s", "s"),
    ("cli.lp_bound_s", "s"),
    ("instances.gen_s", "s"),
    ("instances.io_s", "s"),
    ("anchored.brute_s", "s"),
    ("anchored.verify_s", "s"),
    ("harness.watchdog_n", "count"),
    ("harness.fail_frac", "frac"),
    ("trace.overhead_per_s", "1/s"),
)
# methods_small reports these once per method as well, suffixed .std/.dom/...
_BUILT = ("formulations.build_s", "formulations.rows", "formulations.vars",
          "milp.root_lp_s", "milp.root_pivots", "milp.pivot_ms")
_SOLVED = ("milp.bnb_s", "milp.nodes", "milp.pivots", "milp.pivots_per_node",
           "milp.timelimit_n", "milp.numerical_failure_n", "cli.bench_task_s",
           "cli.lp_bound_s", "harness.fail_frac")
_UNITS = dict(BASE_LAYERS)
METHOD_LAYERS = tuple(
    (f"{name}.{m}", _UNITS[name])
    for m in ("std", "dom", "dom_cuts", "lay")
    for name in (_BUILT if m != "dom_cuts" else ()) + _SOLVED
    + (("formulations.root_cuts", "formulations.root_rounds") if m == "dom_cuts" else ())
)
PER_LAYER = BASE_LAYERS + METHOD_LAYERS


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("auto_n20", "methods_small", "ld_n240"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=5.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def locate_package(root: str) -> str | None:
    src = os.path.join(root, "src")
    if os.path.isfile(os.path.join(src, "anchorsched", "__init__.py")):
        return src
    return None


def _repeatable(rec) -> bool:
    """A later pass repeats only items that returned an answer within limits:
    a raise, a watchdog kill or a time limit would only cost the cap again."""
    return rec.ok and rec.value.get("status", "Optimal") == "Optimal"


def run_phase(worker, wl, items, seconds, min_passes, tracer=None):
    """Closed loop over whole passes of ``items``: at least ``min_passes``,
    and more until ``seconds`` have elapsed.

    Returns each item's attempts, the wall time of the phase less the time
    spent in traced probes (layer calls repeated only to time them), and the
    number of passes.  Probes run in the first pass only.
    """
    from harness import Record

    attempts = [[] for _ in items]
    probe_s = 0.0
    passes = 0
    t0 = time.perf_counter()
    while passes < min_passes or time.perf_counter() - t0 - probe_s < seconds:
        passes += 1
        for idx, (item, tries) in enumerate(zip(items, attempts)):
            if tries and not _repeatable(tries[0]):
                continue
            res = worker.call(item.target, item.cap, **item.kwargs)
            rec = Record(item, res)
            if not res.ok:
                rec.fail(res.status, [], wrong=False)
            tries.append(rec)
            if tracer is not None and passes == 1:
                rec.span = tracer.add(wl.item_span(rec), idx, res.start, res.end)
                if item.probe is not None:
                    tp = time.perf_counter()
                    target, kwargs = item.probe
                    rec.probe_result = worker.call(
                        target, 2 * item.cap, **kwargs, **wl.probe_kwargs(rec))
                    if rec.probe_ok:
                        for name, a, b in rec.probe["spans"]:
                            tracer.add(name, idx, a, b, parent=rec.span)
                    probe_s += time.perf_counter() - tp
    return attempts, time.perf_counter() - t0 - probe_s, passes


def summarize(attempts, wall) -> dict:
    """End-to-end numbers of one phase.

    An item's latency is its best time over its first two passes, so a burst
    of contention from other work on the host has to hit an item twice to
    move it; an item with any failed or unsolved attempt counts at its cap.
    """
    from harness import latency_summary

    lat = []
    for tries in attempts:
        if all(r.solved for r in tries):
            lat.append(min(r.seconds for r in tries[:2]))
        else:
            lat.append(tries[0].item.cap)
    summary = latency_summary(lat)
    n = len(attempts)
    return {
        "n": n,
        "attempted": sum(len(t) for t in attempts),
        "failed": sum(r.failed for t in attempts for r in t),
        "throughput_per_s": sum(len(t) for t in attempts) / wall,
        "latency_p50_s": summary["p50"],
        "latency_tail_s": summary["tail"],
        "tail_percentile": summary["tail_p"],
        "solved_frac": sum(all(r.solved for r in t) for t in attempts) / n,
        "fail_frac": sum(any(r.failed for r in t) for t in attempts) / n,
    }


def per_layer(wl, records, tracer) -> dict[str, list]:
    """Per-item layer values, keyed by metric name (and by name.method)."""
    self_time = tracer.self_times()
    names = {s.span_id: s.name for s in tracer.spans}
    children: dict[int, list[int]] = {}
    for s in tracer.spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s.span_id)
    vals: dict[str, list] = {}
    for rec in records:
        row = dict(wl.record_layers(rec))
        for sid in [rec.span] + children.get(rec.span, []):
            metric = SPAN_METRICS.get(names[sid])
            if metric:
                row[metric] = self_time[sid]
        if rec.probe_ok:
            row.update((k, v) for k, v in rec.probe.items() if k != "spans")
            if "milp.pivots" in row:
                row["milp.pivots_per_node"] = row["milp.pivots"] / max(row["milp.nodes"], 1)
            if row.get("milp.root_pivots"):
                row["milp.pivot_ms"] = 1000.0 * row["milp.root_lp_s"] / row["milp.root_pivots"]
        status = rec.value.get("status") if rec.ok else rec.result.status
        row["milp.timelimit_n"] = int(status == "TimeLimit")
        row["milp.numerical_failure_n"] = int(rec.result.status == "NumericalFailure")
        row["harness.fail_frac"] = float(rec.failed)
        method = rec.item.meta.get("method")
        for name, v in row.items():
            vals.setdefault(name, []).append(v)
            if method:
                vals.setdefault(f"{name}.{method}", []).append(v)
    return vals


def _summed(name: str) -> bool:
    """Route and event counts add up over items."""
    base = name if name in _UNITS else name.rsplit(".", 1)[0]
    return base.startswith("exact.route.") or base.endswith("_n")


def aggregate(vals: dict[str, list], run_level: dict) -> tuple[dict, dict]:
    """One number per per-layer metric, and how many items it came from.

    Counts are summed, fractions averaged and everything else is the median
    over items.  Metrics with no value on this workload are 0 with count 0.
    """
    from harness import median

    out, counts = {}, {}
    for name, unit in PER_LAYER:
        if name in run_level:
            v, counts[name] = run_level[name], 1
        else:
            xs = vals.get(name, [])
            if _summed(name):
                v = sum(xs)
            elif name.split(".")[1].endswith("_frac"):
                v = sum(xs) / len(xs) if xs else 0.0
            else:
                v = median(xs)
            counts[name] = len(xs)
        out[name] = {"value": v, "unit": unit}
    return out, counts


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = locate_package(root)
    if src is None:
        print(f"error: {root} has no src/anchorsched; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from harness import Tracer, Worker, environment, median, pin_threads

    pin_threads()
    import anchorsched

    if not os.path.abspath(anchorsched.__file__).startswith(src + os.sep):
        print(f"error: imported anchorsched from {anchorsched.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    env = environment(root)
    workdir = os.path.join(OUT, "work", args.workload)
    cache = os.path.join(OUT, "cache", f"refs_{args.workload}.json")
    workers = []
    try:
        setups, gen, io = [], [], []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            worker = Worker(path=[src], preload=("workloads",))
            workers.append(worker)
            worker.start()
            plan = wl.plan(args.seed, workdir)
            for item in plan.warm:
                res = worker.call(item.target, item.cap, **item.kwargs)
                if not res.ok:
                    raise RuntimeError(f"warm-up {item.key} failed: {res.status}\n{res.detail}")
            setups.append(time.perf_counter() - t0)
            gen.append(plan.gen_s)
            io.append(plan.io_s)
            if len(workers) < SETUP_REPEATS:
                worker.stop()

        timers = {"anchored.brute_s": 0.0, "anchored.verify_s": 0.0}
        problems: list[str] = []
        phases = {}
        if args.trace:
            # one pass each: the per-layer numbers come from first attempts only
            half = args.seconds / 2
            phases["untraced"] = run_phase(worker, wl, plan.items, half, 1)
            tracer = Tracer()
            phases["traced"] = run_phase(worker, wl, plan.items, half, 1, tracer)
        else:
            phases["untraced"] = run_phase(worker, wl, plan.items, args.seconds, 2)
        for attempts, _, _ in phases.values():
            problems += wl.check(plan, [r for t in attempts for r in t], cache, timers)
    finally:
        for w in workers:
            w.stop()
    peak = max([w.peak_rss_mb for w in workers]
               + [resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0])

    stats = {k: summarize(attempts, wall) for k, (attempts, wall, _) in phases.items()}
    main_phase = "traced" if args.trace else "untraced"
    attempts, wall, passes = phases[main_phase]
    records = [t[0] for t in attempts]  # first pass: the traced, probed attempts
    s = stats[main_phase]
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# load: closed loop, 1 client, 1 worker process; {s['attempted']} "
          f"solves of {s['n']} items in {passes} passes over {wall:.2f} s; "
          f"{sum(w.starts for w in workers)} worker starts, "
          f"{sum(w.kills for w in workers)} watchdog kills")
    if args.trace:
        tracer_overhead = (stats["traced"]["throughput_per_s"]
                           - stats["untraced"]["throughput_per_s"])
        vals = per_layer(wl, records, tracer)
        run_level = {
            "instances.gen_s": median(gen),
            "instances.io_s": median(io),
            "harness.watchdog_n": sum(r.result.status == "Watchdog"
                                      for t in attempts for r in t),
            "trace.overhead_per_s": tracer_overhead,
            **timers,
        }
        metrics, counts = aggregate(vals, run_level)
        missing = [k for k, c in counts.items() if c == 0]
        print(f"# tracing overhead: traced {stats['traced']['throughput_per_s']:.4f}/s "
              f"- untraced {stats['untraced']['throughput_per_s']:.4f}/s "
              f"= {tracer_overhead:+.4f}/s")
        if missing:
            print("# not measured on this workload (reported as 0): " + ", ".join(missing))
    else:
        metrics = {
            "setup_s": median(setups),
            "throughput_per_s": s["throughput_per_s"],
            "latency_p50_s": s["latency_p50_s"],
            "latency_tail_s": s["latency_tail_s"],
            "solved_frac": s["solved_frac"],
            "peak_rss_mb": peak,
        }
        metrics = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END}
        counts = {k: s["n"] for k in metrics}
        counts.update(setup_s=SETUP_REPEATS, peak_rss_mb=sum(w.starts for w in workers))
    for name, m in metrics.items():
        note = f"n={counts[name]}"
        if name == "latency_tail_s":
            note += f", p{s['tail_percentile']:g}"
        print(f"{name:<34} {m['value']:>14.6g} {m['unit']:<6} {note}")
    print(f"# fail_frac {s['fail_frac']:.4f} "
          f"(raised, watchdog or wrong; NumericalFailure raised: "
          f"{sum(r.result.status == 'NumericalFailure' for r in records)})")
    failed = [r for attempts_, _, _ in phases.values() for t in attempts_ for r in t
              if r.failed]
    for key in sorted({f"{r.item.key}: {r.why}" for r in failed}):
        print(f"# failed: {key}")
    for r in records:
        if r.probe_result is not None and not r.probe_ok:
            print(f"# probe failed: {r.item.key}: {r.probe_result.status}")
    for p in problems:
        print(f"# WRONG: {p}")

    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "stats": stats, "metrics": metrics,
              "setup_s": setups, "failed": sorted({r.item.key for r in failed}),
              "items": [[t[0].item.key, [r.result.status for r in t],
                         [r.seconds for r in t]] for t in attempts],
              "wrong": problems}
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    if args.trace:
        with open(os.path.join(OUT, f"trace-{tag}.json"), "w") as fh:
            json.dump({"env": env, "spans": tracer.as_json()}, fh)
    print(json.dumps({
        "correct": not problems,
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": metrics,
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
