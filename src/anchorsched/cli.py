"""Command-line front end: generate, solve, bench, and verify.

Exit codes: 0 on success, 2 when the instance (or a checked solution) is
infeasible, 3 when a requested method does not support the instance, 4 on
parse errors in files, labels, or command lines, 5 when the LP engine fails
numerically (``NumericalFailure``, e.g. a node LP hits its pivot limit).
``bench`` records such a failure as the status of that run and goes on.

``solve`` and ``bench`` name methods from ``exact.METHODS`` and solve each
through ``exact.solve_method``; ``dom_cuts`` is the chain-cut branch and cut.
The benchmark core is importable (``bench_paths`` / ``aggregate_bench``) so
tests and scripts can run the same pipeline without spawning a process.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .anchored import is_x_anchored
from .errors import (
    AnchorSchedError,
    DeadlineInfeasible,
    EnumerationTooLarge,
    InfeasibleAnchoredSet,
    InstanceTooLarge,
    NotCritical,
    NumericalFailure,
    ParseError,
    UnsupportedInstance,
    UnsupportedUncertainty,
)
from .exact import METHODS, SolutionReport, preprocess_deadline, solve_method
from .formulations import build
from .graph import EPS, require_schedule
from .milp import SolveParams, export_lp_file
from .instances import (
    instance_filename,
    make_instance,
    parse_label,
    read_instance,
    write_instance,
)
from .uncertainty import worst_case_longest_paths

_ENV_SEED = "ANCHORSCHED_SEED"

_EXIT_OK = 0
_EXIT_INFEASIBLE = 2
_EXIT_UNSUPPORTED = 3
_EXIT_PARSE = 4
_EXIT_NUMERICAL = 5

#: errors that mean a method does not support the instance (exit code 3)
_UNSUPPORTED = (
    UnsupportedUncertainty,
    UnsupportedInstance,
    InstanceTooLarge,
    EnumerationTooLarge,
    NotCritical,
)


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the parse-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(_EXIT_PARSE)


def _default_seed() -> int:
    raw = os.environ.get(_ENV_SEED)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"{_ENV_SEED} must be an integer, got {raw!r}")


def _json_value(v):
    if v is None:
        return None
    f = float(v)
    return f if math.isfinite(f) else None


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    label = parse_label(args.label)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for k in range(args.count):
        seed = args.seed + k
        inst = make_instance(label, args.n, seed)
        path = out_dir / instance_filename(label, args.n, seed)
        write_instance(inst, path)
        print(path)
    return _EXIT_OK


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def _report_to_dict(report: SolutionReport) -> dict:
    out = {
        "method": report.method,
        "status": report.status,
        "objective": _json_value(report.objective),
        "bound": _json_value(report.bound),
        "gap": _json_value(report.gap),
        "nodes": int(report.nodes),
        "time": float(report.runtime),
        "anchored": None,
        "start": None,
    }
    if report.solution is not None:
        out["anchored"] = sorted(int(j) for j in report.solution.anchored)
        out["start"] = [float(v) for v in report.solution.schedule.as_list()]
    return out


def _print_report(data: dict, pretty: bool, stream) -> None:
    if not pretty:
        print(json.dumps(data, indent=2, sort_keys=True), file=stream)
        return
    for key in ("method", "status", "objective", "bound", "gap", "nodes", "time"):
        print(f"{key:<10} {data[key]}", file=stream)
    if data["anchored"] is not None:
        print(f"{'anchored':<10} {' '.join(str(j) for j in data['anchored'])}",
              file=stream)
        print(f"{'start':<10} {' '.join(f'{v:g}' for v in data['start'])}",
              file=stream)


def cmd_solve(args) -> int:
    inst = read_instance(args.instance)
    params = SolveParams(time_limit=args.time_limit)
    if args.export_lp:
        which = args.method if args.method in ("std", "lay") else "dom"
        export_lp_file(build(preprocess_deadline(inst), which), args.export_lp)
    report = solve_method(inst, args.method, params)
    data = _report_to_dict(report)
    if args.out:
        Path(args.out).write_text(
            json.dumps(data, indent=2, sort_keys=True) + "\n"
        )
        if args.pretty:
            _print_report(data, True, sys.stdout)
    else:
        _print_report(data, args.pretty, sys.stdout)
    if report.status == "Infeasible":
        return _EXIT_INFEASIBLE
    return _EXIT_OK


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


@dataclass
class BenchRecord:
    """One (instance, method) benchmark outcome."""

    path: str
    label: str
    method: str
    status: str
    solved: bool
    runtime: float
    gap: float
    objective: float
    lp_value: float
    lp_gap: float


def bench_task(
    path: str,
    method: str,
    time_limit: float,
    cuts: bool = False,
) -> BenchRecord:
    """Solve one instance with one method and compute its relaxation gap.

    ``cuts=True`` is the benchmark harness's spelling of ``dom_cuts``: it
    maps ``dom`` to ``dom_cuts`` and raises ParseError with any other method.
    """
    if cuts:
        if method != "dom":
            raise ParseError("cuts=True applies only to the dom method")
        method = "dom_cuts"
    inst = read_instance(path)
    label = str(inst.meta.get("label", Path(path).stem))
    params = SolveParams(time_limit=time_limit)
    try:
        report = solve_method(inst, method, params)
    except (*_UNSUPPORTED, DeadlineInfeasible, NumericalFailure) as exc:
        return BenchRecord(
            path=str(path), label=label, method=method,
            status=type(exc).__name__, solved=False, runtime=float("nan"),
            gap=float("nan"), objective=float("nan"),
            lp_value=float("nan"), lp_gap=float("nan"),
        )
    lp_value = report.root_value if report.solved else float("nan")
    lp_gap = (lp_value - report.objective) / max(abs(report.objective), 1e-9)
    return BenchRecord(
        path=str(path), label=label, method=method, status=report.status,
        solved=report.solved, runtime=report.runtime, gap=report.gap,
        objective=report.objective, lp_value=lp_value, lp_gap=lp_gap,
    )


def _bench_task_tuple(item) -> BenchRecord:
    return bench_task(*item)


def bench_paths(
    paths,
    methods,
    time_limit: float = 300.0,
    jobs: int = 1,
) -> list[BenchRecord]:
    """Run every (instance, method) pair, optionally across processes.

    Results come back in deterministic (path, method) submission order
    regardless of worker scheduling.
    """
    tasks = [
        (str(p), m, time_limit)
        for p in sorted(str(p) for p in paths)
        for m in methods
    ]
    if jobs <= 1:
        return [_bench_task_tuple(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_bench_task_tuple, tasks))


_CSV_HEADER = (
    "label",
    "method",
    "solved_count",
    "mean_time_solved_s",
    "mean_final_gap_unsolved",
    "mean_lpgap",
    "mean_opt",
)


def aggregate_bench(records) -> list[dict]:
    """Aggregate per (label, method): counts and means per the CSV schema.

    Solve times, optima, and relaxation gaps average over solved instances
    only; the final branch-and-bound gap averages over unsolved ones.
    """
    groups: dict[tuple[str, str], list[BenchRecord]] = {}
    order: list[tuple[str, str]] = []
    for rec in records:
        key = (rec.label, rec.method)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(rec)

    def _mean(vals):
        vals = [v for v in vals if math.isfinite(v)]
        return float(np.mean(vals)) if vals else float("nan")

    rows = []
    for label, method in order:
        recs = groups[(label, method)]
        solved = [r for r in recs if r.solved]
        unsolved = [r for r in recs if not r.solved]
        rows.append(
            {
                "label": label,
                "method": method,
                "solved_count": len(solved),
                "mean_time_solved_s": _mean([r.runtime for r in solved]),
                "mean_final_gap_unsolved": _mean([r.gap for r in unsolved]),
                "mean_lpgap": _mean([r.lp_gap for r in solved]),
                "mean_opt": _mean([r.objective for r in solved]),
            }
        )
    return rows


def _format_cell(value) -> str:
    if isinstance(value, float):
        return "" if not math.isfinite(value) else f"{value:.6g}"
    return str(value)


def bench_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_HEADER)
    for row in rows:
        writer.writerow([_format_cell(row[k]) for k in _CSV_HEADER])
    return buf.getvalue()


def _bench_table(rows) -> str:
    cells = [[_format_cell(row[k]) or "-" for k in _CSV_HEADER] for row in rows]
    widths = [
        max(len(h), *(len(line[i]) for line in cells)) if cells else len(h)
        for i, h in enumerate(_CSV_HEADER)
    ]
    out = ["  ".join(h.ljust(w) for h, w in zip(_CSV_HEADER, widths))]
    for line in cells:
        out.append("  ".join(c.ljust(w) for c, w in zip(line, widths)))
    return "\n".join(out)


def cmd_bench(args) -> int:
    root = Path(args.directory)
    if not root.is_dir():
        raise ParseError(f"{root} is not a directory")
    paths = sorted(root.glob("*.json"))
    if not paths:
        raise ParseError(f"no instance files in {root}")
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for m in methods:
        if m not in METHODS:
            raise ParseError(f"unknown method {m!r}")
    records = bench_paths(paths, methods, args.time_limit, args.jobs)
    rows = aggregate_bench(records)
    text = bench_csv(rows)
    if args.out:
        Path(args.out).write_text(text)
    if args.pretty:
        print(_bench_table(rows))
    elif not args.out:
        print(text, end="")
    return _EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _load_solution(path: str) -> tuple[list[float], list[int]]:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: solution must be a JSON object")
    start = data.get("start")
    anchored = data.get("anchored")
    if not isinstance(start, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in start
    ):
        raise ParseError(f"{path}: 'start' must be a list of numbers")
    if not isinstance(anchored, list) or not all(
        isinstance(v, int) and not isinstance(v, bool) for v in anchored
    ):
        raise ParseError(f"{path}: 'anchored' must be a list of job ids")
    return [float(v) for v in start], [int(v) for v in anchored]


def cmd_verify(args) -> int:
    inst = read_instance(args.instance)
    start, anchored = _load_solution(args.solution)
    g = inst.graph
    checks: list[tuple[str, bool, str]] = []

    if len(start) != g.n + 2:
        raise ParseError(
            f"'start' must have length {g.n + 2} (source, jobs, sink)"
        )
    bad_jobs = [j for j in anchored if not (1 <= j <= g.n)]
    if bad_jobs:
        raise ParseError(f"anchored job ids out of range: {bad_jobs}")

    try:
        require_schedule(g, start)
        checks.append(("schedule", True, "precedence-feasible, starts at zero"))
    except AnchorSchedError as exc:
        checks.append(("schedule", False, str(exc)))

    makespan_ok = start[-1] <= inst.deadline + EPS
    checks.append(
        (
            "deadline",
            makespan_ok,
            f"makespan {start[-1]:g} vs deadline {inst.deadline:g}",
        )
    )

    if checks[0][1] and makespan_ok:
        ld = worst_case_longest_paths(g, inst.delta)
        ok = is_x_anchored(g, ld, start, anchored)
        checks.append(
            ("anchored", ok, f"{len(anchored)} jobs against worst-case paths")
        )
    else:
        checks.append(("anchored", False, "skipped: baseline checks failed"))

    failed = [name for name, ok, _ in checks if not ok]
    for name, ok, note in checks:
        print(f"[verify] {name}: {'PASS' if ok else 'FAIL'} ({note})")
    if failed:
        print(f"[verify] FAILED: {', '.join(failed)}")
        return _EXIT_INFEASIBLE
    print("[verify] OK")
    return _EXIT_OK


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="anchorsched",
        description="Anchor-robust project scheduling: generate, solve, "
        "benchmark, and verify instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write instance files for a class label")
    p_gen.add_argument("--label", required=True,
                       help="class label, e.g. SP_pQCri_dUnif_G1")
    p_gen.add_argument("--n", type=int, required=True, help="number of jobs")
    p_gen.add_argument("--count", type=int, default=1,
                       help="number of instances (consecutive seeds)")
    p_gen.add_argument("--seed", type=int, default=None,
                       help=f"base seed (default: ${_ENV_SEED} or 0)")
    p_gen.add_argument("--out", default=".", help="output directory")
    p_gen.set_defaults(func=cmd_generate)

    p_solve = sub.add_parser("solve", help="solve one instance file")
    p_solve.add_argument("instance", help="instance JSON file")
    p_solve.add_argument("--method", default="auto",
                         choices=METHODS)
    p_solve.add_argument("--time-limit", type=float, default=300.0)
    p_solve.add_argument("--export-lp", metavar="PATH",
                         help="also write the model in LP format")
    p_solve.add_argument("--out", metavar="PATH",
                         help="write the solution JSON here instead of stdout")
    p_solve.add_argument("--pretty", action="store_true",
                         help="human-readable output")
    p_solve.set_defaults(func=cmd_solve)

    p_bench = sub.add_parser("bench", help="run methods over a directory")
    p_bench.add_argument("directory", help="directory of instance JSON files")
    p_bench.add_argument("--methods", default="dom",
                         help=f"comma-separated subset of {','.join(METHODS)}")
    p_bench.add_argument("--time-limit", type=float, default=300.0)
    p_bench.add_argument("--jobs", type=int, default=1,
                         help="worker processes (default 1)")
    p_bench.add_argument("--out", metavar="PATH", help="write CSV here")
    p_bench.add_argument("--pretty", action="store_true",
                         help="print an aligned table instead of CSV")
    p_bench.set_defaults(func=cmd_bench)

    p_verify = sub.add_parser("verify", help="check a solution against an instance")
    p_verify.add_argument("instance", help="instance JSON file")
    p_verify.add_argument("solution", help="solution JSON file")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def console_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "seed", None) is None and args.command == "generate":
        try:
            args.seed = _default_seed()
        except ParseError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return _EXIT_PARSE
    try:
        # numbers argparse takes that no run can use (nan fails the test too)
        for flag, least in (("n", 1), ("count", 1), ("time_limit", 0)):
            value = getattr(args, flag, least)
            if not value >= least:
                name = "--" + flag.replace("_", "-")
                raise ParseError(f"{name} must be at least {least}, got {value}")
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_PARSE
    except _UNSUPPORTED as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_UNSUPPORTED
    except (DeadlineInfeasible, InfeasibleAnchoredSet) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INFEASIBLE
    except NumericalFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_PARSE


def main() -> None:
    sys.exit(console_main())


if __name__ == "__main__":
    main()
