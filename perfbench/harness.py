"""Measurement plumbing shared by the workloads: watchdog worker, statistics,
spans and the run environment.

Every solve runs in a single worker process, a fresh interpreter that talks
to the parent over pickles on its stdin and stdout.  The parent sends one call
at a time (a closed loop with one client) and waits for the reply under a
wall-clock cap; a worker that overruns the cap is killed, the call is recorded
as ``Watchdog``, and a fresh worker is started for the next call.  A call that
raises is recorded under the exception's class name and the worker keeps
serving.
"""

from __future__ import annotations

import importlib
import math
import os
import pickle
import platform
import resource
import select
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

# BLAS and OpenMP pools pinned to one thread, so a solve uses one core and
# numbers do not depend on the pool size of the machine.  Workers inherit the
# environment, which is set before anything imports numpy.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


# ---------------------------------------------------------------------------
# watchdog worker
# ---------------------------------------------------------------------------


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def serve(preload) -> None:
    """Worker loop: import ``preload``, then run ``module:function`` calls
    read from stdin until it closes, replying on stdout."""
    inp, out = sys.stdin.buffer, sys.stdout.buffer
    sys.stdout = sys.stderr  # stray prints must not corrupt the reply stream
    for mod in preload:
        importlib.import_module(mod)
    pickle.dump("ready", out)
    out.flush()
    while True:
        try:
            target, kwargs = pickle.load(inp)
        except EOFError:
            return
        mod_name, fn_name = target.split(":")
        fn = getattr(importlib.import_module(mod_name), fn_name)
        t0 = time.perf_counter()
        try:
            reply = ("ok", fn(**kwargs), None)
        except Exception as exc:  # reported to the parent, worker keeps serving
            reply = ("err", type(exc).__name__, traceback.format_exc(limit=4))
        pickle.dump(reply + (t0, time.perf_counter(), _rss_mb()), out)
        out.flush()


@dataclass
class CallResult:
    """Outcome of one call: ``status`` is ``ok``, ``Watchdog`` or an exception name."""

    status: str
    value: object
    start: float  # perf_counter in the worker; the clock is system-wide on Linux
    end: float
    detail: str = ""

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class Worker:
    """One solver process behind a wall-clock watchdog.

    The worker imports modules from ``path`` (prepended to its PYTHONPATH).
    """

    def __init__(self, path=(), preload=()):
        self._path = [os.path.dirname(os.path.abspath(__file__)), *path]
        self._preload = list(preload)
        self._proc = None
        self.kills = 0
        self.starts = 0
        self.peak_rss_mb = 0.0

    def _ready(self, timeout: float) -> bool:
        ready, _, _ = select.select([self._proc.stdout], [], [], timeout)
        return bool(ready)

    def start(self, timeout: float = 120.0) -> None:
        """Start a worker and wait until it has imported its modules."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            self._path + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
        code = "import sys, harness; harness.serve(sys.argv[1:])"
        self._proc = subprocess.Popen(
            [sys.executable, "-c", code, *self._preload],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env)
        self.starts += 1
        try:
            ok = self._ready(timeout) and pickle.load(self._proc.stdout) == "ready"
        except EOFError:  # the worker failed its imports
            ok = False
        if not ok:
            self.stop(force=True)
            raise RuntimeError(f"worker failed to start within {timeout:g} s")

    def call(self, target: str, cap: float, **kwargs) -> CallResult:
        """Run ``target(**kwargs)`` in the worker; kill it after ``cap`` seconds."""
        if self._proc is None:
            self.start()
        t0 = time.perf_counter()
        pickle.dump((target, kwargs), self._proc.stdin)
        self._proc.stdin.flush()
        if not self._ready(cap):
            self._kill()
            now = time.perf_counter()
            return CallResult("Watchdog", None, t0, now, f"no reply within {cap:g} s")
        try:
            kind, value, detail, start, end, rss = pickle.load(self._proc.stdout)
        except EOFError:  # the worker died on its own (crash, OOM kill)
            self._kill()
            return CallResult("WorkerDied", None, t0, time.perf_counter())
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        if kind == "ok":
            return CallResult("ok", value, start, end)
        return CallResult(value, None, start, end, detail)

    def _kill(self) -> None:
        self.kills += 1
        self.stop(force=True)

    def stop(self, force: bool = False) -> None:
        """End the worker and wait for it; safe to call more than once."""
        if self._proc is None:
            return
        if force:
            self._proc.kill()
        try:
            self._proc.stdin.close()  # a healthy worker exits when stdin closes
        except BrokenPipeError:
            pass
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()
        self._proc = None


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10


def tail_percentile(n: int) -> float:
    """Highest ladder percentile that leaves at least ten samples beyond it.

    ``N - ceil(p N / 100)`` samples lie beyond the p-th percentile's rank.
    Below 20 samples no ladder step qualifies and the median is used; the
    caller prints the percentile it got.
    """
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n - math.ceil(p * n / 100.0 - 1e-9) >= TAIL_MIN_BEYOND:
            best = p
    return best


def harrell_davis(sorted_values, p: float) -> float:
    """Harrell-Davis estimate of the p-th percentile.

    A weighted mean of all order statistics, with the weights of a
    Beta(p (N + 1), (1 - p) (N + 1)) distribution over the ranks.  It moves
    smoothly when two samples near the percentile swap places, where a single
    order statistic jumps.
    """
    n = len(sorted_values)
    q = p / 100.0
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    # Beta CDF at k / n by the midpoint rule; 64 cells per rank resolve the
    # narrow peak the density has for large N
    grid = max(4096, 64 * n)
    xs = [(i + 0.5) / grid for i in range(grid)]
    dens = [math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
            for x in xs]
    total = sum(dens)
    out, acc, i = 0.0, 0.0, 0
    for k in range(1, n + 1):
        prev = acc
        while i < grid and xs[i] < k / n:
            acc += dens[i]
            i += 1
        out += (acc - prev) / total * sorted_values[k - 1]
    return out


def latency_summary(latencies) -> dict:
    vals = sorted(latencies)
    p_tail = tail_percentile(len(vals))
    return {
        "n": len(vals),
        "p50": harrell_davis(vals, 50.0),
        "tail_p": p_tail,
        "tail": harrell_davis(vals, p_tail),
    }


def median(values) -> float:
    vals = sorted(values)
    if not vals:
        return 0.0
    mid = len(vals) // 2
    return vals[mid] if len(vals) % 2 else 0.5 * (vals[mid - 1] + vals[mid])


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


@dataclass
class Span:
    name: str
    span_id: int
    parent: int | None
    trace: int
    start: float
    end: float


@dataclass
class Tracer:
    """In-memory span store; spans are written out once the run ends."""

    spans: list[Span] = field(default_factory=list)
    _next: int = 0

    def add(self, name, trace, start, end, parent=None) -> int:
        self._next += 1
        self.spans.append(Span(name, self._next, parent, trace, start, end))
        return self._next

    def self_times(self) -> dict[int, float]:
        """Each span's duration minus the part of it that its children cover."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out: dict[int, float] = {}
        for s in self.spans:
            covered = 0.0
            cursor = s.start
            for c in sorted(children.get(s.span_id, ()), key=lambda c: c.start):
                lo, hi = max(c.start, cursor), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[s.span_id] = s.end - s.start - covered
        return out

    def as_json(self) -> list[dict]:
        return [s.__dict__ for s in self.spans]


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def environment(root: str) -> dict:
    import numpy
    import anchorsched

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "backend": anchorsched.BACKEND,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "commit": commit,
        "platform": sys.platform,
    }


# ---------------------------------------------------------------------------
# per-item record
# ---------------------------------------------------------------------------


@dataclass
class Record:
    """One attempted item: the call's outcome and what the checker made of it."""

    item: object
    result: CallResult
    probe_result: CallResult | None = None
    solved: bool = False
    failed: bool = False  # raised, hit the watchdog, or failed the check
    why: str = ""
    span: int | None = None  # id of the item's span in a traced run

    @property
    def ok(self) -> bool:
        return self.result.ok

    @property
    def value(self):
        return self.result.value

    @property
    def seconds(self) -> float:
        return self.result.seconds

    @property
    def probe_ok(self) -> bool:
        return self.probe_result is not None and self.probe_result.ok

    @property
    def probe(self) -> dict:
        return self.probe_result.value

    def fail(self, why: str, problems: list, wrong: bool = True) -> None:
        """Mark the item failed; a wrong answer is also listed in ``problems``."""
        self.failed = True
        self.why = why
        if wrong:
            problems.append(f"{self.item.key}: {why}")
