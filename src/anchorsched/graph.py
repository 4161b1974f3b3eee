"""Precedence graphs, schedules, and longest-path machinery.

A project is a DAG on nodes ``0..n+1`` where ``0`` is the dummy source ``s``,
``n+1`` the dummy sink ``t``, and ``1..n`` are jobs.  An arc ``(i, j)`` carries
the duration of its *tail*: length ``p_i`` (``p_s = 0``).  A schedule is a
start-time vector ``x`` with ``x_s = 0`` and ``x_j - x_i >= p_i`` on every arc.

Longest-path values ``L(i, j)`` are defined exactly on the transitive
reachability relation.  They come from one DAG sweep over every source at
once (``path_sweep``, ``sweep_matrix``; see ``_kernels``), which the
worst-case matrices of ``uncertainty`` share.  The nominal all-pairs matrix is
the workhorse for everything else: anchoring conditions, criticality checks,
and formulation coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import _kernels
from .errors import CycleDetected, DeadlineInfeasible, NotASchedule

#: global numeric tolerance for feasibility / equality checks
EPS = 1e-6

S = 0  # source node id; the sink is n + 1

_NO_GROUPS = np.zeros(0, dtype=np.int64)

#: memory guard: most float64 values (16 MiB) one ``sweep_matrix`` pass holds
SWEEP_CELLS = 2**21


class PrecedenceGraph:
    """Immutable precedence DAG with job durations.

    Parameters
    ----------
    n : number of jobs (nodes are ``0..n+1``)
    arcs : iterable of ``(i, j)`` pairs, ``0 <= i, j <= n+1``
    p : durations of jobs ``1..n`` (nonnegative reals)

    Construction validates the structural invariants: no arc into ``s`` or out
    of ``t``, no self-loops or duplicates, acyclicity, and every job lying on
    at least one s-t path.
    """

    __slots__ = (
        "n", "arcs", "p", "_succ", "_pred", "_topo", "_reach", "_to_sink",
        "_in_csr", "_rev_csr", "_rev_heads",
    )

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]], p: Sequence[float]):
        if n < 0:
            raise ValueError("n must be >= 0")
        self.n = int(n)
        t = self.n + 1
        arc_list = sorted({(int(i), int(j)) for i, j in arcs})
        for i, j in arc_list:
            if not (0 <= i <= t and 0 <= j <= t):
                raise ValueError(f"arc ({i},{j}) out of node range 0..{t}")
            if i == j:
                raise ValueError(f"self-loop at node {i}")
            if j == S:
                raise ValueError(f"arc ({i},{j}) enters the source")
            if i == t:
                raise ValueError(f"arc ({i},{j}) leaves the sink")
        self.arcs = tuple(arc_list)
        pv = np.asarray(list(p), dtype=float)
        if pv.shape != (self.n,):
            raise ValueError(f"p must have length n={self.n}, got {pv.shape}")
        if not np.all(np.isfinite(pv)):
            raise ValueError("processing times must be finite")
        if np.any(pv < 0):
            raise ValueError("processing times must be nonnegative")
        full = np.zeros(self.n + 2)
        full[1 : self.n + 1] = pv
        self.p = full  # indexed by node; p[s] = p[t] = 0

        succ: list[list[int]] = [[] for _ in range(self.n + 2)]
        pred: list[list[int]] = [[] for _ in range(self.n + 2)]
        for i, j in self.arcs:
            succ[i].append(j)
            pred[j].append(i)
        self._succ = tuple(tuple(v) for v in succ)
        self._pred = tuple(tuple(v) for v in pred)
        self._topo = self._toposort()
        self._reach = None
        self._to_sink = None
        self._in_csr = None
        self._rev_csr = None
        self._rev_heads = None
        self._check_connected()

    # -- basic structure ---------------------------------------------------

    @property
    def t(self) -> int:
        return self.n + 1

    @property
    def jobs(self) -> range:
        return range(1, self.n + 1)

    def successors(self, v: int) -> tuple[int, ...]:
        return self._succ[v]

    def predecessors(self, v: int) -> tuple[int, ...]:
        return self._pred[v]

    def _toposort(self) -> tuple[int, ...]:
        import heapq

        indeg = [len(self._pred[v]) for v in range(self.n + 2)]
        heap = [v for v in range(self.n + 2) if indeg[v] == 0]
        heapq.heapify(heap)
        order = []
        while heap:
            v = heapq.heappop(heap)
            order.append(v)
            for w in self._succ[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    heapq.heappush(heap, w)
        if len(order) != self.n + 2:
            raise CycleDetected("arc set contains a directed cycle")
        return tuple(order)

    def _check_connected(self) -> None:
        if self.n == 0:
            return
        from_s = np.zeros(self.n + 2, dtype=bool)
        from_s[S] = True
        for v in self._topo:
            if from_s[v]:
                for w in self._succ[v]:
                    from_s[w] = True
        to_t = np.zeros(self.n + 2, dtype=bool)
        to_t[self.t] = True
        for v in reversed(self._topo):
            if to_t[v]:
                for u in self._pred[v]:
                    to_t[u] = True
        for j in self.jobs:
            if not (from_s[j] and to_t[j]):
                raise ValueError(f"job {j} does not lie on any s-t path")

    def reachability(self) -> np.ndarray:
        """Strict transitive closure as a boolean matrix (cached).

        A bitset pass over the successor lists, independent of the sweep
        kernel.  The path matrices read their ``reach`` off their own finite
        values instead, so this is the oracle they are checked against.
        """
        if self._reach is None:
            m = self.n + 2
            bits = [0] * m  # bit w of bits[v]: w is reachable from v
            for v in reversed(self._topo):
                b = 0
                for w in self._succ[v]:
                    b |= bits[w] | (1 << w)
                bits[v] = b
            width = (m + 7) // 8
            raw = b"".join(b.to_bytes(width, "little") for b in bits)
            packed = np.frombuffer(raw, dtype=np.uint8).reshape(m, width)
            reach = np.unpackbits(packed, axis=1, count=m, bitorder="little").view(bool)
            reach.setflags(write=False)
            self._reach = reach
        return self._reach

    def to_sink(self) -> np.ndarray:
        """Nominal longest-path values L0(v, t) from every node (cached)."""
        if self._to_sink is None:
            to_t = _longest_to_sink(self)
            to_t.setflags(write=False)
            self._to_sink = to_t
        return self._to_sink

    # -- CSR views for the kernels ----------------------------------------

    def _incoming_csr(self):
        if self._in_csr is None:
            order = sorted(range(len(self.arcs)), key=lambda k: self.arcs[k][1])
            src = np.array([self.arcs[k][0] for k in order], dtype=np.int64)
            dst = [self.arcs[k][1] for k in order]
            ptr = np.zeros(self.n + 3, dtype=np.int64)
            for j in dst:
                ptr[j + 1] += 1
            np.cumsum(ptr, out=ptr)
            self._in_csr = (ptr, src)
        return self._in_csr

    def _reverse_csr(self):
        """Incoming CSR of the reversed graph (arc (i,j) seen as (j,i))."""
        if self._rev_csr is None:
            order = sorted(range(len(self.arcs)), key=lambda k: self.arcs[k][0])
            src = np.array([self.arcs[k][1] for k in order], dtype=np.int64)
            heads = np.array([self.arcs[k][0] for k in order], dtype=np.int64)
            ptr = np.zeros(self.n + 3, dtype=np.int64)
            for k in order:
                ptr[self.arcs[k][0] + 1] += 1
            np.cumsum(ptr, out=ptr)
            self._rev_csr = (ptr, src)
            self._rev_heads = heads  # reversed-arc weight = w[original tail] = w[head here]
        return self._rev_csr

    def node_weights(self, weights: Sequence[float] | None = None) -> np.ndarray:
        """Arc-tail duration vector over nodes; defaults to nominal p."""
        if weights is None:
            return self.p
        w = np.asarray(weights, dtype=float)
        if w.shape == (self.n,):
            full = np.zeros(self.n + 2)
            full[1 : self.n + 1] = w
            return full
        if w.shape == (self.n + 2,):
            return w
        raise ValueError(f"weights must have length n or n+2, got {w.shape}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PrecedenceGraph(n={self.n}, arcs={len(self.arcs)})"


@dataclass(frozen=True)
class Schedule:
    """Start times indexed by node 0..n+1."""

    start: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "start", np.asarray(self.start, dtype=float))

    def __getitem__(self, v: int) -> float:
        return float(self.start[v])

    @property
    def makespan(self) -> float:
        return float(self.start[-1])

    def as_list(self) -> list[float]:
        return [float(v) for v in self.start]


@dataclass(frozen=True)
class LongestPathMatrix:
    """Pairwise longest-path values, defined exactly on reachability.

    ``values[i, j]`` is finite iff there is a nonempty path i -> j; other
    entries hold -inf and are not part of the relation.
    """

    values: np.ndarray
    reach: np.ndarray

    def value(self, i: int, j: int) -> float:
        if not self.reach[i, j]:
            raise KeyError(f"({i},{j}) are not comparable")
        return float(self.values[i, j])

    def pairs(self) -> Iterator[tuple[int, int]]:
        for i in range(self.reach.shape[0]):
            for j in np.nonzero(self.reach[i])[0]:
                yield i, int(j)


def topological_order(g: PrecedenceGraph) -> tuple[int, ...]:
    """Deterministic topological order (lexicographically smallest)."""
    return g._topo


def path_sweep(g: PrecedenceGraph, sources, w_nom, w_dev=None, layout=None, reverse=False):
    """``val[node, state, source]``: one topological pass from every source.

    An arc weighs its tail's entry of the node weights ``w_nom``, or of
    ``w_dev`` when it deviates.  ``layout`` is ``(group_of, stride, radix,
    n_states)`` (see ``_kernels``) and defaults to one state.  States lie
    outside the sources, so each budget shift moves contiguous runs.  With
    ``reverse`` the pass runs on the reversed graph, so ``val[v]`` is the
    longest path from v to the source.  An entry is finite exactly when a
    path joins the pair (weights are finite), which is the reachability the
    matrices built on it return.
    """
    if reverse:
        ptr, src = g._reverse_csr()
        tails, order = g._rev_heads, g._topo[::-1]
    else:
        ptr, src = g._incoming_csr()
        tails, order = src, g._topo
    wt_nom = w_nom[tails]
    wt_dev = wt_nom if w_dev is None else w_dev[tails]
    group_of, stride, radix, n_states = layout or (
        np.full(g.n + 2, -1, dtype=np.int64), _NO_GROUPS, _NO_GROUPS, 1
    )
    return _kernels.sweep(
        np.asarray(order, dtype=np.int64), ptr, src, wt_nom, wt_dev,
        group_of, stride, radix, n_states, np.asarray(sources, dtype=np.int64),
    )


def sweep_matrix(g: PrecedenceGraph, w_nom, w_dev=None, layout=None) -> np.ndarray:
    """Longest-path matrix, the maximum over end states, row t left at -inf.

    Every source goes in one pass of m·n_states values per source.  Only
    when that pass would exceed ``SWEEP_CELLS`` values are the sources split
    into blocks of max(1, SWEEP_CELLS // (m·n_states)).
    """
    m = g.n + 2
    n_states = 1 if layout is None else layout[3]
    step = max(1, SWEEP_CELLS // (m * n_states))
    values = np.full((m, m), -np.inf)
    for lo in range(0, g.t, step):
        block = np.arange(lo, min(lo + step, g.t))
        val = path_sweep(g, block, w_nom, w_dev, layout)
        values[block] = val.max(axis=1).T
    return values


def _as_matrix(values: np.ndarray) -> LongestPathMatrix:
    """The relation of a swept matrix: its finite entries off the diagonal.

    Weights are finite, so a value is finite exactly when a path joins the
    pair; only the diagonal holds the zero each source starts from.
    """
    np.fill_diagonal(values, -np.inf)
    return LongestPathMatrix(values=values, reach=values > -np.inf)


def single_source_longest(
    g: PrecedenceGraph, source: int, weights: Sequence[float] | None = None
) -> np.ndarray:
    """Longest-path values from ``source`` to every node (-inf if unreachable)."""
    return path_sweep(g, [source], g.node_weights(weights))[:, 0, 0]


def _longest_to_sink(g: PrecedenceGraph, weights: Sequence[float] | None = None) -> np.ndarray:
    """Longest-path values from every node to t (-inf if t unreachable)."""
    return path_sweep(g, [g.t], g.node_weights(weights), reverse=True)[:, 0, 0]


def all_pairs_longest(
    g: PrecedenceGraph, weights: Sequence[float] | None = None
) -> LongestPathMatrix:
    """Nominal longest-path matrix for the given duration vector.

    ``reach`` is read off the finite values (see ``_as_matrix``).
    """
    return _as_matrix(sweep_matrix(g, g.node_weights(weights)))


def earliest_schedule(
    g: PrecedenceGraph, weights: Sequence[float] | None = None
) -> Schedule:
    """Componentwise-least schedule: x_j = L(s, j)."""
    dist = single_source_longest(g, S, weights)
    start = np.where(np.isfinite(dist), dist, 0.0)
    return Schedule(start=start)


def latest_schedule(
    g: PrecedenceGraph, deadline: float, weights: Sequence[float] | None = None
) -> Schedule:
    """Latest start times meeting the deadline: x_j = M - L(j, t).

    This is the componentwise-greatest start vector with makespan ``M``; note
    x_s = M - L(s, t) >= 0, so it is a schedule (x_s = 0) only when the
    deadline is tight.  Raises DeadlineInfeasible when M < L(s, t).
    """
    to_t = _longest_to_sink(g, weights)
    if deadline < to_t[S] - EPS:
        raise DeadlineInfeasible(
            f"deadline {deadline} is below the minimum makespan {to_t[S]}"
        )
    start = deadline - np.where(np.isfinite(to_t), to_t, 0.0)
    return Schedule(start=start)


def is_schedule(g: PrecedenceGraph, x: Schedule | Sequence[float], tol: float = EPS) -> bool:
    """True iff x_s = 0 and every arc constraint x_j - x_i >= p_i holds.

    Raises ValueError when x is not a vector of length n+2.
    """
    xv = x.start if isinstance(x, Schedule) else np.asarray(x, dtype=float)
    if xv.shape != (g.n + 2,):
        raise ValueError(f"start vector must have length n+2={g.n + 2}")
    try:
        require_schedule(g, xv, tol)
    except NotASchedule:
        return False
    return True


def require_schedule(g: PrecedenceGraph, x, tol: float = EPS) -> np.ndarray:
    """Validated start vector; raises NotASchedule with the violated constraint."""
    xv = x.start if isinstance(x, Schedule) else np.asarray(x, dtype=float)
    if xv.shape != (g.n + 2,):
        raise NotASchedule(f"start vector must have length n+2={g.n + 2}")
    if abs(xv[S]) > tol:
        raise NotASchedule(f"x_s = {xv[S]} differs from 0")
    for i, j in g.arcs:
        if xv[j] - xv[i] < g.p[i] - tol:
            raise NotASchedule(
                f"arc ({i},{j}): x_{j} - x_{i} = {xv[j] - xv[i]} < p_{i} = {g.p[i]}"
            )
    return xv


def is_quasi_critical(g: PrecedenceGraph, tol: float = EPS) -> bool:
    """True iff every job lies on some longest s-t path."""
    from_s = single_source_longest(g, S)
    to_t = _longest_to_sink(g)
    total = from_s[g.t]
    for j in g.jobs:
        if from_s[j] + to_t[j] < total - tol:
            return False
    return True


def is_critical(g: PrecedenceGraph, tol: float = EPS) -> bool:
    """True iff every s-t path is a longest one (all paths have equal length).

    Equivalent arc-wise test: L(s,i) + p_i + L(j,t) = L(s,t) on every arc.
    """
    from_s = single_source_longest(g, S)
    to_t = _longest_to_sink(g)
    total = from_s[g.t]
    for i, j in g.arcs:
        if abs(from_s[i] + g.p[i] + to_t[j] - total) > tol:
            return False
    return True
