"""Anchored sets: feasibility characterization and exhaustive optimization.

A baseline schedule x anchors a job set H when, for every deviation δ in the
uncertainty set, some schedule of the inflated graph G(p+δ) agrees with x on
H.  Because a worst case exists pairwise, this reduces to the precedence
tests x_j - x_i >= LD(i, j) over comparable pairs i, j in H ∪ {s}, where LD
is the worst-case longest-path matrix.

Consequently H admits *some* feasible baseline within deadline M iff its
earliest one, the dominant baseline z, finishes by M.  The anchored starts
of z follow from one recursion over s and H in topological order:
z_a = max(0, max over earlier u in H ∪ {s} of z_u + LD(u, a)).  Paths
through unanchored nodes need no term of their own: if a path into a leaves
its last node u of H ∪ {s} and reaches a from an unanchored i, its part
after u is at most L0(u, i) + p_i <= LD(u, a).  The other nodes start at
the earliest time G allows after those floors.  So z satisfies z_j - z_i >= LD(i, j) for *every* predecessor i of
an anchored j, not only anchored ones, which is what the strengthened
formulation exploits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from . import _kernels
from .errors import DeadlineInfeasible, InfeasibleAnchoredSet, InstanceTooLarge
from .graph import (
    EPS,
    S,
    LongestPathMatrix,
    PrecedenceGraph,
    Schedule,
    all_pairs_longest,
    require_schedule,
)
from .uncertainty import UncertaintySet, n_jobs_of, normalize, worst_case_longest_paths

#: exhaustive search guard
BRUTE_FORCE_MAX_JOBS = 20


@dataclass(frozen=True)
class Instance:
    """A scheduling instance: graph, uncertainty set, deadline and weights."""

    graph: PrecedenceGraph
    delta: UncertaintySet
    deadline: float
    weights: np.ndarray
    meta: Mapping = field(default_factory=dict)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.graph.n,):
            raise ValueError(f"weights must have length n={self.graph.n}")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "delta", normalize(self.delta, self.graph.n))
        object.__setattr__(self, "deadline", float(self.deadline))
        if not math.isfinite(self.deadline):
            raise ValueError("deadline must be finite")
        if n_jobs_of(self.delta) not in (None, self.graph.n):
            raise ValueError("uncertainty set does not match the graph size")

    @property
    def n(self) -> int:
        return self.graph.n

    def weight_of(self, anchored: Iterable[int]) -> float:
        return float(sum(self.weights[j - 1] for j in anchored))


@dataclass(frozen=True)
class AnchoredSolution:
    """A baseline schedule with its anchored set and total anchored weight."""

    schedule: Schedule
    anchored: frozenset[int]
    objective: float


def _check_anchor_set(g: PrecedenceGraph, anchored: Iterable[int]) -> list[int]:
    jobs = sorted(set(int(j) for j in anchored))
    for j in jobs:
        if not 1 <= j <= g.n:
            raise ValueError(f"anchored job {j} outside 1..{g.n}")
    return jobs


def _anchored_starts(
    g: PrecedenceGraph, ld: LongestPathMatrix, anchored: Iterable[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes s and H in topological order, and their dominant-baseline starts.

    LD is -inf off reachability, so each anchored start is one vector max over
    the nodes before it (see the module docstring).
    """
    chosen = set(_check_anchor_set(g, anchored))
    nodes = np.array([S] + [v for v in g._topo if v in chosen])
    lags = ld.values[np.ix_(nodes, nodes)]
    z = np.zeros(len(nodes))
    for k in range(1, len(nodes)):
        z[k] = max(0.0, (z[:k] + lags[:k, k]).max())
    return nodes, z


def _fill_starts(g: PrecedenceGraph, nodes, z) -> np.ndarray:
    """Starts of every node: at least z on ``nodes``, as early as G allows.

    With the anchored starts of ``_anchored_starts``, the nodes keep z and
    this is the dominant baseline (see the module docstring).
    """
    start = np.zeros(g.n + 2)
    start[nodes] = z
    start, p = start.tolist(), g.p.tolist()  # float arithmetic off numpy scalars
    for v in g._topo:
        for i in g._pred[v]:
            start[v] = max(start[v], start[i] + p[i])
    return np.array(start)


def dominant_schedule(
    g: PrecedenceGraph,
    ld: LongestPathMatrix,
    anchored: Iterable[int],
    deadline: float | None = None,
) -> Schedule:
    """Earliest baseline anchoring the given set.

    This schedule satisfies z_j - z_i >= LD(i, j) for every comparable pair
    with j anchored — anchored or not i — so it is feasible for the
    strengthened pair constraints whenever any baseline is.  With a deadline,
    raises InfeasibleAnchoredSet if even this schedule overruns it.
    """
    sched = Schedule(start=_fill_starts(g, *_anchored_starts(g, ld, anchored)))
    if deadline is not None and sched.makespan > float(deadline) + EPS:
        raise InfeasibleAnchoredSet(
            f"anchored set needs makespan {sched.makespan:g} > deadline {float(deadline):g}"
        )
    return sched


def is_anchored_set(
    g: PrecedenceGraph,
    ld: LongestPathMatrix,
    anchored: Iterable[int],
    deadline: float,
) -> bool:
    """Can some baseline within the deadline anchor the given set?"""
    nodes, z = _anchored_starts(g, ld, anchored)
    return bool((z + g.to_sink()[nodes]).max() <= float(deadline) + EPS)


def _pairs_hold(
    ld: LongestPathMatrix, x: np.ndarray, jobs: list[int], tol: float
) -> bool:
    """x_j - x_i >= LD(i, j) - tol over comparable pairs i in H ∪ {s}, j in H."""
    tails = [S] + jobs
    for j in jobs:
        for i in tails:
            if ld.reach[i, j] and x[j] - x[i] < ld.values[i, j] - tol:
                return False
    return True


def is_x_anchored(
    g: PrecedenceGraph,
    ld: LongestPathMatrix,
    x: Schedule | np.ndarray,
    anchored: Iterable[int],
    tol: float = EPS,
) -> bool:
    """Does the baseline x anchor the given set against the worst case?

    Checks x_j - x_i >= LD(i, j) over comparable pairs inside H ∪ {s}; x must
    be a schedule of G.
    """
    x = require_schedule(g, x, tol=tol)
    return _pairs_hold(ld, x, _check_anchor_set(g, anchored), tol)


def recourse_feasible(
    g: PrecedenceGraph,
    dev: np.ndarray,
    x: Schedule | np.ndarray,
    anchored: Iterable[int],
    tol: float = EPS,
) -> bool:
    """Does a schedule of G(p+δ) exist that agrees with x on the anchored set?

    Equivalent to x_j - x_i >= L_{G(p+δ)}(i, j) on comparable pairs inside
    H ∪ {s}; the earliest such completion exists iff these pairwise tests all
    pass for the single deviation δ.
    """
    x = require_schedule(g, x, tol=tol)
    jobs = _check_anchor_set(g, anchored)
    dv = np.zeros(g.n + 2)
    dv[1 : g.n + 1] = np.asarray(dev, dtype=float)
    return _pairs_hold(all_pairs_longest(g, g.p + dv), x, jobs, tol)


# ---------------------------------------------------------------------------
# exhaustive optimum
# ---------------------------------------------------------------------------


def _mask_arrays(inst: Instance, ld: LongestPathMatrix):
    """CSR views of G and of every anchoring arc, for mask kernels."""
    g = inst.graph
    ptr, src = g._incoming_csr()
    topo_rest = np.asarray([v for v in g._topo if v != S], dtype=np.int64)
    heads, tails = np.nonzero(ld.reach[: g.n + 1, 1 : g.n + 1].T)
    heads += 1
    an_ptr = np.zeros(g.n + 2, dtype=np.int64)
    np.cumsum(np.bincount(heads, minlength=g.n + 1), out=an_ptr[1:])
    return (
        topo_rest,
        ptr,
        src,
        g.p[src],
        an_ptr,
        tails.astype(np.int64),
        ld.values[tails, heads],
    )


def _subset_weights(n: int, weights: np.ndarray) -> np.ndarray:
    """Total weight of every job subset, indexed by bitmask (bit j-1 = job j)."""
    out = np.zeros(1 << n)
    for j in range(n):
        size = 1 << j
        out[size : 2 * size] = out[:size] + weights[j]
    return out


def brute_force_optimum(inst: Instance) -> AnchoredSolution:
    """Exhaustive maximum-weight anchored set (guarded to n <= 20 jobs).

    Visits candidate sets by decreasing total weight, in blocks.  The first
    block that holds a feasible set fixes the best weight, since no later set
    weighs more; the scan goes on only while sets within 1e-9 of it remain.
    Reports the dominant baseline of the best set.  Ties in total weight
    (within 1e-9) resolve to the lexicographically smallest job set so
    results are reproducible across backends.
    """
    g = inst.graph
    if g.n > BRUTE_FORCE_MAX_JOBS:
        raise InstanceTooLarge(
            f"exhaustive search guarded to n <= {BRUTE_FORCE_MAX_JOBS}, got {g.n}"
        )
    ld = worst_case_longest_paths(g, inst.delta)
    nominal = all_pairs_longest(g, g.p)
    if inst.deadline < nominal.values[S, g.t] - EPS:
        raise DeadlineInfeasible(
            f"deadline {inst.deadline:g} below nominal makespan {nominal.values[S, g.t]:g}"
        )
    arrays = _mask_arrays(inst, ld)
    n = g.n
    wsub = _subset_weights(n, inst.weights)
    order = np.argsort(-wsub, kind="stable")
    limit = float(inst.deadline) + EPS
    best = None
    found = []
    chunk = 1 << 14
    for lo in range(0, len(order), chunk):
        block = order[lo : lo + chunk]
        if best is not None and wsub[block[0]] < best - 1e-9:
            break
        ok = block[_kernels.mask_makespans(block, n, n + 2, *arrays) <= limit]
        if ok.size:
            if best is None:
                best = float(wsub[ok].max())
            found.append(ok[wsub[ok] >= best - 1e-9])

    # among feasible sets within 1e-9 of the best weight, choose the
    # lexicographically smallest job tuple
    best_jobs: tuple[int, ...] | None = None
    best_w = -np.inf
    for mask in np.sort(np.concatenate(found)).tolist():
        jobs = tuple(j + 1 for j in range(n) if mask >> j & 1)
        w = inst.weight_of(jobs)
        if w > best_w + 1e-9 or (abs(w - best_w) <= 1e-9 and (best_jobs is None or jobs < best_jobs)):
            best_w = w
            best_jobs = jobs
    assert best_jobs is not None  # the empty set is always feasible here
    schedule = dominant_schedule(g, ld, best_jobs, inst.deadline)
    return AnchoredSolution(
        schedule=schedule, anchored=frozenset(best_jobs), objective=float(best_w)
    )
