"""Uncertainty sets over job-duration deviations and worst-case longest paths.

A deviation vector δ >= 0 inflates each arc (i, j) to length p_i + δ_i.  All
set types here are down-monotone (closed under decreasing any coordinate), so
the worst-case longest-path value

    LD(i, j) = max over δ in Δ of L_{G(p+δ)}(i, j)

is what anchoring feasibility depends on.  Supported set types:

* ``Box(dhat)``              all 0 <= δ <= δ̂
* ``Budgeted(dhat, gamma)``  box capped at Γ simultaneous full deviations
* ``OneDisruption(dhat0)``   uniform budgeted with Γ = 1
* ``PartitionBudgeted``      one budget per group of a job partition
* ``MixedBudgeted``          union of budgeted sets
* ``Scenarios(deltas)``      convex hull of explicit scenarios

Worst cases come from one DAG sweep over every source at once
(``graph.sweep_matrix``), which differs by set type only in its budget states:
one state on the inflated graph for boxes and scenarios, (node, used budget)
states for budgeted sets, and mixed-radix budget vectors for partitions.
Unions and hulls reduce to pointwise maxima of member matrices.

Each budget group is capped at its own height H_k, the largest number of its
jobs with δ̂_j > 0 on one s-t path, so it spends min(Γ_k, H_k) + 1 states
(``_state_layout``).  The cap is exact: a path cannot spend more budget in a
group than it holds deviating jobs of that group, and a job with δ̂_j = 0
never deviates (deviating it would add nothing), so LD does not change.  A
group capped at 0 drops out; with none left the set is swept as plain
longest paths.  See Bertsimas & Sim, "The Price of Robustness", Oper. Res.
52(1), 2004.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

import numpy as np

from .errors import (
    BudgetOutOfRange,
    EmptyScenarioList,
    EnumerationTooLarge,
    UnsupportedUncertainty,
)
from .graph import (
    EPS,
    S,
    LongestPathMatrix,
    PrecedenceGraph,
    _as_matrix,
    path_sweep,
    single_source_longest,
    sweep_matrix,
)

#: guard on the budget states of one sweep (after the height caps)
MAX_PARTITION_STATES = 10**6

#: guards for extreme-point enumeration
ENUM_MAX_JOBS = 20
ENUM_MAX_GAMMA = 3


def _as_nonneg(vec, what: str) -> tuple[float, ...]:
    arr = tuple(float(v) for v in vec)
    if not all(math.isfinite(v) for v in arr):
        raise ValueError(f"{what} must be finite")
    if any(v < 0 for v in arr):
        raise ValueError(f"{what} must be nonnegative")
    return arr


@dataclass(frozen=True)
class Box:
    """All deviations between 0 and δ̂ componentwise."""

    dhat: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "dhat", _as_nonneg(self.dhat, "dhat"))


@dataclass(frozen=True)
class Budgeted:
    """Box capped at Γ jobs deviating fully (and fractionally in between)."""

    dhat: tuple[float, ...]
    gamma: int

    def __post_init__(self):
        object.__setattr__(self, "dhat", _as_nonneg(self.dhat, "dhat"))
        object.__setattr__(self, "gamma", int(self.gamma))
        n = len(self.dhat)
        if not 1 <= self.gamma <= max(n, 1):
            raise BudgetOutOfRange(f"gamma must be in 1..{n}, got {self.gamma}")


@dataclass(frozen=True)
class OneDisruption:
    """At most one job deviates, all by the same amount δ̂0."""

    dhat0: float

    def __post_init__(self):
        object.__setattr__(self, "dhat0", float(self.dhat0))
        if not math.isfinite(self.dhat0):
            raise ValueError("dhat0 must be finite")
        if self.dhat0 < 0:
            raise ValueError("dhat0 must be nonnegative")


@dataclass(frozen=True)
class PartitionBudgeted:
    """Independent budgets on the groups of a job partition."""

    dhat: tuple[float, ...]
    parts: tuple[tuple[int, ...], ...]
    gammas: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "dhat", _as_nonneg(self.dhat, "dhat"))
        parts = tuple(tuple(sorted(int(j) for j in part)) for part in self.parts)
        gammas = tuple(int(gk) for gk in self.gammas)
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "gammas", gammas)
        n = len(self.dhat)
        if len(parts) != len(gammas) or not parts:
            raise ValueError("parts and gammas must be nonempty and aligned")
        seen: set[int] = set()
        for part, gk in zip(parts, gammas):
            if not part:
                raise ValueError("empty partition group")
            for j in part:
                if not 1 <= j <= n or j in seen:
                    raise ValueError(f"job {j} repeated or out of range in partition")
                seen.add(j)
            if not 1 <= gk <= len(part):
                raise BudgetOutOfRange(
                    f"group budget {gk} outside 1..{len(part)}"
                )
        if len(seen) != n:
            raise ValueError("parts must cover all jobs 1..n")


@dataclass(frozen=True)
class MixedBudgeted:
    """Union of budgeted sets (worst case is the member-wise maximum)."""

    components: tuple[Budgeted, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ValueError("mixed set needs at least one component")
        if any(not isinstance(c, Budgeted) for c in comps):
            raise ValueError("mixed components must be Budgeted sets")
        if len({len(c.dhat) for c in comps}) != 1:
            raise ValueError("mixed components must agree on the number of jobs")
        object.__setattr__(self, "components", comps)


@dataclass(frozen=True)
class Scenarios:
    """Convex hull of finitely many scenarios (worst case = scenario-wise max)."""

    deltas: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if not self.deltas:
            raise EmptyScenarioList("scenario set needs at least one scenario")
        deltas = tuple(_as_nonneg(d, "scenario") for d in self.deltas)
        if len({len(d) for d in deltas}) != 1:
            raise ValueError("scenarios must have equal length")
        object.__setattr__(self, "deltas", deltas)


UncertaintySet = Union[Box, Budgeted, OneDisruption, PartitionBudgeted, MixedBudgeted, Scenarios]


def n_jobs_of(delta: UncertaintySet) -> int | None:
    """Number of jobs the set is dimensioned for (None for OneDisruption)."""
    if isinstance(delta, (Box, Budgeted, PartitionBudgeted)):
        return len(delta.dhat)
    if isinstance(delta, MixedBudgeted):
        return len(delta.components[0].dhat)
    if isinstance(delta, Scenarios):
        return len(delta.deltas[0])
    return None


def normalize(delta: UncertaintySet, n: int) -> UncertaintySet:
    """Canonical form dimensioned for ``n`` jobs.

    OneDisruption becomes uniform Budgeted with Γ = 1 (or a zero Box when
    δ̂0 = 0, where no deviation can happen).  Other sets are validated against
    ``n`` and returned unchanged.
    """
    if isinstance(delta, OneDisruption):
        if delta.dhat0 <= 0:
            return Box(dhat=(0.0,) * n)
        if n == 0:
            return Box(dhat=())
        return Budgeted(dhat=(delta.dhat0,) * n, gamma=1)
    m = n_jobs_of(delta)
    if m != n:
        raise ValueError(f"uncertainty set is dimensioned for {m} jobs, graph has {n}")
    return delta


def one_disruption_value(delta: UncertaintySet, n: int) -> float | None:
    """δ̂0 when the set is (equivalent to) a uniform 1-budget set, else None."""
    if isinstance(delta, OneDisruption):
        return delta.dhat0
    if isinstance(delta, Budgeted) and delta.gamma == 1 and len(delta.dhat) == n:
        vals = set(delta.dhat)
        if len(vals) == 1:
            return delta.dhat[0]
    return None


def greatest_point(delta: UncertaintySet) -> np.ndarray | None:
    """The greatest element of the set when one exists (box-like sets).

    When this returns δ*, the whole set collapses to the box [0, δ*] for
    worst-case purposes, which unlocks the combinatorial box algorithm.
    """
    if isinstance(delta, Box):
        return np.asarray(delta.dhat)
    if isinstance(delta, Budgeted):
        nnz = sum(1 for v in delta.dhat if v > 0)
        if nnz <= delta.gamma:
            return np.asarray(delta.dhat)
        return None
    if isinstance(delta, OneDisruption):
        # dimension unknown here; normalize() first (δ̂0 = 0 becomes a zero Box)
        return None
    if isinstance(delta, PartitionBudgeted):
        for part, gk in zip(delta.parts, delta.gammas):
            if sum(1 for j in part if delta.dhat[j - 1] > 0) > gk:
                return None
        return np.asarray(delta.dhat)
    if isinstance(delta, MixedBudgeted):
        caps = [np.asarray(c.dhat) for c in delta.components]
        for comp, cap in zip(delta.components, caps):
            g = greatest_point(comp)
            if g is not None and all(np.all(g >= other - 1e-15) for other in caps):
                return g
        return None
    if isinstance(delta, Scenarios):
        mats = np.asarray(delta.deltas)
        top = mats.max(axis=0)
        for row in mats:
            if np.all(row >= top - 1e-15):
                return row.copy()
        return None
    return None


def _dev_full(g: PrecedenceGraph, dhat: Sequence[float]) -> np.ndarray:
    """Deviation vector over nodes (zero at s and t)."""
    dv = np.zeros(g.n + 2)
    dv[1 : g.n + 1] = np.asarray(dhat, dtype=float)
    return dv


def budget_height(g: PrecedenceGraph, dhat: Sequence[float]) -> int:
    """Largest number of jobs with dhat_j > 0 on any s-t path.

    One longest-path sweep with 0/1 node weights.  No path can deviate more
    jobs than it holds, so a budget above this height buys nothing.
    """
    risky = (np.asarray(dhat, dtype=float) > 0.0).astype(float)
    return int(round(single_source_longest(g, S, risky)[g.t]))


def _state_layout(g: PrecedenceGraph, dhat, gammas, parts=None):
    """``(group_of, stride, radix, n_states)`` of the budget states of a set.

    Digit k of a state is the budget group k has spent (see ``_kernels``).
    Without parts this is a budgeted set: one group of every job.  Only jobs
    with dhat_j > 0 join a group; the others keep ``group_of = -1``, so their
    arcs never deviate.  Group k gets radix min(Γ_k, H_k) + 1, where H_k is
    the ``budget_height`` of its deviating jobs, and a group capped at 0
    gets no digit at all.  Raises EnumerationTooLarge when the capped states
    exceed ``MAX_PARTITION_STATES``.
    """
    risky = np.asarray(dhat, dtype=float) > 0.0
    group_of = np.full(g.n + 2, -1, dtype=np.int64)
    radix = []
    for part, gk in zip(parts or (g.jobs,), gammas):
        mask = np.zeros(g.n, dtype=bool)
        mask[np.asarray(part, dtype=np.int64) - 1] = True
        mask &= risky
        cap = min(int(gk), budget_height(g, mask))
        if cap > 0:
            group_of[1:-1][mask] = len(radix)
            radix.append(cap + 1)
    n_states = math.prod(radix)
    if n_states > MAX_PARTITION_STATES:
        raise EnumerationTooLarge(
            f"budget DP needs {n_states} budget states after the height caps "
            f"(limit {MAX_PARTITION_STATES})"
        )
    stride = [math.prod(radix[:k]) for k in range(len(radix))]
    return group_of, np.array(stride, dtype=np.int64), np.array(radix, dtype=np.int64), n_states


def budgeted_dp(
    g: PrecedenceGraph, dhat: Sequence[float], gamma: int, source: int
) -> np.ndarray:
    """DP table val[v, γ] = longest source->v path deviating exactly γ tails.

    val[source, 0] = 0, unreachable states are -inf.  The table has
    min(Γ, H) + 1 columns, H the ``budget_height``: no path deviates more
    tails than that.  The worst-case value LD(source, v) is the running
    maximum over γ (monotone by construction); raw states need not be
    monotone since a short path can run out of tails.
    """
    if not 1 <= int(gamma) <= max(g.n, 1):
        raise BudgetOutOfRange(f"gamma must be in 1..{g.n}, got {gamma}")
    w_dev = g.p + _dev_full(g, dhat)
    layout = _state_layout(g, dhat, [int(gamma)])
    return path_sweep(g, [int(source)], g.p, w_dev, layout)[:, :, 0]


def _budgeted_matrix(g: PrecedenceGraph, dhat, gamma: int) -> np.ndarray:
    layout = _state_layout(g, dhat, [gamma])
    return sweep_matrix(g, g.p, g.p + _dev_full(g, dhat), layout)


def _partition_matrix(g: PrecedenceGraph, delta: PartitionBudgeted) -> np.ndarray:
    layout = _state_layout(g, delta.dhat, delta.gammas, delta.parts)
    return sweep_matrix(g, g.p, g.p + _dev_full(g, delta.dhat), layout)


def worst_case_longest_paths(g: PrecedenceGraph, delta: UncertaintySet) -> LongestPathMatrix:
    """Worst-case longest-path matrix LD over the set, on comparable pairs.

    ``reach`` is read off the finite values (see ``graph._as_matrix``): the
    nominal state is always swept, so for every set they are finite exactly
    on the transitive closure.
    """
    d = normalize(delta, g.n)
    if isinstance(d, Box):
        values = sweep_matrix(g, g.p + _dev_full(g, d.dhat))
    elif isinstance(d, Budgeted):
        values = _budgeted_matrix(g, d.dhat, d.gamma)
    elif isinstance(d, PartitionBudgeted):
        values = _partition_matrix(g, d)
    elif isinstance(d, MixedBudgeted):
        values = _budgeted_matrix(g, d.components[0].dhat, d.components[0].gamma)
        for comp in d.components[1:]:
            np.maximum(values, _budgeted_matrix(g, comp.dhat, comp.gamma), out=values)
    elif isinstance(d, Scenarios):
        values = sweep_matrix(g, g.p + _dev_full(g, d.deltas[0]))
        for sc in d.deltas[1:]:
            np.maximum(values, sweep_matrix(g, g.p + _dev_full(g, sc)), out=values)
    else:  # pragma: no cover - exhaustive over the union type
        raise UnsupportedUncertainty(f"unknown uncertainty set {type(d).__name__}")
    return _as_matrix(values)


# ---------------------------------------------------------------------------
# extreme points and membership
# ---------------------------------------------------------------------------


def _support_patterns(dhat, sizes: Iterator[int]) -> Iterator[np.ndarray]:
    support = [i for i, v in enumerate(dhat) if v > 0]
    base = np.zeros(len(dhat))
    for k in sizes:
        for combo in itertools.combinations(support, k):
            point = base.copy()
            for i in combo:
                point[i] = dhat[i]
            yield point


def extreme_points(
    delta: UncertaintySet, n: int | None = None, maximal_only: bool = False
) -> Iterator[np.ndarray]:
    """Enumerate the extreme deviations of the set.

    Down-monotone sets attain every worst case at these points, so the
    enumeration doubles as a brute-force oracle for LD.  With
    ``maximal_only`` only pointwise-maximal vertices are emitted (enough for
    longest-path maxima).  Guarded to n <= 20 jobs and Γ <= 3 for budgeted
    sets; raises EnumerationTooLarge beyond.
    """
    if n is None:
        n = n_jobs_of(delta)
        if n is None:
            raise ValueError("pass n for OneDisruption sets")
    d = normalize(delta, n)
    if n > ENUM_MAX_JOBS:
        raise EnumerationTooLarge(f"extreme-point enumeration guarded to n <= {ENUM_MAX_JOBS}")
    if isinstance(d, Box):
        if maximal_only:
            yield np.asarray(d.dhat, dtype=float)
        else:
            nnz = sum(1 for v in d.dhat if v > 0)
            yield from _support_patterns(d.dhat, range(nnz + 1))
    elif isinstance(d, Budgeted):
        if d.gamma > ENUM_MAX_GAMMA:
            raise EnumerationTooLarge(
                f"budgeted enumeration guarded to gamma <= {ENUM_MAX_GAMMA}"
            )
        nnz = sum(1 for v in d.dhat if v > 0)
        kmax = min(d.gamma, nnz)
        sizes = [kmax] if maximal_only else range(kmax + 1)
        yield from _support_patterns(d.dhat, sizes)
    elif isinstance(d, PartitionBudgeted):
        per_group = []
        for part, gk in zip(d.parts, d.gammas):
            sub = [d.dhat[j - 1] for j in part]
            nnz = sum(1 for v in sub if v > 0)
            kmax = min(gk, nnz)
            sizes = [kmax] if maximal_only else range(kmax + 1)
            per_group.append([(part, pat) for pat in _support_patterns(sub, sizes)])
        total = 1
        for choices in per_group:
            total *= max(len(choices), 1)
            if total > 2**ENUM_MAX_JOBS:
                raise EnumerationTooLarge("partition enumeration too large")
        for combo in itertools.product(*per_group):
            point = np.zeros(n)
            for part, pat in combo:
                for idx, j in enumerate(part):
                    point[j - 1] = pat[idx]
            yield point
    elif isinstance(d, MixedBudgeted):
        for comp in d.components:
            yield from extreme_points(comp, n, maximal_only)
    elif isinstance(d, Scenarios):
        for sc in d.deltas:
            yield np.asarray(sc, dtype=float)
    else:  # pragma: no cover
        raise UnsupportedUncertainty(f"unknown uncertainty set {type(d).__name__}")


def contains(delta: UncertaintySet, dev: Sequence[float], tol: float = EPS) -> bool:
    """Membership of a deviation vector in the (down-monotone, convex) set.

    Mixed sets test membership in the union.  Scenario sets test domination by
    a convex combination of the scenarios via a small feasibility LP.
    """
    dv = np.asarray(dev, dtype=float)
    if np.any(dv < -tol):
        return False
    n = len(dv)
    d = normalize(delta, n)
    if isinstance(d, Box):
        return bool(np.all(dv <= np.asarray(d.dhat) + tol))
    if isinstance(d, Budgeted):
        cap = np.asarray(d.dhat)
        if np.any(dv > cap + tol):
            return False
        used = np.divide(dv, cap, out=np.zeros(n), where=cap > 0)
        return float(used.sum()) <= d.gamma + tol
    if isinstance(d, PartitionBudgeted):
        cap = np.asarray(d.dhat)
        if np.any(dv > cap + tol):
            return False
        used = np.divide(dv, cap, out=np.zeros(n), where=cap > 0)
        for part, gk in zip(d.parts, d.gammas):
            if sum(used[j - 1] for j in part) > gk + tol:
                return False
        return True
    if isinstance(d, MixedBudgeted):
        return any(contains(comp, dv, tol) for comp in d.components)
    if isinstance(d, Scenarios):
        return _scenario_hull_contains(d, dv, tol)
    raise UnsupportedUncertainty(f"unknown uncertainty set {type(d).__name__}")  # pragma: no cover


def _scenario_hull_contains(d: Scenarios, dv: np.ndarray, tol: float) -> bool:
    """Is dv dominated by a convex combination of the scenarios?"""
    from .milp import MipModel, solve_lp

    model = MipModel(name="scenario_membership")
    names = [model.add_var(f"lam_{s}", 0.0, 1.0) for s in range(len(d.deltas))]
    model.add_row({name: 1.0 for name in names}, "=", 1.0)
    for i in range(len(dv)):
        if dv[i] <= tol:
            continue
        coefs = {names[s]: d.deltas[s][i] for s in range(len(d.deltas))}
        model.add_row(coefs, ">=", float(dv[i]) - tol)
    res = solve_lp(model)
    return res.status == "Optimal"
