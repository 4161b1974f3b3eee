"""Polynomial special-case solvers and the automatic routing front end.

Four exact routes, each keyed to structure that makes the anchoring problem
easy:

* ``solve_box`` — the uncertainty set has a componentwise greatest point, so
  worst-case path lengths come from a single deviated graph; the optimal
  anchored set is read off by comparing the earliest deviated schedule with
  the latest nominal one.
* ``solve_u_anchrob`` — zero processing times and a uniform one-disruption
  set; after scaling by the deviation magnitude, the LP relaxation of the
  dominant-schedule model has integral vertices and one LP solve suffices.
* ``solve_critical_one_disruption`` — critical graphs (every job on a
  longest path) under a uniform one-disruption set reduce affinely to the
  zero-processing-time case after rounding the deadline down to the nearest
  breakpoint.
* ``solve_auto`` — tries the routes above in order and falls back to the
  dominant-schedule MIP.

``tighten_deadline`` rounds the deadline down to the lattice
L0(s,t) + k * dhat0; on critical graphs every achievable worst-case makespan
lies on that lattice, so the optimum is unchanged while the LP relaxation
can become exact.  ``preprocess_deadline`` applies it exactly when that
argument holds (critical graph, uniform one-disruption set).
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

import numpy as np

from .anchored import AnchoredSolution, Instance, brute_force_optimum
from .errors import (
    DeadlineInfeasible,
    NonIntegralVertex,
    NotCritical,
    UnsupportedInstance,
    UnsupportedUncertainty,
)
from .graph import (
    EPS,
    S,
    PrecedenceGraph,
    Schedule,
    earliest_schedule,
    is_critical,
    latest_schedule,
    single_source_longest,
)
from .milp import SolveParams, SolveResult, _gap, solve_lp
from .uncertainty import OneDisruption, greatest_point, one_disruption_value


def solve_box(inst: Instance) -> AnchoredSolution:
    """Exact solver when the uncertainty set has a greatest point.

    With a componentwise greatest deviation dbar, a job can be anchored iff
    its earliest start under p + dbar does not exceed its latest start under
    the deadline; the baseline is the componentwise minimum of those two
    schedules (schedules form a lattice, so the minimum is again a schedule).
    """
    dbar = greatest_point(inst.delta)
    if dbar is None:
        raise UnsupportedUncertainty(
            "set has no componentwise greatest point; use the MIP route"
        )
    g = inst.graph
    dev = np.zeros(g.n + 2)
    if g.n:
        dev[1 : g.n + 1] = dbar
    lo = earliest_schedule(g, g.p + dev).start
    hi = latest_schedule(g, float(inst.deadline), g.p).start
    anchored = frozenset(j for j in g.jobs if lo[j] <= hi[j] + EPS)
    start = np.minimum(lo, hi)
    objective = float(sum(inst.weights[j - 1] for j in anchored))
    return AnchoredSolution(
        schedule=Schedule(start=start), anchored=anchored, objective=objective
    )


def _uniform_disruption(inst: Instance) -> float:
    d0 = one_disruption_value(inst.delta, inst.graph.n)
    if d0 is None:
        raise UnsupportedUncertainty(
            "requires a uniform single-disruption uncertainty set"
        )
    return float(d0)


def solve_u_anchrob(inst: Instance) -> AnchoredSolution:
    """One-LP exact solver for zero processing times, uniform one disruption.

    Scales the instance so the disruption has size one and the deadline is an
    integer, solves the LP relaxation of the dominant-schedule model, and
    reads the anchored set off the (provably integral) vertex.  Raises
    NonIntegralVertex if the returned vertex is fractional beyond 1e-6,
    UnsupportedInstance when processing times are nonzero or the disruption
    size is zero.
    """
    g = inst.graph
    if g.n and float(np.abs(g.p[1 : g.n + 1]).max()) > EPS:
        raise UnsupportedInstance("processing times must all be zero")
    d0 = _uniform_disruption(inst)
    if d0 <= EPS:
        raise UnsupportedInstance(
            "disruption size is zero; the greatest-point route applies"
        )
    scale = int(np.floor(float(inst.deadline) / d0 + 1e-9))
    scaled = Instance(
        graph=PrecedenceGraph(g.n, g.arcs, np.zeros(g.n)),
        delta=OneDisruption(1.0),
        deadline=float(scale),
        weights=inst.weights,
        meta=dict(inst.meta),
    )
    from .formulations import build_dom

    res = solve_lp(build_dom(scaled))
    if res.status != "Optimal":
        raise DeadlineInfeasible(f"scaled LP is {res.status}")
    tol = 1e-6
    values = []
    for name, val in res.x.items():
        frac = abs(val - round(val))
        if frac > tol:
            raise NonIntegralVertex(f"variable {name} = {val} at the LP vertex")
        values.append((name, round(val)))
    x = dict(values)
    anchored = frozenset(j for j in g.jobs if x[f"h_{j}"] >= 1)
    start = np.zeros(g.n + 2)
    for v in range(g.n + 2):
        lab = "s" if v == S else ("t" if v == g.t else str(v))
        start[v] = d0 * x[f"z_{lab}"]
    objective = float(sum(inst.weights[j - 1] for j in anchored))
    return AnchoredSolution(
        schedule=Schedule(start=start), anchored=anchored, objective=objective
    )


def tighten_deadline(inst: Instance) -> float:
    """Deadline rounded down to the lattice L0(s,t) + k * dhat0, k integer.

    On critical graphs under a uniform one-disruption set, every worst-case
    makespan of an anchored set lies on that lattice, so anchored-set
    feasibility is unchanged between consecutive lattice points and the
    optimum at the tightened deadline equals the original one.  With a zero
    disruption size the lattice degenerates; the deadline is returned as is.
    """
    d0 = _uniform_disruption(inst)
    g = inst.graph
    base = float(single_source_longest(g, S, g.p)[g.t])
    if d0 <= EPS:
        return float(inst.deadline)
    k = np.floor((float(inst.deadline) - base) / d0 + 1e-9)
    return base + d0 * float(k)


def preprocess_deadline(inst: Instance) -> Instance:
    """Tighten the deadline when the lattice argument applies, else no-op.

    The rounding in ``tighten_deadline`` preserves the optimum only for
    critical graphs under uniform one-disruption sets; this guard checks both
    and returns the instance unchanged otherwise, so it is always safe to
    call before solving.
    """
    d0 = one_disruption_value(inst.delta, inst.graph.n)
    if d0 is None or d0 <= EPS:
        return inst
    if not is_critical(inst.graph):
        return inst
    tightened = tighten_deadline(inst)
    if tightened >= float(inst.deadline) - 1e-12:
        return inst
    return dataclasses.replace(inst, deadline=float(tightened))


def solve_critical_one_disruption(inst: Instance) -> AnchoredSolution:
    """Exact solver for critical graphs under a uniform one-disruption set.

    On a critical graph all s-j paths have the same nominal length, so start
    times split as z = z_nom + dhat0 * z' where z' solves the
    zero-processing-time problem with unit disruption and the deadline
    (M_tight - L0(s,t)) / dhat0.  The affine map is a bijection between the
    two feasible regions, hence the anchored set transfers verbatim.
    """
    g = inst.graph
    if not is_critical(g):
        raise NotCritical("graph has a job off every longest s-t path")
    d0 = _uniform_disruption(inst)
    if d0 <= EPS:
        return solve_box(inst)
    base = float(single_source_longest(g, S, g.p)[g.t])
    tightened = tighten_deadline(inst)
    if tightened < base - EPS:
        raise DeadlineInfeasible(
            f"deadline {inst.deadline} is below the minimum makespan {base}"
        )
    scale = int(round((tightened - base) / d0))
    reduced = Instance(
        graph=PrecedenceGraph(g.n, g.arcs, np.zeros(g.n)),
        delta=OneDisruption(1.0),
        deadline=float(scale),
        weights=inst.weights,
        meta=dict(inst.meta),
    )
    sub = solve_u_anchrob(reduced)
    z_nom = earliest_schedule(g, g.p).start
    start = z_nom + d0 * sub.schedule.start
    return AnchoredSolution(
        schedule=Schedule(start=start),
        anchored=sub.anchored,
        objective=sub.objective,
    )


# ---------------------------------------------------------------------------
# routing
# ---------------------------------------------------------------------------


@dataclass
class SolutionReport:
    """Uniform record of one solve, whatever route produced it."""

    method: str
    status: str
    objective: float
    bound: float
    gap: float
    nodes: int
    runtime: float
    solution: AnchoredSolution | None
    root_value: float = float("nan")  # root LP value of a MIP route

    @property
    def solved(self) -> bool:
        return self.status == "Optimal"


def _report_exact(method: str, sol: AnchoredSolution, runtime: float) -> SolutionReport:
    return SolutionReport(
        method=method,
        status="Optimal",
        objective=sol.objective,
        bound=sol.objective,
        gap=0.0,
        nodes=0,
        runtime=runtime,
        solution=sol,
    )


def _report_mip(
    method: str, inst: Instance, res: SolveResult, sol, runtime: float
) -> SolutionReport:
    """Report of a MIP route; ``runtime`` covers LD, preprocessing and build too.

    The objective is the weight of the decoded set, not the LP value of the
    incumbent point.  An Optimal bound equals it; with integral weights any
    other bound is rounded down as the branch and bound rounds node bounds.
    """
    objective, bound, gap = res.value, res.bound, res.gap
    if sol is not None:
        objective = sol.objective
        w = inst.weights
        if res.status == "Optimal":
            bound = objective
        elif np.all(np.abs(w - np.round(w)) <= 1e-9):
            bound = float(np.floor(bound + 1e-6))
        gap = _gap(bound, objective)
    return SolutionReport(
        method=method,
        status=res.status,
        objective=objective,
        bound=bound,
        gap=gap,
        nodes=res.nodes,
        runtime=runtime,
        solution=sol,
        root_value=res.root_value,
    )


def solve_auto(
    inst: Instance,
    params: SolveParams | None = None,
    chvatal: bool = False,
    cuts: bool = False,
) -> SolutionReport:
    """Route an instance to the cheapest exact method that fits it.

    Order: greatest-point sets go to ``solve_box``; zero processing times
    with a uniform disruption go to the one-LP solver; critical graphs with
    a uniform disruption go through the affine reduction; everything else is
    solved as the dominant-schedule MIP (after the safe deadline
    preprocessing), optionally with rounded bounds or chain cuts.
    """
    from .formulations import solve_dom_cuts, solve_formulation

    t0 = time.perf_counter()
    if greatest_point(inst.delta) is not None:
        sol = solve_box(inst)
        return _report_exact("box", sol, time.perf_counter() - t0)
    d0 = one_disruption_value(inst.delta, inst.graph.n)
    if d0 is not None and d0 > EPS:
        g = inst.graph
        if g.n == 0 or float(np.abs(g.p[1 : g.n + 1]).max()) <= EPS:
            try:
                sol = solve_u_anchrob(inst)
                return _report_exact("u_lp", sol, time.perf_counter() - t0)
            except NonIntegralVertex:
                pass
        elif is_critical(g):
            try:
                sol = solve_critical_one_disruption(inst)
                return _report_exact(
                    "critical_reduction", sol, time.perf_counter() - t0
                )
            except NonIntegralVertex:
                pass
    work = preprocess_deadline(inst)
    if cuts:
        res, sol, _ = solve_dom_cuts(work, params, chvatal=chvatal)
    else:
        res, sol = solve_formulation(work, "dom", params, chvatal=chvatal)
    return _report_mip(
        "dom_cuts" if cuts else "dom", work, res, sol, time.perf_counter() - t0
    )


def solve_brute(inst: Instance) -> SolutionReport:
    """Exhaustive reference solve wrapped in the uniform report record."""
    t0 = time.perf_counter()
    sol = brute_force_optimum(inst)
    return _report_exact("brute", sol, time.perf_counter() - t0)


__all__ = [
    "SolutionReport",
    "preprocess_deadline",
    "solve_auto",
    "solve_box",
    "solve_brute",
    "solve_critical_one_disruption",
    "solve_u_anchrob",
    "tighten_deadline",
]
