"""Polynomial special-case solvers and the automatic routing front end.

Two exact routes, each keyed to structure that makes the anchoring problem
easy:

* ``solve_box`` — the uncertainty set has a componentwise greatest point, so
  worst-case path lengths come from a single deviated graph; the optimal
  anchored set is read off by comparing the earliest deviated schedule with
  the latest nominal one.
* ``solve_critical_one_disruption`` — critical graphs (every job on a
  longest path) under a uniform one-disruption set reduce affinely to the
  unit problem (zero processing times, unit disruption) after rounding the
  deadline down to the nearest breakpoint; the LP relaxation of the unit
  problem's dominant-schedule model has integral vertices, so one LP solve
  suffices.  ``solve_u_anchrob`` is its zero-processing-time case: such a
  graph is critical with a zero nominal schedule.

``solve_method`` is the one dispatch over the method names in ``METHODS``,
which the CLI and ``solve_auto`` call: ``auto`` tries the routes above in
order and falls back to the dominant-schedule MIP (``dom``); ``std``,
``dom``, ``lay`` and ``dom_cuts`` (branch and cut on the chain-cut master)
are the MIP routes, and ``brute`` enumerates subsets.

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
    ParseError,
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
from .formulations import build_dom, solve_dom_cuts, solve_formulation
from .milp import SolveParams, SolveResult, solve_lp
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


def _zero_processing(g: PrecedenceGraph) -> bool:
    return float(np.abs(g.p).max()) <= EPS  # p[s] = p[t] = 0


def solve_u_anchrob(inst: Instance) -> AnchoredSolution:
    """One-LP exact solver for zero processing times, uniform one disruption.

    A graph with zero processing times is critical with a zero nominal
    schedule, so this is ``solve_critical_one_disruption``'s case, and its
    one LP solves it.  Raises NonIntegralVertex if the returned vertex is
    fractional beyond 1e-6, UnsupportedInstance when processing times are
    nonzero or the disruption size is zero.
    """
    if not _zero_processing(inst.graph):
        raise UnsupportedInstance("processing times must all be zero")
    if _uniform_disruption(inst) <= EPS:
        raise UnsupportedInstance(
            "disruption size is zero; the greatest-point route applies"
        )
    return solve_critical_one_disruption(inst)


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
    times split as z = z_nom + dhat0 * z' where z' solves the unit problem:
    zero processing times, unit disruption and the deadline
    (M_tight - L0(s,t)) / dhat0.  The affine map is a bijection between the
    two feasible regions, hence the anchored set transfers verbatim.  The LP
    relaxation of the unit problem's dominant-schedule model has integral
    vertices, so one LP solve suffices; NonIntegralVertex is raised if the
    returned vertex is fractional beyond 1e-6.
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
    unit = Instance(
        graph=PrecedenceGraph(g.n, g.arcs, np.zeros(g.n)),
        delta=OneDisruption(1.0),
        deadline=float(round((tightened - base) / d0)),
        weights=inst.weights,
        meta=dict(inst.meta),
    )
    res = solve_lp(build_dom(unit))
    if res.status != "Optimal":
        raise DeadlineInfeasible(f"unit LP is {res.status}")
    vals = np.array(list(res.x.values()))
    k = np.round(vals)
    i = int(np.argmax(np.abs(vals - k)))
    if abs(vals[i] - k[i]) > 1e-6:
        name = list(res.x)[i]
        raise NonIntegralVertex(f"variable {name} = {vals[i]} at the LP vertex")
    # build_dom declares z_s, z_1..z_n, z_t, then h_1..h_n
    anchored = frozenset(j for j in g.jobs if k[g.n + 1 + j] >= 1)
    start = earliest_schedule(g, g.p).start + d0 * k[: g.n + 2]
    return AnchoredSolution(
        schedule=Schedule(start=start),
        anchored=anchored,
        objective=inst.weight_of(anchored),
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
    method: str, res: SolveResult, sol: AnchoredSolution | None, runtime: float
) -> SolutionReport:
    """Report of a MIP route; ``runtime`` covers LD, preprocessing and build too.

    ``solve_mip`` decides the value and the bound: the value is the weight
    of the incumbent's set, and the bound is rounded as its node bounds
    are.  The report copies the bound and the gap and takes the objective
    from the decoded solution.
    """
    return SolutionReport(
        method=method,
        status=res.status,
        objective=res.value if sol is None else sol.objective,
        bound=res.bound,
        gap=res.gap,
        nodes=res.nodes,
        runtime=runtime,
        solution=sol,
        root_value=res.root_value,
    )


#: every method name: the routing front end, the four MIP routes, enumeration
METHODS = ("auto", "std", "dom", "lay", "dom_cuts", "brute")


def solve_method(
    inst: Instance,
    method: str,
    params: SolveParams | None = None,
) -> SolutionReport:
    """Solve with one method of ``METHODS``, the one dispatch over them.

    ``auto`` routes as ``solve_auto`` describes.  Every other method
    preprocesses the deadline first; ``brute`` then enumerates, ``dom_cuts``
    solves the chain-cut master and std, dom and lay their formulation.
    Raises ParseError for a name not in ``METHODS``.
    """
    if method not in METHODS:
        raise ParseError(f"unknown method {method!r}")
    t0 = time.perf_counter()
    if method == "auto":
        if greatest_point(inst.delta) is not None:
            sol = solve_box(inst)
            return _report_exact("box", sol, time.perf_counter() - t0)
        d0 = one_disruption_value(inst.delta, inst.graph.n)
        if d0 is not None and d0 > EPS and is_critical(inst.graph):
            route = "u_lp" if _zero_processing(inst.graph) else "critical_reduction"
            try:
                sol = solve_critical_one_disruption(inst)
                return _report_exact(route, sol, time.perf_counter() - t0)
            except NonIntegralVertex:
                pass
        method = "dom"
    work = preprocess_deadline(inst)
    if method == "brute":
        sol = brute_force_optimum(work)
        return _report_exact("brute", sol, time.perf_counter() - t0)
    if method == "dom_cuts":
        res, sol, _ = solve_dom_cuts(work, params)
    else:
        res, sol = solve_formulation(work, method, params)
    return _report_mip(method, res, sol, time.perf_counter() - t0)


def solve_auto(inst: Instance, params: SolveParams | None = None) -> SolutionReport:
    """Route an instance to the cheapest exact method that fits it.

    Order: greatest-point sets go to ``solve_box``; critical graphs with a
    uniform disruption go through the affine reduction, whose one LP is
    exact (reported as ``u_lp`` when every processing time is zero, the
    reduction's zero-schedule case, else ``critical_reduction``); everything
    else, and a reduction whose LP vertex is fractional, is solved as the
    dominant-schedule MIP (``dom``).  The same as ``solve_method`` with
    ``auto``.
    """
    return solve_method(inst, "auto", params)


__all__ = [
    "METHODS",
    "SolutionReport",
    "preprocess_deadline",
    "solve_auto",
    "solve_box",
    "solve_critical_one_disruption",
    "solve_method",
    "solve_u_anchrob",
    "tighten_deadline",
]
