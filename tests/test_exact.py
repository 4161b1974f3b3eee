"""Special-case exact solvers, deadline preprocessing, and routing."""

import dataclasses

import numpy as np
import pytest

import anchorsched as asd
from anchorsched.exact import _report_mip

from .oracles import random_dag


def _chain_instance(rng, n, d0=None, offset=None):
    """Critical instance: a single chain with a uniform one-disruption set."""
    arcs = [(v, v + 1) for v in range(n + 1)]
    p = rng.integers(1, 6, n).astype(float)
    g = asd.PrecedenceGraph(n, arcs, p)
    base = asd.single_source_longest(g, 0, g.p)[g.t]
    if d0 is None:
        d0 = float(rng.integers(1, 4))
    if offset is None:
        offset = float(rng.uniform(0, 3 * d0))
    return asd.Instance(
        graph=g,
        delta=asd.OneDisruption(d0),
        deadline=float(base + offset),
        weights=np.ones(n),
        meta={},
    )


def _matched_diamond(rng):
    """Critical but not a chain: two middle jobs of equal length."""
    a, b, c = (float(rng.integers(1, 5)) for _ in range(3))
    g = asd.PrecedenceGraph(
        4, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)], [a, b, b, c]
    )
    d0 = float(rng.integers(1, 3))
    base = asd.single_source_longest(g, 0, g.p)[g.t]
    return asd.Instance(
        graph=g,
        delta=asd.OneDisruption(d0),
        deadline=float(base + rng.uniform(0, 3 * d0)),
        weights=np.ones(4),
        meta={},
    )


# ---------------------------------------------------------------------------
# greatest-point route
# ---------------------------------------------------------------------------


def test_solve_box_worked_example(fig_box):
    sol = asd.solve_box(fig_box)
    assert sol.anchored == frozenset({1, 2, 3, 4})
    assert sol.objective == pytest.approx(4.0)
    ld = asd.worst_case_longest_paths(fig_box.graph, fig_box.delta)
    assert asd.is_x_anchored(
        fig_box.graph, ld, sol.schedule.start, sorted(sol.anchored)
    )
    assert sol.schedule.makespan <= fig_box.deadline + 1e-9


def test_solve_box_matches_brute_force():
    rng = np.random.default_rng(47)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        g = asd.PrecedenceGraph(
            n, random_dag(rng, n), rng.integers(1, 5, n).astype(float)
        )
        inst = asd.Instance(
            graph=g,
            delta=asd.Box(tuple(rng.integers(0, 3, n).astype(float))),
            deadline=float(
                asd.single_source_longest(g, 0, g.p)[g.t] + rng.integers(0, 6)
            ),
            weights=rng.integers(1, 5, n).astype(float),
            meta={},
        )
        sol = asd.solve_box(inst)
        ref = asd.brute_force_optimum(inst)
        assert sol.objective == pytest.approx(ref.objective)
        ld = asd.worst_case_longest_paths(g, inst.delta)
        assert asd.is_x_anchored(g, ld, sol.schedule.start, sorted(sol.anchored))


def test_solve_box_rejects_sets_without_greatest_point(fig_budget):
    with pytest.raises(asd.UnsupportedUncertainty):
        asd.solve_box(fig_budget)


def test_solve_box_infeasible_deadline(fig_box):
    tight = dataclasses.replace(fig_box, deadline=3.0)
    with pytest.raises(asd.DeadlineInfeasible):
        asd.solve_box(tight)


# ---------------------------------------------------------------------------
# zero-processing-time route
# ---------------------------------------------------------------------------


def _u_instance(rng, n, d0, deadline):
    g = asd.PrecedenceGraph(n, random_dag(rng, n), np.zeros(n))
    return asd.Instance(
        graph=g,
        delta=asd.OneDisruption(d0),
        deadline=float(deadline),
        weights=np.ones(n),
        meta={},
    )


def test_solve_u_anchrob_matches_brute_force():
    rng = np.random.default_rng(53)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        d0 = float(rng.choice([1.0, 2.0, 2.5]))
        inst = _u_instance(rng, n, d0, d0 * rng.integers(0, n + 2) + rng.uniform(0, d0))
        sol = asd.solve_u_anchrob(inst)
        ref = asd.brute_force_optimum(inst)
        assert sol.objective == pytest.approx(ref.objective)
        # starts live on the disruption lattice
        assert np.allclose(sol.schedule.start / d0, np.round(sol.schedule.start / d0))
        ld = asd.worst_case_longest_paths(inst.graph, inst.delta)
        assert asd.is_x_anchored(
            inst.graph, ld, sol.schedule.start, sorted(sol.anchored)
        )
        _assert_same_as_critical(inst, sol)


def _assert_same_as_critical(inst, sol):
    # zero processing times are the critical reduction's zero-schedule case
    crit = asd.solve_critical_one_disruption(inst)
    assert crit.anchored == sol.anchored and crit.objective == sol.objective
    assert crit.schedule.start.tobytes() == sol.schedule.start.tobytes()


@pytest.mark.parametrize("family", ["ER", "SP"])
def test_solve_u_anchrob_is_the_critical_reduction(family):
    inst = asd.make_instance(f"{family}_pZero_dUnif_G1", 20, 0)
    _assert_same_as_critical(inst, asd.solve_u_anchrob(inst))


def test_solve_u_anchrob_rejections():
    rng = np.random.default_rng(59)
    g = asd.PrecedenceGraph(3, [(0, 1), (1, 2), (2, 3), (3, 4)], [1.0, 0.0, 0.0])
    nonzero_p = asd.Instance(
        graph=g, delta=asd.OneDisruption(1.0), deadline=5.0, weights=np.ones(3), meta={}
    )
    with pytest.raises(asd.UnsupportedInstance):
        asd.solve_u_anchrob(nonzero_p)
    mixed_dev = asd.Instance(
        graph=asd.PrecedenceGraph(3, [(0, 1), (1, 2), (2, 3), (3, 4)], np.zeros(3)),
        delta=asd.Budgeted((1.0, 2.0, 1.0), 1),
        deadline=5.0,
        weights=np.ones(3),
        meta={},
    )
    with pytest.raises(asd.UnsupportedUncertainty):
        asd.solve_u_anchrob(mixed_dev)
    negative_deadline = _u_instance(rng, 3, 2.0, -1.0)
    with pytest.raises(asd.DeadlineInfeasible):
        asd.solve_u_anchrob(negative_deadline)


# ---------------------------------------------------------------------------
# deadline lattice
# ---------------------------------------------------------------------------


def test_tighten_deadline_values(chain3):
    assert asd.tighten_deadline(chain3) == pytest.approx(3.0)
    assert asd.tighten_deadline(
        dataclasses.replace(chain3, deadline=3.7)
    ) == pytest.approx(3.0)
    assert asd.tighten_deadline(
        dataclasses.replace(chain3, deadline=4.0)
    ) == pytest.approx(4.0)
    assert asd.tighten_deadline(
        dataclasses.replace(chain3, deadline=2.5)
    ) == pytest.approx(2.0)


def test_preprocess_deadline_guard(chain3, fig_budget, fig_box):
    out = asd.preprocess_deadline(dataclasses.replace(chain3, deadline=3.7))
    assert out.deadline == pytest.approx(3.0)
    # non-critical graph: unchanged even with a uniform disruption
    uniform = dataclasses.replace(
        fig_budget, delta=asd.Budgeted((1.0,) * 5, 1), deadline=4.6
    )
    assert not asd.is_critical(uniform.graph)
    assert asd.preprocess_deadline(uniform) is uniform
    # no uniform disruption value: unchanged
    assert asd.preprocess_deadline(fig_box) is fig_box
    # already on the lattice: unchanged object
    assert asd.preprocess_deadline(chain3) is chain3


def test_preprocess_deadline_preserves_optimum():
    rng = np.random.default_rng(61)
    for _ in range(10):
        inst = _chain_instance(rng, int(rng.integers(2, 7)))
        tight = asd.preprocess_deadline(inst)
        assert tight.deadline <= inst.deadline + 1e-12
        a = asd.brute_force_optimum(inst).objective
        b = asd.brute_force_optimum(tight).objective
        assert a == pytest.approx(b)


# ---------------------------------------------------------------------------
# critical-graph route
# ---------------------------------------------------------------------------


def test_solve_critical_one_disruption_matches_mip():
    rng = np.random.default_rng(67)
    for k in range(14):
        inst = (
            _chain_instance(rng, int(rng.integers(2, 7)))
            if k % 2 == 0
            else _matched_diamond(rng)
        )
        assert asd.is_critical(inst.graph)
        sol = asd.solve_critical_one_disruption(inst)
        res, _ = asd.solve_formulation(inst, "dom")
        assert res.status == "Optimal"
        assert sol.objective == pytest.approx(res.value)
        ld = asd.worst_case_longest_paths(inst.graph, inst.delta)
        assert asd.is_x_anchored(
            inst.graph, ld, sol.schedule.start, sorted(sol.anchored)
        )
        assert sol.schedule.makespan <= inst.deadline + 1e-9


def test_solve_critical_one_disruption_rejections(fig_budget):
    uniform = dataclasses.replace(fig_budget, delta=asd.Budgeted((1.0,) * 5, 1))
    with pytest.raises(asd.NotCritical):
        asd.solve_critical_one_disruption(uniform)
    rng = np.random.default_rng(71)
    inst = _chain_instance(rng, 4)
    base = asd.single_source_longest(inst.graph, 0, inst.graph.p)[inst.graph.t]
    with pytest.raises(asd.DeadlineInfeasible):
        asd.solve_critical_one_disruption(
            dataclasses.replace(inst, deadline=float(base - 1))
        )


# ---------------------------------------------------------------------------
# routing
# ---------------------------------------------------------------------------


def test_solve_auto_routes(fig_box, fig_budget):
    rng = np.random.default_rng(73)
    crit = _chain_instance(rng, 5)
    uzero = _u_instance(rng, 5, 2.0, 4.5)

    rep = asd.solve_auto(fig_box)
    assert rep.method == "box" and rep.objective == pytest.approx(4.0)
    rep = asd.solve_auto(fig_budget)
    assert rep.method == "dom" and rep.objective == pytest.approx(4.0)
    rep = asd.solve_method(fig_budget, "dom_cuts")
    assert rep.method == "dom_cuts" and rep.objective == pytest.approx(4.0)
    with pytest.raises(asd.ParseError):
        asd.solve_method(fig_budget, "magic")
    rep = asd.solve_auto(uzero)
    assert rep.method == "u_lp"
    assert rep.objective == pytest.approx(asd.solve_method(uzero, "brute").objective)
    rep = asd.solve_auto(crit)
    assert rep.method == "critical_reduction"
    assert rep.objective == pytest.approx(asd.solve_method(crit, "brute").objective)
    # a budget-1 set whose support fits the budget has a greatest point
    wide = dataclasses.replace(
        fig_budget, delta=asd.Budgeted((0.0, 0.0, 0.0, 0.0, 1.0), 1)
    )
    assert asd.solve_auto(wide).method == "box"


@pytest.mark.parametrize(
    "label, route",
    [
        ("ER_pZero_dUnif_G1", "u_lp"),
        ("SP_pZero_dUnif_G1", "u_lp"),
        ("SP_pQCri_dUnif_G1", "critical_reduction"),
        ("ER_pQCri_dUnif_G1", "dom"),
        ("ER_pRand_dUnif_G1", "dom"),
        ("SP_pRand_dUnif_G1", "dom"),
    ],
)
def test_solve_auto_routes_generated_classes(label, route):
    rep = asd.solve_auto(asd.make_instance(label, 20, 0))
    assert rep.method == route and rep.status == "Optimal"


def test_solve_auto_agrees_with_brute_everywhere():
    rng = np.random.default_rng(79)
    for _ in range(15):
        n = int(rng.integers(2, 8))
        g = asd.PrecedenceGraph(
            n, random_dag(rng, n), rng.integers(1, 4, n).astype(float)
        )
        kind = rng.integers(3)
        if kind == 0:
            delta = asd.Box(tuple(rng.integers(0, 3, n).astype(float)))
        elif kind == 1:
            delta = asd.Budgeted(
                tuple(rng.integers(0, 3, n).astype(float)), int(rng.integers(1, n + 1))
            )
        else:
            delta = asd.Scenarios(
                tuple(
                    tuple(rng.integers(0, 3, n).astype(float))
                    for _ in range(int(rng.integers(1, 4)))
                )
            )
        inst = asd.Instance(
            graph=g,
            delta=delta,
            deadline=float(
                asd.single_source_longest(g, 0, g.p)[g.t] + rng.integers(0, 5)
            ),
            weights=rng.integers(1, 4, n).astype(float),
            meta={},
        )
        rep = asd.solve_auto(inst)
        assert rep.solved
        assert rep.objective == pytest.approx(asd.solve_method(inst, "brute").objective)


def test_report_shapes(fig_box, fig_budget):
    rep = asd.solve_method(fig_box, "brute")
    assert rep.method == "brute" and rep.solved
    assert rep.bound == rep.objective and rep.gap == 0.0 and rep.nodes == 0
    assert rep.solution is not None and rep.runtime >= 0.0
    # infeasible deadline surfaces as an unsolved MIP report on the dom route
    rep = asd.solve_auto(dataclasses.replace(fig_budget, deadline=3.5))
    assert rep.method == "dom" and rep.status == "Infeasible"
    assert not rep.solved and rep.solution is None


@pytest.mark.parametrize("label", ["ER_pZero_dRand_G3", "ER_pQCri_dRand_G3"])
def test_solve_auto_on_former_simplex_stalls(label):
    # node LPs here once ran into the 200 000-pivot limit (NumericalFailure)
    inst = asd.make_instance(label, 20, 0)
    rep = asd.solve_auto(inst)
    assert rep.method == "dom" and rep.status == "Optimal"
    assert rep.objective == pytest.approx(asd.brute_force_optimum(inst).objective)


def test_mip_report_objective_is_the_set_weight():
    # the incumbent's LP value here is 40.000000000000014 on the dom route;
    # solve_mip returns the weight of its set, and so does the bound
    work = asd.preprocess_deadline(asd.make_instance("ER_pQCri_dRand_G2", 60, 0))
    runs = [("dom", asd.solve_formulation(work, "dom")),
            ("dom_cuts", asd.solve_dom_cuts(work)[:2])]
    for method, (res, sol) in runs:
        assert res.value == res.bound == sol.objective == 40.0
        rep = _report_mip(method, res, sol, 0.0)
        assert rep.status == "Optimal" and rep.gap == 0.0
        assert rep.objective == rep.bound == rep.solution.objective == 40.0
    # stopped after the root: the bound is rounded down to an integer
    res, sol = asd.solve_formulation(work, "dom", asd.SolveParams(time_limit=0.0))
    rep = _report_mip("dom", res, sol, 0.0)
    assert rep.status == "TimeLimit" and rep.objective == rep.solution.objective
    assert rep.bound == np.floor(rep.bound) >= rep.objective
