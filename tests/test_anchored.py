"""Anchored sets: dominant schedules, anchorability tests, brute force."""

import numpy as np
import pytest

import anchorsched as asd
from anchorsched import _kernels
from anchorsched.anchored import _mask_arrays
from anchorsched.graph import _longest_to_sink

from .conftest import FIVE_DHAT, five_job_graph
from .oracles import (
    anchorable_lp,
    best_anchored_weight,
    random_instance,
    recourse_ok,
    x_anchored_ok,
)


def test_instance_validation():
    g = five_job_graph()
    with pytest.raises(ValueError):
        asd.Instance(graph=g, delta=asd.Box(FIVE_DHAT), deadline=4.5,
                     weights=np.ones(4), meta={})
    with pytest.raises(ValueError):
        asd.Instance(graph=g, delta=asd.Box(FIVE_DHAT), deadline=4.5,
                     weights=-np.ones(5), meta={})
    with pytest.raises(ValueError):
        asd.Instance(graph=g, delta=asd.Box((0.5,)), deadline=4.5,
                     weights=np.ones(5), meta={})
    inst = asd.Instance(graph=g, delta=asd.OneDisruption(0.5), deadline=4.5,
                        weights=np.ones(5), meta={})
    assert isinstance(inst.delta, asd.Budgeted)  # normalized on construction
    assert inst.n == 5 and inst.weight_of([1, 3]) == 2.0


def test_dominant_schedule_pairwise_property(fig_budget):
    g = fig_budget.graph
    ld = asd.worst_case_longest_paths(g, fig_budget.delta)
    H = [1, 2, 4, 5]
    z = asd.dominant_schedule(g, ld, H, fig_budget.deadline)
    for j in H:
        for i in range(g.n + 1):
            if i != j and ld.reach[i, j]:
                assert z.start[j] - z.start[i] >= ld.values[i, j] - 1e-9
    with pytest.raises(asd.InfeasibleAnchoredSet):
        asd.dominant_schedule(g, ld, [1, 2, 3, 4, 5], deadline=4.5)


def test_dominant_schedule_is_least_baseline():
    # feasible for G and for every pair row into H, and tight at every node:
    # in a DAG that makes it the least such baseline
    rng = np.random.default_rng(29)
    kinds = ("box", "budget", "one", "partition", "mixed", "scenarios")
    for trial in range(36):
        inst = random_instance(rng, int(rng.integers(2, 9)), kinds[trial % 6])
        n = inst.n
        # job labels in random topological positions
        perm = np.concatenate(([0], rng.permutation(n) + 1, [n + 1]))
        g = asd.PrecedenceGraph(
            n, [(perm[i], perm[j]) for i, j in inst.graph.arcs], inst.graph.p[1 : n + 1]
        )
        assert np.array_equal(g.to_sink(), _longest_to_sink(g))
        assert not g.to_sink().flags.writeable and g.to_sink() is g.to_sink()
        ld = asd.worst_case_longest_paths(g, inst.delta)
        H = [j for j in g.jobs if rng.random() < 0.5]
        z = asd.dominant_schedule(g, ld, H).start
        assert asd.is_schedule(g, z)
        rows = [(i, j, ld.values[i, j]) for j in H for i in [0] + H if ld.reach[i, j]]
        rows += [(i, j, g.p[i]) for i, j in g.arcs]
        assert all(z[j] - z[i] >= w - 1e-9 for i, j, w in rows), trial
        for v in range(1, n + 2):
            assert abs(z[v]) <= 1e-9 or any(
                j == v and abs(z[j] - z[i] - w) <= 1e-9 for i, j, w in rows
            ), (trial, v)


def test_is_anchored_set_golden(fig_box, fig_budget):
    g = fig_box.graph
    ld_box = asd.worst_case_longest_paths(g, fig_box.delta)
    ld_bud = asd.worst_case_longest_paths(g, fig_budget.delta)
    assert asd.is_anchored_set(g, ld_box, [1, 2, 4], 4.5)
    assert not asd.is_anchored_set(g, ld_box, [1, 2, 4, 5], 4.5)
    assert asd.is_anchored_set(g, ld_bud, [1, 2, 4, 5], 4.5)
    assert asd.is_anchored_set(g, ld_box, [], 4.5)


def test_is_x_anchored_golden(fig_box, fig_budget):
    g = fig_box.graph
    x = [0, 0, 1, 1, 3, 2.5, 4.5]
    ld_box = asd.worst_case_longest_paths(g, fig_box.delta)
    ld_bud = asd.worst_case_longest_paths(g, fig_budget.delta)
    assert asd.is_x_anchored(g, ld_box, x, [1, 2, 4])
    assert not asd.is_x_anchored(g, ld_box, x, [1, 2, 4, 5])
    assert asd.is_x_anchored(g, ld_bud, x, [1, 2, 4, 5])
    with pytest.raises(asd.NotASchedule):
        asd.is_x_anchored(g, ld_box, [0, 0, 1, 0, 3, 2.5, 4.5], [1])


def test_is_x_anchored_matches_definition():
    rng = np.random.default_rng(11)
    kinds = ("box", "budget", "one", "partition", "mixed", "scenarios")
    for trial in range(30):
        inst = random_instance(rng, int(rng.integers(3, 7)), kinds[trial % 6])
        g = inst.graph
        ld = asd.worst_case_longest_paths(g, inst.delta)
        x = asd.earliest_schedule(g, g.p).start + rng.integers(0, 3, g.n + 2)
        x[0] = 0.0
        if not asd.is_schedule(g, x):
            x = asd.earliest_schedule(g, g.p).start
        H = [j for j in g.jobs if rng.random() < 0.5]
        assert asd.is_x_anchored(g, ld, x, H) == x_anchored_ok(
            g, inst.delta, x, H
        )


def test_recourse_feasible_matches_propagation():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(3, 7))
        inst = random_instance(rng, n, "budget")
        g = inst.graph
        dev = np.array(
            [rng.choice([0.0, d]) for d in inst.delta.dhat]
        )
        x = asd.earliest_schedule(g, g.p).start + rng.integers(0, 2, g.n + 2)
        x[0] = 0.0
        if not asd.is_schedule(g, x):
            continue
        H = [j for j in g.jobs if rng.random() < 0.6]
        assert asd.recourse_feasible(g, dev, x, H) == recourse_ok(g, dev, x, H)


def test_brute_force_matches_subset_oracle():
    # with unit weights the weight order of the scan is the size order;
    # integer weights give it other orders and ties
    rng = np.random.default_rng(17)
    kinds = ("box", "budget", "one", "partition", "mixed", "scenarios")
    for trial in range(36):
        inst = random_instance(
            rng, int(rng.integers(3, 6)), kinds[trial % 6], weighted=trial >= 18
        )
        sol = asd.brute_force_optimum(inst)
        want = best_anchored_weight(inst)
        assert sol.objective == pytest.approx(want, abs=1e-9), inst.delta
        # returned certificate is genuinely anchored at its baseline
        assert x_anchored_ok(
            inst.graph, inst.delta, sol.schedule.start, sorted(sol.anchored)
        )
        assert sol.schedule.makespan <= inst.deadline + 1e-9


def test_mask_makespans_match_dominant_schedule():
    # both kernel builds let every comparable tail feed an anchored head; the
    # dominance rule says that leaves the dominant baseline, whose recursion
    # reads only anchored tails and s, unchanged
    rng = np.random.default_rng(23)
    kinds = ("box", "budget", "one", "partition", "mixed", "scenarios")
    for trial in range(36):
        inst = random_instance(rng, int(rng.integers(2, 8)), kinds[trial % 6])
        g = inst.graph
        ld = asd.worst_case_longest_paths(g, inst.delta)
        arrays = _mask_arrays(inst, ld)
        masks = np.arange(1 << g.n, dtype=np.int64)
        want = [
            asd.dominant_schedule(
                g, ld, [j + 1 for j in range(g.n) if mask >> j & 1]
            ).makespan
            for mask in masks.tolist()
        ]
        for build in (_kernels._mask_makespans_loop, _kernels._mask_makespans_vec):
            got = build(masks, g.n, g.n + 2, *arrays)
            assert np.array_equal(got, want), (trial, build.__name__)


def test_brute_force_agrees_with_definition_lp():
    pytest.importorskip("scipy")
    rng = np.random.default_rng(19)
    for trial in range(8):
        inst = random_instance(rng, 4, ("box", "budget")[trial % 2])
        sol = asd.brute_force_optimum(inst)
        g = inst.graph
        ld = asd.worst_case_longest_paths(g, inst.delta)
        for mask in range(1 << g.n):
            H = [j + 1 for j in range(g.n) if mask >> j & 1]
            assert asd.is_anchored_set(
                g, ld, H, inst.deadline
            ) == anchorable_lp(inst, H)
        assert anchorable_lp(inst, sorted(sol.anchored))


def test_brute_force_guard():
    g = asd.PrecedenceGraph(
        21, [(0, j) for j in range(1, 22)] + [(j, 22) for j in range(1, 22)],
        np.ones(21),
    )
    inst = asd.Instance(graph=g, delta=asd.Box(tuple(np.ones(21))),
                        deadline=30.0, weights=np.ones(21), meta={})
    with pytest.raises(asd.InstanceTooLarge):
        asd.brute_force_optimum(inst)


def test_brute_force_tie_break_smallest_set():
    # three-job chain with budget 1 and deviations 2: {1,2} and {1,3} are both
    # optimal (weight 2, {1,2,3} infeasible); the tie resolves lexicographically
    g = asd.PrecedenceGraph(
        3, [(0, 1), (1, 2), (2, 3), (3, 4)], [1.0, 1.0, 1.0]
    )
    inst = asd.Instance(
        graph=g,
        delta=asd.Budgeted((2.0, 2.0, 2.0), 1),
        deadline=5.0,
        weights=np.ones(3),
        meta={},
    )
    ld = asd.worst_case_longest_paths(g, inst.delta)
    assert asd.is_anchored_set(g, ld, [1, 2], 5.0)
    assert asd.is_anchored_set(g, ld, [1, 3], 5.0)
    assert not asd.is_anchored_set(g, ld, [1, 2, 3], 5.0)
    sol = asd.brute_force_optimum(inst)
    assert sol.objective == pytest.approx(2.0)
    assert sorted(sol.anchored) == [1, 2]
