"""Precedence-graph structure, longest paths, schedules, criticality."""

import math

import numpy as np
import pytest

import anchorsched as asd
from anchorsched.graph import S, _longest_to_sink

from .conftest import chain3_graph, five_job_graph
from .oracles import enumerate_paths, path_longest, random_dag


def test_basic_structure():
    g = five_job_graph()
    assert g.n == 5 and g.t == 6
    assert list(g.jobs) == [1, 2, 3, 4, 5]
    assert g.successors(3) == (4, 5)
    assert g.predecessors(4) == (2, 3)
    assert g.p[0] == 0 and g.p[6] == 0 and g.p[5] == 2


def test_validation_errors():
    with pytest.raises(ValueError):
        asd.PrecedenceGraph(2, [(0, 1), (1, 3)], [1.0])  # p length mismatch
    with pytest.raises(ValueError):
        asd.PrecedenceGraph(1, [(0, 1), (1, 2)], [-1.0])  # negative time
    for bad in (math.nan, math.inf):  # NaN would make successors unreachable
        with pytest.raises(ValueError, match="finite"):
            asd.PrecedenceGraph(2, [(0, 1), (1, 2), (2, 3)], [1.0, bad])
    with pytest.raises(ValueError):
        asd.PrecedenceGraph(1, [(0, 1), (1, 2), (1, 1)], [1.0])  # self loop
    with pytest.raises(ValueError):
        asd.PrecedenceGraph(1, [(0, 1), (1, 2), (3, 1)], [1.0])  # bad node id
    with pytest.raises(asd.CycleDetected):
        asd.PrecedenceGraph(
            2, [(0, 1), (1, 2), (2, 1), (2, 3), (1, 3)], [1.0, 1.0]
        )
    with pytest.raises(ValueError):
        # job 2 disconnected from the source side
        asd.PrecedenceGraph(2, [(0, 1), (1, 3), (2, 3)], [1.0, 1.0])


def test_topological_order_is_topological():
    g = five_job_graph()
    order = asd.topological_order(g)
    pos = {v: k for k, v in enumerate(order)}
    assert all(pos[i] < pos[j] for i, j in g.arcs)
    assert order[0] == S and order[-1] == g.t


def test_single_source_longest_matches_enumeration():
    g = five_job_graph()
    dist = asd.single_source_longest(g, S, g.p)
    for v in range(g.n + 2):
        want = path_longest(g.arcs, g.p, S, v) if v != S else 0.0
        if math.isinf(want):
            assert math.isinf(dist[v])
        else:
            assert dist[v] == pytest.approx(want, abs=1e-12)


def test_all_pairs_longest_random_graphs():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        arcs = random_dag(rng, n)
        p = rng.integers(0, 5, n).astype(float)
        g = asd.PrecedenceGraph(n, arcs, p)
        mat = asd.all_pairs_longest(g, g.p)
        for i in range(n + 1):
            for j in range(1, n + 2):
                if i == j:
                    continue
                want = path_longest(g.arcs, g.p, i, j)
                have = mat.values[i, j]
                if math.isinf(want):
                    assert not mat.reach[i, j]
                    with pytest.raises(KeyError):
                        mat.value(i, j)
                else:
                    assert mat.reach[i, j]
                    assert have == pytest.approx(want, abs=1e-12)


def test_reachability_matches_path_enumeration():
    rng = np.random.default_rng(13)
    for _ in range(40):
        n = int(rng.integers(1, 10))
        arcs = random_dag(rng, n, density=float(rng.uniform(0.1, 0.8)))
        g = asd.PrecedenceGraph(n, arcs, np.ones(n))
        want = [[i != j and bool(enumerate_paths(g.arcs, i, j)) for j in range(n + 2)]
                for i in range(n + 2)]
        reach = g.reachability()
        assert reach.dtype == bool and not reach.flags.writeable
        assert np.array_equal(reach, np.array(want))


def test_pairs_iterates_comparable_only():
    g = five_job_graph()
    mat = asd.all_pairs_longest(g, g.p)
    pairs = set(mat.pairs())
    assert (0, 6) in pairs and (1, 4) in pairs
    assert (1, 2) not in pairs and (5, 4) not in pairs
    assert all(mat.reach[i, j] for i, j in pairs)


def test_earliest_and_latest_schedules():
    g = five_job_graph()
    early = asd.earliest_schedule(g, g.p)
    assert early.as_list() == [0.0, 0.0, 0.0, 1.0, 2.0, 2.0, 4.0]
    assert early.makespan == 4.0
    late = asd.latest_schedule(g, 4.5, g.p)
    assert late.start[6] == pytest.approx(4.5)
    # latest start = deadline minus the longest remaining path
    to_t = _longest_to_sink(g, g.p)
    assert np.allclose(late.start, 4.5 - to_t)
    with pytest.raises(asd.DeadlineInfeasible):
        asd.latest_schedule(g, 3.9, g.p)


def test_is_schedule_and_require_schedule():
    g = five_job_graph()
    good = [0, 0, 0, 1, 2, 2, 4]
    assert asd.is_schedule(g, good)
    assert not asd.is_schedule(g, [0, 0, 0, 1, 2, 2, 3.5])  # arc (5,t) broken
    assert not asd.is_schedule(g, [1, 1, 1, 2, 3, 3, 5])  # source not at 0
    from anchorsched.graph import require_schedule

    sched = require_schedule(g, good)
    assert isinstance(sched, np.ndarray) and np.allclose(sched, good)
    with pytest.raises(asd.NotASchedule):
        require_schedule(g, [0, 0, 0, 0, 2, 2, 4])


def test_quasi_critical_and_critical():
    chain = chain3_graph()
    assert asd.is_quasi_critical(chain)
    assert asd.is_critical(chain)
    g = five_job_graph()
    # job 2 has slack 1.5 under the nominal times
    assert not asd.is_quasi_critical(g)
    assert not asd.is_critical(g)
    # diamond where every job is tight but the shortcut arc (1,3) is not
    d = asd.PrecedenceGraph(
        3, [(0, 1), (1, 2), (1, 3), (2, 3), (3, 4)], [1.0, 1.0, 1.0]
    )
    assert asd.is_quasi_critical(d)
    assert not asd.is_critical(d)
