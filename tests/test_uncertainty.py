"""Uncertainty sets: validation, worst-case paths, enumeration, membership."""

import numpy as np
import pytest

import anchorsched as asd
from anchorsched import _kernels
from anchorsched import graph as graph_mod
from anchorsched.graph import S, sweep_matrix
from anchorsched.uncertainty import (
    _dev_full,
    _state_layout,
    budget_height,
    budgeted_dp,
    n_jobs_of,
    one_disruption_value,
)

from .conftest import FIVE_DHAT, chain3_graph, five_job_graph
from .oracles import deviation_points, random_dag, sweep_layout, worst_case_length


def test_set_validation():
    with pytest.raises(ValueError):
        asd.Box((-1.0, 2.0))
    with pytest.raises(asd.BudgetOutOfRange):
        asd.Budgeted((1.0, 1.0), 0)
    with pytest.raises(asd.BudgetOutOfRange):
        asd.Budgeted((1.0, 1.0), 3)
    with pytest.raises(ValueError):
        asd.OneDisruption(-0.5)
    with pytest.raises(asd.EmptyScenarioList):
        asd.Scenarios(())
    with pytest.raises(ValueError):
        asd.Scenarios(((1.0, 2.0), (1.0,)))  # ragged rows
    with pytest.raises(ValueError):
        # parts must cover 1..n exactly
        asd.PartitionBudgeted((1.0, 1.0, 1.0), ((1,), (3,)), (1, 1))
    with pytest.raises(asd.BudgetOutOfRange):
        asd.PartitionBudgeted((1.0, 1.0), ((1,), (2,)), (1, 2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sets_reject_non_finite_deviations(bad):
    dhat = (1.0, bad)
    builders = [
        lambda: asd.Box(dhat),
        lambda: asd.Budgeted(dhat, 1),
        lambda: asd.PartitionBudgeted(dhat, ((1,), (2,)), (1, 1)),
        lambda: asd.MixedBudgeted((asd.Budgeted(dhat, 1),)),
        lambda: asd.Scenarios(((1.0, 1.0), dhat)),
        lambda: asd.OneDisruption(bad),
    ]
    for build in builders:
        with pytest.raises(ValueError):
            build()


def test_normalize_one_disruption():
    d = asd.normalize(asd.OneDisruption(0.5), 4)
    assert isinstance(d, asd.Budgeted)
    assert d.gamma == 1 and d.dhat == (0.5, 0.5, 0.5, 0.5)
    z = asd.normalize(asd.OneDisruption(0.0), 3)
    assert isinstance(z, asd.Box) and z.dhat == (0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        asd.normalize(asd.Box((1.0,)), 3)  # dimension mismatch


def test_one_disruption_value():
    assert one_disruption_value(asd.OneDisruption(2.0), 5) == 2.0
    assert one_disruption_value(asd.Budgeted((3.0, 3.0), 1), 2) == 3.0
    assert one_disruption_value(asd.Budgeted((3.0, 2.0), 1), 2) is None
    assert one_disruption_value(asd.Budgeted((3.0, 3.0), 2), 2) is None
    assert one_disruption_value(asd.Box((1.0, 1.0)), 2) is None


def test_greatest_point():
    assert np.allclose(asd.greatest_point(asd.Box((1.0, 2.0))), [1, 2])
    # budget not binding: only one nonzero entry
    assert asd.greatest_point(asd.Budgeted((0.0, 2.0), 1)) is not None
    assert asd.greatest_point(asd.Budgeted((1.0, 2.0), 1)) is None
    assert asd.greatest_point(asd.Budgeted((1.0, 2.0), 2)) is not None
    # scenario list dominated by one row
    s = asd.Scenarios(((1.0, 0.0), (1.0, 2.0)))
    assert np.allclose(asd.greatest_point(s), [1, 2])
    assert asd.greatest_point(asd.Scenarios(((1.0, 0.0), (0.0, 2.0)))) is None


def test_budgeted_dp_frozen_values():
    # three-job unit chain: from the source, val[v, b] = longest path using
    # at most b deviations; frozen endpoints checked against hand counting
    g = chain3_graph()
    val = budgeted_dp(g, (1.0, 1.0, 1.0), 2, S)
    assert val[3, 0] == pytest.approx(2.0)  # no deviation: p1 + p2
    assert val[3, 1] == pytest.approx(3.0)  # one deviation on the way
    assert val[3, 2] == pytest.approx(4.0)
    assert val[4, 1] == pytest.approx(4.0)  # sink: all three jobs plus one


def test_worst_case_paths_all_types_against_enumeration():
    g = five_job_graph()
    deltas = [
        asd.Box(FIVE_DHAT),
        asd.Budgeted(FIVE_DHAT, 1),
        asd.Budgeted(FIVE_DHAT, 3),
        asd.OneDisruption(0.5),
        asd.PartitionBudgeted(FIVE_DHAT, ((1, 2, 3), (4, 5)), (2, 1)),
        asd.MixedBudgeted((asd.Budgeted(FIVE_DHAT, 1),
                           asd.Budgeted((0.2,) * 5, 4))),
        asd.Scenarios(((0.5, 0, 0, 0, 0.5), (0, 1.0, 0, 0.5, 0))),
    ]
    for delta in deltas:
        mat = asd.worst_case_longest_paths(g, delta)
        for i, j in mat.pairs():
            want = worst_case_length(g, delta, i, j)
            assert mat.values[i, j] == pytest.approx(want, abs=1e-9), (
                delta,
                (i, j),
            )


def test_worst_case_paths_random_budgeted():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        g = asd.PrecedenceGraph(
            n, random_dag(rng, n), rng.integers(0, 4, n).astype(float)
        )
        dhat = tuple(rng.integers(0, 3, n).astype(float))
        gamma = int(rng.integers(1, n + 1))
        delta = asd.Budgeted(dhat, gamma)
        mat = asd.worst_case_longest_paths(g, delta)
        for i, j in mat.pairs():
            want = worst_case_length(g, delta, i, j)
            assert mat.values[i, j] == pytest.approx(want, abs=1e-9)


def test_matrix_reach_is_the_transitive_closure():
    # both matrices read reach off their own finite values
    rng = np.random.default_rng(17)
    for trial in range(30):
        n = int(rng.integers(1, 10))
        arcs = random_dag(rng, n, density=float(rng.uniform(0.1, 0.8)))
        g = asd.PrecedenceGraph(n, arcs, rng.integers(0, 4, n).astype(float))
        dhat = tuple(rng.integers(0, 3, n).astype(float))
        cut = n // 2
        parts = tuple(p for p in (tuple(range(1, cut + 1)), tuple(range(cut + 1, n + 1))) if p)
        sets = [
            asd.Box(dhat),
            asd.Budgeted(dhat, int(rng.integers(1, n + 1))),
            asd.OneDisruption(float(rng.integers(0, 3))),
            asd.PartitionBudgeted(dhat, parts, tuple(1 for _ in parts)),
            asd.MixedBudgeted((asd.Budgeted(dhat, 1), asd.Budgeted(dhat[::-1], n))),
            asd.Scenarios((dhat, dhat[::-1])),
        ]
        want = g.reachability()
        assert np.array_equal(asd.all_pairs_longest(g, g.p).reach, want), trial
        for delta in sets:
            ld = asd.worst_case_longest_paths(g, delta)
            assert np.array_equal(ld.reach, want), (trial, delta)


def _uncapped_ld(g, delta):
    """LD over the raw layout: every job of a group in it, radix Γ_k + 1."""
    if isinstance(delta, asd.MixedBudgeted):
        return np.max([_uncapped_ld(g, comp) for comp in delta.components], axis=0)
    parts = getattr(delta, "parts", None) or (tuple(g.jobs),)
    gammas = getattr(delta, "gammas", None) or (delta.gamma,)
    group_of = np.full(g.n + 2, -1)
    for k, part in enumerate(parts):
        group_of[list(part)] = k
    layout = sweep_layout(group_of, [gk + 1 for gk in gammas])
    values = sweep_matrix(g, g.p, g.p + _dev_full(g, delta.dhat), layout)
    values[~g.reachability()] = -np.inf
    return values


def _random_budget_set(rng, g, dhat, kind):
    """A budgeted, partition or mixed set, with (Γ, height) of each group."""
    n = g.n
    if kind == 0:
        gamma = int(rng.integers(1, min(n, 3) + 1))
        return asd.Budgeted(tuple(dhat), gamma), [(gamma, budget_height(g, dhat))]
    if kind == 1:
        label = rng.integers(0, 3, n)
        parts = [tuple(int(j) + 1 for j in np.flatnonzero(label == k)) for k in range(3)]
        parts = [part for part in parts if part]
        gammas = [int(rng.integers(1, len(part) + 1)) for part in parts]
        groups = []
        for part, gk in zip(parts, gammas):
            own = np.zeros(n)
            own[np.asarray(part) - 1] = dhat[np.asarray(part) - 1]
            groups.append((gk, budget_height(g, own)))
        return asd.PartitionBudgeted(tuple(dhat), tuple(parts), tuple(gammas)), groups
    comps = [asd.Budgeted(tuple(dhat), int(rng.integers(1, min(n, 3) + 1))),
             asd.Budgeted(tuple(np.floor(0.5 * dhat)), int(rng.integers(1, min(n, 3) + 1)))]
    groups = [(c.gamma, budget_height(g, c.dhat)) for c in comps]
    return asd.MixedBudgeted(tuple(comps)), groups


def test_height_caps_keep_ld_bit_identical():
    # every group sweeps min(Γ_k, H_k) + 1 budget states and jobs with
    # dhat_j = 0 never deviate; LD equals the raw layout's sweep bit for bit
    # and the maximum over the set's extreme points
    rng = np.random.default_rng(29)
    above = below = 0
    for trial in range(90):
        n = int(rng.integers(2, 11))
        arcs = random_dag(rng, n, density=float(rng.uniform(0.2, 0.8)))
        g = asd.PrecedenceGraph(n, arcs, rng.integers(0, 5, n).astype(float))
        dhat = rng.integers(1, 4, n).astype(float)
        dhat[rng.random(n) < (1.0 if trial < 3 else 0.4)] = 0.0  # all 0: no groups
        delta, groups = _random_budget_set(rng, g, dhat, trial % 3)
        above += any(gk > h for gk, h in groups)
        below += any(gk <= h for gk, h in groups)
        got = asd.worst_case_longest_paths(g, delta).values
        assert np.array_equal(got, _uncapped_ld(g, delta)), trial
        reach = g.reachability()
        enum = np.max([asd.all_pairs_longest(g, g.p[1:-1] + pt).values
                       for pt in asd.extreme_points(delta, maximal_only=True)], axis=0)
        assert np.allclose(got[reach], enum[reach], rtol=0.0, atol=1e-9), trial
    assert above >= 20 and below >= 20  # both sides of the caps were exercised


def _counting_sweep(monkeypatch):
    """Wrap ``_kernels.sweep``; the list gets the source count of each pass."""
    sizes = []
    real = _kernels.sweep
    monkeypatch.setattr(_kernels, "sweep", lambda *a: sizes.append(len(a[-1])) or real(*a))
    return sizes


def test_blocked_sweep_matches_one_pass(monkeypatch):
    # one source per block (SWEEP_CELLS = 1) gives the one-pass LD bit for bit
    rng = np.random.default_rng(31)
    for trial in range(45):
        n = int(rng.integers(2, 11))
        arcs = random_dag(rng, n, density=float(rng.uniform(0.2, 0.8)))
        g = asd.PrecedenceGraph(n, arcs, rng.integers(0, 5, n).astype(float))
        dhat = rng.integers(1, 4, n).astype(float)
        dhat[rng.random(n) < 0.4] = 0.0
        delta, _ = _random_budget_set(rng, g, dhat, trial % 3)
        with monkeypatch.context() as mp:
            sizes = _counting_sweep(mp)
            one = asd.worst_case_longest_paths(g, delta).values
            assert g.t in sizes, trial  # every source in one pass
            sizes.clear()
            mp.setattr(graph_mod, "SWEEP_CELLS", 1)
            blocked = asd.worst_case_longest_paths(g, delta).values
            assert max(sizes) == 1, trial
        assert np.array_equal(blocked, one), trial


def test_sweep_matrix_is_one_pass_at_n240(monkeypatch):
    inst = asd.make_instance("ER_pRand_dRand_Partition", 240, 0)
    g, d = inst.graph, inst.delta
    layout = _state_layout(g, d.dhat, d.gammas, d.parts)
    assert layout[3] > 1
    sizes = _counting_sweep(monkeypatch)
    sweep_matrix(g, g.p, g.p + _dev_full(g, d.dhat), layout)
    sweep_matrix(g, g.p)
    assert sizes == [g.t, g.t]


def test_state_guard_counts_capped_states():
    # four groups of 32 jobs with Γ_k = 32: 33^4 > 10^6 raw budget states
    n = 128
    parts = tuple(tuple(range(32 * k + 1, 32 * k + 33)) for k in range(4))
    delta = asd.PartitionBudgeted((1.0,) * n, parts, (32,) * 4)
    # parallel jobs: every path holds one job, so each group caps at 1 (16 states)
    flat = asd.PrecedenceGraph(
        n, [(0, j) for j in range(1, n + 1)] + [(j, n + 1) for j in range(1, n + 1)],
        (2.0,) * n,
    )
    assert asd.worst_case_longest_paths(flat, delta).values[S, flat.t] == 3.0
    # one chain holds all 128 jobs: the caps keep 33^4 states
    chain = asd.PrecedenceGraph(n, [(j, j + 1) for j in range(n + 1)], (2.0,) * n)
    with pytest.raises(asd.EnumerationTooLarge):
        asd.worst_case_longest_paths(chain, delta)


def test_extreme_points_cover_box_and_budget():
    box = asd.Box((1.0, 0.0, 2.0))
    pts = {tuple(p) for p in asd.extreme_points(box)}
    assert (1.0, 0.0, 2.0) in pts and (0.0, 0.0, 0.0) in pts
    bud = asd.Budgeted((1.0, 1.0, 1.0), 2)
    pts = {tuple(p) for p in asd.extreme_points(bud)}
    assert (1.0, 1.0, 0.0) in pts and (1.0, 0.0, 1.0) in pts
    assert (1.0, 1.0, 1.0) not in pts
    # every package point appears in the oracle enumeration and vice versa
    oracle = {tuple(p) for p in deviation_points(bud, 3)}
    assert pts <= oracle
    maximal = {p for p in oracle if sum(v > 0 for v in p) == 2}
    assert maximal <= pts


def test_extreme_points_guard():
    big = asd.Budgeted(tuple([1.0] * 25), 3)
    with pytest.raises(asd.EnumerationTooLarge):
        list(asd.extreme_points(big))


def test_contains_membership():
    bud = asd.Budgeted((2.0, 2.0, 2.0), 2)
    assert asd.contains(bud, (2.0, 2.0, 0.0))
    assert asd.contains(bud, (1.0, 1.0, 1.0))  # fractional budget use
    assert not asd.contains(bud, (2.0, 2.0, 0.5))
    assert not asd.contains(bud, (2.5, 0.0, 0.0))
    box = asd.Box((1.0, 1.0))
    assert asd.contains(box, (0.5, 1.0))
    assert not asd.contains(box, (1.5, 0.0))
    sc = asd.Scenarios(((2.0, 0.0), (0.0, 2.0)))
    assert asd.contains(sc, (1.0, 1.0))  # midpoint of the hull
    assert not asd.contains(sc, (1.8, 1.8))


def test_n_jobs_of():
    assert n_jobs_of(asd.Box((1.0, 2.0))) == 2
    assert n_jobs_of(asd.OneDisruption(1.0)) is None
    assert n_jobs_of(asd.Scenarios(((1.0, 1.0, 1.0),))) == 3
