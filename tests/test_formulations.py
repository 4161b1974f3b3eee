"""Model builders, relaxation bounds, heuristics, presolve, chain separation."""

import hashlib

import numpy as np
import pytest

import anchorsched as asd
from anchorsched.formulations import (
    chain_cut_row,
    chain_weight,
    _build,
    _greedy_anchored_heuristic,
    _implied_heads,
    _matrices,
    _unanchorable,
)
from anchorsched.instances import (
    DEVIATION_CLASSES,
    GRAPH_FAMILIES,
    PROCESSING_CLASSES,
    UNCERTAINTY_FIELDS,
)
from anchorsched.milp import INC_TOL, _lp, _simplex, _tableau

from .conftest import five_job_graph
from .oracles import (
    dom_lay_premise_pairs,
    pair_row_implied,
    path_longest,
    random_dag,
    random_instance,
)


def _assert_decoded(inst, ld, sol):
    """Every MIP route reports the dominant baseline and weight of its set."""
    want = asd.dominant_schedule(inst.graph, ld, sorted(sol.anchored))
    assert np.array_equal(sol.schedule.start, want.start)
    assert sol.objective == inst.weight_of(sol.anchored)


def test_three_formulations_agree_on_examples(fig_box, fig_budget, chain3):
    for inst, want in ((fig_box, 4.0), (fig_budget, 4.0), (chain3, 1.0)):
        values = {}
        for which in ("std", "dom", "lay"):
            if which == "lay" and isinstance(inst.delta, asd.Box):
                continue
            res, sol = asd.solve_formulation(inst, which)
            assert res.status == "Optimal"
            values[which] = res.value
            # the decoded baseline really anchors the decoded set
            g = inst.graph
            ld = asd.worst_case_longest_paths(g, inst.delta)
            assert asd.is_x_anchored(
                g, ld, sol.schedule.start, sorted(sol.anchored)
            )
            assert sol.schedule.makespan <= inst.deadline + 1e-6
            _assert_decoded(inst, ld, sol)
        assert all(v == pytest.approx(want) for v in values.values()), values


def test_lay_requires_budgeted(fig_box):
    with pytest.raises(asd.UnsupportedUncertainty):
        asd.build_lay(fig_box)


def test_std_infeasible_below_min_makespan(fig_box):
    import dataclasses

    tight = dataclasses.replace(fig_box, deadline=3.5)  # nominal needs 4
    res, sol = asd.solve_formulation(tight, "std")
    assert res.status == "Infeasible" and sol is None
    with pytest.raises(asd.DeadlineInfeasible):
        asd.lp_bound(tight, "dom")


def test_lp_bound_dominance_dom_vs_std():
    rng = np.random.default_rng(31)
    for _ in range(15):
        n = int(rng.integers(3, 8))
        g = asd.PrecedenceGraph(
            n, random_dag(rng, n), rng.integers(1, 5, n).astype(float)
        )
        dhat = tuple(rng.integers(0, 3, n).astype(float))
        gamma = int(rng.integers(1, n + 1))
        nominal = asd.single_source_longest(g, 0, g.p)[g.t]
        inst = asd.Instance(
            graph=g,
            delta=asd.Budgeted(dhat, gamma),
            deadline=float(nominal + rng.integers(0, 5)),
            weights=np.ones(n),
            meta={},
        )
        assert asd.lp_bound(inst, "dom") <= asd.lp_bound(inst, "std") + 1e-6


def test_dom_lay_premise_and_bound(chain3):
    assert asd.dom_lay_premise(chain3)
    assert asd.lp_bound(chain3, "dom") <= asd.lp_bound(chain3, "lay") + 1e-6
    # premise fails when a short risky route into a job is hidden by a long
    # safe one: here D_3 = 0 but the pair (2, 3) tightens by 5
    g = asd.PrecedenceGraph(
        3, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)], [10.0, 2.0, 1.0]
    )
    inst = asd.Instance(
        graph=g,
        delta=asd.Budgeted((0.0, 5.0, 0.0), 1),
        deadline=12.0,
        weights=np.ones(3),
        meta={},
    )
    assert not asd.dom_lay_premise(inst)


def test_dom_lay_premise_matches_the_pair_loop():
    # integer data, and data in tenths, whose sums round so that the 1e-9
    # slack decides some pairs
    rng = np.random.default_rng(61)
    outcomes = []
    for trial in range(80):
        inst = random_instance(rng, int(rng.integers(2, 14)), "budget")
        if trial % 2:
            g, d = inst.graph, inst.delta
            inst = asd.Instance(
                asd.PrecedenceGraph(g.n, g.arcs, 0.1 * g.p[1 : g.n + 1]),
                asd.Budgeted(tuple(0.1 * x for x in d.dhat), d.gamma),
                0.1 * inst.deadline, inst.weights,
            )
        got = asd.dom_lay_premise(inst)
        assert got == dom_lay_premise_pairs(inst), trial
        outcomes.append(got)
    assert 5 <= outcomes.count(False) <= 75  # both outcomes seen


def _fixed_jobs(model, fixings):
    """The jobs j whose h_j a presolve fixes to 0 in ``model``."""
    assert set(fixings.values()) <= {0.0}
    return {int(model.variables[i].name[2:]) for i in fixings}


def test_presolve_fixes_exactly_the_jobs_rejected_alone():
    rng = np.random.default_rng(53)
    kinds = ("box", "budget", "one", "partition", "mixed", "scenarios")
    fixed_total = kept_total = 0
    for trial in range(60):
        inst = random_instance(rng, int(rng.integers(2, 11)), kinds[trial % 6])
        g, M = inst.graph, inst.deadline
        ld = asd.worst_case_longest_paths(g, inst.delta)
        model = asd.build_dom(inst)
        got = _fixed_jobs(model, _unanchorable(inst, ld, model))
        want = {j for j in g.jobs if not asd.is_anchored_set(g, ld, [j], M)}
        assert got == want, trial
        fixed_total += len(got)
        kept_total += g.n - len(got)
    assert fixed_total > 20 and kept_total > 20


def test_presolve_keeps_a_job_the_oracle_accepts_within_eps():
    # chain 1 -> 2 with dhat_1 = 1: LD(s, 2) + L0(2, t) = 2 + 1 = 3, and the
    # deadline 0.5 EPS below that (kept) or 1.5 EPS below (fixed)
    g = asd.PrecedenceGraph(2, [(0, 1), (1, 2), (2, 3)], [1.0, 1.0])
    eps = asd.graph.EPS
    for deadline, fixed in ((3.0 - 0.5 * eps, False), (3.0 - 1.5 * eps, True)):
        inst = asd.Instance(
            graph=g, delta=asd.Budgeted((1.0, 0.0), 1), deadline=deadline,
            weights=np.ones(2), meta={},
        )
        ld = asd.worst_case_longest_paths(g, inst.delta)
        assert ld.values[0, 2] + g.to_sink()[2] == 3.0
        assert asd.is_anchored_set(g, ld, [2], deadline) is not fixed
        model = asd.build_dom(inst)
        assert _fixed_jobs(model, _unanchorable(inst, ld, model)) == (
            {2} if fixed else set()
        )
        want = asd.brute_force_optimum(inst).objective
        assert want == (1.0 if fixed else 2.0)
        assert asd.solve_mip(model).value == want  # no presolve, no heuristic
        for which in ("std", "dom", "lay"):
            assert asd.solve_formulation(inst, which)[0].value == want, which
        assert asd.solve_dom_cuts(inst)[0].value == want


def test_presolved_routes_reach_the_brute_force_optimum(monkeypatch):
    # every route hands the presolve's fixed jobs to solve_mip
    import anchorsched.formulations as formulations

    handed = []

    def recording(model, *args, fixed=None, **kwargs):
        handed.append(_fixed_jobs(model, fixed))
        return asd.solve_mip(model, *args, fixed=fixed, **kwargs)

    monkeypatch.setattr(formulations, "solve_mip", recording)
    rng = np.random.default_rng(59)
    kinds = ("box", "budget", "one", "partition", "mixed", "scenarios")
    presolved = layered = 0
    for trial in range(60):
        inst = random_instance(
            rng, int(rng.integers(3, 9)), kinds[trial % 6], weighted=True
        )
        g = inst.graph
        ld = asd.worst_case_longest_paths(g, inst.delta)
        M = inst.deadline
        rejected = {j for j in g.jobs if not asd.is_anchored_set(g, ld, [j], M)}
        if not rejected:
            continue
        presolved += 1
        want = asd.brute_force_optimum(inst).objective
        methods = ["std", "dom"]
        if isinstance(inst.delta, asd.Budgeted):
            methods.append("lay")
            layered += 1
        handed.clear()
        for which in methods:
            res, sol = asd.solve_formulation(inst, which)
            assert res.status == "Optimal", (trial, which)
            assert res.value == sol.objective == want, (trial, which)
        res, sol, _ = asd.solve_dom_cuts(inst)
        assert res.status == "Optimal", trial
        assert res.value == sol.objective == want, trial
        assert handed == [rejected] * (len(methods) + 1), trial
    # the presolve fixed at least one job in this many of the 60 instances,
    # of which this many have budgeted sets
    assert (presolved, layered) == (21, 10)


def test_separate_chain_golden(chain3):
    l0, ld = _matrices(chain3, None, None)
    h = np.array([1.0, 0.0, 0.5])
    found = asd.separate_chain(chain3, l0, ld, h, "dom")
    assert found is not None
    chain, violation = found
    assert violation == pytest.approx(0.5, abs=1e-9)
    assert chain_weight(chain3, l0, ld, chain, h, "dom") == pytest.approx(3.5)
    assert asd.separate_chain(chain3, l0, ld, h, "lay") is None
    # the fully anchored point is far outside: worst chain weighs 2 + 2 + 1
    h_all = np.ones(3)
    chain, violation = asd.separate_chain(chain3, l0, ld, h_all, "dom")
    assert violation == pytest.approx(2.0)


def test_separation_certifies_projection_membership(chain3):
    # h from the layered LP projection never yields a violated layered chain
    from anchorsched.milp import solve_lp

    l0, ld = _matrices(chain3, None, None)
    model = asd.build_lay(chain3)
    res = solve_lp(model)
    h = np.array([res.x[f"h_{j}"] for j in chain3.graph.jobs])
    assert asd.separate_chain(chain3, l0, ld, h, "lay") is None


def test_chain_cut_row_matches_pair_model(chain3):
    l0, ld = _matrices(chain3, None, None)
    coefs, sense, rhs = chain_cut_row(chain3, l0, ld, (0, 3, 4))
    # sum of nominal hops 2 + 1 = 3; tightening on job 3 is 1
    assert sense == "<=" and rhs == pytest.approx(0.0)
    assert coefs == {"h_3": 1.0}


def test_solve_dom_cuts_cross_validates(chain3, fig_budget):
    for inst in (chain3, fig_budget):
        res_direct, sol_direct = asd.solve_formulation(inst, "dom")
        res_cuts, sol_cuts, stats = asd.solve_dom_cuts(inst)
        assert res_cuts.status == "Optimal"
        assert res_cuts.value == pytest.approx(res_direct.value, abs=1e-9)
        g = inst.graph
        ld = asd.worst_case_longest_paths(g, inst.delta)
        assert asd.is_x_anchored(
            g, ld, sol_cuts.schedule.start, sorted(sol_cuts.anchored)
        )
        assert stats.root_cuts >= 0 and np.isfinite(res_cuts.root_value)


def test_dom_cuts_separates_at_every_node():
    # every node LP is separated, so each bounds as the dom relaxation and
    # the chain-cut tree is no larger than dom's; separating only integral
    # points took 281 nodes here against dom's 61
    inst = asd.preprocess_deadline(asd.make_instance("ER_pRand_dRand_G2", 20, 0))
    res_dom, _ = asd.solve_formulation(inst, "dom")
    res, sol, stats = asd.solve_dom_cuts(inst)
    assert res_dom.status == res.status == "Optimal"
    assert res.value == res_dom.value == 12.0 and sol.objective == 12.0
    assert res.nodes <= 1.1 * res_dom.nodes
    assert res.root_value == pytest.approx(res_dom.root_value, abs=1e-6)
    assert stats.root_cuts == stats.root_rounds > 0


def test_solve_dom_cuts_random_cross_validation():
    rng = np.random.default_rng(41)
    for _ in range(12):
        n = int(rng.integers(3, 8))
        g = asd.PrecedenceGraph(
            n, random_dag(rng, n), rng.integers(1, 5, n).astype(float)
        )
        dhat = tuple(rng.integers(0, 4, n).astype(float))
        nominal = asd.single_source_longest(g, 0, g.p)[g.t]
        inst = asd.Instance(
            graph=g,
            delta=asd.Budgeted(dhat, int(rng.integers(1, n + 1))),
            deadline=float(nominal + rng.integers(0, 6)),
            weights=np.ones(n),
            meta={},
        )
        res_direct, sol_direct = asd.solve_formulation(inst, "dom")
        res_cuts, sol_cuts, _ = asd.solve_dom_cuts(inst)
        assert res_cuts.value == pytest.approx(res_direct.value, abs=1e-6)
        ld = asd.worst_case_longest_paths(g, inst.delta)
        for sol in (sol_direct, sol_cuts):
            _assert_decoded(inst, ld, sol)


def test_greedy_heuristic_proposes_maximal_anchored_sets():
    rng = np.random.default_rng(43)
    kinds = ("box", "budget", "one", "partition", "mixed", "scenarios")
    for trial in range(24):
        inst = random_instance(
            rng, int(rng.integers(2, 11)), kinds[trial % 6], weighted=True
        )
        g, M = inst.graph, inst.deadline
        ld = asd.worst_case_longest_paths(g, inst.delta)
        models = []
        for which in ("std", "dom", "lay"):
            try:
                models.append(_build(inst, which)[0])
            except asd.UnsupportedUncertainty:  # lay on a non-budgeted set
                pass
        for _ in range(2):
            h = rng.random(g.n)
            sets, cands = set(), []
            for model in models:
                # h read and proposed at the model's h indices, every other
                # entry ignored
                h_index = [model.var_index(f"h_{j}") for j in g.jobs]
                x = np.full(model.n_vars, 0.5)
                x[h_index] = h
                cand = _greedy_anchored_heuristic(inst, ld, model)(x)
                assert cand is not None and cand.shape == (model.n_vars,)
                # the LP with the proposed binaries fixed completes it
                fixes = {i: cand[i] for i in model.binaries()}
                assert _lp(model, fixes)[0].status == "Optimal", (trial, model.name)
                sets.add(tuple(cand[h_index]))
                cands.append((model, cand, h_index))
            (chosen,) = sets  # the same set for every model
            H = [j for j in g.jobs if chosen[j - 1] == 1.0]
            assert asd.is_anchored_set(g, ld, H, M)
            for j in set(g.jobs) - set(H):
                assert not asd.is_anchored_set(g, ld, H + [j], M), (trial, j)
            # std and dom get the set's dominant baseline, a point of the
            # model; lay gets 0 off h
            want = asd.dominant_schedule(g, ld, H).start
            for model, cand, h_index in cands:
                if model.name == "lay":
                    assert not np.any(np.delete(cand, h_index))
                    continue
                assert np.array_equal(cand[: g.t + 1], want), (trial, model.name)
                assert model.max_violation(cand) <= INC_TOL, (trial, model.name)


def _basis_cases():
    """The 60 paper classes at n = 20 (seed 0), and all six set kinds at n <= 12."""
    for f in GRAPH_FAMILIES:
        for p in PROCESSING_CLASSES:
            for d in DEVIATION_CLASSES:
                for u in UNCERTAINTY_FIELDS:
                    yield asd.make_instance(f"{f}_{p}_{d}_{u}", 20, 0)
    rng = np.random.default_rng(71)
    kinds = ("box", "budget", "one", "partition", "mixed", "scenarios")
    for trial in range(24):
        yield random_instance(rng, int(rng.integers(2, 13)), kinds[trial % 6], True)


def test_dominant_start_is_a_basis_that_saves_root_pivots():
    # std and dom attach the presolved dominant basis: _tableau accepts it
    # with and without the presolve's fixings, under the fixings it is the
    # presolved point, and from it the LPs end as from the slack basis in
    # fewer pivots
    pivots = {(which, fixing): [0, 0] for which in ("std", "dom") for fixing in (0, 1)}
    fixings = 0
    for inst in _basis_cases():
        for which in ("std", "dom"):
            model, ld = _build(inst, which)
            fixed = _unanchorable(inst, ld, model)
            fixings += len(fixed)
            A, lo, hi, c = model._standard_form()
            h = np.arange(inst.graph.t + 1, model.n_vars)
            start = model.start
            for fixing, fixes in enumerate(({}, fixed)):
                case = (inst.meta, which, fixing)
                lo_f, hi_f = lo.copy(), hi.copy()
                lo_f[list(fixes)] = hi_f[list(fixes)] = 0.0
                built = _tableau(A, -c, lo_f, hi_f, start.basis, start.upper)
                assert built is not None, case
                if fixing:  # the presolved point: fixed h at 0, the others' baseline
                    g, z = inst.graph, built[1]
                    assert set(h[z[h] == 0.0].tolist()) == set(fixed), case
                    jobs = [j for j in g.jobs if g.t + j not in fixed]
                    want = asd.dominant_schedule(g, ld, jobs).start
                    assert np.allclose(z[: g.t + 1], want, rtol=0, atol=1e-9), case
                model.start = start
                warm = _simplex(model, fixes)
                model.start = None
                cold = _simplex(model, fixes)
                assert warm[0] == cold[0], case
                if warm[0] == "Optimal":
                    assert abs(c @ warm[1] - c @ cold[1]) <= 1e-9, case
                pivots[which, fixing][0] += warm[2]
                pivots[which, fixing][1] += cold[2]
    assert fixings > 100
    for key, (warm, cold) in pivots.items():
        assert warm < cold, key


def test_schedule_models_complete_no_proposal_by_an_lp(monkeypatch):
    # std and dom take the greedy's dominant baseline as it is; lay still
    # completes its proposals by the LP with every binary fixed
    import anchorsched.milp as milp

    completed = []

    def counting(model, fixes, start=None):
        if fixes and set(model.binaries()) <= set(fixes):
            completed.append(model.name)
        return _simplex(model, fixes, start)

    monkeypatch.setattr(milp, "_simplex", counting)
    for label in ("ER_pRand_dRand_G2", "SP_pRand_dRand_G1", "ER_pQCri_dUnif_G3"):
        inst = asd.make_instance(label, 12, 0)
        want = asd.brute_force_optimum(inst).objective
        for which in ("std", "dom", "lay"):
            res, _ = asd.solve_formulation(inst, which)
            assert res.status == "Optimal" and res.value == want, (label, which)
    assert "lay" in completed
    assert not {"std", "dom"} & set(completed)


def test_greedy_heuristic_matches_from_scratch_rule():
    # the incremental test picks the set of one full is_anchored_set test
    # per job
    rng = np.random.default_rng(47)
    kinds = ("box", "budget", "one", "partition", "mixed", "scenarios")
    for trial in range(48):
        inst = random_instance(
            rng, int(rng.integers(2, 13)), kinds[trial % 6], weighted=True
        )
        g = inst.graph
        if trial % 16 == 15:  # not even the empty set fits
            nominal = asd.single_source_longest(g, 0, g.p)[g.t]
            inst = asd.Instance(g, inst.delta, nominal - 1.0, inst.weights)
        M = inst.deadline
        ld = asd.worst_case_longest_paths(g, inst.delta)
        model = asd.MipModel()  # h in reverse job order
        for j in reversed(g.jobs):
            model.add_binary(f"h_{j}")
        h_index = [model.var_index(f"h_{j}") for j in g.jobs]
        heur = _greedy_anchored_heuristic(inst, ld, model)
        for _ in range(2):
            h = np.array(
                [float(rng.choice([0.0, 0.5, 1.0, rng.random()])) for j in g.jobs]
            )
            xlp = np.zeros(model.n_vars)
            xlp[h_index] = h
            got = heur(xlp)
            order = sorted(
                g.jobs, key=lambda j: (-h[j - 1], -inst.weights[j - 1], j)
            )
            chosen = []
            for j in order:
                if asd.is_anchored_set(g, ld, chosen + [j], M):
                    chosen.append(j)
            try:
                asd.dominant_schedule(g, ld, chosen, M)
            except asd.InfeasibleAnchoredSet:
                assert got is None, trial
                continue
            want = np.zeros(model.n_vars)
            want[h_index] = [float(j in chosen) for j in g.jobs]
            assert np.array_equal(got, want), trial


def test_lay_holds_an_incumbent_at_time_zero():
    # the greedy proposes at the root, so a run stopped at once has a set
    inst = asd.make_instance("ER_pRand_dRand_G3", 20, 0)
    res, sol = asd.solve_formulation(inst, "lay", asd.SolveParams(time_limit=0.0))
    assert res.status == "TimeLimit" and np.isfinite(res.value)
    g = inst.graph
    ld = asd.worst_case_longest_paths(g, inst.delta)
    assert asd.is_anchored_set(g, ld, sorted(sol.anchored), inst.deadline)
    assert sol.objective == res.value
    _assert_decoded(inst, ld, sol)


def test_pair_row_reduction_preserves_polytope(monkeypatch):
    # skipping implied pair rows must not move the LP bound or the optimum
    import anchorsched.formulations as fm
    from anchorsched.milp import solve_lp

    rng = np.random.default_rng(43)
    for _ in range(8):
        n = int(rng.integers(3, 8))
        g = asd.PrecedenceGraph(
            n, random_dag(rng, n), rng.integers(1, 5, n).astype(float)
        )
        inst = asd.Instance(
            graph=g,
            delta=asd.Budgeted(
                tuple(rng.integers(0, 4, n).astype(float)), int(rng.integers(1, n + 1))
            ),
            deadline=float(
                asd.single_source_longest(g, 0, g.p)[g.t] + rng.integers(0, 6)
            ),
            weights=np.ones(n),
            meta={},
        )
        reduced = asd.build_dom(inst)
        with monkeypatch.context() as mp:
            mp.setattr(fm, "_implied_heads", lambda l0, *a: np.zeros(len(l0.reach), bool))
            full = asd.build_dom(inst)
        assert len(reduced.rows) <= len(full.rows)
        lp_r, lp_f = solve_lp(reduced), solve_lp(full)
        assert lp_r.status == lp_f.status
        if lp_r.status == "Optimal":
            assert lp_r.value == pytest.approx(lp_f.value, abs=1e-7)
            assert asd.solve_mip(reduced).value == pytest.approx(
                asd.solve_mip(full).value, abs=1e-7
            )


def test_implied_heads_match_the_pair_rule():
    # the reduction of build_dom, over a block of every tail at once, decides
    # every pair as the per-pair rule
    rng = np.random.default_rng(47)
    kinds = ("box", "budget", "partition", "mixed", "scenarios")
    decided = implied = 0
    for trial in range(60):
        inst = random_instance(rng, int(rng.integers(2, 10)), kinds[trial % 5])
        g = inst.graph
        l0, ld = _matrices(inst, None, None)
        block = _implied_heads(l0, ld, g.t, np.arange(g.t))
        for i in range(g.t):
            got = block[i]
            for j in np.flatnonzero(l0.reach[i]):
                want = pair_row_implied(l0, ld, g.t, i, int(j))
                assert got[j] == want, (trial, i, j)
                decided += 1
                implied += want
    assert implied >= 100 and decided - implied >= 100  # both outcomes seen


def test_implied_heads_blocks_build_the_default_model(monkeypatch):
    # tails in blocks of one (the guard at its minimum) or of a few build
    # the same dom model as the default, which here is a single block
    import anchorsched.formulations as fm

    rng = np.random.default_rng(59)
    kinds = ("box", "budget", "one", "partition", "mixed", "scenarios")
    calls = []
    real = fm._implied_heads
    monkeypatch.setattr(fm, "_implied_heads", lambda *a: calls.append(1) or real(*a))
    split = 0
    for trial in range(24):
        n = int(rng.integers(2, 61)) if trial % 4 else 60
        inst = random_instance(rng, n, kinds[trial % 6])
        l0, ld = _matrices(inst, None, None)
        calls.clear()
        want = asd.build_dom(inst, l0, ld)
        assert len(calls) == 1
        for cells in (0, 8 * (n + 1) ** 2):
            with monkeypatch.context() as mp:
                mp.setattr(fm, "IMPLIED_CELLS", cells)
                calls.clear()
                got = asd.build_dom(inst, l0, ld)
            if cells == 0:
                assert len(calls) == n + 1, trial  # one tail per block
            else:
                split += 1 < len(calls) < n + 1
            assert _model_key(got) == _model_key(want), (trial, cells)
            for a, b in zip(got._standard_form(), want._standard_form(), strict=True):
                assert a.tobytes() == b.tobytes(), (trial, cells)
    assert split >= 12  # the middle guard made blocks of several tails


def _height_by_paths(g, dhat):
    """Most jobs with dhat > 0 on one s-t path, by enumerating the paths."""
    risky = [0.0] + [float(d > 0) for d in dhat] + [0.0]
    return int(path_longest(g.arcs, risky, 0, g.t))


def _lay_levels(model):
    return sum(1 for v in model.variables if v.name.endswith("_s"))


def _model_key(model):
    variables = [(v.name, v.lb, v.ub, v.binary) for v in model.variables]
    rows = [(r.name, r.coefs, r.sense, r.rhs) for r in model.rows]
    return variables, rows, model.objective


def test_lay_caps_budget_at_path_height(monkeypatch):
    # a budget above the budget height H changes neither LD nor the optimum,
    # and the layered model builds only min(Γ, H) + 1 levels
    import anchorsched.formulations as fm
    from anchorsched.milp import solve_lp

    rng = np.random.default_rng(47)
    above = below = 0
    for trial in range(40):
        n = int(rng.integers(3, 9))
        g = asd.PrecedenceGraph(
            n, random_dag(rng, n), rng.integers(1, 5, n).astype(float)
        )
        dhat = rng.integers(1, 4, n).astype(float)
        dhat[rng.random(n) < (1.0 if trial == 0 else 0.5)] = 0.0
        H = _height_by_paths(g, dhat)
        assert fm.budget_height(g, dhat) == H
        gamma = int(rng.integers(1, n + 1))
        delta = asd.Budgeted(tuple(dhat), gamma)
        ld = asd.worst_case_longest_paths(g, delta)
        base = asd.single_source_longest(g, 0, g.p)[g.t]
        inst = asd.Instance(
            graph=g,
            delta=delta,
            deadline=float(base + rng.uniform(0.0, ld.values[0, g.t] - base + 2.0)),
            weights=rng.integers(1, 6, n).astype(float),
            meta={},
        )
        capped = asd.build_lay(inst)
        assert _lay_levels(capped) == min(gamma, H) + 1
        with monkeypatch.context() as mp:
            mp.setattr(fm, "budget_height", lambda g, dhat: g.n)
            uncapped = asd.build_lay(inst)
        assert _lay_levels(uncapped) == gamma + 1
        if gamma <= H:
            below += 1
            assert _model_key(capped) == _model_key(uncapped)
            continue
        above += 1
        if H == 0:
            assert not any(r.name.startswith(("lay0_dev", "vert")) for r in capped.rows)
            same = asd.all_pairs_longest(g, g.p)
        else:
            same = asd.worst_case_longest_paths(g, asd.Budgeted(tuple(dhat), H))
        assert np.array_equal(ld.values, same.values)
        assert np.array_equal(ld.reach, same.reach)
        res, sol = asd.solve_formulation(inst, "lay")
        ref = asd.brute_force_optimum(inst).objective
        assert res.status == "Optimal" and res.value == pytest.approx(ref, abs=1e-6)
        assert sol.objective == pytest.approx(ref)
        lp_c, lp_u = solve_lp(capped), solve_lp(uncapped)
        assert lp_c.status == lp_u.status == "Optimal"
        assert lp_c.value == pytest.approx(lp_u.value, abs=1e-7)
    assert above >= 10 and below >= 5  # both sides of the cap were exercised


_GOLDEN_KINDS = ("box", "budget", "one", "partition", "mixed", "scenarios")


def _golden_models():
    """(key, model) for every golden build: std and dom on all six set kinds,
    lay on the budgeted ones, both graph families, n = 8 and 20; the
    processing class cycles with the kind and every fourth job has no
    deviation, so zero lengths and zero slacks (signed zeros) are in."""
    for family in ("ER", "SP"):
        for n in (8, 20):
            for k, kind in enumerate(_GOLDEN_KINDS):
                proc = ("pZero", "pRand", "pQCri")[k % 3]
                base = asd.make_instance(f"{family}_{proc}_dRand_G2", n, 0)
                dhat = tuple(0.0 if j % 4 == 3 else d for j, d in enumerate(base.delta.dhat))
                half = (tuple(range(1, n // 2 + 1)), tuple(range(n // 2 + 1, n + 1)))
                delta = {
                    "box": asd.Box(dhat),
                    "budget": asd.Budgeted(dhat, 2),
                    "one": asd.OneDisruption(max(dhat)),
                    "partition": asd.PartitionBudgeted(dhat, half, (1, 2)),
                    "mixed": asd.MixedBudgeted(
                        (asd.Budgeted(dhat, 1), asd.Budgeted(tuple(0.2 * d for d in dhat), n))
                    ),
                    "scenarios": asd.Scenarios((dhat, dhat[::-1], dhat[1:] + dhat[:1])),
                }[kind]
                inst = asd.Instance(base.graph, delta, base.deadline, base.weights)
                for which in ("std", "dom", "lay"):
                    if which == "lay" and kind not in ("budget", "one"):
                        continue
                    yield f"{family}_{proc}_{kind}_n{n}_{which}", _build(inst, which)[0]


def _model_digest(model, path):
    """sha256 of the exported LP text and the bytes of the standard form."""
    asd.export_lp_file(model, path)
    digest = hashlib.sha256(path.read_bytes())
    for a in model._standard_form():
        digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()


# sha256 of ``_model_digest`` for every ``_golden_models`` build, taken from
# the row-by-row builders that preceded the array ones
_GOLDEN_DIGESTS = {
    "ER_pZero_box_n8_std": "83dfaab540793afa670e31458dea5f0f585893954960e0c5826d2f34c575e945",
    "ER_pZero_box_n8_dom": "2a2d87e65961151ba753b02a88e1069c069d379aee11cd6ef0c4b62b3de5c748",
    "ER_pRand_budget_n8_std": "0c219a9e13a3329ed7ae46128c9c14a5446dd0fa10e341880af32afba584638b",
    "ER_pRand_budget_n8_dom": "531c19a308296c1161178ec0bce02a10e25b4de1067560080d3a929e72a88b58",
    "ER_pRand_budget_n8_lay": "2348dacb51f8745b4b3a3c7ea3c03dcad47d47e48c73fc948fa0a0e7bb64d38e",
    "ER_pQCri_one_n8_std": "c4eafabbde8c4aae45631eeb1675e31f665917b71bc325fa242c2aff90ccdc96",
    "ER_pQCri_one_n8_dom": "fe610aed7399a1192f8d935a2c79a602191ea7a7fd8412bc7ddcd1318b7b8137",
    "ER_pQCri_one_n8_lay": "2d97eafed8f69044a71650f1f532c8252b84c57328cebe6b7486e8988e6898fb",
    "ER_pZero_partition_n8_std": "79de522106d737afefe479c0cf5830d4483cbf0f3858e5faf5faf9cdc4b7df57",
    "ER_pZero_partition_n8_dom": "89f8ed1dc13c28a47e709e6f988705e65144153b951c6612c26c842aeca4398c",
    "ER_pRand_mixed_n8_std": "aea08c842f1e4b1de4bc89c6b46a4730688e537a98df331426d8d4e8a50a8154",
    "ER_pRand_mixed_n8_dom": "750af7007b18a40a8ae4892f1a0a401953bdd1efe6b8582958b7758684df0069",
    "ER_pQCri_scenarios_n8_std": "c68ac57d1d7a96c73554f7416155db1b55041d773cb4176a1d4563c9d6f7914a",
    "ER_pQCri_scenarios_n8_dom": "7431513bb838a37d585ec7390b4a4ec1106e4c53dcddb4fa77778c18879b5fa5",
    "ER_pZero_box_n20_std": "79c638aa92e71f00027b6ed7b9a282c92743536e5229d0007e32bd716d7405ea",
    "ER_pZero_box_n20_dom": "0dbdafcbaef731e7ff5f68f5bf4a94d0836b275859021d0634e91594612f3364",
    "ER_pRand_budget_n20_std": "5e05687eae619653505da3354ffe4d36cccb76c25e53bcc4052eb4f7047ac531",
    "ER_pRand_budget_n20_dom": "2ecf119f22b633b07ff71cd618de00e2d2f3120bf2921a936da75042b6ce068c",
    "ER_pRand_budget_n20_lay": "044fa0db6e46cf353278043ece0cd2b9edf3df52f35da4b8b05a6e16c768ba51",
    "ER_pQCri_one_n20_std": "04990b1c545c755c9ad8fb195e418ac322b9fc25985eeddc9a848094f9cb7f8c",
    "ER_pQCri_one_n20_dom": "69e324788a06a535e1cef91d26efdcdd19189f1a449aa138c95e41e33dc5d8d0",
    "ER_pQCri_one_n20_lay": "b718f0fd1de76b502210bc8b2d3017d3a1268a69aa0e3238c331c934205d9dee",
    "ER_pZero_partition_n20_std": "f38fa9c5fbdc992f2b746b301228d0a36f89eaf71ee920173a234106d14c8951",
    "ER_pZero_partition_n20_dom": "f7a4d53943bc92718eaff31f762492de99a7b24ebbb56da47f2f36b9c38a87a0",
    "ER_pRand_mixed_n20_std": "1fd9565f93637a098a36c68cd5717a1630603a274fb9623f358a0363fc74a266",
    "ER_pRand_mixed_n20_dom": "1c16cbd8808bdb0c22e0f2edaf83acc85beedeabf4682043e8dd41c914b7f786",
    "ER_pQCri_scenarios_n20_std": "d5cb90c46f9c2c4a8fc87adf4407a272c2c6f414f73bf8e5e84012e17e49f0ca",
    "ER_pQCri_scenarios_n20_dom": "7d7dd0b5c129ba08cfa2981c088cf0708b937e277f2e47eba62c1ac1d5997a34",
    "SP_pZero_box_n8_std": "9f27d3c0d105039421a4c9234bb55bca8e721c398d41f4fd4c87915deeeac532",
    "SP_pZero_box_n8_dom": "3cbb8abf9e49902cd2299477a144345cc2115db1df44fa8618fd6bb779c208bf",
    "SP_pRand_budget_n8_std": "8170f893e1ba093f17c5abfb8bcc105024b8380cabda85dfcbf3cf367373dd1c",
    "SP_pRand_budget_n8_dom": "60a6f1a519aaebbded421decdd0919f8a47fe65062051ed768120faedbe20110",
    "SP_pRand_budget_n8_lay": "15bc874e76f52ea18d896637614feb0c3903e419f2138f792280af362ca92acd",
    "SP_pQCri_one_n8_std": "f9249d0eca7600dc69efe669154c4c525581160eefc72db9c6e41836c41b0bc0",
    "SP_pQCri_one_n8_dom": "3625cab8ed98130e7174a31eb009eca6d35648c3ca9370d001923654389eeebc",
    "SP_pQCri_one_n8_lay": "b361b65f59d476da9ff77aa860056ffa9a33afac0105cedb7de8f430c42a025e",
    "SP_pZero_partition_n8_std": "542f8b27e1eaa9f57c4a90bb5c77031614c04c637b72fe3fa526556fb07487fc",
    "SP_pZero_partition_n8_dom": "82fb1eb34afbc6bc771b89fb04a118ff642b5e0390862368b5ae7c712826c8bd",
    "SP_pRand_mixed_n8_std": "7b972c7079d62326439db7c8bb173e2e3382083d1bb89be4dbcfe6ab98f77ccb",
    "SP_pRand_mixed_n8_dom": "5fe092bcf440d1c26e3f5dd5d6368d1b90ea5d0b08371facd56827e383673123",
    "SP_pQCri_scenarios_n8_std": "9fd35d34f5c5404813565ef51c11f3853e89fd1c7159c80f391452cc679d232d",
    "SP_pQCri_scenarios_n8_dom": "7fc43e0f9a70af5a87143053006589ca902ea155073e41ddc7b29ae772f62387",
    "SP_pZero_box_n20_std": "e7a812ae9338197fb242e2c3aa4f490e876a91031ef60cb92c3c9b72efda33e9",
    "SP_pZero_box_n20_dom": "b1dd285a66f72da1d99c4115d206e34591bf3fc452269f80495a83c6e52dbcde",
    "SP_pRand_budget_n20_std": "eb909f2a180c56f788999cf6576ba81cca86b713806aebccd2432a7f92dd1d06",
    "SP_pRand_budget_n20_dom": "3bed77010bd7301d7ba2484153aa778439db7aed8f3e8959c4c405650c469ad4",
    "SP_pRand_budget_n20_lay": "017740080c708799cd4d3c312b5ac18a93d8193b1943cfad6b6ace05f9b6096e",
    "SP_pQCri_one_n20_std": "4ea0b3a19e6fa3fea21d204cec0988cddd09b61cc05f67848aa8b07a1ce3ac9a",
    "SP_pQCri_one_n20_dom": "9e76dccd74c8c268f1d869790ff120d23ffaac073e3c17866fe6b2dd02e0bdb7",
    "SP_pQCri_one_n20_lay": "27f5dfdbb87c674ffa6b81a28f21cf623110fc48600fb265cad369df97f4cf1c",
    "SP_pZero_partition_n20_std": "49d2f3a2381555439e903b195a74b7f78a8792a8d0f0794b806537b8ea9830bd",
    "SP_pZero_partition_n20_dom": "3e8ad4ef32735aec3e5801f1fdd713a9420e369101d1ccb2b1447b4c96dc93dd",
    "SP_pRand_mixed_n20_std": "d69134f97f7f82f29d9e3799cdff8a30339b3b7447416797b69d641b014fa08e",
    "SP_pRand_mixed_n20_dom": "968fa9d347dbe4d60f3255d30a07d459561041ef85ee90b01cae967c93214355",
    "SP_pQCri_scenarios_n20_std": "bf3118a38f3240af48d81e20d74e26fb3815ec4fb45e69ce299bc56732d99c5f",
    "SP_pQCri_scenarios_n20_dom": "8bca5dc97468831f1bfc47a15eda06bcb87eca2b8e330fc971c342b36f78a208",
}


def test_models_match_their_golden_digests(tmp_path):
    # any moved coefficient, name, row order, bound or signed zero shows
    got = {key: _model_digest(model, tmp_path / "m.lp") for key, model in _golden_models()}
    assert got == _GOLDEN_DIGESTS
