"""The LP/MIP engine: simplex, branch and bound, cuts, LP files."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

import anchorsched as asd
from anchorsched.milp import (
    MipModel,
    SolveParams,
    Variable,
    WarmStart,
    _lp,
    _simplex,
    _tableau,
)

from .conftest import five_job_graph
from .oracles import max_violation


def _vector(m, x):
    """A named point as a vector in model variable order."""
    return np.array([x[v.name] for v in m.variables])


def test_model_validation():
    m = MipModel()
    m.add_var("x", 0.0, 5.0)
    with pytest.raises(ValueError):
        m.add_var("x", 0.0, 1.0)  # duplicate
    with pytest.raises(ValueError):
        m.add_var("bad name", 0.0, 1.0)
    with pytest.raises(ValueError):
        m.add_var("y", 0.0, math.inf)  # bounds must be finite
    with pytest.raises(ValueError):
        m.add_var("z", 3.0, 1.0)  # empty range
    m.add_binary("h")
    with pytest.raises(ValueError):
        m.add_row({"missing": 1.0}, "<=", 1.0)
    with pytest.raises(ValueError):
        m.add_row({"x": 1.0}, "!=", 1.0)


def test_bulk_columns_and_rows():
    # add_vars and add_rows take arrays, check them all before storing any,
    # and the views read them back as one-at-a-time construction would
    m = MipModel()
    m.add_vars(["x", "y", "b"], 0.0, [2.0, 3.0, 1.0], binary=[False, False, True])
    assert m.variables[:] == [
        Variable("x", 0.0, 2.0, False),
        Variable("y", 0.0, 3.0, False),
        Variable("b", 0.0, 1.0, True),
    ]
    for names, lb, ub, binary in (
        (["z", "z"], 0.0, 1.0, False), (["z", "x"], 0.0, 1.0, False),
        (["z", "bad name"], 0.0, 1.0, False), (["z"], 0.0, math.inf, False),
        (["z"], 2.0, 1.0, False), (["z"], 0.0, 2.0, True),
    ):
        with pytest.raises(ValueError):
            m.add_vars(names, lb, ub, binary)
    assert m.n_vars == 3 and "z" not in m._index
    A = np.array([[1.0, -0.0, 2.0], [0.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
    m.add_rows(A, [-np.inf, 1.0, -0.0], [4.0, np.inf, -0.0], ["a", "b", "c"])
    one = MipModel()
    one.add_var("x", 0.0, 2.0)
    one.add_var("y", 0.0, 3.0)
    one.add_binary("b")
    one.add_row({"x": 1.0, "y": -0.0, "b": 2.0}, "<=", 4.0, name="a")
    one.add_row({"y": 1.0}, ">=", 1.0, name="b")
    one.add_row({"x": 1.0, "y": 1.0, "b": 1.0}, "=", -0.0, name="c")
    assert m.rows[:] == one.rows[:] and m.rows[-1].coefs == {"x": 1.0, "y": 1.0, "b": 1.0}
    for got, want in zip(m._standard_form(), one._standard_form(), strict=True):
        assert got.tobytes() == want.tobytes()
    assert not np.signbit(m._standard_form()[0]).any()  # -0.0 coefficients read as 0
    for block, lo, hi, names in (
        (A[:1, :2], 0.0, np.inf, ["d"]), (A[:1], 0.0, np.inf, []),
        (A[:1] * np.nan, 0.0, np.inf, ["d"]), (A[:1], 0.0, 1.0, ["d"]),
        (A[:1], -np.inf, np.inf, ["d"]), (A[:1], np.nan, np.nan, ["d"]),
    ):
        with pytest.raises(ValueError):
            m.add_rows(block, lo, hi, names)
    assert len(m.rows) == 3


def _random_lp(rng, nvar, nrow, nbin=0):
    """Boxed LP with <=, >= and = rows and bounds of either sign.

    ``nbin`` binaries join ``nvar`` continuous variables (some of them fixed,
    lb = ub).  Rows hold at an integer point of the box, up to some slack,
    except for random shifts that may make a draw infeasible.
    """
    m = MipModel()
    for k in range(nvar):
        lb = float(rng.integers(-4, 3))
        m.add_var(f"v{k}", lb, lb + float(rng.integers(0, 8)))
    for k in range(nbin):
        m.add_binary(f"b{k}")
    inside = {v.name: float(rng.integers(v.lb, v.ub + 1)) for v in m.variables}
    for _ in range(nrow):
        coefs = {
            v.name: float(c)
            for v, c in zip(m.variables, rng.integers(-3, 4, len(m.variables)))
            if c
        }
        if not coefs:
            continue
        sense = str(rng.choice(["<=", ">=", "="]))
        rhs = sum(c * inside[name] for name, c in coefs.items())
        if sense != "=":
            rhs += float(rng.integers(0, 4)) * (1.0 if sense == "<=" else -1.0)
        if rng.random() < 0.15:
            rhs += float(rng.integers(-5, 6))
        m.add_row(coefs, sense, rhs)
    m.set_objective(
        {v.name: float(rng.integers(-4, 5)) for v in m.variables},
        maximize=bool(rng.random() < 0.7),
    )
    return m


def test_standard_form_appends_rows():
    # rows added between calls, a variable added between rows and an
    # objective set after a call: the stored arrays always equal a fresh
    # copy's and the dense form read off the rows
    rng = np.random.default_rng(29)
    for trial in range(60):
        src = _random_lp(rng, int(rng.integers(1, 8)), int(rng.integers(1, 7)),
                         int(rng.integers(0, 3)))
        grown, fresh = MipModel(), MipModel()
        for v in src.variables:
            for m in (grown, fresh):
                m.add_var(v.name, v.lb, v.ub, v.binary)
        grown._standard_form()
        for m in (grown, fresh):
            m.set_objective(src.objective, src.maximize)
        extra_at = -1
        if trial % 3 == 0 and src.rows:  # a variable added between rows
            extra_at = int(rng.integers(0, len(src.rows)))
        for k, row in enumerate(src.rows):
            if rng.random() < 0.6:
                grown._standard_form()
            coefs = row.coefs
            if k == extra_at:
                for m in (grown, fresh):
                    m.add_var("extra", -1.0, 2.0)
            if 0 <= extra_at <= k:
                coefs = dict(coefs, extra=1.0)
            for m in (grown, fresh):
                m.add_row(coefs, row.sense, row.rhs)
        A = np.zeros((len(fresh.rows), fresh.n_vars))
        for k, row in enumerate(fresh.rows):
            for name, c in row.coefs.items():
                A[k, fresh.var_index(name)] = c
        rows = fresh.rows
        lo = [v.lb for v in fresh.variables]
        lo += [-np.inf if r.sense == "<=" else r.rhs for r in rows]
        hi = [v.ub for v in fresh.variables]
        hi += [np.inf if r.sense == ">=" else r.rhs for r in rows]
        want = (A, np.array(lo), np.array(hi), fresh.objective_vector())
        for got in (grown._standard_form(), fresh._standard_form()):
            for a, b in zip(got, want, strict=True):
                assert np.array_equal(a, b), trial


def test_max_violation_matches_row_by_row():
    # one vectorized check over the standard form: rows of every sense and
    # points off the variable bounds; halves keep the arithmetic exact
    rng = np.random.default_rng(37)
    senses, violated = set(), 0
    for trial in range(80):
        m = _random_lp(rng, int(rng.integers(1, 6)), int(rng.integers(0, 7)),
                       int(rng.integers(0, 3)))
        senses |= {row.sense for row in m.rows}
        for _ in range(3):
            x = np.array([rng.integers(int(2 * v.lb) - 4, int(2 * v.ub) + 5) / 2.0
                          for v in m.variables])
            want = max_violation(m, {v.name: x[k] for k, v in enumerate(m.variables)})
            assert m.max_violation(x) == want, trial
            violated += want > 0
    assert senses == {"<=", ">=", "="} and violated


def _scipy_lp(scipy_opt, m, fixes):
    """The LP relaxation of ``m`` with ``fixes`` (index -> value) by HiGHS."""
    idx = {v.name: k for k, v in enumerate(m.variables)}
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for row in m.rows:
        a = np.zeros(m.n_vars)
        for name, c in row.coefs.items():
            a[idx[name]] = c
        if row.sense == "<=":
            A_ub.append(a); b_ub.append(row.rhs)
        elif row.sense == ">=":
            A_ub.append(-a); b_ub.append(-row.rhs)
        else:
            A_eq.append(a); b_eq.append(row.rhs)
    bounds = [(v.lb, v.ub) for v in m.variables]
    for k, val in fixes.items():
        bounds[k] = (val, val)
    c = m.objective_vector()
    return scipy_opt.linprog(
        -c if m.maximize else c,
        A_ub=np.array(A_ub) if A_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(A_eq) if A_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=bounds,
        method="highs",
    )


def test_solve_lp_matches_scipy():
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(23)
    statuses = set()
    for trial in range(120):
        nbin = int(rng.integers(0, 4))
        m = _random_lp(rng, int(rng.integers(1, 6)), int(rng.integers(1, 7)), nbin)
        fixes = {}
        if nbin and trial % 2:  # a branch-and-bound node: some binaries fixed
            fixes = {
                m.var_index(f"b{k}"): float(rng.integers(0, 2))
                for k in range(nbin)
                if rng.random() < 0.7
            }
        res = _lp(m, fixes)[0] if fixes else asd.solve_lp(m)
        ref = _scipy_lp(scipy_opt, m, fixes)
        assert ref.status in (0, 2), trial  # boxed: optimal or infeasible
        if ref.status == 0:
            assert res.status == "Optimal", trial
            sign = -1.0 if m.maximize else 1.0
            assert res.value == pytest.approx(sign * ref.fun, abs=1e-6), trial
            assert m.max_violation(_vector(m, res.x)) <= 1e-6, trial
            for k, val in fixes.items():
                assert res.x[m.variables[k].name] == val, trial
        else:
            assert res.status == "Infeasible", trial
        statuses.add((res.status, bool(fixes)))
    assert len(statuses) == 4  # optimal and infeasible, with and without fixes


def _assert_child(scipy_opt, m, fixes, start, trial):
    """A warm solve from ``start`` agrees with the cold solve and HiGHS."""
    warm = _lp(m, fixes, start)[0]
    cold = _lp(m, fixes)[0]
    ref = _scipy_lp(scipy_opt, m, fixes)
    assert ref.status in (0, 2), trial
    want = "Optimal" if ref.status == 0 else "Infeasible"
    assert warm.status == cold.status == want, trial
    if want == "Optimal":
        sign = -1.0 if m.maximize else 1.0
        assert warm.value == pytest.approx(sign * ref.fun, abs=1e-6), trial
        assert warm.value == pytest.approx(cold.value, abs=1e-6), trial
        assert m.max_violation(_vector(m, warm.x)) <= 1e-6, trial
    return warm


def test_warm_start_matches_cold_start():
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(31)
    warm_pivots = cold_pivots = 0
    for trial in range(150):
        nbin = int(rng.integers(1, 5))
        m = _random_lp(rng, int(rng.integers(1, 6)), int(rng.integers(1, 7)), nbin)
        parent, start = _lp(m)
        if parent.status != "Optimal":
            continue
        # branch-and-bound children: binaries fixed on top of the parent
        for _ in range(3):
            fixes = {
                m.var_index(f"b{k}"): float(rng.integers(0, 2))
                for k in range(nbin)
                if rng.random() < 0.6
            }
            child = _assert_child(scipy_opt, m, fixes, start, trial)
            warm_pivots += child.iterations
            cold_pivots += _lp(m, fixes)[0].iterations
        # a lazy cut: one new row, cutting near the parent's point; its
        # logical joins the parent's basis
        coefs = {
            v.name: float(c)
            for v, c in zip(m.variables, rng.integers(-3, 4, m.n_vars))
            if c
        }
        if not coefs:
            continue
        sense = str(rng.choice(["<=", ">="]))
        lhs = sum(c * parent.x[name] for name, c in coefs.items())
        shift = float(rng.integers(0, 3))
        m.add_row(coefs, sense, lhs - shift if sense == "<=" else lhs + shift)
        _assert_child(scipy_opt, m, {}, start, trial)
    assert warm_pivots < cold_pivots


def test_warm_start_falls_back_to_cold():
    # max x + y + w on [0, 4]^3 with x + y <= 6: one pivot from the cold start
    m = MipModel()
    m.add_var("x", 0.0, 4.0)
    m.add_var("y", 0.0, 4.0)
    m.add_var("w", 0.0, 4.0)  # in no row
    m.add_row({"x": 1.0, "y": 1.0}, "<=", 6.0)
    m.set_objective({"x": 1.0, "y": 1.0, "w": 1.0}, maximize=True)
    cold = _simplex(m, None)
    assert cold[0] == "Optimal" and cold[2] == 1
    A, lo, hi, c = m._standard_form()
    basis, upper = cold[3].basis, cold[3].upper
    flipped = upper.copy()
    flipped[2] = False  # w moved to the bound its cost rejects
    singular = WarmStart(np.array([2]), upper)  # w basic for the row: A_RK = [[0]]
    for start in (WarmStart(basis, flipped), singular):
        assert _tableau(A, -c, lo, hi, start.basis, start.upper) is None
        warm = _simplex(m, None, start)
        assert (warm[0], warm[2]) == (cold[0], cold[2])  # status, pivots
        assert np.array_equal(warm[1], cold[1])
    assert _simplex(m, None, cold[3])[2] == 0  # the optimal pair needs no pivot


def test_model_start_is_the_default_and_falls_back_to_cold():
    # the basis a model carries starts an LP given no other; one that
    # _tableau rejects leaves the slack basis, and new columns drop it
    m = MipModel()
    m.add_var("x", 0.0, 4.0)
    m.add_var("y", 0.0, 4.0)
    m.add_row({"x": 1.0, "y": 1.0}, "<=", 6.0)
    m.set_objective({"x": 1.0, "y": 2.0}, maximize=True)
    cold = _simplex(m, None)
    assert cold[0] == "Optimal" and cold[2] == 1
    m.start = WarmStart(cold[3].basis, cold[3].upper)
    warm = _simplex(m, None)
    assert warm[2] == 0 and np.array_equal(warm[1], cold[1])
    m.start = WarmStart(np.array([2]), cold[3].upper)  # the logical, x at 0
    A, lo, hi, c = m._standard_form()
    assert _tableau(A, -c, lo, hi, m.start.basis, m.start.upper) is None
    assert _simplex(m, None)[2] == 1  # dual infeasible: the cold start
    m.add_var("w", 0.0, 1.0)
    assert m.start is None


def test_root_rounding_proposes_only_without_a_heuristic():
    # rounding the fractional root LP gives an optimal set here; it is the
    # incumbent source of a call with no heuristic, and is skipped with one
    inst = asd.make_instance("ER_pZero_dRand_G3", 12, 0)
    root = asd.solve_lp(asd.build_dom(inst))
    h = np.array([root.x[f"h_{j}"] for j in inst.graph.jobs])
    assert np.any(np.abs(h - np.round(h)) > 1e-6)
    stop = SolveParams(time_limit=0.0)  # the root alone
    res = asd.solve_mip(asd.build_dom(inst), stop)
    assert res.status == "Optimal" and res.nodes == 1
    assert [res.x[f"h_{j}"] for j in inst.graph.jobs] == np.round(h).tolist()
    assert res.value == asd.brute_force_optimum(inst).objective
    res = asd.solve_mip(asd.build_dom(inst), stop, heuristic=lambda x: None)
    assert res.status == "TimeLimit" and res.x is None


def _counting_tableau(monkeypatch):
    """Wrap milp._tableau; the returned list gets one entry per call."""
    import anchorsched.milp as milp

    calls = []

    def counting(*args):
        calls.append(True)
        return _tableau(*args)

    monkeypatch.setattr(milp, "_tableau", counting)
    return calls


def test_kept_tableau_seeds_children(monkeypatch):
    # a branch fixes a basic binary: the child is seeded from its parent's
    # final tableau, with no rebuild, and agrees with the cold solve and
    # HiGHS; a proposal fixes every binary, and one that fixes a nonbasic
    # binary at its other bound moves it, so it rebuilds its tableau once
    # from the parent's basis and agrees as well; a seed solves from a copy
    # unless handed the tableau
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(41)
    rebuilds = _counting_tableau(monkeypatch)
    seen, moved = set(), 0
    for trial in range(150):
        nbin = int(rng.integers(1, 5))
        m = _random_lp(rng, int(rng.integers(1, 6)), int(rng.integers(1, 7)), nbin)
        parent, start = _lp(m)
        if parent.status != "Optimal":
            continue
        saved = [a.copy() for a in (start.T, start.z, start.basis)]
        bins = [m.var_index(f"b{k}") for k in range(nbin)]
        branches = [{i: float(rng.integers(0, 2))} for i in bins if i in start.basis]
        flipped = {i: 1.0 - start.z[i] for i in bins if i not in start.basis}
        proposal = {i: float(rng.integers(0, 2)) for i in bins} | flipped
        moved += len(flipped)
        for kind, fixes in [("branch", f) for f in branches] + [("proposal", proposal)]:
            del rebuilds[:]
            warm = _assert_child(scipy_opt, m, fixes, start, trial)
            # the cold solve's, and the warm one's when it moves a column
            assert len(rebuilds) == 1 + (kind == "proposal" and bool(flipped)), trial
            handed = dataclasses.replace(start, T=start.T.copy(order="F"), owned=True)
            own = _lp(m, fixes, handed)[0]
            assert (own.status, own.value, own.x) == (warm.status, warm.value, warm.x)
            seen.add(kind)
        # the proposal's start seeds no LP that frees its fixed binaries:
        # their reduced costs may have the wrong sign, so it is rebuilt
        fixed_start = _lp(m, proposal)[1]
        if fixed_start is not None:
            del rebuilds[:]
            _assert_child(scipy_opt, m, {}, fixed_start, trial)
            assert len(rebuilds) >= 2, trial
        for a, b in zip((start.T, start.z, start.basis), saved):
            assert np.array_equal(a, b), trial  # not handed over: untouched
    assert seen == {"branch", "proposal"} and moved > 20


def test_corrupted_kept_tableau_falls_back_to_a_rebuild(monkeypatch):
    # a kept tableau whose values or columns no longer satisfy A x = s
    # fails the residual check after its dual phase, and the LP is solved
    # again from the rebuilt tableau of the same basis; when that one
    # drifts too, from the slack basis
    import anchorsched.milp as milp

    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(43)
    rebuilds = _counting_tableau(monkeypatch)
    caught = 0
    for trial in range(120):
        nbin = int(rng.integers(1, 5))
        m = _random_lp(rng, int(rng.integers(1, 6)), int(rng.integers(1, 7)), nbin)
        parent, start = _lp(m)
        if parent.status != "Optimal":
            continue
        bad = dataclasses.replace(start, T=start.T.copy(order="F"), z=start.z.copy())
        if trial % 2:
            bad.z[bad.basis[0]] += 1.0  # a drifted basic value
        else:
            bad.T[:-1] *= 1.5  # drifted columns, caught once a pivot moves z
        fixes = {m.var_index(f"b{k}"): float(rng.integers(0, 2)) for k in range(nbin)}
        del rebuilds[:]
        _assert_child(scipy_opt, m, fixes, bad, trial)
        caught += len(rebuilds) == 2  # the cold solve's and the fall back's
        if trial % 2:
            assert len(rebuilds) == 2, trial
            built = []

            def drifting(A, cost, lo, hi, basis, upper):
                out = _tableau(A, cost, lo, hi, basis, upper)
                built.append(basis.copy())
                if len(built) == 1:  # the rebuilt start: a drifted basic value
                    out[1][basis[0]] += 1.0
                return out

            monkeypatch.setattr(milp, "_tableau", drifting)
            _assert_child(scipy_opt, m, fixes, bad, trial)
            slack = np.arange(m.n_vars, m.n_vars + len(m.rows))
            assert np.array_equal(built[0], bad.basis), trial
            assert len(built) == 3 and np.array_equal(built[1], slack), trial
            rebuilds = _counting_tableau(monkeypatch)
    assert caught > 40


def test_no_kept_tableau_rebuilds_every_lp(monkeypatch):
    # with no cells for kept tableaux every LP builds its tableau, and the
    # search ends where it does by default, where only the root builds one
    import anchorsched.milp as milp

    model = asd.build_dom(asd.make_instance("SP_pZero_dUnif_G1", 20, 0))
    results = []
    for keep in (milp.KEEP_CELLS, 0):
        monkeypatch.setattr(milp, "KEEP_CELLS", keep)
        lps = _counting_simplex(monkeypatch)
        rebuilds = _counting_tableau(monkeypatch)
        res = asd.solve_mip(model)
        results.append((res.status, res.value, res.bound, res.nodes))
        assert len(rebuilds) == (len(lps) if keep == 0 else 1) and len(lps) > 1
    assert results[0] == results[1]


def test_heuristic_runs_at_branched_nodes_on_a_geometric_schedule():
    # no integral point (the binaries sum to 3.5), so no incumbent prunes
    # and every node whose LP is feasible branches; the callback sees each
    # such node first, and the heuristic only the 0th, 1st, 2nd, 4th, ...
    m = MipModel()
    names = [f"b{k}" for k in range(7)]
    for name in names:
        m.add_binary(name)
    m.add_row(dict.fromkeys(names, 1.0), "=", 3.5)
    m.set_objective({name: float(k + 1) for k, name in enumerate(names)}, maximize=True)
    branched, proposed = [], []

    def callback(x):
        branched.append(x)
        return []

    def heuristic(x):
        proposed.append(x)
        return None

    res = asd.solve_mip(m, cut_callback=callback, heuristic=heuristic)
    assert res.status == "Infeasible" and len(branched) > 40
    at = [k for k, x in enumerate(branched) if any(x is p for p in proposed)]
    assert at == [k for k in range(len(branched)) if k & (k - 1) == 0]
    assert len(proposed) == len(at)


def test_branch_and_bound_warm_starts_its_nodes():
    # each node LP starts from its parent's basis: cold starts took 3 094
    # pivots over 66 nodes here
    inst = asd.make_instance("ER_pRand_dRand_G2", 20, 0)
    res, _ = asd.solve_formulation(inst, "dom")
    assert res.status == "Optimal" and res.value == pytest.approx(12.0)
    assert res.iterations < 1000


def test_root_lp_is_solved_once(monkeypatch):
    # branch and bound branches from the root LP it solved first: the root
    # is one LP and one node, and no later LP runs without fixes
    import anchorsched.milp as milp

    inst = asd.make_instance("SP_pZero_dUnif_G1", 20, 0)
    unfixed = []

    def counting(model, fixes, start=None):
        unfixed.append(not fixes)
        return _simplex(model, fixes, start)

    monkeypatch.setattr(milp, "_simplex", counting)
    res, _ = asd.solve_formulation(inst, "dom")
    assert unfixed.count(True) == 1
    ref = asd.brute_force_optimum(inst)
    assert res.status == "Optimal" and res.value == pytest.approx(ref.objective)


def test_proposal_that_cannot_win_runs_no_lp(monkeypatch):
    # the objective lies on the binaries, so a proposal weighing no more
    # than the incumbent is dropped before the row check that would take it
    # as it is and before the LP that would complete it
    import anchorsched.milp as milp

    # the empty set at schedule 0: a point of the pZero model, not of pRand
    for label, lps in (("SP_pZero_dUnif_G1", 0), ("SP_pRand_dUnif_G1", 1)):
        inst = asd.make_instance(label, 20, 0)
        model = asd.build_dom(inst)
        empty = np.zeros(model.n_vars)
        events = []
        check = model.max_violation

        def heuristic(x):
            events.append("propose")
            return empty

        def checking(x):
            if x is empty:
                events.append("check")
            return check(x)

        def counting(model, fixes, start=None):
            if fixes and len(fixes) == inst.graph.n and not any(fixes.values()):
                events.append("lp")
            return _simplex(model, fixes, start)

        monkeypatch.setattr(model, "max_violation", checking)
        monkeypatch.setattr(milp, "_simplex", counting)
        res = asd.solve_mip(model, heuristic=heuristic)
        # only the root proposal, made before any incumbent, is checked, and
        # completed by an LP when it is no point of the model
        later = events.index("propose", 1)
        assert events[:later].count("lp") == lps, label
        assert "check" in events[:later], label
        assert set(events[later:]) == {"propose"}, label
        ref = asd.brute_force_optimum(inst)
        assert res.status == "Optimal" and res.value == pytest.approx(ref.objective)


def test_lp_statuses():
    m = MipModel()
    m.add_var("x", 0.0, 10.0)
    m.add_row({"x": 1.0}, ">=", 20.0)
    m.set_objective({"x": 1.0}, maximize=True)
    assert asd.solve_lp(m).status == "Infeasible"

    m2 = MipModel()
    m2.add_var("x", 0.0, 4.0)
    m2.add_var("y", 0.0, 4.0)
    m2.add_row({"x": 1.0, "y": 1.0}, "<=", 6.0)
    m2.add_row({"x": 1.0, "y": -1.0}, "=", 1.0)
    m2.set_objective({"x": 2.0, "y": 1.0}, maximize=True)
    r = asd.solve_lp(m2)
    assert r.status == "Optimal"
    assert r.value == pytest.approx(9.5)
    assert r.x["x"] == pytest.approx(3.5) and r.x["y"] == pytest.approx(2.5)

    mn = MipModel()
    mn.add_var("x", 0.0, 3.0)
    mn.set_objective({"x": 1.0}, maximize=False)
    r = asd.solve_lp(mn)
    assert r.status == "Optimal" and r.value == pytest.approx(0.0)


def _enumerate_binary_opt(model):
    """Reference MIP optimum: enumerate binaries, solve the rest as an LP."""
    names = [v.name for v in model.variables if v.binary]
    best = None
    for bits in itertools.product((0.0, 1.0), repeat=len(names)):
        fixes = {model.var_index(n): b for n, b in zip(names, bits)}
        r = _lp(model, fixes)[0]
        if r.status != "Optimal":
            continue
        if best is None or r.value > best + 1e-12:
            best = r.value
    return best


def test_solve_mip_matches_enumeration():
    rng = np.random.default_rng(29)
    for _ in range(25):
        nbin = int(rng.integers(2, 7))
        ncont = int(rng.integers(0, 3))
        m = MipModel()
        for k in range(nbin):
            m.add_binary(f"b{k}")
        for k in range(ncont):
            m.add_var(f"c{k}", 0.0, 3.0)
        names = [v.name for v in m.variables]
        for _ in range(int(rng.integers(1, 5))):
            coefs = {
                n: float(rng.integers(-3, 4))
                for n in names
                if rng.random() < 0.8
            }
            coefs = {n: v for n, v in coefs.items() if v}
            if not coefs:
                continue
            m.add_row(coefs, "<=", float(rng.integers(1, 7)))
        m.set_objective(
            {n: float(rng.integers(-2, 5)) for n in names}, maximize=True
        )
        res = asd.solve_mip(m)
        want = _enumerate_binary_opt(m)
        if want is None:
            assert res.status == "Infeasible"
        else:
            assert res.status == "Optimal"
            assert res.value == pytest.approx(want, abs=1e-6)
            for v in m.variables:
                if v.binary:
                    assert abs(res.x[v.name] - round(res.x[v.name])) <= 1e-6


def test_solve_mip_respects_gap_and_bound():
    m = MipModel()
    for k in range(6):
        m.add_binary(f"b{k}")
    m.add_row({f"b{k}": 1.0 for k in range(6)}, "<=", 3.0)
    m.set_objective({f"b{k}": 1.0 for k in range(6)}, maximize=True)
    res = asd.solve_mip(m)
    assert res.status == "Optimal"
    assert res.value == pytest.approx(3.0)
    assert res.bound >= res.value - 1e-9
    assert res.gap <= 1e-6
    assert res.nodes >= 1


def test_cut_callback_reaches_the_cut_optimum():
    # maximize b0 + b1 subject to b0 + b1 <= 1, known only to the callback;
    # with the model row 2 b0 + 2 b1 <= 3 the root LP is fractional, and the
    # callback sees it
    for row_rhs in (None, 3.0):
        m = MipModel()
        m.add_binary("b0")
        m.add_binary("b1")
        if row_rhs is not None:
            m.add_row({"b0": 2.0, "b1": 2.0}, "<=", row_rhs)
        m.set_objective({"b0": 1.0, "b1": 1.0}, maximize=True)
        offered, seen = [], []

        def callback(x):
            offered.append(x.copy())
            if x[0] + x[1] > 1.0 + 1e-9:
                seen.append(x.copy())
                return [({"b0": 1.0, "b1": 1.0}, "<=", 1.0)]
            return []

        res = asd.solve_mip(m, cut_callback=callback)
        assert res.status == "Optimal"
        assert res.value == pytest.approx(1.0)
        assert seen  # the cut actually fired
        assert res.x["b0"] + res.x["b1"] <= 1.0 + 1e-6
        if row_rhs is not None:
            # separated at the fractional root, not only on integral points
            assert any(abs(v - round(v)) > 1e-6 for x in offered for v in x)
            assert res.root_value == pytest.approx(1.0)


def test_callbacks_receive_vectors_in_variable_order():
    # binaries and continuous variables interleaved, the root fractional:
    # the callback and the heuristic first see the root LP point as a vector
    # with each variable's value at its index
    m = MipModel()
    m.add_var("c0", 1.0, 1.0)
    m.add_binary("b0")
    m.add_var("c1", -2.0, 3.0)
    m.add_binary("b1")
    m.add_row({"b0": 2.0, "b1": 2.0, "c0": 1.0}, "<=", 4.0)
    m.add_row({"c1": 1.0, "b1": -1.0}, "<=", 1.5)
    m.set_objective({"b0": 3.0, "b1": 2.0, "c1": 1.0}, maximize=True)
    root = asd.solve_lp(m).x
    assert any(0.0 < root[name] < 1.0 for name in ("b0", "b1"))
    offered, proposed = [], []

    def callback(x):
        offered.append(x.copy())
        return []

    def heuristic(x):
        proposed.append(x.copy())
        return None

    res = asd.solve_mip(m, cut_callback=callback, heuristic=heuristic)
    assert res.status == "Optimal"
    for seen in (offered, proposed):
        assert all(isinstance(x, np.ndarray) and x.shape == (m.n_vars,) for x in seen)
        for v in m.variables:
            assert seen[0][m.var_index(v.name)] == root[v.name]


def _fixing_model():
    """max 3 b0 + 2 b1 + 2 b2 with 2 b0 <= 1 and b1 + b2 <= 1.5.

    Every integral point has b0 = 0, but the root LP takes b0 = 0.5 and
    b1 + b2 = 1.5 for 4.5; the optimum is 2.
    """
    m = MipModel()
    for k in range(3):
        m.add_binary(f"b{k}")
    m.add_row({"b0": 2.0}, "<=", 1.0)
    m.add_row({"b1": 1.0, "b2": 1.0}, "<=", 1.5)
    m.set_objective({"b0": 3.0, "b1": 2.0, "b2": 2.0}, maximize=True)
    return m


def _counting_simplex(monkeypatch, starts=None):
    """Wrap milp._simplex; the returned list gets the fixes of every LP.

    ``starts``, a list when given, gets the start every LP is passed.
    """
    import anchorsched.milp as milp

    calls = []

    def counting(model, fixes, start=None):
        calls.append(dict(fixes or {}))
        if starts is not None:
            starts.append(start)
        return _simplex(model, fixes, start)

    monkeypatch.setattr(milp, "_simplex", counting)
    return calls


def test_fixings_leave_the_root_value_to_the_model(monkeypatch):
    # the root LP runs without the fixings; then they bind, and the root,
    # whose point breaks b0 = 0, re-solves with them before branching, from
    # the start the root LP took (start None: the model's, here the slack
    # basis), not from the root LP's final tableau
    m = _fixing_model()
    lp = asd.solve_lp(m)
    assert lp.value == 4.5 and lp.x["b0"] == 0.5
    assert _enumerate_binary_opt(m) == 2.0
    starts = []
    calls = _counting_simplex(monkeypatch, starts)
    res = asd.solve_mip(m, fixed={m.var_index("b0"): 0.0})
    assert res.root_value == lp.value
    assert res.status == "Optimal" and res.value == 2.0
    assert res.x["b0"] == 0.0
    assert calls[0] == {} and calls[1] == {0: 0.0}
    assert all(fixes.get(0) == 0.0 for fixes in calls[1:])
    assert starts[:2] == [None, None] and len(starts) > 2
    assert all(isinstance(start, WarmStart) for start in starts[2:])


def test_fixing_the_root_point_meets_adds_no_lp(monkeypatch):
    # b0 costs, so the root LP leaves it at 0: fixing it there runs the
    # same LPs as no fixing, each later one with b0 fixed
    m = _fixing_model()
    m.set_objective({"b0": -1.0, "b1": 2.0, "b2": 2.0}, maximize=True)
    assert asd.solve_lp(m).x["b0"] == 0.0
    plain = _counting_simplex(monkeypatch)
    want = asd.solve_mip(m)
    fixed = _counting_simplex(monkeypatch)
    res = asd.solve_mip(m, fixed={m.var_index("b0"): 0.0})
    assert len(fixed) == len(plain) > 1
    assert fixed[0] == {} and all(f.get(0) == 0.0 for f in fixed[1:])
    assert (res.status, res.value, res.nodes, res.root_value) == (
        want.status, want.value, want.nodes, want.root_value
    )


def test_fixing_no_feasible_point_meets_is_infeasible():
    m = _fixing_model()
    m.add_row({"b1": 1.0}, ">=", 1.0)
    res = asd.solve_mip(m, fixed={m.var_index("b1"): 0.0})
    assert res.status == "Infeasible" and res.x is None
    assert res.root_value == asd.solve_lp(m).value


def test_time_limit_status():
    m = MipModel()
    for k in range(30):
        m.add_binary(f"b{k}")
    rng = np.random.default_rng(5)
    for r in range(25):
        coefs = {f"b{k}": float(rng.integers(-5, 6)) for k in range(30)}
        m.add_row({k: v for k, v in coefs.items() if v}, "<=",
                  float(rng.integers(3, 10)))
    m.set_objective({f"b{k}": float(rng.integers(1, 10)) for k in range(30)},
                    maximize=True)
    res = asd.solve_mip(m, SolveParams(time_limit=0.0))
    assert res.status == "TimeLimit"


def test_export_then_parse_round_trip():
    g = five_job_graph()
    inst = asd.Instance(graph=g, delta=asd.Budgeted((0.5, 1.0, 0.5, 0.5, 0.5), 1),
                        deadline=4.5, weights=np.ones(5), meta={})
    model = asd.build_dom(inst)
    text_path = "/tmp/anchorsched_roundtrip.lp"
    asd.export_lp_file(model, text_path)
    back = asd.parse_lp_file(text_path)
    assert {v.name for v in back.variables} == {v.name for v in model.variables}
    by_name = {v.name: v for v in back.variables}
    for v0 in model.variables:
        v1 = by_name[v0.name]
        assert v0.binary == v1.binary
        assert v0.lb == pytest.approx(v1.lb)
        assert v0.ub == pytest.approx(v1.ub)
    assert len(back.rows) == len(model.rows)
    r0 = asd.solve_mip(model)
    r1 = asd.solve_mip(back)
    assert r0.value == pytest.approx(r1.value, abs=1e-9)


def test_exported_row_semantics(chain3):
    # the pair row for arc (2, 3) reads  z_3 - z_2 - 1 h_3 >= 1  expanded
    model = asd.build_dom(chain3)
    path = "/tmp/anchorsched_semantics.lp"
    asd.export_lp_file(model, path)
    back = asd.parse_lp_file(path)
    row = next(r for r in back.rows if r.name == "pair_2_3")
    coefs = dict(row.coefs)
    assert coefs == {"z_3": 1.0, "z_2": -1.0, "h_3": -1.0}
    assert row.sense == ">=" and row.rhs == pytest.approx(1.0)


def test_parse_errors():
    bad = [
        "Maximize\n obj: 1 x\nSubject To\n r: x 1\nEnd\n",  # dangling token
        "Maximize\n obj: 1 x\nSubject To\n r: 1 x <= \nEnd\n",  # missing rhs
        "Maximize\n obj: 1 x\nBounds\n x free\nEnd\n",  # unsupported bound
        "Garbage\n",
    ]
    for text in bad:
        path = "/tmp/anchorsched_bad.lp"
        with open(path, "w") as fh:
            fh.write(text)
        with pytest.raises(asd.ParseError):
            asd.parse_lp_file(path)
