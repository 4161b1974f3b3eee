"""Independent reference implementations used only by the tests.

Everything here recomputes quantities from first principles — explicit path
enumeration, explicit extreme-point enumeration, explicit recourse
propagation — deliberately avoiding the package's own algorithms so the two
routes can disagree when one is wrong.
"""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np

import anchorsched as asd


def enumerate_paths(arcs, i, j):
    """All directed i -> j paths as node tuples (exponential; small graphs)."""
    succ: dict[int, list[int]] = {}
    for u, v in arcs:
        succ.setdefault(u, []).append(v)
    out = []

    def walk(prefix):
        v = prefix[-1]
        if v == j:
            out.append(tuple(prefix))
            return
        for w in succ.get(v, ()):
            walk(prefix + [w])

    walk([i])
    return out


def path_longest(arcs, weights, i, j):
    """Longest i -> j path length by enumerating every path; -inf if none."""
    best = -np.inf
    for path in enumerate_paths(arcs, i, j):
        best = max(best, sum(weights[v] for v in path[:-1]))
    return best


def deviation_points(delta, n):
    """Finite set of deviations whose maximum dominates the whole set.

    Box corners, budgeted subsets up to the budget, per-group products for
    partitioned budgets, the union over mixed components, and scenario rows.
    """
    if isinstance(delta, asd.OneDisruption):
        delta = asd.normalize(delta, n)
    if isinstance(delta, asd.Box):
        axes = [(0.0, d) if d > 0 else (0.0,) for d in delta.dhat]
        return [np.array(c) for c in itertools.product(*axes)]
    if isinstance(delta, asd.Budgeted):
        pts = []
        idx = range(n)
        for k in range(delta.gamma + 1):
            for sub in itertools.combinations(idx, k):
                d = np.zeros(n)
                for i in sub:
                    d[i] = delta.dhat[i]
                pts.append(d)
        return pts
    if isinstance(delta, asd.PartitionBudgeted):
        group_subsets = []
        for part, gamma in zip(delta.parts, delta.gammas):
            subs = []
            for k in range(gamma + 1):
                subs.extend(itertools.combinations(part, k))
            group_subsets.append(subs)
        pts = []
        for combo in itertools.product(*group_subsets):
            d = np.zeros(n)
            for sub in combo:
                for j in sub:
                    d[j - 1] = delta.dhat[j - 1]
            pts.append(d)
        return pts
    if isinstance(delta, asd.MixedBudgeted):
        pts = []
        for comp in delta.components:
            pts.extend(deviation_points(comp, n))
        return pts
    if isinstance(delta, asd.Scenarios):
        return [np.array(row) for row in delta.deltas]
    raise TypeError(type(delta).__name__)


def worst_case_length(g, delta, i, j):
    """max over deviation points of the enumerated longest path length."""
    best = -np.inf
    for d in deviation_points(delta, g.n):
        w = np.array(g.p)
        w[1 : g.n + 1] += d
        best = max(best, path_longest(g.arcs, w, i, j))
    return best


def pair_row_implied(l0, ld, sink, i, j):
    """The ``build_dom`` row reduction decided for one pair (i, j).

    The row is implied when some job k between i and j lies on a longest
    nominal i-j path and, unless j is the sink, has a head gain
    LD(k, j) - L0(k, j) no smaller than that of (i, j).
    """
    ks = np.flatnonzero(l0.reach[i] & l0.reach[:, j])
    if ks.size == 0:
        return False
    tight = l0.values[i, ks] + l0.values[ks, j] >= l0.values[i, j] - 1e-9
    if j == sink:
        return bool(np.any(tight))
    gain_ij = ld.values[i, j] - l0.values[i, j]
    gain_kj = ld.values[ks, j] - l0.values[ks, j]
    return bool(np.any(tight & (gain_kj >= gain_ij - 1e-9)))


def dom_lay_premise_pairs(inst):
    """``dom_lay_premise`` decided one comparable pair at a time.

    False as soon as a pair (i, j) with head job j has D_j below its
    tightening LD(i, j) - L0(i, j) by more than 1e-9.
    """
    from anchorsched.formulations import _deviated_paths, _layer_data, _matrices

    g = inst.graph
    D = _deviated_paths(g, _layer_data(inst)[0])[1]
    l0, ld = _matrices(inst, None, None)
    for i, j in l0.pairs():
        if j == g.t or i == g.t:
            continue
        if float(D[j]) < float(ld.values[i, j]) - float(l0.values[i, j]) - 1e-9:
            return False
    return True


def recourse_ok(g, dev, x, anchored, tol=1e-9):
    """Can the deviated graph be scheduled keeping the anchored starts?

    Single topological propagation of earliest starts where anchored jobs are
    pinned to x: infeasible iff the propagated bound overshoots a pinned
    start.  Independent of any longest-path matrix.
    """
    w = np.array(g.p)
    w[1 : g.n + 1] += np.asarray(dev, dtype=float)
    anchored = set(anchored)
    e = np.zeros(g.n + 2)
    for v in asd.topological_order(g):
        lo = 0.0
        for u in g.predecessors(v):
            lo = max(lo, e[u] + w[u])
        if v in anchored:
            if lo > x[v] + tol:
                return False
            e[v] = x[v]
        else:
            e[v] = lo
    return True


def x_anchored_ok(g, delta, x, anchored, tol=1e-9):
    """Definition check: every deviation point admits a recourse schedule."""
    return all(
        recourse_ok(g, d, x, anchored, tol) for d in deviation_points(delta, g.n)
    )


def best_anchored_weight(inst, tol=1e-9):
    """Exhaustive optimum by trying every job subset against the definition.

    For each subset, the candidate baseline propagates the earliest starts
    compatible with anchoring the whole subset (original arcs everywhere,
    worst-case lengths — recomputed here by path enumeration — into anchored
    jobs), and the subset counts iff that baseline meets the deadline and
    passes the recourse-propagation definition check.
    """
    g = inst.graph
    n = g.n
    nodes = range(n + 2)
    worst = {
        (u, v): worst_case_length(g, inst.delta, u, v)
        for u in nodes
        for v in nodes
        if u != v
    }
    best = 0.0
    for mask in range(1 << n):
        H = [j + 1 for j in range(n) if mask >> j & 1]
        w = sum(inst.weights[j - 1] for j in H)
        if w <= best + tol:
            continue
        x = np.zeros(n + 2)
        for v in asd.topological_order(g):
            if v == 0:
                continue
            lo = 0.0
            for u in g.predecessors(v):
                lo = max(lo, x[u] + g.p[u])
            if v in H:
                for u in [0] + H:
                    if u != v and worst[(u, v)] > -np.inf:
                        lo = max(lo, x[u] + worst[(u, v)])
            x[v] = lo
        if x[g.t] <= inst.deadline + tol and x_anchored_ok(g, inst.delta, x, H, tol):
            best = w
    return best


def anchorable_lp(inst, H, tol=1e-7):
    """Definition-level feasibility via one big LP over scipy.

    Variables: a baseline x plus one recourse schedule per deviation point;
    constraints are exactly the definition — x is a schedule within the
    deadline, each recourse is a schedule of the deviated graph, and the two
    agree on the anchored jobs.  No longest paths, no anchored graphs.
    """
    from scipy.optimize import linprog

    g = inst.graph
    n2 = g.n + 2
    pts = deviation_points(inst.delta, g.n)
    nvar = n2 * (1 + len(pts))
    A_ub, b_ub = [], []
    A_eq, b_eq = [], []

    def row():
        return np.zeros(nvar)

    # x is a schedule: x_s = 0, x_j - x_i >= p_i, x_t <= deadline
    r = row(); r[0] = 1.0
    A_eq.append(r); b_eq.append(0.0)
    for i, j in g.arcs:
        r = row(); r[i] = 1.0; r[j] = -1.0
        A_ub.append(r); b_ub.append(-float(g.p[i]))
    r = row(); r[g.t] = 1.0
    A_ub.append(r); b_ub.append(float(inst.deadline))
    # one recourse schedule per deviation point, pinned on H
    for k, d in enumerate(pts):
        off = n2 * (1 + k)
        w = np.array(g.p)
        w[1 : g.n + 1] += d
        r = row(); r[off] = 1.0
        A_eq.append(r); b_eq.append(0.0)
        for i, j in g.arcs:
            r = row(); r[off + i] = 1.0; r[off + j] = -1.0
            A_ub.append(r); b_ub.append(-float(w[i]))
        for j in H:
            r = row(); r[off + j] = 1.0; r[j] = -1.0
            A_eq.append(r); b_eq.append(0.0)
    res = linprog(
        np.zeros(nvar),
        A_ub=np.array(A_ub), b_ub=np.array(b_ub),
        A_eq=np.array(A_eq), b_eq=np.array(b_eq),
        bounds=[(0, None)] * nvar,
        method="highs",
    )
    return res.status == 0


def is_series_parallel(n, arcs):
    """Two-terminal series-parallel recognition by reduction.

    Repeatedly merges duplicate arcs and splices out interior vertices with
    in-degree and out-degree one; series-parallel iff the multigraph collapses
    to the single terminal-to-terminal arc.
    """
    s, t = 0, n + 1
    bag = Counter((int(u), int(v)) for u, v in arcs)
    changed = True
    while changed:
        changed = False
        for (u, v), c in list(bag.items()):
            if c > 1:
                bag[(u, v)] = 1
                changed = True
        indeg = Counter()
        outdeg = Counter()
        for (u, v), c in bag.items():
            outdeg[u] += c
            indeg[v] += c
        for w in range(1, n + 1):
            if indeg[w] == 1 and outdeg[w] == 1:
                u = next(a for (a, b) in bag if b == w)
                v = next(b for (a, b) in bag if a == w)
                del bag[(u, w)]
                del bag[(w, v)]
                bag[(u, v)] += 1
                changed = True
                break
    return dict(bag) == {(s, t): 1}


def sweep_layout(group_of, radix):
    """``(group_of, stride, radix, n_states)`` exactly as given, with no caps."""
    radix = [int(r) for r in radix]
    stride = [int(np.prod(radix[:k])) for k in range(len(radix))]
    return (
        np.asarray(group_of, dtype=np.int64),
        np.array(stride, dtype=np.int64),
        np.array(radix, dtype=np.int64),
        int(np.prod(radix)),
    )


def random_dag(rng, n, density=0.4):
    """Random connected precedence graph for property tests."""
    arcs = set()
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            if rng.random() < density:
                arcs.add((i, j))
    heads = {j for _, j in arcs}
    tails = {i for i, _ in arcs}
    for j in range(1, n + 1):
        if j not in heads:
            arcs.add((0, j))
        if j not in tails:
            arcs.add((j, n + 1))
    return sorted(arcs)


def random_instance(rng, n, kind, weighted=False):
    """Random instance with uncertainty set ``kind``: box, budget, one,
    partition, mixed or scenarios."""
    g = asd.PrecedenceGraph(
        n, random_dag(rng, n), rng.integers(1, 5, n).astype(float)
    )
    dhat = tuple(rng.integers(0, 3, n).astype(float))
    if kind == "box":
        delta = asd.Box(dhat)
    elif kind == "budget":
        delta = asd.Budgeted(dhat, int(rng.integers(1, n + 1)))
    elif kind == "one":
        delta = asd.OneDisruption(float(rng.integers(1, 3)))
    elif kind == "partition":
        cut = int(rng.integers(1, n))
        parts = (tuple(range(1, cut + 1)), tuple(range(cut + 1, n + 1)))
        gammas = (
            int(rng.integers(1, cut + 1)),
            int(rng.integers(1, n - cut + 1)),
        )
        delta = asd.PartitionBudgeted(dhat, parts, gammas)
    elif kind == "mixed":
        delta = asd.MixedBudgeted(
            (asd.Budgeted(dhat, 1), asd.Budgeted(tuple(0.5 * d for d in dhat), n))
        )
    else:
        rows = tuple(
            tuple(rng.integers(0, 3, n).astype(float))
            for _ in range(int(rng.integers(1, 4)))
        )
        delta = asd.Scenarios(rows)
    nominal = asd.single_source_longest(g, 0, g.p)[g.t]
    deadline = float(nominal + rng.integers(0, 6))
    weights = rng.integers(1, 4, n).astype(float) if weighted else np.ones(n)
    return asd.Instance(
        graph=g, delta=delta, deadline=deadline, weights=weights, meta={}
    )


def max_violation(model, x):
    """Largest row or bound violation of a named point, one row at a time."""
    worst = 0.0
    for row in model.rows:
        lhs = sum(c * x[v] for v, c in row.coefs.items())
        if row.sense == "<=":
            worst = max(worst, lhs - row.rhs)
        elif row.sense == ">=":
            worst = max(worst, row.rhs - lhs)
        else:
            worst = max(worst, abs(lhs - row.rhs))
    for v in model.variables:
        worst = max(worst, v.lb - x[v.name], x[v.name] - v.ub)
    return float(worst)
