"""MIP formulations of the anchoring problem and chain-inequality machinery.

Three equivalent mixed-integer models over binary anchoring indicators h:

* ``std`` — baseline variables x plus the pairwise big-M-free linearization
  x_j - x_i >= LD(i, j)(h_i + h_j - 1) over all comparable pairs, with h_s = 1
  and h_t = 0 substituted as constants.
* ``dom`` — schedule variables z of the dominant baseline with the tightened
  rows z_j - z_i >= L0(i, j) + (LD(i, j) - L0(i, j)) h_j; arc rows are implied
  and omitted.
* ``lay`` — budgeted sets only: one schedule copy per remaining budget level
  gamma = 0..min(Γ, H), horizontal arcs p_i inside a layer, transversal arcs
  p_i + dhat_i consuming one budget unit, and vertical arcs -D_j(1 - h_j)
  letting non-anchored jobs move between layers, where D_j is the
  full-deviation slack L_{G(p+dhat)}(s, j) - L0(s, j).  The baseline is the
  top layer min(Γ, H).  H is the budget height, the largest number of jobs
  with dhat_j > 0 on any s-t path.  The cap is exact: every i-j path lies on
  an s-t path, so Γ and min(Γ, H) give the same LD matrix, and D_j does not
  depend on Γ; the chain description of the projection below, the MIP
  optimum and the LP bound are all unchanged.

Each builder computes its rows with numpy, as index and coefficient arrays,
and appends them to the model as one dense block (``MipModel.add_rows``).
``std`` and ``dom`` also attach the basis of the presolved dominant
schedule, which their LPs start from (``_dominant_start``).

The h-projections of the ``dom`` and ``lay`` relaxations are described by
chain inequalities: for every s-t chain in the comparability order, the sum of
hop weights must not exceed the deadline.  ``separate_chain`` finds the most
violated chain by a longest-path sweep, which powers both a branch-and-cut
solver in the h-space (``solve_dom_cuts``, separating at every node) and
projection membership tests.

Every MIP route presolves: a job whose singleton fails the anchored-set
test, LD(s, j) + L0(j, t) > M, lies in no feasible set, so h_j = 0 is
passed to ``solve_mip`` as a fixing (``_unanchorable``).  The fixings go to
the solver only; the models that ``build`` returns, and so ``lp_bound`` and
the root value, stay each formulation's own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .anchored import (
    AnchoredSolution,
    Instance,
    _anchored_starts,
    _fill_starts,
    dominant_schedule,
)
from .errors import DeadlineInfeasible, UnsupportedUncertainty
from .graph import (
    EPS,
    S,
    LongestPathMatrix,
    all_pairs_longest,
    single_source_longest,
    topological_order,
)
from .milp import (
    FEAS_TOL,
    MipModel,
    SolveParams,
    SolveResult,
    WarmStart,
    solve_lp,
    solve_mip,
)
from .uncertainty import (
    Budgeted,
    _dev_full,
    budget_height,
    normalize,
    worst_case_longest_paths,
)

#: violation tolerance for chain separation
SEP_TOL = 1e-6


#: cells (tails x nodes x nodes, 2 MiB as float64) one ``_implied_heads``
#: block may span; a memory guard, not an option
IMPLIED_CELLS = 2**18


def _labels(g) -> list[str]:
    """Node labels for variable and row names: s, 1..n, t."""
    return ["s", *map(str, g.jobs), "t"]


def _matrices(inst: Instance, l0, ld):
    g = inst.graph
    if l0 is None:
        l0 = all_pairs_longest(g, g.p)
    if ld is None:
        ld = worst_case_longest_paths(g, inst.delta)
    return l0, ld


def _objective(model: MipModel, inst: Instance) -> None:
    model.set_objective(
        {f"h_{j}": float(inst.weights[j - 1]) for j in inst.graph.jobs}, maximize=True
    )


def _schedule_model(name: str, inst: Instance, prefix: str, ub: float) -> MipModel:
    """A model with schedule columns and binaries, and no rows yet.

    Columns {prefix}_v in [0, ub] for v = s, 1..n, t (the s copy fixed to 0)
    come first, then the binaries h_1..h_n: node v is column v and job j's h
    is column t + j.
    """
    g = inst.graph
    model = MipModel(name=name)
    names = [f"{prefix}_{v}" for v in _labels(g)] + [f"h_{j}" for j in g.jobs]
    ubs = np.full(len(names), ub)
    ubs[S] = 0.0
    ubs[g.t + 1 :] = 1.0
    model.add_vars(names, 0.0, ubs, binary=np.arange(len(names)) > g.t)
    return model


def _dominant_start(model: MipModel, inst: Instance, ld) -> None:
    """Attach the basis of the presolved dominant schedule as ``model.start``.

    For the schedule layout of ``_schedule_model``.  At the presolved point
    (h = 0 on the fixings of ``_unanchorable``, else 1, and z the dominant
    baseline of the jobs with h = 1), each schedule column j = 1..n, t
    becomes basic in the first row with +1 on j that is tight there; every
    other row keeps its logical, a nonbasic one at its finite bound, and h
    stays at the bound its cost prefers (or at its fixing).  A row's other
    schedule entry is a predecessor of its head, so in topological order
    the basic block is unit triangular; the schedule columns cost 0, so the
    duals are 0 and the basis is dual feasible with or without the fixings.
    Under them the LP starts at the presolved point, and the dual simplex
    only repairs what the deadline and the bounds on z reject.
    """
    g = inst.graph
    fixed = _unanchorable(inst, ld, model)
    point = np.ones(model.n_vars)
    point[list(fixed)] = 0.0
    jobs = [j for j in g.jobs if g.t + j not in fixed]
    point[: g.t + 1] = _fill_starts(g, *_anchored_starts(g, ld, jobs))
    A, lo, hi, c = model._standard_form()
    m, n = A.shape
    act = A @ point
    tol = FEAS_TOL * (1.0 + np.abs(act))
    tight = (np.abs(act - lo[n:]) <= tol) | (np.abs(act - hi[n:]) <= tol)
    cols = np.arange(1, g.t + 1)
    rows = (A[:, cols] == 1.0) & tight[:, None]
    found = rows.any(axis=0)
    basis = np.arange(n, n + m)
    basis[rows.argmax(axis=0)[found]] = cols[found]
    # maximized weights: h at 1 when its weight is positive, as cold
    model.start = WarmStart(basis, np.concatenate([c > 0, lo[n:] == -np.inf]))


def _block(shape, *entries) -> np.ndarray:
    """Dense row block with A[rows, cols] = vals for each (rows, cols, vals)."""
    A = np.zeros(shape)
    for rows, cols, vals in entries:
        A[rows, cols] = vals
    return A


def build_std(
    inst: Instance, ld: LongestPathMatrix | None = None
) -> MipModel:
    """Baseline-variable model with pairwise anchoring linearizations.

    Variables: x_v >= 0 for every node (x_s fixed to 0), binary h_j.  Rows:
    the arc rows of G, the deadline x_t <= M, and for every comparable pair
    (i, j) the row x_j - x_i >= LD(i, j)(h_i + h_j - 1) with h_s = 1 and
    h_t = 0 substituted.  The upper bound M on x is implied by the arc rows
    and the deadline, so declaring it cuts nothing.  Its LPs start from the
    presolved dominant basis (``_dominant_start``).
    """
    g = inst.graph
    if ld is None:
        ld = worst_case_longest_paths(g, inst.delta)
    t = g.t
    M = float(inst.deadline)
    model = _schedule_model("std", inst, "x", max(M, 0.0))
    arcs = np.array(g.arcs, dtype=np.intp).reshape(-1, 2)
    ai, aj = arcs[:, 0], arcs[:, 1]
    I, J = np.nonzero(ld.reach)
    L = ld.values[I, J]
    rhs = -L
    rhs[I == S] += L[I == S]
    e, p = len(arcs), len(I)
    ra, rp = np.arange(e), np.arange(e + 1, e + 1 + p)
    tail_h, head_h = I != S, J != t  # h_s = 1 and h_t = 0 substituted
    A = _block(
        (e + 1 + p, model.n_vars),
        (ra, aj, 1.0), (ra, ai, -1.0), (e, t, 1.0),
        (rp, J, 1.0), (rp, I, -1.0),
        (rp[tail_h], t + I[tail_h], 0.0 - L[tail_h]),
        (rp[head_h], t + J[head_h], 0.0 - L[head_h]),
    )
    lab = _labels(g)
    names = [f"arc_{lab[i]}_{lab[j]}" for i, j in g.arcs]
    names.append("deadline")
    names += [f"pair_{lab[i]}_{lab[j]}" for i, j in zip(I.tolist(), J.tolist())]
    lo = np.concatenate([g.p[ai], [-np.inf], rhs])
    hi = np.full(len(A), np.inf)
    hi[e] = M
    model.add_rows(A, lo, hi, names)
    _objective(model, inst)
    _dominant_start(model, inst, ld)
    return model


def _implied_heads(l0, ld, sink, tails) -> np.ndarray:
    """Which pair rows of each tail in ``tails`` are implied through a job k?

    Adding the rows for (i, k) and (k, j) gives, using h_k >= 0,
    z_j - z_i >= L0(i, k) + L0(k, j) + gain(k, j) h_j; this dominates the
    (i, j) row whenever k lies on a longest nominal i-j path and the head
    tightening does not shrink, i.e. gain(k, j) >= gain(i, j) (heads at the
    sink carry no tightening).  Such rows can be skipped: the polytope — and
    hence the LP bound — is unchanged, only the model gets smaller.  Row r
    of the result decides the heads of ``tails[r]``; heads it does not reach
    are meaningless.  The block spans len(tails) x |U| x |U| cells for the
    nodes U the tails reach, which hold every k and j of a tail.  L0 is -inf
    off reachability, so the path test fails unless i reaches k and k
    reaches j.
    """
    U = np.flatnonzero(l0.reach[tails].any(axis=0))
    v, w = l0.values[:, U], ld.values[:, U]
    l0_t, l0_u = v[tails], v[U]
    implied = l0_t[:, :, None] + l0_u >= l0_t[:, None, :] - 1e-9
    with np.errstate(invalid="ignore"):  # -inf - -inf off reachability
        keeps = w[U] - l0_u >= (w[tails] - l0_t)[:, None, :] - 1e-9
    keeps[:, :, U == sink] = True
    implied &= keeps
    out = np.zeros((len(tails), l0.reach.shape[1]), dtype=bool)
    out[:, U] = implied.any(axis=1)
    return out


def _kept_pairs(g, l0, ld) -> np.ndarray:
    """The pair rows ``build_dom`` keeps: reach of tails s, 1..n less implied.

    Tails go in topological order, in blocks, each grown while it spans at
    most IMPLIED_CELLS cells (at least one tail per block); tails close in
    that order reach much the same nodes.
    """
    keep = l0.reach[: g.t].copy()
    order = [v for v in topological_order(g) if v != g.t]
    start = 0
    while start < len(order):
        reached = keep[order[start]]
        stop = start + 1
        while stop < len(order):
            grown = reached | keep[order[stop]]
            if (stop + 1 - start) * np.count_nonzero(grown) ** 2 > IMPLIED_CELLS:
                break
            reached, stop = grown, stop + 1
        tails = np.array(order[start:stop])
        keep[tails] &= ~_implied_heads(l0, ld, g.t, tails)
        start = stop
    return keep


def build_dom(
    inst: Instance,
    l0: LongestPathMatrix | None = None,
    ld: LongestPathMatrix | None = None,
) -> MipModel:
    """Dominant-schedule model with per-head tightened pair rows.

    Variables: z_v >= 0 (z_s fixed to 0), binary h_j.  Rows: z_t <= M and,
    for every comparable pair with tail in J ∪ {s} and head in J ∪ {t},
    z_j - z_i >= L0(i, j) + (LD(i, j) - L0(i, j)) h_j (h_t = 0).  Arc rows
    are implied because L0(i, j) >= p_i on arcs.  The head-to-t rows bound
    every z by M, so the declared upper bounds cut nothing.  Pair rows that
    are already implied through an intermediate job are omitted; the
    feasible region is identical (see ``_implied_heads``).  Its LPs start
    from the presolved dominant basis (``_dominant_start``).
    """
    l0, ld = _matrices(inst, l0, ld)
    g = inst.graph
    t = g.t
    M = float(inst.deadline)
    model = _schedule_model("dom", inst, "z", max(M, 0.0))
    I, J = np.nonzero(_kept_pairs(g, l0, ld))
    base = l0.values[I, J]
    gain = ld.values[I, J] - base
    rows = np.arange(1, len(I) + 1)
    tight = (J != t) & (gain != 0.0)
    A = _block(
        (len(I) + 1, model.n_vars),
        (0, t, 1.0), (rows, J, 1.0), (rows, I, -1.0),
        (rows[tight], t + J[tight], -gain[tight]),
    )
    lab = _labels(g)
    names = ["deadline"]
    names += [f"pair_{lab[i]}_{lab[j]}" for i, j in zip(I.tolist(), J.tolist())]
    hi = np.full(len(A), np.inf)
    hi[0] = M
    model.add_rows(A, np.concatenate([[-np.inf], base]), hi, names)
    _objective(model, inst)
    _dominant_start(model, inst, ld)
    return model


def _deviated_paths(g, dhat):
    """Longest s-paths under p + dhat, and the full-deviation slack D.

    D_j = L_{G(p+dhat)}(s, j) - L0(s, j) for every node j.
    """
    dist_dev = single_source_longest(g, S, g.p + _dev_full(g, dhat))
    return dist_dev, dist_dev - single_source_longest(g, S, g.p)


def _layer_data(inst: Instance):
    """Deviations and the layered model's budget, capped at the budget height."""
    d = normalize(inst.delta, inst.graph.n)
    if not isinstance(d, Budgeted):
        raise UnsupportedUncertainty(
            "layered model requires a budgeted uncertainty set"
        )
    dhat = np.asarray(d.dhat, dtype=float)
    return dhat, min(int(d.gamma), budget_height(inst.graph, dhat))


def build_lay(inst: Instance) -> MipModel:
    """Layered model for budgeted sets, one schedule copy per budget level.

    The levels are 0..min(Γ, H), where H = ``budget_height(g, dhat)``: no
    path deviates more than H jobs, so further levels change neither LD nor
    the optimum (see the module docstring).  H = 0 gives one layer and no
    transversal or vertical rows.  Below, Γ is the capped budget.

    Layer Γ is the baseline (deadline row x{Γ}_t <= M); moving along a
    transversal arc to the layer below spends one unit of budget and uses the
    deviated length p_i + dhat_i.  A vertical row per job and layer lets a
    non-anchored job start earlier in lower layers by at most its
    full-deviation slack D_j.  Declared upper bounds are a retraction bound
    (any feasible point can lower its copies below it), so they cut nothing.
    """
    dhat, gamma = _layer_data(inst)
    g = inst.graph
    M = float(inst.deadline)
    dev = _dev_full(g, dhat)
    dist_dev, D = _deviated_paths(g, dhat)
    maxD = float(max(D[1 : g.n + 1].max(), 0.0)) if g.n else 0.0
    ub_all = max(M, 0.0) + gamma * maxD + max(float(dist_dev[g.t]), 0.0)

    t, N = g.t, g.n + 2
    layers = gamma + 1
    lab = _labels(g)
    model = MipModel(name="lay")
    names = [f"x{gam}_{v}" for gam in range(layers) for v in lab]
    names += [f"h_{j}" for j in g.jobs]
    ubs = np.full(len(names), ub_all)
    ubs[: layers * N : N] = 0.0
    ubs[layers * N :] = 1.0
    model.add_vars(names, 0.0, ubs, binary=np.arange(len(names)) >= layers * N)

    # column of node v in layer gam: gam N + v; rows: the arcs of every
    # layer, the transversal arcs of layers 0..Γ-1, the vertical rows job by
    # job, the deadline
    arcs = np.array(g.arcs, dtype=np.intp).reshape(-1, 2)
    ai, aj = arcs[:, 0], arcs[:, 1]
    E = len(arcs)
    off = N * np.arange(layers)[:, None]
    r_arc = np.arange(layers * E)
    r_dev = layers * E + np.arange(gamma * E)
    jobs = np.repeat(np.arange(1, g.n + 1), gamma)
    gams = np.tile(np.arange(gamma), g.n)
    r_vert = (layers + gamma) * E + np.arange(len(jobs))
    dj = D[jobs]
    slack = dj != 0.0
    m = len(r_vert) + (layers + gamma) * E + 1
    A = _block(
        (m, model.n_vars),
        (r_arc, (off + aj).ravel(), 1.0), (r_arc, (off + ai).ravel(), -1.0),
        (r_dev, (off[:-1] + aj).ravel(), 1.0), (r_dev, (off[1:] + ai).ravel(), -1.0),
        (r_vert, (gams + 1) * N + jobs, 1.0), (r_vert, gams * N + jobs, -1.0),
        (r_vert[slack], layers * N + jobs[slack] - 1, -dj[slack]),
        (m - 1, gamma * N + t, 1.0),
    )
    arc_names = [f"{lab[i]}_{lab[j]}" for i, j in g.arcs]
    names = [f"lay{gam}_arc_{a}" for gam in range(layers) for a in arc_names]
    names += [f"lay{gam}_dev_{a}" for gam in range(gamma) for a in arc_names]
    names += [f"vert{gam}_{j}" for j in g.jobs for gam in range(gamma)]
    names.append("deadline")
    lo = np.concatenate(
        [np.tile(g.p[ai], layers), np.tile(g.p[ai] + dev[ai], gamma), -dj, [-np.inf]]
    )
    hi = np.full(m, np.inf)
    hi[-1] = M
    model.add_rows(A, lo, hi, names)
    _objective(model, inst)
    return model


#: builder of each formulation, and whether it reads L0 and LD
_BUILDERS = {
    "std": (lambda inst, l0, ld: build_std(inst, ld), False, True),
    "dom": (build_dom, True, True),
    "lay": (lambda inst, l0, ld: build_lay(inst), False, False),
}


def _build(inst: Instance, which: str):
    """Model ``which``, and LD when its builder read it (else None)."""
    try:
        builder, reads_l0, reads_ld = _BUILDERS[which]
    except KeyError:
        raise ValueError(f"unknown formulation {which!r}") from None
    g = inst.graph
    l0 = all_pairs_longest(g, g.p) if reads_l0 else None
    ld = worst_case_longest_paths(g, inst.delta) if reads_ld else None
    return builder(inst, l0, ld), ld


def build(inst: Instance, which: str) -> MipModel:
    """Build one of the three formulations by name (std, dom, lay)."""
    return _build(inst, which.lower())[0]


# ---------------------------------------------------------------------------
# chain separation
# ---------------------------------------------------------------------------


def _hop_weights(inst: Instance, l0, ld, h: np.ndarray, which: str):
    """Chain hop weights at h: w[u, v] for tails u in {s} ∪ J, every node v.

    A hop into a job v weighs L0(u,v) + (LD(u,v) - L0(u,v)) h_v for the pair
    model or LD(u,v) - D_v(1 - h_v) for the layered model, a hop into t the
    nominal L0(u,t), and a hop off reachability -inf.
    """
    g = inst.graph
    which = which.lower()
    if which not in ("dom", "lay"):
        raise ValueError(f"unknown projection {which!r}")
    hv = np.zeros(g.n + 2)
    hv[1 : g.n + 1] = h
    base, dev = l0.values[: g.t], ld.values[: g.t]
    with np.errstate(invalid="ignore"):  # -inf - -inf off reachability
        if which == "dom":
            w = base + (dev - base) * hv
        else:
            D = _deviated_paths(g, _layer_data(inst)[0])[1]
            w = dev - D * (1.0 - hv)
    w[:, g.t] = base[:, g.t]
    w[~ld.reach[: g.t]] = -np.inf
    return w


def separate_chain(
    inst: Instance,
    l0: LongestPathMatrix,
    ld: LongestPathMatrix,
    h: np.ndarray,
    which: str = "dom",
):
    """Most violated chain inequality at a (fractional) h, or None.

    h is a length-n vector, ``h[j - 1]`` the indicator of job j.  A chain
    is an s-t path in the comparability order.  Its weight sums the hop
    weights of ``_hop_weights``: per hop (i, j) with j a job,
    L0(i,j) + (LD(i,j) - L0(i,j)) h_j for the pair model or
    LD(i,j) - D_j(1 - h_j) for the layered model, plus the nominal L0(i,t)
    on the final hop; h is in the projection iff every chain weighs at most
    M.  The heaviest chain is one longest-path sweep, each node taking its
    best tail by one vector max (ties to the smallest tail).  Returns
    (chain, violation) with the chain as a node tuple including s and t.
    """
    g = inst.graph
    w = _hop_weights(inst, l0, ld, h, which)
    best = np.full(g.n + 2, -np.inf)
    best[S] = 0.0
    parent = np.full(g.n + 2, -1, dtype=np.int64)
    for v in topological_order(g):
        if v == S:
            continue
        cand = best[: g.t] + w[:, v]
        u = int(np.argmax(cand))
        best[v], parent[v] = cand[u], u
    violation = float(best[g.t]) - float(inst.deadline)
    if violation <= SEP_TOL:
        return None
    chain = []
    v = g.t
    while v >= 0:
        chain.append(int(v))
        v = parent[v]
    chain.reverse()
    return tuple(chain), violation


def chain_weight(
    inst: Instance,
    l0: LongestPathMatrix,
    ld: LongestPathMatrix,
    chain,
    h: np.ndarray,
    which: str = "dom",
) -> float:
    """Weight of one specific chain at h (same hop weights as separation).

    h is a length-n vector, ``h[j - 1]`` the indicator of job j.
    """
    w = _hop_weights(inst, l0, ld, h, which)
    return float(sum(w[u, v] for u, v in zip(chain[:-1], chain[1:])))


def chain_cut_row(
    inst: Instance,
    l0: LongestPathMatrix,
    ld: LongestPathMatrix,
    chain,
):
    """The pair-model chain inequality as an h-space row (coefs, sense, rhs)."""
    g = inst.graph
    coefs: dict[str, float] = {}
    const = 0.0
    for u, v in zip(chain[:-1], chain[1:]):
        base = float(l0.values[u, v])
        const += base
        if v != g.t:
            gain = float(ld.values[u, v]) - base
            if gain != 0.0:
                name = f"h_{v}"
                coefs[name] = coefs.get(name, 0.0) + gain
    return coefs, "<=", float(inst.deadline) - const


# ---------------------------------------------------------------------------
# solving and bounds
# ---------------------------------------------------------------------------


def _decode(
    inst: Instance, ld: LongestPathMatrix, res: SolveResult
) -> AnchoredSolution | None:
    """The anchored set read from h, its dominant baseline and its weight."""
    if res.x is None:
        return None
    g = inst.graph
    anchored = frozenset(j for j in g.jobs if res.x[f"h_{j}"] >= 0.5)
    schedule = dominant_schedule(g, ld, sorted(anchored), inst.deadline)
    return AnchoredSolution(
        schedule=schedule, anchored=anchored, objective=inst.weight_of(anchored)
    )


def _greedy_anchored_heuristic(inst: Instance, ld, model: MipModel):
    """LP-guided incumbent finder: grow a feasible anchored set greedily.

    Jobs are tried in decreasing LP indicator value (weight breaks ties,
    then the smaller job); each one is kept if the enlarged set still fits
    the deadline.  It reads and proposes vectors in the variable order of
    ``model``, through an index array of h built once: the proposal holds
    the indicators of the final set, None when not even the empty set fits.
    On the schedule layout of ``std`` and ``dom`` its columns s, 1..n, t
    hold the set's dominant baseline (``dominant_schedule``), a point of the
    model that ``solve_mip`` takes as it is; on any other model they are 0.
    Every formulation is exact on the h-space, so the LP with those
    indicators fixed is feasible, and ``solve_mip`` completes such a
    proposal into an incumbent by that LP.

    The test is ``is_anchored_set``'s, kept incremental: z holds the
    dominant starts of s and the chosen jobs (-inf elsewhere).  A candidate
    j starts at max(0, max_u z_u + LD(u, j)); only the chosen descendants of
    j can move, since LD is -inf off reachability, and they are recomputed
    in topological order.  Each start is a max over the same sums, so the
    set is exactly the one a from-scratch test would pick.
    """
    g = inst.graph
    lim = float(inst.deadline) + EPS
    lags, reach = ld.values, ld.reach
    to_sink = g.to_sink()
    topo = np.array(g._topo)
    h_index = np.array([model.var_index(f"h_{j}") for j in g.jobs], dtype=np.intp)
    schedule_layout = model.name in ("std", "dom")

    def heur(xlp: np.ndarray) -> np.ndarray | None:
        if to_sink[S] > lim:  # s fails the test, so every set does
            return None
        order = 1 + np.lexsort((-inst.weights, -xlp[h_index]))
        z = np.full(g.n + 2, -np.inf)
        z[S] = 0.0
        chosen = np.zeros(g.n + 2, dtype=bool)
        for j in order.tolist():
            zj = max(0.0, (z + lags[:, j]).max())
            if zj + to_sink[j] > lim:
                continue
            trial = z.copy()
            trial[j] = zj
            for d in topo[chosen[topo] & reach[j, topo]]:
                trial[d] = max(0.0, (trial + lags[:, d]).max())
                if trial[d] + to_sink[d] > lim:
                    break
            else:
                z = trial
                chosen[j] = True
        proposal = np.zeros(model.n_vars)
        proposal[h_index] = chosen[1 : g.n + 1]
        if schedule_layout:
            nodes = np.flatnonzero(chosen)
            proposal[: g.t + 1] = _fill_starts(g, nodes, z[nodes])
        return proposal

    return heur


def _unanchorable(inst: Instance, ld, model: MipModel) -> dict[int, float]:
    """Presolve fixings {index of h_j in ``model``: 0} for unanchorable jobs.

    Job j is fixed when max(0, LD(s, j)) + L0(j, t) > M + EPS: its dominant
    start alone leaves too little room before the deadline, so
    ``is_anchored_set`` rejects {j} and every set holding it.  This is that
    test on the singleton (and the greedy's skip test), so no job the
    oracle accepts is fixed.  Only the LD row of s and the graph's cached
    L0(., t) are read.
    """
    g = inst.graph
    jobs = np.arange(1, g.n + 1)
    start = np.maximum(0.0, ld.values[S, jobs])
    late = start + g.to_sink()[jobs] > float(inst.deadline) + EPS
    return {model.var_index(f"h_{j}"): 0.0 for j in jobs[late].tolist()}


def solve_formulation(
    inst: Instance,
    which: str = "dom",
    params: SolveParams | None = None,
) -> tuple[SolveResult, AnchoredSolution | None]:
    """Build one formulation, solve it as a MIP, and decode the solution.

    Every model runs the greedy heuristic on LD and decodes to the dominant
    baseline of its anchored set, not to the LP's schedule variables.  On
    ``std`` and ``dom`` the greedy's proposals are points of the model, so
    none needs an LP; ``lay``'s are completed by one.
    """
    which = which.lower()
    model, ld = _build(inst, which)
    if ld is None:  # the layered model reads no LD, its heuristic does
        ld = worst_case_longest_paths(inst.graph, inst.delta)
    heuristic = _greedy_anchored_heuristic(inst, ld, model)
    res = solve_mip(
        model, params, heuristic=heuristic, fixed=_unanchorable(inst, ld, model)
    )
    return res, _decode(inst, ld, res)


@dataclass
class CutLoopStats:
    """Root separation of the h-space solve: chain rows added, LP re-solves.

    The callback adds one chain per re-solve, so ``root_rounds == root_cuts``;
    perfbench reads both fields.
    """

    root_cuts: int = 0
    root_rounds: int = 0


def solve_dom_cuts(
    inst: Instance,
    params: SolveParams | None = None,
) -> tuple[SolveResult, AnchoredSolution | None, CutLoopStats]:
    """Solve via chain cuts on an h-only master instead of enumerated pairs.

    The master model carries only the binary h variables.  ``solve_mip``
    offers it the LP point of every node, the root first, and re-solves the
    node with the most violated chain inequality until none is violated, so
    every node bounds as the ``dom`` relaxation under the same fixes.
    Schedules are recovered from the final anchored set afterwards.  The
    stats count the chains added, one per re-solve, before the heuristic's
    first call, which ``solve_mip`` makes on the separated root.
    """
    l0, ld = _matrices(inst, None, None)
    g = inst.graph
    master = MipModel(name="dom_cuts")
    for j in g.jobs:
        master.add_binary(f"h_{j}")
    _objective(master, inst)
    stats = CutLoopStats()
    at_root = True

    def callback(x: np.ndarray):  # the master's variables are h_1..h_n
        found = separate_chain(inst, l0, ld, x, "dom")
        if found is None:
            return []
        if at_root:
            stats.root_cuts += 1
            stats.root_rounds += 1
        return [chain_cut_row(inst, l0, ld, found[0])]

    greedy = _greedy_anchored_heuristic(inst, ld, master)

    def heuristic(x: np.ndarray):
        nonlocal at_root
        at_root = False
        return greedy(x)

    res = solve_mip(
        master, params, cut_callback=callback, heuristic=heuristic,
        fixed=_unanchorable(inst, ld, master),
    )
    return res, _decode(inst, ld, res), stats


def lp_bound(inst: Instance, which: str = "dom") -> float:
    """Optimal value of the LP relaxation of one formulation."""
    which = which.lower()
    model, _ = _build(inst, which)
    res = solve_lp(model)
    if res.status != "Optimal":
        raise DeadlineInfeasible(f"LP relaxation of {which} is {res.status}")
    return float(res.value)


def dom_lay_premise(inst: Instance) -> bool:
    """Does the full-deviation slack cover every pairwise tightening?

    When D_j = L_{G(p+dhat)}(s,j) - L0(s,j) >= LD(i,j) - L0(i,j) for every
    comparable pair with head job j, the pair-model relaxation provably
    dominates the layered one.  Holds on critical graphs and for uniform
    one-disruption sets.
    """
    g = inst.graph
    D = _deviated_paths(g, _layer_data(inst)[0])[1]
    l0, ld = _matrices(inst, None, None)
    pairs = l0.reach[:, : g.t]  # head j a job: s is no head, t no tail
    with np.errstate(invalid="ignore"):  # -inf - -inf off reachability
        short = D[: g.t] < ld.values[:, : g.t] - l0.values[:, : g.t] - 1e-9
    return not np.any(pairs & short)
