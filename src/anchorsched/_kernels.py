"""Hot numeric kernels, in two builds.

Each kernel has a loop implementation (numba-compiled when the numba backend is
active) and a vectorized pure-numpy twin.  ``_backend`` decides which build is
bound to the public name.  Both builds use the same tolerances and tie-breaking
so results are identical across backends; ``tests/test_kernels.py`` runs every
loop build as plain Python against its twin.  The kernels:

* ``sweep`` — one topological pass that fills ``val[v, st, i]``, the
  longest-path values of a block of sources i over every budget state st,
  states outside the sources.  Every path matrix goes through it: nominal
  and box (one state), budgeted ((node, used budget) states) and
  partitioned (mixed-radix budget vectors).  The numpy build spends its
  time on numpy calls per node, so it makes as few as it can: a node with
  one incoming arc adds the weight to its tail's row, and a pass with one
  state from one source runs on Python floats.
* ``dual_phase`` — the bounded dual simplex on a dense tableau: bounds stay
  on the variables, and the start (all logicals, a basis rebuilt, or a
  parent node's final tableau with its values) is dual feasible, so one
  phase solves the LP.  It overwrites T, basis and z, so ``milp`` hands it
  only a tableau no one else reads: a fresh build, a copy of a kept one, or
  a kept one its last user gives up.
* ``mask_makespans`` — makespans of the earliest baselines of anchored
  subsets given as bitmasks, for the exhaustive optimum.  Every comparable
  tail feeds an anchored head, anchored or not (the dominance rule).

Graph kernels work on a CSR layout of incoming arcs: for node ``v`` the arcs
ending at ``v`` occupy ``in_src[in_ptr[v]:in_ptr[v+1]]`` (tail node ids) with
parallel weight arrays.  ``topo`` is a topological order of all nodes.
"""

from __future__ import annotations

import numpy as np

from ._backend import USE_NUMBA, jit

NEG = -np.inf
_max = np.maximum

# ---------------------------------------------------------------------------
# DAG sweep over a block of sources and budget states
# ---------------------------------------------------------------------------
# val[v, st, i] is the longest path from sources[i] to v that ends in budget
# state st.  States are mixed-radix budget vectors: group_of[u] is the budget
# group of tail u (-1: arcs out of u never deviate), digit g of state st is
# (st // stride[g]) % radix[g], the budget of group g spent so far, and
# radix[g] is one more than the group's budget (``uncertainty`` caps it at
# the group's path height).  An arc (u, v) keeps the state at its nominal
# weight, or, when u has a group whose digit is below its cap, raises that
# digit by one at its deviated weight.  With no groups (empty stride) there
# is one state, and the sweep is a plain longest-path pass from every source.
# States lie outside the sources, so raising digit g moves runs of
# stride[g] * n_src contiguous values: viewed as (outer, radix[g],
# stride[g] * n_src), a node's row shifts by one slice along axis 1.  The
# numpy build max-reduces a group's deviated arcs over whole contiguous rows,
# then shifts the result by that one slice.  Per node it takes one of three
# paths, each with the same add-then-max on every arc as the loop build:
# * one incoming arc (most nodes of series-parallel graphs): the tail's row
#   plus the weight, and plus the deviated weight for the shift; no gather,
#   no reduce;
# * several arcs, none of them in a group: ``take`` gathers the tails' rows,
#   the weights are added in place, and one reduce takes the maximum;
# * several arcs with groups: a fancy-indexed gather, kept for the per-group
#   slices of the deviated arcs.
# One state from one source (``budget_height``, single-source longest paths,
# the generator) skips the rows altogether: the pass runs on ``tolist()``
# copies of the arcs, weights and values, and writes back once.


def _sweep_loop(
    topo, in_ptr, in_src, wt_nom, wt_dev, group_of, stride, radix, n_states, sources
):
    n_nodes = len(topo)
    n_src = len(sources)
    val = np.full((n_nodes, n_states, n_src), NEG)
    for i in range(n_src):
        val[sources[i], 0, i] = 0.0
    for idx in range(n_nodes):
        v = topo[idx]
        for k in range(in_ptr[v], in_ptr[v + 1]):
            u = in_src[k]
            for st in range(n_states):
                for i in range(n_src):
                    c = val[u, st, i] + wt_nom[k]
                    if c > val[v, st, i]:
                        val[v, st, i] = c
            g = group_of[u]
            if g >= 0:
                sg = stride[g]
                rg = radix[g]
                for st in range(n_states):
                    if (st // sg) % rg < rg - 1:
                        for i in range(n_src):
                            c = val[u, st, i] + wt_dev[k]
                            if c > val[v, st + sg, i]:
                                val[v, st + sg, i] = c
    return val


def _sweep_vec(
    topo, in_ptr, in_src, wt_nom, wt_dev, group_of, stride, radix, n_states, sources
):
    n_nodes = len(topo)
    n_src = len(sources)
    val = np.full((n_nodes, n_states, n_src), NEG)
    val[sources, 0, np.arange(n_src)] = 0.0
    ptr = in_ptr.tolist()
    if len(stride) == 0 and n_src == 1:
        # one value per node: Python floats beat numpy calls here
        dist = val.reshape(n_nodes).tolist()
        src, w = in_src.tolist(), wt_nom.tolist()
        for v in topo.tolist():
            best = dist[v]
            for k in range(ptr[v], ptr[v + 1]):
                c = dist[src[k]] + w[k]
                if c > best:
                    best = c
            dist[v] = best
        val[:, 0, 0] = dist
        return val
    # segs[v] lists the (start, stop, shape) of each group's slice of the arcs
    # into v; shape (outer, radix[g], stride[g] * n_src) puts digit g on axis 1
    segs = [[] for _ in range(n_nodes)]
    if len(stride):
        head = np.repeat(np.arange(n_nodes), np.diff(in_ptr))
        grp = group_of[in_src]
        order = np.lexsort((grp, head))  # arcs of one group become one slice
        in_src, grp = in_src[order], grp[order]
        wt_nom, wt_dev = wt_nom[order], wt_dev[order]
        runs = np.flatnonzero((np.diff(head) != 0) | (np.diff(grp) != 0)) + 1
        bounds = np.concatenate(([0], runs, [len(order)])).tolist()
        for a, b in zip(bounds[:-1], bounds[1:]):
            g = int(grp[a])
            if g >= 0:
                rg, sg = int(radix[g]), int(stride[g])
                segs[head[a]].append((a, b, (n_states // (rg * sg), rg, sg * n_src)))
    src, w_nom, w_dev = in_src.tolist(), wt_nom.tolist(), wt_dev.tolist()
    wt_nom = wt_nom[:, None, None]
    wt_dev = wt_dev[:, None, None]
    for v in topo.tolist():
        lo, hi = ptr[v], ptr[v + 1]
        if hi - lo == 1:  # the tail's row plus the weight: no gather, no reduce
            tail = val[src[lo]]
            acc = tail + w_nom[lo]
            for _, _, shape in segs[v]:
                _raise_digit(acc, tail + w_dev[lo], shape)
        elif segs[v]:
            block = val[in_src[lo:hi]]
            acc = _max.reduce(block + wt_nom[lo:hi])
            for a, b, shape in segs[v]:
                _raise_digit(acc, _max.reduce(block[a - lo : b - lo] + wt_dev[a:b]), shape)
        elif hi > lo:
            acc = val.take(in_src[lo:hi], axis=0)
            acc += wt_nom[lo:hi]
            acc = _max.reduce(acc)
        else:
            continue
        row = val[v]
        _max(row, acc, out=row)
    return val


def _raise_digit(acc, dev, shape):
    """Max ``dev`` into ``acc`` one budget step up: axis 1 of ``shape`` is the digit."""
    up = acc.reshape(shape)[:, 1:]
    _max(up, dev.reshape(shape)[:, :-1], out=up)


# ---------------------------------------------------------------------------
# bounded dual simplex
# ---------------------------------------------------------------------------
# T is the (m+1) x N tableau of a minimization over variables z with bounds
# lo <= z <= hi and rows T[:m] @ z = 0: row i holds basic variable basis[i]
# with a unit column, row m the reduced costs d.  z holds every value: each
# nonbasic sits at a finite bound, and the basis is dual feasible (d_j >= 0
# at a lower bound, d_j <= 0 at an upper one).  A column with lo == hi never
# enters.  Each pivot takes the basic variable with the largest bound
# violation to its violated bound; the entering column is the smallest
# |d_j| / |T[r, j]| among columns that can move the leaving one toward that
# bound, ties to the largest |T[r, j]|.  Once the count of degenerate
# pivots (ratio <= _DEGEN) passes ``bland_after``, both choices take the
# smallest index instead: the violated basic variable of smallest index, the
# first column among ratio ties.  Returns (status, pivots) with status
# 0=optimal, 1=infeasible (no column can repair the leaving row), 2=pivot
# limit.  The numpy build updates only the columns where the pivot row is
# nonzero: elsewhere the update would subtract zero, so values and pivot
# choices are those of the full rank-one update.  It gathers whole columns,
# so it is fastest on a column-major T, which is how ``milp`` allocates it.
# On the small tableaux of branch and bound (about 70 x 110 at n = 20) a
# pivot costs a few dozen numpy calls more than arithmetic, so the build
# keeps the basic values in one vector, written back to z on exit, and runs
# the ratio test over the indices of the candidate columns only.

_TIE = 1e-12
_DEGEN = 1e-10


def _dual_phase_loop(T, basis, z, lo, hi, bland_after, max_pivots, ftol, ptol):
    m = T.shape[0] - 1
    ncols = T.shape[1]
    enter = lo < hi
    for i in range(m):
        enter[basis[i]] = False
    degen = 0
    pivots = 0
    while True:
        bland = degen > bland_after
        r = -1
        worst = ftol
        for i in range(m):
            q = basis[i]
            v = max(lo[q] - z[q], z[q] - hi[q])
            if v > ftol:
                if bland:
                    if r < 0 or q < basis[r]:
                        r = i
                elif v > worst:
                    worst = v
                    r = i
        if r < 0:
            return 0, pivots
        q = basis[r]
        below = z[q] < lo[q]
        bound = lo[q] if below else hi[q]
        sigma = 1.0 if below else -1.0
        best = np.inf
        for j in range(ncols):
            if enter[j]:
                a = T[r, j]
                s = sigma if z[j] != hi[j] else -sigma
                if s * a < -ptol:
                    ratio = abs(T[m, j]) / abs(a)
                    if ratio < best:
                        best = ratio
        if best == np.inf:
            return 1, pivots
        e = -1
        big = 0.0
        for j in range(ncols):
            if enter[j]:
                a = T[r, j]
                s = sigma if z[j] != hi[j] else -sigma
                if s * a < -ptol and abs(T[m, j]) / abs(a) <= best + _TIE:
                    if bland:
                        e = j
                        break
                    if abs(a) > big:
                        big = abs(a)
                        e = j
        if best <= _DEGEN:
            degen += 1
        piv = T[r, e]
        delta = (z[q] - bound) / piv
        for i in range(m):
            z[basis[i]] -= T[i, e] * delta
        z[e] += delta
        z[q] = bound
        for j in range(ncols):
            T[r, j] /= piv
        T[r, e] = 1.0
        for i in range(m + 1):
            if i != r:
                f = T[i, e]
                if f != 0.0:
                    for j in range(ncols):
                        T[i, j] -= f * T[r, j]
                    T[i, e] = 0.0
        basis[r] = e
        enter[e] = False
        enter[q] = lo[q] < hi[q]
        pivots += 1
        if pivots >= max_pivots:
            return 2, pivots


def _dual_phase_vec(T, basis, z, lo, hi, bland_after, max_pivots, ftol, ptol):
    m = T.shape[0] - 1
    if m == 0:
        return 0, 0
    enter = lo < hi
    enter[basis] = False
    down = np.where(z == hi, -1.0, 1.0)  # the way each nonbasic can move
    lo_b, hi_b = lo[basis], hi[basis]
    zb = z[basis]  # the basic values, written back to z on exit
    d = T[m]
    degen = 0
    pivots = 0
    status = 0
    while True:
        bland = degen > bland_after
        viol = np.maximum(lo_b - zb, zb - hi_b)
        if bland:
            bad = (viol > ftol).nonzero()[0]
            if bad.size == 0:
                break
            r = int(bad[basis[bad].argmin()])
        else:
            r = int(viol.argmax())
            if viol[r] <= ftol:
                break
        q = basis[r]
        below = zb[r] < lo_b[r]
        bound = lo_b[r] if below else hi_b[r]
        row = T[r]
        cand = (enter & ((down * row < -ptol) if below else (down * row > ptol))).nonzero()[0]
        if cand.size == 0:
            status = 1
            break
        ratios = np.abs(d[cand]) / np.abs(row[cand])
        best = ratios.min()
        ties = cand[ratios <= best + _TIE]
        if ties.size == 1 or bland:
            e = int(ties[0])
        else:
            e = int(ties[np.abs(row[ties]).argmax()])
        if best <= _DEGEN:
            degen += 1
        piv = row[e]
        delta = (zb[r] - bound) / piv
        colv = T[:, e].copy()
        zb -= colv[:m] * delta
        zb[r] = z[e] + delta
        z[q] = bound
        # the update zeroes column e exactly (x - x * 1.0), and row r takes prow
        prow = row / piv
        prow[e] = 1.0
        colv[r] = 0.0
        nz = prow.nonzero()[0]
        T[:, nz] -= colv[:, None] * prow[nz]
        T[r] = prow
        basis[r] = e
        lo_b[r], hi_b[r] = lo[e], hi[e]
        enter[e] = False
        enter[q] = lo[q] < hi[q]
        down[q] = -1.0 if bound == hi[q] else 1.0
        pivots += 1
        if pivots >= max_pivots:
            status = 2
            break
    z[basis] = zb
    return status, pivots


# ---------------------------------------------------------------------------
# anchored-set subset makespans (brute force)
# ---------------------------------------------------------------------------
# Jobs are bits 0..n-1 of a mask (bit j-1 <-> job j).  ``topo_rest`` is the
# topological order of all nodes except s.  Original arcs come in the in-CSR
# with weight p[tail]; anchoring arcs (i, j) for every comparable pair come in
# a second in-CSR over jobs j with weight LD[i, j], active when j is in the
# mask.  The tail's bit is never read: the earliest schedule of an anchored
# set satisfies z_j - z_i >= LD(i, j) for every predecessor i of an anchored
# j, since LD(k, j) >= L0(k, i) + LD(i, j), so arcs from unanchored tails
# leave it unchanged.


def _mask_makespans_loop(
    masks, n, n_nodes, topo_rest, in_ptr, in_src, in_wt, an_ptr, an_src, an_wt
):
    out = np.empty(len(masks))
    z = np.empty(n_nodes)
    for q in range(len(masks)):
        mask = masks[q]
        z[0] = 0.0
        for idx in range(len(topo_rest)):
            v = topo_rest[idx]
            best = NEG
            for k in range(in_ptr[v], in_ptr[v + 1]):
                c = z[in_src[k]] + in_wt[k]
                if c > best:
                    best = c
            if v <= n and (mask >> (v - 1)) & 1:
                for k in range(an_ptr[v], an_ptr[v + 1]):
                    c = z[an_src[k]] + an_wt[k]
                    if c > best:
                        best = c
            z[v] = best
        out[q] = z[n_nodes - 1]
    return out


def _mask_makespans_vec(
    masks, n, n_nodes, topo_rest, in_ptr, in_src, in_wt, an_ptr, an_src, an_wt
):
    z = np.full((len(masks), n_nodes), NEG)
    z[:, 0] = 0.0
    for v in topo_rest.tolist():
        lo, hi = in_ptr[v], in_ptr[v + 1]
        acc = np.max(z[:, in_src[lo:hi]] + in_wt[lo:hi], axis=1)
        if v <= n:
            a, b = an_ptr[v], an_ptr[v + 1]
            lag = np.max(z[:, an_src[a:b]] + an_wt[a:b], axis=1)
            acc = np.where((masks >> (v - 1)) & 1, _max(acc, lag), acc)
        z[:, v] = acc
    return z[:, n_nodes - 1]


if USE_NUMBA:
    sweep = jit(_sweep_loop)
    dual_phase = jit(_dual_phase_loop)
    mask_makespans = jit(_mask_makespans_loop)
else:
    sweep = _sweep_vec
    dual_phase = _dual_phase_vec
    mask_makespans = _mask_makespans_vec


def warm_up():
    """Trigger compilation of every kernel on tiny inputs (no-op on numpy)."""
    if not USE_NUMBA:
        return
    topo = np.array([0, 1, 2], dtype=np.int64)
    in_ptr = np.array([0, 0, 1, 2], dtype=np.int64)
    in_src = np.array([0, 1], dtype=np.int64)
    wt = np.array([0.0, 1.0])
    sweep(
        topo, in_ptr, in_src, wt, wt,
        np.array([-1, 0, -1], dtype=np.int64),
        np.array([1], dtype=np.int64),
        np.array([2], dtype=np.int64),
        2, np.array([0, 1], dtype=np.int64),
    )
    T = np.array([[-1.0, 1.0], [-1.0, 0.0]])  # min -x, x in [0, 2], row x <= 1
    dual_phase(
        T, np.array([1], dtype=np.int64), np.array([2.0, 2.0]),
        np.array([0.0, -np.inf]), np.array([2.0, 1.0]), 1000, 10, 1e-7, 1e-9,
    )
    masks = np.array([0, 1], dtype=np.int64)
    mask_makespans(
        masks, 1, 3, topo[1:], in_ptr, in_src, wt,
        np.array([0, 0, 0, 0], dtype=np.int64),
        np.zeros(0, dtype=np.int64), np.zeros(0),
    )
