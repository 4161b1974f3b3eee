"""Hot numeric kernels, in two builds.

Each kernel has a loop implementation (numba-compiled when the numba backend is
active) and a vectorized pure-numpy twin.  ``_backend`` decides which build is
bound to the public name.  Both builds use the same tolerances and tie-breaking
so results are identical across backends; ``tests/test_kernels.py`` runs every
loop build as plain Python against its twin.  The kernels:

* ``sweep`` — one topological pass that fills the longest-path values of a
  block of sources over a block of budget states.  Every path matrix goes
  through it: nominal and box (one state), budgeted ((node, used budget)
  states) and partitioned (mixed-radix budget vectors).
* ``run_phase`` — one phase of the dense tableau simplex.
* ``mask_makespans`` / ``scan_best`` — worst-case makespans of anchored
  subsets given as bitmasks, for the exhaustive optimum.

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
# val[v, i, st] is the longest path from sources[i] to v that ends in budget
# state st.  States are mixed-radix budget vectors: group_of[u] is the budget
# group of tail u (-1: arcs out of u never deviate), digit g of state st is
# (st // stride[g]) % radix[g], the budget of group g spent so far, and
# radix[g] = gamma_g + 1.  An arc (u, v) keeps the state at its nominal weight,
# or, when u has a group whose digit is below its cap, raises that digit by
# one at its deviated weight.  With no groups (empty stride) there is one
# state, and the sweep is a plain longest-path pass from every source.


def _sweep_loop(
    topo, in_ptr, in_src, wt_nom, wt_dev, group_of, stride, radix, n_states, sources
):
    n_nodes = len(topo)
    n_src = len(sources)
    val = np.full((n_nodes, n_src, n_states), NEG)
    for i in range(n_src):
        val[sources[i], i, 0] = 0.0
    for idx in range(n_nodes):
        v = topo[idx]
        for k in range(in_ptr[v], in_ptr[v + 1]):
            u = in_src[k]
            for i in range(n_src):
                for st in range(n_states):
                    c = val[u, i, st] + wt_nom[k]
                    if c > val[v, i, st]:
                        val[v, i, st] = c
            g = group_of[u]
            if g >= 0:
                sg = stride[g]
                rg = radix[g]
                for i in range(n_src):
                    for st in range(n_states):
                        if (st // sg) % rg < rg - 1:
                            c = val[u, i, st] + wt_dev[k]
                            if c > val[v, i, st + sg]:
                                val[v, i, st + sg] = c
    return val


def _sweep_vec(
    topo, in_ptr, in_src, wt_nom, wt_dev, group_of, stride, radix, n_states, sources
):
    n_nodes = len(topo)
    n_src = len(sources)
    val = np.full((n_nodes, n_src, n_states), NEG)
    val[sources, np.arange(n_src), 0] = 0.0
    ptr = in_ptr.tolist()
    if len(stride) == 0 and n_src == 1:
        # one value per node: scalar compares beat row updates here
        dist = val.reshape(n_nodes)
        for v in topo.tolist():
            lo, hi = ptr[v], ptr[v + 1]
            if hi > lo:
                c = _max.reduce(dist[in_src[lo:hi]] + wt_nom[lo:hi])
                if c > dist[v]:
                    dist[v] = c
        return val
    # segs[v] lists the (start, stop, shape) of each group's slice of the arcs
    # into v; digit g is axis 3 of a state block viewed as shape
    # (n_src, outer, radix[g], stride[g]), so the shift raises that axis by one
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
                segs[head[a]].append((a, b, (n_src, n_states // (rg * sg), rg, sg)))
    wt_nom = wt_nom[:, None, None]
    wt_dev = wt_dev[:, None, None, None, None]
    for v in topo.tolist():
        lo, hi = ptr[v], ptr[v + 1]
        if hi == lo:
            continue
        block = val[in_src[lo:hi]]
        acc = _max.reduce(block + wt_nom[lo:hi])
        for a, b, shape in segs[v]:
            part = block[a - lo : b - lo].reshape((b - a,) + shape)[:, :, :, :-1]
            up = acc.reshape(shape)[:, :, 1:]
            _max(up, _max.reduce(part + wt_dev[a:b]), out=up)
        row = val[v]
        _max(row, acc, out=row)
    return val


# ---------------------------------------------------------------------------
# simplex phase
# ---------------------------------------------------------------------------
# T is the (m+1) x (N+1) tableau of a minimization: rows 0..m-1 are basic rows
# with the rhs in the last column, row m is the reduced-cost row.  ``allowed``
# flags columns eligible to enter.  Entering uses Dantzig's rule until the
# cumulative count of degenerate pivots exceeds ``bland_after``, then Bland's
# rule (smallest eligible column index; leaving ties broken by smallest basis
# variable index throughout).  Returns (status, pivots) with status 0=optimal,
# 1=unbounded, 2=pivot limit.  The numpy build updates only the columns where
# the pivot row is nonzero, on a column-major copy of T: elsewhere the update
# would subtract zero, so values and pivot choices are those of the full
# rank-one update, at a fraction of the writes on sparse rows.

_TIE = 1e-12
_DEGEN = 1e-10


def _run_phase_loop(T, basis, allowed, bland_after, max_pivots, ftol, ptol):
    m = T.shape[0] - 1
    ncols = T.shape[1] - 1
    degen = 0
    pivots = 0
    while True:
        e = -1
        if degen > bland_after:
            for j in range(ncols):
                if allowed[j] and T[m, j] < -ptol:
                    e = j
                    break
        else:
            best = -ptol
            for j in range(ncols):
                if allowed[j] and T[m, j] < best:
                    best = T[m, j]
                    e = j
        if e < 0:
            return 0, pivots
        r = -1
        best_ratio = np.inf
        for i in range(m):
            a = T[i, e]
            if a > ptol:
                ratio = T[i, ncols] / a
                if ratio < best_ratio - _TIE:
                    best_ratio = ratio
                    r = i
                elif ratio <= best_ratio + _TIE and r >= 0 and basis[i] < basis[r]:
                    if ratio < best_ratio:
                        best_ratio = ratio
                    r = i
        if r < 0:
            return 1, pivots
        if best_ratio <= _DEGEN:
            degen += 1
        piv = T[r, e]
        for j in range(ncols + 1):
            T[r, j] /= piv
        T[r, e] = 1.0
        for i in range(m + 1):
            if i != r:
                f = T[i, e]
                if f != 0.0:
                    for j in range(ncols + 1):
                        T[i, j] -= f * T[r, j]
                    T[i, e] = 0.0
        basis[r] = e
        pivots += 1
        if pivots >= max_pivots:
            return 2, pivots


def _run_phase_vec(T, basis, allowed, bland_after, max_pivots, ftol, ptol):
    # the update gathers whole columns, so pivot on a column-major copy
    F = np.asfortranarray(T)
    out = _run_phase_cols(F, basis, allowed, bland_after, max_pivots, ptol)
    if F is not T:
        T[...] = F
    return out


def _run_phase_cols(T, basis, allowed, bland_after, max_pivots, ptol):
    m = T.shape[0] - 1
    ncols = T.shape[1] - 1
    degen = 0
    pivots = 0
    if ncols == 0:
        return 0, 0
    ratios = np.empty(m)
    while True:
        cost = T[m, :ncols]
        if degen > bland_after:
            eligible = np.nonzero(allowed & (cost < -ptol))[0]
            if eligible.size == 0:
                return 0, pivots
            e = int(eligible[0])
        else:
            masked = np.where(allowed, cost, 0.0)
            e = int(np.argmin(masked))
            if masked[e] >= -ptol:
                return 0, pivots
        col = T[:m, e]
        ratios.fill(np.inf)
        np.divide(T[:m, ncols], col, out=ratios, where=col > ptol)
        best_ratio = ratios.min(initial=np.inf)
        if best_ratio == np.inf:
            return 1, pivots
        ties = np.flatnonzero(ratios <= best_ratio + _TIE)
        r = int(ties[0]) if ties.size == 1 else int(ties[np.argmin(basis[ties])])
        if best_ratio <= _DEGEN:
            degen += 1
        prow = T[r] / T[r, e]
        prow[e] = 1.0
        colv = T[:, e].copy()
        colv[r] = 0.0
        nz = np.flatnonzero(prow)
        T[:, nz] -= colv[:, None] * prow[nz]
        T[r] = prow
        T[:, e] = 0.0
        T[r, e] = 1.0
        basis[r] = e
        pivots += 1
        if pivots >= max_pivots:
            return 2, pivots


# ---------------------------------------------------------------------------
# anchored-set subset scan (brute force)
# ---------------------------------------------------------------------------
# Jobs are bits 0..n-1 of a mask (bit j-1 <-> job j).  ``topo_rest`` is the
# topological order of all nodes except s.  Original arcs come in the in-CSR
# with weight p[tail]; candidate anchoring arcs (i, j) for comparable pairs
# come in a second in-CSR over jobs j with weight LD[i, j], active when j is in
# the mask and i is s or in the mask.


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
                    u = an_src[k]
                    if u == 0 or (mask >> (u - 1)) & 1:
                        c = z[u] + an_wt[k]
                        if c > best:
                            best = c
            z[v] = best
        out[q] = z[n_nodes - 1]
    return out


def _mask_makespans_vec(
    masks, n, n_nodes, topo_rest, in_ptr, in_src, in_wt, an_ptr, an_src, an_wt
):
    nb = len(masks)
    bits = ((masks[:, None] >> np.arange(n, dtype=np.int64)) & 1).astype(bool)
    z = np.full((nb, n_nodes), NEG)
    z[:, 0] = 0.0
    for v in topo_rest:
        lo, hi = in_ptr[v], in_ptr[v + 1]
        acc = np.max(z[:, in_src[lo:hi]] + in_wt[lo:hi], axis=1)
        if v <= n:
            jon = bits[:, v - 1]
            for k in range(an_ptr[v], an_ptr[v + 1]):
                u = an_src[k]
                active = jon if u == 0 else (jon & bits[:, u - 1])
                cand = np.where(active, z[:, u] + an_wt[k], NEG)
                np.maximum(acc, cand, out=acc)
        z[:, v] = acc
    return z[:, n_nodes - 1]


def _scan_best_loop(
    masks, wsub, n, n_nodes, topo_rest, in_ptr, in_src, in_wt, an_ptr, an_src, an_wt,
    limit, eps,
):
    best = NEG
    z = np.empty(n_nodes)
    for q in range(len(masks)):
        mask = masks[q]
        w = wsub[mask]
        if w <= best + 1e-12:
            continue
        z[0] = 0.0
        for idx in range(len(topo_rest)):
            v = topo_rest[idx]
            bestv = NEG
            for k in range(in_ptr[v], in_ptr[v + 1]):
                c = z[in_src[k]] + in_wt[k]
                if c > bestv:
                    bestv = c
            if v <= n and (mask >> (v - 1)) & 1:
                for k in range(an_ptr[v], an_ptr[v + 1]):
                    u = an_src[k]
                    if u == 0 or (mask >> (u - 1)) & 1:
                        c = z[u] + an_wt[k]
                        if c > bestv:
                            bestv = c
            z[v] = bestv
        if z[n_nodes - 1] <= limit + eps:
            best = w
    return best


if USE_NUMBA:
    sweep = jit(_sweep_loop)
    run_phase = jit(_run_phase_loop)
    mask_makespans = jit(_mask_makespans_loop)
    scan_best = jit(_scan_best_loop)
else:
    sweep = _sweep_vec
    run_phase = _run_phase_vec
    mask_makespans = _mask_makespans_vec
    scan_best = None  # brute force derives the best from mask_makespans blocks


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
    T = np.array([[1.0, 1.0, 1.0], [-1.0, 0.0, 0.0]])
    run_phase(T, np.array([1], dtype=np.int64), np.array([True, True]), 1000, 10, 1e-7, 1e-9)
    masks = np.array([0, 1], dtype=np.int64)
    mask_makespans(
        masks, 1, 3, topo[1:], in_ptr, in_src, wt,
        np.array([0, 0, 0, 0], dtype=np.int64),
        np.zeros(0, dtype=np.int64), np.zeros(0),
    )
    scan_best(
        masks, np.array([0.0, 1.0]), 1, 3, topo[1:], in_ptr, in_src, wt,
        np.array([0, 0, 0, 0], dtype=np.int64),
        np.zeros(0, dtype=np.int64), np.zeros(0),
        10.0, 1e-6,
    )
