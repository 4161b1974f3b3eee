"""Loop and vectorized kernel builds agree.

The ``_*_loop`` kernels are what numba compiles; called as plain Python they
are the reference for their numpy twins, with or without numba installed.
"""

import numpy as np

import anchorsched as asd
from anchorsched import _kernels
from anchorsched.anchored import _mask_arrays
from anchorsched.instances import gen_sp

from .oracles import random_dag, sweep_layout


def _random_boxed_tableau(rng, m, k, degenerate):
    """Dual-feasible start of ``A x - s = 0``: k boxed structurals, m logicals.

    Structurals have bounds of either sign, some fixed (lb = ub); each row's
    logical gets the bounds of a random sense.  Rows hold at an integer point
    of the box, except in a fifth of the draws, which may be infeasible.
    Degenerate draws zero many costs, so ratios of zero (degenerate pivots)
    are common.
    """
    A = rng.integers(-3, 4, (m, k)).astype(float)
    A[rng.random((m, k)) < 0.4] = 0.0
    lo = rng.integers(-3, 2, k).astype(float)
    hi = lo + rng.integers(0, 4, k) * (rng.random(k) < 0.85)
    cost = rng.integers(-4, 5, k).astype(float)
    if degenerate:
        cost[rng.random(k) < 0.6] = 0.0
    x = np.where(cost >= 0, lo, hi)
    sense = rng.integers(0, 3, m)  # 0: <=, 1: >=, 2: =
    inside = lo + rng.integers(0, (hi - lo + 1).astype(int))  # the rows hold here
    slack = rng.integers(0, 3, m)
    rhs = A @ inside + np.where(sense == 0, slack, np.where(sense == 1, -slack, 0))
    if rng.random() < 0.2:
        rhs += rng.integers(-6, 7, m)
    T = np.zeros((m + 1, k + m))
    T[:m, :k] = -A
    T[:m, k:] = np.eye(m)
    T[m, :k] = cost
    z = np.concatenate([x, A @ x])
    lo = np.concatenate([lo, np.where(sense == 0, -np.inf, rhs)])
    hi = np.concatenate([hi, np.where(sense == 1, np.inf, rhs)])
    return T, np.arange(k, k + m, dtype=np.int64), z, lo, hi


def test_dual_phase_vec_matches_loop():
    rng = np.random.default_rng(7)
    statuses = set()
    for trial in range(400):
        m = int(rng.integers(0, 12))  # m = 0: no rows, only the cost row
        k = int(rng.integers(1, 14))
        T, basis, z, lo, hi = _random_boxed_tableau(rng, m, k, trial % 2 == 0)
        bland_after = int(rng.choice([-1, 0, 1, 1000]))  # -1: Bland from the start
        max_pivots = int(rng.choice([2, 200]))
        loop = T.copy(), basis.copy(), z.copy()
        vec = T.copy(), basis.copy(), z.copy()
        want = _kernels._dual_phase_loop(
            *loop, lo, hi, bland_after, max_pivots, 1e-7, 1e-9
        )
        got = _kernels._dual_phase_vec(
            *vec, lo, hi, bland_after, max_pivots, 1e-7, 1e-9
        )
        assert got == want, trial
        for a, b in zip(vec, loop):
            assert np.array_equal(a, b), trial
        statuses.add(want[0])
    assert statuses == {0, 1, 2}  # optimal, infeasible and pivot-limit runs


def _random_layout(rng, g, kind):
    """One state, one group of every node (Γ+1 states), or mixed radix.

    Built directly, not through ``uncertainty._state_layout``, whose height
    caps would keep the radices small on these graphs.
    """
    m = g.n + 2
    if kind == 0:
        none = np.zeros(0, dtype=np.int64)
        return np.full(m, -1, dtype=np.int64), none, none, 1
    if kind == 1:
        return sweep_layout(np.zeros(m), [int(rng.integers(1, m)) + 1])
    k = int(rng.integers(2, 4))
    group_of = rng.integers(-1, k, m)  # -1: the node never deviates
    return sweep_layout(group_of, rng.integers(1, 4, k) + 1)


def _sweep_branches(ptr, src, group_of, stride, n_src):
    """The branches of ``_sweep_vec`` that a sweep takes."""
    if len(stride) == 0 and n_src == 1:
        return {"one-source"}
    arcs = np.diff(ptr)
    out = {"one-arc"} if (arcs == 1).any() else set()
    for v in np.flatnonzero(arcs > 1):
        grouped = len(stride) and (group_of[src[ptr[v] : ptr[v + 1]]] >= 0).any()
        out.add("grouped" if grouped else "take")
    return out


def test_sweep_vec_matches_loop():
    rng = np.random.default_rng(11)
    seen, branches = set(), set()
    for trial in range(480):
        n = int(rng.integers(1, 9))
        m = n + 2
        if trial % 8 < 4:
            g = asd.PrecedenceGraph(n, random_dag(rng, n), np.zeros(n))
        else:  # series-parallel: most nodes have one incoming arc
            g = gen_sp(n, trial)
        if trial % 2:  # the reversed graph, as ``path_sweep(reverse=True)`` runs it
            (ptr, src), topo = g._reverse_csr(), g._topo[::-1]
            tails = g._rev_heads
        else:
            (ptr, src), topo = g._incoming_csr(), g._topo
            tails = src
        w_nom = rng.uniform(0.0, 5.0, m)
        w_dev = w_nom + rng.uniform(0.0, 3.0, m) * (rng.random(m) < 0.7)
        kind = trial % 3
        layout = _random_layout(rng, g, kind)
        if trial % 4 < 2:
            sources = [int(rng.integers(0, m))]
        else:  # a chunk of sources, in any order
            sources = rng.permutation(m)[: int(rng.integers(2, m + 1))]
        args = (np.asarray(topo, dtype=np.int64), ptr, src, w_nom[tails], w_dev[tails],
                *layout, np.asarray(sources, dtype=np.int64))
        want = _kernels._sweep_loop(*args)
        got = _kernels._sweep_vec(*args)
        assert got.shape == (m, layout[3], len(sources)), trial
        assert np.array_equal(got, want), trial
        seen.add((kind, len(sources) == 1))
        branches |= _sweep_branches(ptr, src, layout[0], layout[1], len(sources))
    assert len(seen) == 6  # every layout, with one source and with a chunk
    assert branches == {"one-source", "one-arc", "take", "grouped"}


def _random_instance(rng, n):
    g = asd.PrecedenceGraph(n, random_dag(rng, n), rng.integers(0, 5, n).astype(float))
    dhat = rng.integers(0, 4, n).astype(float)
    delta = asd.Budgeted(dhat, int(rng.integers(1, n + 1))) if n > 1 else asd.Box(dhat)
    nominal = asd.single_source_longest(g, 0, g.p)[g.t]
    return asd.Instance(
        graph=g, delta=delta, deadline=float(nominal + rng.integers(-1, 5)),
        weights=rng.integers(1, 4, n).astype(float), meta={},
    )


def test_mask_makespans_vec_matches_loop():
    rng = np.random.default_rng(3)
    for trial in range(60):
        n = int(rng.integers(1, 8))
        inst = _random_instance(rng, n)
        arrays = _mask_arrays(inst, asd.worst_case_longest_paths(inst.graph, inst.delta))
        masks = rng.permutation(1 << n).astype(np.int64)
        want = _kernels._mask_makespans_loop(masks, n, n + 2, *arrays)
        got = _kernels._mask_makespans_vec(masks, n, n + 2, *arrays)
        assert np.array_equal(got, want), trial
