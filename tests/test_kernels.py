"""Loop and vectorized kernel builds agree.

The ``_*_loop`` kernels are what numba compiles; called as plain Python they
are the reference for their numpy twins, with or without numba installed.
"""

import numpy as np

import anchorsched as asd
from anchorsched import _kernels
from anchorsched.anchored import _mask_arrays, _subset_weights
from anchorsched.graph import EPS
from anchorsched.uncertainty import _state_layout

from .oracles import random_dag


def _random_tableau(rng, m, k, degenerate):
    """Feasible phase tableau: k structural columns, then an identity basis."""
    N = k + m
    T = np.zeros((m + 1, N + 1))
    A = rng.integers(-2, 5, (m, k)).astype(float)
    A[rng.random((m, k)) < 0.4] = 0.0
    T[:m, :k] = A
    T[:m, k:N] = np.eye(m)
    rhs = rng.integers(0, 6, m).astype(float)
    if degenerate:
        rhs[rng.random(m) < 0.6] = 0.0
    T[:m, N] = rhs
    T[m, :k] = rng.integers(-5, 4, k)
    basis = np.arange(k, N, dtype=np.int64)
    allowed = rng.random(N) < 0.9
    return T, basis, allowed


def test_run_phase_vec_matches_loop():
    rng = np.random.default_rng(7)
    statuses = set()
    for trial in range(300):
        m = int(rng.integers(0, 12))  # m = 0: no rows, only the cost row
        k = int(rng.integers(1, 14))
        T, basis, allowed = _random_tableau(rng, m, k, degenerate=trial % 2 == 0)
        bland_after = int(rng.choice([-1, 0, 1, 1000]))  # -1: Bland from the start
        max_pivots = int(rng.choice([2, 200]))
        T_loop, b_loop = T.copy(), basis.copy()
        T_vec, b_vec = T.copy(), basis.copy()
        want = _kernels._run_phase_loop(
            T_loop, b_loop, allowed, bland_after, max_pivots, 1e-7, 1e-9
        )
        got = _kernels._run_phase_vec(
            T_vec, b_vec, allowed, bland_after, max_pivots, 1e-7, 1e-9
        )
        assert got == want, trial
        assert np.array_equal(b_vec, b_loop), trial
        assert np.array_equal(T_vec, T_loop), trial
        statuses.add(want[0])
    assert statuses == {0, 1, 2}  # optimal, unbounded and pivot-limit runs


def _random_layout(rng, g, kind):
    """One state, one group of every node (Γ+1 states), or mixed radix."""
    m = g.n + 2
    if kind == 0:
        none = np.zeros(0, dtype=np.int64)
        return np.full(m, -1, dtype=np.int64), none, none, 1
    if kind == 1:
        return _state_layout(g, [int(rng.integers(1, m))])
    k = int(rng.integers(2, 4))
    group_of = rng.integers(-1, k, m)  # -1: the node never deviates
    parts = [np.flatnonzero(group_of == gk) for gk in range(k)]
    return _state_layout(g, rng.integers(1, 4, k), parts)


def test_sweep_vec_matches_loop():
    rng = np.random.default_rng(11)
    seen = set()
    for trial in range(240):
        n = int(rng.integers(1, 9))
        m = n + 2
        g = asd.PrecedenceGraph(n, random_dag(rng, n), rng.uniform(0.0, 5.0, n))
        ptr, src = g._incoming_csr()
        topo = np.asarray(asd.topological_order(g), dtype=np.int64)
        w_dev = g.p + rng.uniform(0.0, 3.0, m) * (rng.random(m) < 0.7)
        kind = trial % 3
        layout = _random_layout(rng, g, kind)
        if trial % 2:
            sources = [int(rng.integers(0, m))]
        else:  # a chunk of sources, in any order
            sources = rng.permutation(m)[: int(rng.integers(2, m + 1))]
        args = (topo, ptr, src, g.p[src], w_dev[src], *layout,
                np.asarray(sources, dtype=np.int64))
        want = _kernels._sweep_loop(*args)
        got = _kernels._sweep_vec(*args)
        assert got.shape == (m, len(sources), layout[3]), trial
        assert np.array_equal(got, want), trial
        seen.add((kind, len(sources) == 1))
    assert len(seen) == 6  # every layout, with one source and with a chunk


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


def test_scan_best_loop_matches_mask_makespans():
    rng = np.random.default_rng(4)
    outcomes = set()
    for trial in range(60):
        n = int(rng.integers(1, 8))
        inst = _random_instance(rng, n)
        arrays = _mask_arrays(inst, asd.worst_case_longest_paths(inst.graph, inst.delta))
        masks = np.arange(1 << n, dtype=np.int64)
        wsub = _subset_weights(n, inst.weights)
        pop = _subset_weights(n, np.ones(n))
        ordered = masks[np.lexsort((masks, -pop))]  # the brute-force scan order
        got = _kernels._scan_best_loop(
            ordered, wsub, n, n + 2, *arrays, inst.deadline, EPS
        )
        mk = _kernels._mask_makespans_vec(masks, n, n + 2, *arrays)
        feasible = mk <= inst.deadline + EPS
        want = wsub[feasible].max() if feasible.any() else -np.inf
        assert got == want, trial
        outcomes.add("none" if not feasible.any() else "all" if feasible.all() else "some")
    assert outcomes == {"none", "some", "all"}
