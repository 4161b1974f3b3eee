"""The three workloads: their items, the calls the worker runs, and the checks.

An *item* is one call the closed loop sends to the worker: one
(instance, method) solve, or one path matrix on ``ld_n240``.  Each workload
builds its items in ``plan``, checks the answers in ``check`` (outside the
timed phase), and turns traced items into per-layer numbers in ``layers``.

Worker-side functions (``solve_auto_item``, ``bench_item``, ``ld_item`` and
the ``probe_*`` calls of the traced run) are looked up by name in the worker
process and return plain data.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

import anchorsched as asd
from anchorsched.cli import bench_task
from anchorsched.graph import EPS
from anchorsched.instances import (
    DEVIATION_CLASSES,
    GRAPH_FAMILIES,
    PROCESSING_CLASSES,
    UNCERTAINTY_FIELDS,
    build_uncertainty,
    instance_to_dict,
)

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Item:
    key: str  # printed when the item fails: class, instance seed, method
    target: str  # "module:function" run by the worker
    kwargs: dict
    cap: float  # watchdog seconds; a failed or capped item counts at this value
    probe: tuple | None = None  # (target, kwargs) run after the item when traced
    meta: dict = field(default_factory=dict)


@dataclass
class Plan:
    items: list[Item]
    warm: list[Item]
    gen_s: float
    io_s: float
    ctx: dict = field(default_factory=dict)


def _timed(spans: list, name: str, fn, *args, **kwargs):
    """Call ``fn`` and record a (name, start, end) span around it."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    spans.append((name, t0, time.perf_counter()))
    return out


def _bnb_fields(res) -> dict:
    return {"milp.bnb_s": res.runtime, "milp.nodes": res.nodes,
            "milp.pivots": res.iterations}


def content_hash(inst) -> str:
    """Key for cached reference answers: a digest of the instance's JSON form."""
    text = json.dumps(instance_to_dict(inst), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def dp_states(delta, n: int) -> int:
    """Cells of the all-sources longest-path DP: sources x nodes x budget states.

    One state for sets swept as plain longest paths (box, nominal), Γ + 1 for
    a budgeted set, the product of (Γk + 1) over the groups of a partition,
    and the sum over the components of a mixed set.
    """
    if isinstance(delta, asd.Budgeted):
        states = delta.gamma + 1
    elif isinstance(delta, asd.PartitionBudgeted):
        states = int(np.prod([gk + 1 for gk in delta.gammas]))
    elif isinstance(delta, asd.MixedBudgeted):
        states = sum(c.gamma + 1 for c in delta.components)
    elif isinstance(delta, asd.Scenarios):
        states = len(delta.deltas)
    else:
        states = 1
    return (n + 1) * (n + 2) * states


def _schedule_problem(inst, ld, anchored, start, objective) -> str | None:
    """Why a returned solution is wrong, or None when it checks out."""
    g = inst.graph
    if start[g.t] > inst.deadline + EPS:
        return f"makespan {start[g.t]:g} exceeds deadline {inst.deadline:g}"
    if not asd.is_schedule(g, start):
        return "start times violate a precedence arc"
    if not asd.is_x_anchored(g, ld, start, anchored):
        return "schedule does not anchor the reported set"
    if abs(inst.weight_of(anchored) - objective) > 1e-6:
        return f"objective {objective:g} is not the anchored weight"
    return None


# ---------------------------------------------------------------------------
# auto_n20: solve_auto on the 60 paper classes at n = 20
# ---------------------------------------------------------------------------

AUTO_CLASSES = tuple(
    f"{f}_{p}_{d}_{u}"
    for f in GRAPH_FAMILIES
    for p in PROCESSING_CLASSES
    for d in DEVIATION_CLASSES
    for u in UNCERTAINTY_FIELDS
)
AUTO_N = 20
# Instance seed 0 of every class.  It holds the two known simplex stalls
# (ER_pZero_dRand_G3, ER_pQCri_dRand_G3).  The pass is fixed so that runs
# differ only in order: across instance seeds 0-3 the 60 solves differ by up
# to 25% in total time, which no usable bound on throughput could absorb.
AUTO_INSTANCE_SEED = 0
AUTO_TIME_LIMIT = 4.0
AUTO_CAP = 5.0
AUTO_REFS = os.path.join(HERE, "refs_auto_n20.json")


def solve_auto_item(inst, time_limit):
    rep = asd.solve_auto(inst, asd.SolveParams(time_limit=time_limit))
    sol = rep.solution
    return {
        "status": rep.status,
        "method": rep.method,
        "objective": rep.objective,
        "runtime": rep.runtime,
        "anchored": sorted(sol.anchored) if sol else None,
        "start": sol.schedule.start.tolist() if sol else None,
    }


def probe_auto(inst, route, time_limit, bnb):
    """Layer calls of one auto_n20 item, each timed on its own."""
    spans: list = []
    out: dict = {}
    g = inst.graph
    l0 = _timed(spans, "graph.all_pairs_longest", asd.all_pairs_longest, g, g.p)
    ld = _timed(spans, "uncertainty.worst_case_longest_paths",
                asd.worst_case_longest_paths, g, inst.delta)
    work = _timed(spans, "exact.preprocess_deadline", asd.preprocess_deadline, inst)
    if route == "dom":
        model = _timed(spans, "formulations.build", asd.build_dom, work, l0, ld)
        out["formulations.rows"] = len(model.rows)
        out["formulations.vars"] = model.n_vars
        out["milp.root_pivots"] = _timed(spans, "milp.solve_lp", asd.solve_lp,
                                         model).iterations
        if bnb:
            res, _ = _timed(spans, "formulations.solve_formulation",
                            asd.solve_formulation, work, "dom",
                            asd.SolveParams(time_limit=time_limit))
            out.update(_bnb_fields(res))
    out["spans"] = spans
    return out


def reference(inst) -> dict:
    """The cached record of one instance's brute-force optimum."""
    return {"label": inst.meta.get("label"), "seed": inst.meta.get("seed"),
            "optimum": asd.brute_force_optimum(inst).objective}


def _load_refs(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


class AutoN20:
    name = "auto_n20"

    def plan(self, seed: int, workdir: str) -> Plan:
        t0 = time.perf_counter()
        insts = [asd.make_instance(c, AUTO_N, AUTO_INSTANCE_SEED) for c in AUTO_CLASSES]
        gen_s = time.perf_counter() - t0
        order = np.random.default_rng(seed).permutation(len(insts))
        items = []
        for k in order:
            inst = insts[k]
            items.append(Item(
                key=f"{AUTO_CLASSES[k]} seed={AUTO_INSTANCE_SEED} method=auto",
                target="workloads:solve_auto_item",
                kwargs={"inst": inst, "time_limit": AUTO_TIME_LIMIT},
                cap=AUTO_CAP,
                probe=("workloads:probe_auto",
                       {"inst": inst, "time_limit": AUTO_TIME_LIMIT}),
                meta={"inst": inst},
            ))
        warm = [
            Item(f"warm {lab}", "workloads:solve_auto_item",
                 {"inst": asd.make_instance(lab, 8, 0), "time_limit": AUTO_TIME_LIMIT},
                 AUTO_CAP)
            for lab in ("ER_pRand_dRand_G1", "ER_pZero_dUnif_G1", "SP_pQCri_dUnif_G1")
        ]
        return Plan(items, warm, gen_s, 0.0)

    def probe_kwargs(self, rec) -> dict:
        route = rec.value["method"] if rec.ok else "dom"
        return {"route": route, "bnb": rec.ok}

    def check(self, plan: Plan, records, cache_path: str, timers: dict) -> list[str]:
        refs = _load_refs(AUTO_REFS)
        extra = _load_refs(cache_path)
        lds: dict[int, object] = {}
        problems = []
        for rec in records:
            if not rec.ok:
                continue
            inst = rec.item.meta["inst"]
            v = rec.value
            if v["start"] is None:
                if v["status"] == "Optimal":
                    rec.fail("Optimal without a solution", problems)
                continue
            if id(inst) not in lds:
                t0 = time.perf_counter()
                lds[id(inst)] = asd.worst_case_longest_paths(inst.graph, inst.delta)
                timers["anchored.verify_s"] += time.perf_counter() - t0
            t0 = time.perf_counter()
            why = _schedule_problem(inst, lds[id(inst)], v["anchored"],
                                    np.asarray(v["start"]), v["objective"])
            timers["anchored.verify_s"] += time.perf_counter() - t0
            if why:
                rec.fail(why, problems)
                continue
            if v["status"] != "Optimal":
                continue
            h = content_hash(inst)
            if h not in refs and h not in extra:
                t0 = time.perf_counter()
                extra[h] = reference(inst)
                timers["anchored.brute_s"] += time.perf_counter() - t0
            ref = (refs.get(h) or extra[h])["optimum"]
            if abs(v["objective"] - ref) > 1e-6:
                rec.fail(f"objective {v['objective']:g} != brute-force optimum {ref:g}",
                         problems)
                continue
            rec.solved = True
        if extra:
            os.makedirs(os.path.dirname(cache_path), exist_ok=True)
            with open(cache_path, "w") as fh:
                json.dump(extra, fh, indent=1, sort_keys=True)
        return problems

    def item_span(self, rec) -> str:
        return "exact.solve_auto"

    def record_layers(self, rec) -> dict:
        out = {"uncertainty.dp_states": dp_states(rec.item.meta["inst"].delta, AUTO_N)}
        if rec.ok:
            route = rec.value["method"]
            for r in ("box", "u_lp", "critical_reduction", "dom"):
                out[f"exact.route.{r}"] = int(route == r)
            if route == "dom":
                # wall time the report's runtime leaves out: LD, preprocessing, build
                out["exact.outside_mip_s"] = rec.seconds - rec.value["runtime"]
        return out


# ---------------------------------------------------------------------------
# methods_small: cli.bench_task with std, dom, dom+cuts and lay
# ---------------------------------------------------------------------------

METHODS_KINDS = ("box", "budgeted", "one_disruption", "partition", "mixed", "scenarios")
# A fixed stream, for the same reason as auto_n20: the cost of a lay solve
# grows steeply with Γ, so streams of a few dozen instances differ widely.
METHODS_STREAM_SEED = 2002
METHODS_COUNT = 36
METHODS_TIME_LIMIT = 4.0
METHODS_CAP = 8.0


def _random_dag(rng, n: int, density: float = 0.4) -> list:
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


def _random_delta(rng, n: int, kind: str):
    def gam(hi):
        return int(rng.integers(1, max(hi, 1) + 1))

    dhat = tuple(rng.integers(0, 4, n).astype(float))
    if kind == "box":
        return asd.Box(dhat)
    if kind == "budgeted":
        return asd.Budgeted(dhat, gam(n))
    if kind == "one_disruption":
        return asd.OneDisruption(float(rng.integers(1, 4)))
    if kind == "partition":
        cut = int(rng.integers(1, n))
        parts = (tuple(range(1, cut + 1)), tuple(range(cut + 1, n + 1)))
        return asd.PartitionBudgeted(dhat, parts, tuple(gam(len(p)) for p in parts))
    if kind == "mixed":
        return asd.MixedBudgeted(tuple(
            asd.Budgeted(tuple(rng.integers(0, 4, n).astype(float)), gam(n))
            for _ in range(2)))
    return asd.Scenarios(tuple(
        tuple(rng.integers(0, 4, n).astype(float))
        for _ in range(int(rng.integers(1, 4)))))


def random_instance(rng, n: int, kind: str, index: int):
    """Random DAG instance of the criterion-2 kind: n jobs, integer data."""
    g = asd.PrecedenceGraph(n, _random_dag(rng, n), rng.integers(1, 5, n).astype(float))
    delta = _random_delta(rng, n, kind)
    base = asd.single_source_longest(g, 0, g.p)[g.t]
    worst = float(asd.worst_case_longest_paths(g, delta).values[0, g.t])
    return asd.Instance(
        graph=g, delta=delta,
        deadline=float(base + rng.uniform(0.0, worst - base + 2.0)),
        weights=rng.integers(1, 6, n).astype(float),
        meta={"label": f"random_{kind}", "seed": index, "prng": "numpy-pcg64"},
    )


def bench_item(path, method, time_limit):
    which, cuts = ("dom", True) if method == "dom_cuts" else (method, False)
    rec = bench_task(path, which, time_limit, cuts=cuts)
    return {"status": rec.status, "solved": rec.solved, "objective": rec.objective,
            "runtime": rec.runtime}


def probe_method(path, method, time_limit, bnb):
    """Layer calls behind one bench_task item, each timed on its own."""
    spans: list = []
    out: dict = {}
    inst = asd.read_instance(path)
    work = _timed(spans, "exact.preprocess_deadline", asd.preprocess_deadline, inst)
    g = work.graph
    l0 = _timed(spans, "graph.all_pairs_longest", asd.all_pairs_longest, g, g.p)
    ld = _timed(spans, "uncertainty.worst_case_longest_paths",
                asd.worst_case_longest_paths, g, work.delta)
    params = asd.SolveParams(time_limit=time_limit)
    if method == "dom_cuts":
        if bnb:
            res, _, stats = _timed(spans, "formulations.solve_dom_cuts",
                                   asd.solve_dom_cuts, work, params)
            out.update(_bnb_fields(res))
            out["formulations.root_cuts"] = stats.root_cuts
            out["formulations.root_rounds"] = stats.root_rounds
        which = "dom"
    else:
        which = method
        builders = {"std": (asd.build_std, ld), "dom": (asd.build_dom, l0, ld),
                    "lay": (asd.build_lay,)}
        fn, *matrices = builders[method]
        model = _timed(spans, "formulations.build", fn, work, *matrices)
        out["formulations.rows"] = len(model.rows)
        out["formulations.vars"] = model.n_vars
        out["milp.root_pivots"] = _timed(spans, "milp.solve_lp", asd.solve_lp,
                                         model).iterations
        if bnb:
            res, _ = _timed(spans, "formulations.solve_formulation",
                            asd.solve_formulation, work, method, params)
            out.update(_bnb_fields(res))
    if bnb:
        _timed(spans, "formulations.lp_bound", asd.lp_bound, work, which)
    out["spans"] = spans
    return out


class MethodsSmall:
    name = "methods_small"
    methods = ("std", "dom", "dom_cuts", "lay")

    def plan(self, seed: int, workdir: str) -> Plan:
        rng = np.random.default_rng(METHODS_STREAM_SEED)
        t0 = time.perf_counter()
        insts = []
        for k in range(METHODS_COUNT):
            kind = METHODS_KINDS[k % len(METHODS_KINDS)]
            insts.append((kind, random_instance(rng, int(rng.integers(6, 13)), kind, k)))
        gen_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        os.makedirs(workdir, exist_ok=True)
        paths = []
        for k, (kind, inst) in enumerate(insts):
            path = os.path.join(workdir, f"{k:03d}_{kind}_n{inst.n}.json")
            asd.write_instance(inst, path)
            paths.append(path)
        io_s = time.perf_counter() - t0
        items = []
        for k, (kind, inst) in enumerate(insts):
            methods = self.methods if isinstance(inst.delta, asd.Budgeted) else self.methods[:3]
            for m in methods:
                kw = {"path": paths[k], "method": m, "time_limit": METHODS_TIME_LIMIT}
                items.append(Item(
                    key=f"{kind} #{k} n={inst.n} method={m}",
                    target="workloads:bench_item", kwargs=kw, cap=METHODS_CAP,
                    probe=("workloads:probe_method", dict(kw)),
                    meta={"inst": inst, "method": m},
                ))
        order = np.random.default_rng(seed).permutation(len(items))
        items = [items[i] for i in order]
        warm = [Item(f"warm {m}", "workloads:bench_item",
                     {"path": paths[0], "method": m, "time_limit": METHODS_TIME_LIMIT},
                     METHODS_CAP) for m in self.methods[:3]]
        return Plan(items, warm, gen_s, io_s)

    def probe_kwargs(self, rec) -> dict:
        return {"bnb": rec.ok}

    def check(self, plan: Plan, records, cache_path: str, timers: dict) -> list[str]:
        refs: dict[int, float] = {}
        problems = []
        for rec in records:
            if not rec.ok:
                continue
            v = rec.value
            if v["status"] not in ("Optimal", "TimeLimit"):
                rec.fail(f"bench_task status {v['status']}", problems, wrong=False)
                continue
            if not v["solved"]:
                continue
            inst = rec.item.meta["inst"]
            if id(inst) not in refs:
                t0 = time.perf_counter()
                refs[id(inst)] = asd.brute_force_optimum(inst).objective
                timers["anchored.brute_s"] += time.perf_counter() - t0
            ref = refs[id(inst)]
            if abs(v["objective"] - ref) > 1e-6:
                rec.fail(f"objective {v['objective']:g} != brute-force optimum {ref:g}",
                         problems)
                continue
            rec.solved = True
        return problems

    def item_span(self, rec) -> str:
        return "cli.bench_task"

    def record_layers(self, rec) -> dict:
        inst = rec.item.meta["inst"]
        out = {"uncertainty.dp_states": dp_states(inst.delta, inst.n)}
        if rec.ok:
            out["cli.bench_task_s"] = rec.seconds
        return out


# ---------------------------------------------------------------------------
# ld_n240: worst-case and nominal path matrices at n = 240
# ---------------------------------------------------------------------------

LD_N = 240
# The inputs of benchmarks/bench_kernels.py plus the nominal matrix.  G1, G3
# and Mixed run the same budgeted DP as G2 and would double the pass.
LD_SETS = ("L0", "Box", "G2", "Partition")
LD_CAP = 30.0
TOL = 1e-9


def ld_item(graph, delta):
    if delta is None:
        m = asd.all_pairs_longest(graph, graph.p)
    else:
        m = asd.worst_case_longest_paths(graph, delta)
    return {"values": m.values}


def _ld_sets(dhat, seed: int) -> dict:
    d = tuple(dhat)
    return {
        "L0": None,
        "Box": asd.Box(d),
        "G2": asd.Budgeted(d, 2),
        "Partition": build_uncertainty("Partition", dhat, seed),
    }


class LdN240:
    name = "ld_n240"

    def plan(self, seed: int, workdir: str) -> Plan:
        """ER and SP graphs of class *_pRand_dRand at instance seed ``seed``.

        At seed 0 the ER items include the three kernel inputs of
        ``benchmarks/bench_kernels.py`` (box, budgeted G2, partition).
        """
        t0 = time.perf_counter()
        graphs = {}
        for fam in GRAPH_FAMILIES:
            inst = asd.make_instance(f"{fam}_pRand_dRand_G2", LD_N, seed)
            dhat = np.asarray(inst.delta.dhat)
            graphs[fam] = (inst.graph, dhat, _ld_sets(dhat, seed))
        gen_s = time.perf_counter() - t0
        items = [
            Item(key=f"{fam}_pRand_dRand n={LD_N} seed={seed} set={name}",
                 target="workloads:ld_item",
                 kwargs={"graph": g, "delta": sets[name]}, cap=LD_CAP,
                 meta={"fam": fam, "set": name})
            for fam, (g, _, sets) in graphs.items()
            for name in LD_SETS
        ]
        small = asd.make_instance("ER_pRand_dRand_G2", 30, 0)
        sets = _ld_sets(np.asarray(small.delta.dhat), 0)
        warm = [Item(f"warm {name}", "workloads:ld_item",
                     {"graph": small.graph, "delta": sets[name]}, LD_CAP)
                for name in LD_SETS]
        return Plan(items, warm, gen_s, 0.0, ctx={"graphs": graphs})

    def check(self, plan: Plan, records, cache_path: str, timers: dict) -> list[str]:
        """Identities between matrices that come from different kernels.

        L0 <= G2 <= Box (budgeted DP against plain sweeps); a one-group
        partition with budget 2 equals G2 (partition DP against budgeted DP);
        L0 <= Partition <= the box over the partition's own deviations; a
        matrix computed again in a later pass is bit-identical.
        """
        problems = []
        got: dict[tuple, np.ndarray] = {}
        for rec in records:
            if not rec.ok:
                continue
            key = (rec.item.meta["fam"], rec.item.meta["set"])
            vals = rec.value["values"]
            if key in got and not np.array_equal(got[key], vals):
                rec.fail("matrix differs from an earlier computation", problems)
            got.setdefault(key, vals)
        t0 = time.perf_counter()
        bad = self._identities(plan, got)
        timers["anchored.verify_s"] += time.perf_counter() - t0
        for rec in records:
            if not rec.ok:
                continue
            key = (rec.item.meta["fam"], rec.item.meta["set"])
            if key in bad:
                rec.fail(bad[key], problems)
            elif not rec.failed:
                rec.solved = True
        return problems

    def _identities(self, plan: Plan, got) -> dict:
        bad: dict[tuple, str] = {}
        memo = plan.ctx.setdefault("refs", {})  # both phases of a traced run
        for fam, (g, dhat, sets) in plan.ctx["graphs"].items():
            reach = g.reachability()

            def wcl(name, delta, g=g, fam=fam):
                if (fam, name) not in memo:
                    memo[(fam, name)] = asd.worst_case_longest_paths(g, delta).values
                return memo[(fam, name)]

            def le(a, b):
                return bool(np.all(a[reach] <= b[reach] + TOL))

            def eq(a, b):
                return bool(np.all(np.abs(a[reach] - b[reach]) <= TOL))

            m = {name: got[(fam, name)] for name in LD_SETS if (fam, name) in got}
            for name, vals in m.items():
                if not np.all(np.isfinite(vals[reach])) or np.any(np.isfinite(vals[~reach])):
                    bad[(fam, name)] = "finite entries do not match reachability"
                elif "L0" in m and not le(m["L0"], vals):
                    bad[(fam, name)] = "below the nominal matrix L0"
            if "G2" in m and "Box" in m and not le(m["G2"], m["Box"]):
                bad[(fam, "Box")] = "below G2"
            if "G2" in m:
                one = asd.PartitionBudgeted(tuple(dhat), (tuple(g.jobs),), (2,))
                if not eq(m["G2"], wcl("one-group", one)):
                    bad[(fam, "G2")] = "differs from a one-group partition with budget 2"
            if "Partition" in m:
                box = asd.Box(sets["Partition"].dhat)
                if not le(m["Partition"], wcl("partition-box", box)):
                    bad[(fam, "Partition")] = "above the box over its deviations"
        return bad

    def item_span(self, rec) -> str:
        if rec.item.kwargs["delta"] is None:
            return "graph.all_pairs_longest"
        return "uncertainty.worst_case_longest_paths"

    def record_layers(self, rec) -> dict:
        return {"uncertainty.dp_states": dp_states(rec.item.kwargs["delta"], LD_N)}


WORKLOADS = {w.name: w for w in (AutoN20(), MethodsSmall(), LdN240())}
