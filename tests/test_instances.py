"""Benchmark generators, class labels, and the JSON interchange format."""

import json

import numpy as np
import pytest

import anchorsched as asd
from anchorsched.instances import gen_deviation, gen_er, gen_graph, gen_processing, gen_sp

from .oracles import is_series_parallel


# ---------------------------------------------------------------------------
# labels
# ---------------------------------------------------------------------------


def test_parse_label_round_trip():
    lab = asd.parse_label("SP_pQCri_dUnif_G1")
    assert (lab.graph, lab.processing, lab.deviation, lab.uncertainty) == (
        "SP",
        "pQCri",
        "dUnif",
        "G1",
    )
    assert str(lab) == "SP_pQCri_dUnif_G1"
    assert str(asd.parse_label("ER_pZero_dRand_Mixed")) == "ER_pZero_dRand_Mixed"


@pytest.mark.parametrize(
    "bad",
    [
        "SP_pQCri_dUnif",  # missing field
        "SP_pQCri_dUnif_G1_extra",
        "XX_pQCri_dUnif_G1",
        "SP_pBad_dUnif_G1",
        "SP_pQCri_dBad_G1",
        "SP_pQCri_dUnif_G9",
        "",
    ],
)
def test_parse_label_rejects(bad):
    with pytest.raises(asd.ParseError):
        asd.parse_label(bad)


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------


def test_gen_er_structure():
    for seed in range(8):
        n = 12
        g = gen_er(n, seed)
        assert g.n == n
        preds = {j: [] for j in g.jobs}
        succs = {j: [] for j in g.jobs}
        for i, j in g.arcs:
            if i != 0 and j != g.t:
                preds[j].append(i)
                succs[i].append(j)
        for i, j in g.arcs:
            if i == 0:
                assert not preds[j], "source feeds only jobs with no other entry"
            if j == g.t:
                assert not succs[i], "only jobs with no other exit feed the sink"
        # every job is reachable and co-reachable through the dummies
        dist = asd.single_source_longest(g, 0, g.p)
        assert np.all(np.isfinite(dist))


def test_gen_er_density_tracks_pair_probability():
    # with pair probability min(1, 10/n), expected internal arcs ~ 10(n-1)/2
    n = 40
    counts = []
    for seed in range(30):
        g = gen_er(n, seed)
        counts.append(sum(1 for i, j in g.arcs if i != 0 and j != g.t))
    mean = np.mean(counts)
    expect = (10 / n) * n * (n - 1) / 2
    assert 0.6 * expect < mean < 1.4 * expect


def test_gen_sp_is_series_parallel():
    for seed in range(12):
        for n in (1, 2, 3, 5, 9, 16):
            g = gen_sp(n, seed)
            assert g.n == n
            assert is_series_parallel(g.n, g.arcs), (n, seed, g.arcs)
    # tiny budgets can only form chains
    g = gen_sp(2, 0)
    assert set(g.arcs) == {(0, 1), (1, 2), (2, 3)} or set(g.arcs) == {
        (0, 2),
        (2, 1),
        (1, 3),
    }


def test_gen_graph_determinism_and_dispatch():
    a = gen_graph("SP", 9, 5)
    b = gen_graph("SP", 9, 5)
    assert a.arcs == b.arcs
    assert gen_graph("ER", 9, 5).arcs != a.arcs or True  # families differ
    with pytest.raises(asd.ParseError):
        gen_graph("XX", 9, 5)


# ---------------------------------------------------------------------------
# processing times and deviations
# ---------------------------------------------------------------------------


def test_gen_processing_classes():
    g = gen_graph("SP", 10, 3)
    assert not gen_processing("pZero", g, 3).any()
    p = gen_processing("pRand", g, 3)
    assert p.shape == (10,) and np.all((p >= 5) & (p <= 20))
    assert np.all(p == np.round(p))
    q = gen_processing("pQCri", g, 3)
    gq = asd.PrecedenceGraph(g.n, g.arcs, q)
    assert asd.is_quasi_critical(gq)
    # lengthening only consumed slack: the critical path is untouched
    gp = asd.PrecedenceGraph(g.n, g.arcs, p)
    assert asd.single_source_longest(gq, 0, gq.p)[gq.t] == pytest.approx(
        asd.single_source_longest(gp, 0, gp.p)[gp.t]
    )


def test_gen_deviation_classes():
    g = gen_graph("ER", 10, 4)
    p = gen_processing("pRand", g, 4)
    d = gen_deviation("dRand", p, 4)
    assert d.shape == p.shape
    assert np.all(d >= 1) and np.all(d <= p // 2)
    assert np.all(d == np.round(d))
    u = gen_deviation("dUnif", p, 4)
    assert len(set(u.tolist())) == 1
    assert u[0] in set(d.tolist())  # broadcast of one per-job draw


def test_gen_deviation_zero_p_uses_companion():
    companion = np.array([10.0, 6.0, 8.0])
    dev = gen_deviation("dRand", np.zeros(3), 11, pqcri_dev=companion)
    assert np.array_equal(dev, companion)
    with pytest.raises(asd.MissingCompanionDeviation):
        gen_deviation("dRand", np.zeros(3), 11)


# ---------------------------------------------------------------------------
# uncertainty fields and assembled instances
# ---------------------------------------------------------------------------


def test_build_uncertainty_shapes():
    dhat = np.array([4.0, 6.0, 2.0, 8.0, 5.0])
    for field, gamma in (("G1", 1), ("G2", 2), ("G3", 3)):
        delta = asd.build_uncertainty(field, dhat, 0)
        assert isinstance(delta, asd.Budgeted) and delta.gamma == gamma
        assert delta.dhat == tuple(dhat)
    mixed = asd.build_uncertainty("Mixed", dhat, 0)
    assert isinstance(mixed, asd.MixedBudgeted) and len(mixed.components) == 2
    full, many = mixed.components
    assert full.gamma == 1 and full.dhat == tuple(dhat)
    assert many.gamma == min(10, 5)
    assert many.dhat == tuple(np.floor(0.2 * dhat))
    part = asd.build_uncertainty("Partition", dhat, 0)
    assert isinstance(part, (asd.PartitionBudgeted, asd.Budgeted))
    if isinstance(part, asd.PartitionBudgeted):
        jobs = sorted(j for grp in part.parts for j in grp)
        assert jobs == [1, 2, 3, 4, 5]
    # budgets never exceed the job count
    small = asd.build_uncertainty("G3", np.array([1.0, 1.0]), 0)
    assert small.gamma == 2


def test_make_instance_deterministic_and_consistent():
    inst1 = asd.make_instance("SP_pQCri_dUnif_G1", 12, 7)
    inst2 = asd.make_instance("SP_pQCri_dUnif_G1", 12, 7)
    assert inst1.graph.arcs == inst2.graph.arcs
    assert np.array_equal(inst1.graph.p, inst2.graph.p)
    assert inst1.delta == inst2.delta
    assert inst1.deadline == inst2.deadline
    assert asd.is_quasi_critical(inst1.graph)
    assert inst1.meta["label"] == "SP_pQCri_dUnif_G1"
    assert inst1.meta["seed"] == 7 and inst1.meta["prng"] == "philox"
    # halfway deadline sits between nominal and fully deviated lengths
    g = inst1.graph
    lo = asd.single_source_longest(g, 0, g.p)[g.t]
    dev = np.zeros(g.n + 2)
    dev[1 : g.n + 1] = inst1.delta.dhat
    hi = asd.single_source_longest(g, 0, g.p + dev)[g.t]
    assert inst1.deadline == pytest.approx((lo + hi) / 2)


def test_make_instance_pzero_companion_deviations():
    z = asd.make_instance("ER_pZero_dRand_G1", 10, 3)
    q = asd.make_instance("ER_pQCri_dRand_G1", 10, 3)
    assert not z.graph.p[1 : z.graph.n + 1].any()
    assert z.delta.dhat == q.delta.dhat  # same companion draw
    assert "notes" in z.meta  # ER relabeling note


def test_instance_filename():
    assert (
        asd.instance_filename("ER_pRand_dRand_G2", 20, 4)
        == "ER_pRand_dRand_G2_n20_s4.json"
    )


# ---------------------------------------------------------------------------
# JSON round trips
# ---------------------------------------------------------------------------


LABELS_FOR_ROUND_TRIP = [
    "ER_pRand_dRand_G1",
    "SP_pQCri_dUnif_G3",
    "ER_pZero_dRand_Mixed",
    "SP_pRand_dRand_Partition",
    "SP_pZero_dUnif_G2",
]


@pytest.mark.parametrize("label", LABELS_FOR_ROUND_TRIP)
def test_write_read_round_trip(tmp_path, label):
    inst = asd.make_instance(label, 9, 2)
    path = tmp_path / asd.instance_filename(label, 9, 2)
    asd.write_instance(inst, path)
    back = asd.read_instance(path)
    assert back.graph.arcs == inst.graph.arcs
    assert np.array_equal(back.graph.p, inst.graph.p)
    assert back.delta == inst.delta
    assert back.deadline == inst.deadline
    assert np.array_equal(back.weights, inst.weights)
    assert back.meta == inst.meta
    # serialization is stable byte for byte
    again = tmp_path / "again.json"
    asd.write_instance(back, again)
    assert path.read_bytes() == again.read_bytes()


def test_round_trip_scenarios_and_box(tmp_path):
    g = asd.PrecedenceGraph(2, [(0, 1), (1, 2), (2, 3)], [1.0, 2.0])
    for delta in (
        asd.Box((0.5, 1.5)),
        asd.Scenarios(((0.0, 1.0), (1.0, 0.0))),
        asd.OneDisruption(2.0),
    ):
        inst = asd.Instance(
            graph=g,
            delta=delta,
            deadline=6.0,
            weights=np.ones(2),
            meta={"label": "manual", "seed": 0, "prng": "philox"},
        )
        path = tmp_path / "inst.json"
        asd.write_instance(inst, path)
        back = asd.read_instance(path)
        assert back.delta == inst.delta  # normalized forms compare equal
        assert back.deadline == inst.deadline


def _valid_payload():
    inst = asd.make_instance("SP_pRand_dRand_G1", 5, 1)
    return asd.instance_to_dict(inst)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("arcs"),
        lambda d: d.update(extra=1),
        lambda d: d.update(n="five"),
        lambda d: d.update(p=d["p"][:-1]),
        lambda d: d.update(p=[-1.0] * len(d["p"])),
        lambda d: d.update(arcs=[[0, 0]]),
        lambda d: d.update(deadline=True),
        lambda d: d.update(uncertainty={"type": "warp"}),
        lambda d: d.update(uncertainty={"type": "budgeted", "dhat": [1.0] * 5}),
        lambda d: d["meta"].pop("seed"),
        lambda d: d["meta"].update(surprise=1),
        lambda d: d.update(weights="heavy"),
        # non-finite numbers: JSON NaN and Infinity parse to floats
        lambda d: d["p"].__setitem__(0, float("nan")),
        lambda d: d["p"].__setitem__(0, float("inf")),
        lambda d: d["weights"].__setitem__(0, float("nan")),
        lambda d: d["weights"].__setitem__(0, float("inf")),
        lambda d: d.update(deadline=float("nan")),
        lambda d: d.update(deadline=float("inf")),
        lambda d: d["uncertainty"]["dhat"].__setitem__(0, float("nan")),
        lambda d: d.update(uncertainty={"type": "one_disruption", "dhat0": float("inf")}),
    ],
)
def test_instance_from_dict_rejects(mutate):
    data = _valid_payload()
    mutate(data)
    with pytest.raises(asd.ParseError):
        asd.instance_from_dict(data)


def test_read_instance_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(asd.ParseError):
        asd.read_instance(path)
    missing = tmp_path / "absent.json"
    with pytest.raises(FileNotFoundError):
        asd.read_instance(missing)


def test_written_file_is_plain_json(tmp_path):
    inst = asd.make_instance("ER_pRand_dUnif_G2", 6, 9)
    path = tmp_path / "x.json"
    asd.write_instance(inst, path)
    data = json.loads(path.read_text(encoding="utf-8"))
    assert set(data) == {
        "n",
        "arcs",
        "p",
        "weights",
        "deadline",
        "uncertainty",
        "meta",
    }
    assert data["uncertainty"]["type"] == "budgeted"
    assert data["meta"]["prng"] == "philox"
