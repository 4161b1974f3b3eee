"""Command-line front end: exit codes, file outputs, and report formats."""

import csv
import dataclasses
import io
import json
import math
import time

import pytest

import anchorsched as asd
from anchorsched import cli, formulations
from anchorsched.cli import console_main

VALID_META = {"label": "manual", "seed": 0, "prng": "philox"}


def _write(tmp_path, inst, name="inst.json"):
    path = tmp_path / name
    asd.write_instance(dataclasses.replace(inst, meta=VALID_META), path)
    return path


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def test_generate_writes_named_files(tmp_path, capsys):
    rc = console_main(
        [
            "generate",
            "--label",
            "SP_pQCri_dUnif_G1",
            "--n",
            "8",
            "--seed",
            "3",
            "--count",
            "2",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    for seed in (3, 4):
        path = tmp_path / f"SP_pQCri_dUnif_G1_n8_s{seed}.json"
        assert path.exists()
        assert str(path) in lines
        inst = asd.read_instance(path)
        assert inst.meta["seed"] == seed


def test_generate_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        rc = console_main(
            ["generate", "--label", "ER_pRand_dRand_G2", "--n", "6",
             "--seed", "1", "--out", str(out)]
        )
        assert rc == 0
    name = "ER_pRand_dRand_G2_n6_s1.json"
    assert (a / name).read_bytes() == (b / name).read_bytes()


def test_generate_seed_from_environment(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ANCHORSCHED_SEED", "17")
    rc = console_main(
        ["generate", "--label", "SP_pRand_dRand_G1", "--n", "5",
         "--out", str(tmp_path)]
    )
    assert rc == 0
    capsys.readouterr()
    assert (tmp_path / "SP_pRand_dRand_G1_n5_s17.json").exists()
    monkeypatch.setenv("ANCHORSCHED_SEED", "not-a-number")
    rc = console_main(
        ["generate", "--label", "SP_pRand_dRand_G1", "--n", "5",
         "--out", str(tmp_path)]
    )
    assert rc == 4
    monkeypatch.delenv("ANCHORSCHED_SEED")
    rc = console_main(
        ["generate", "--label", "SP_pRand_dRand_G1", "--n", "5",
         "--out", str(tmp_path)]
    )
    assert rc == 0
    assert (tmp_path / "SP_pRand_dRand_G1_n5_s0.json").exists()


def test_generate_bad_label_exit_code(tmp_path):
    rc = console_main(
        ["generate", "--label", "nope", "--n", "5", "--out", str(tmp_path)]
    )
    assert rc == 4


def test_numbers_no_run_can_use_exit_parse(tmp_path, capsys, fig_box):
    # each is one line on stderr and exit 4, with nothing written; an
    # infinite time limit is no limit
    gen = ["generate", "--label", "SP_pRand_dRand_G1", "--out", str(tmp_path)]
    for bad in (["--n", "0"], ["--n", "-3"], ["--n", "5", "--count", "-1"],
                ["--n", "5", "--count", "0"]):
        assert console_main(gen + bad) == 4, bad
        assert len(capsys.readouterr().err.splitlines()) == 1, bad
    assert not list(tmp_path.iterdir())
    path = _write(tmp_path, fig_box)
    for limit in ("nan", "-1", "-inf"):
        flag = f"--time-limit={limit}"
        assert console_main(["solve", str(path), flag]) == 4, limit
        assert console_main(["bench", str(tmp_path), flag]) == 4, limit
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and "--time-limit" in err[0], limit
    assert console_main(["solve", str(path), "--time-limit", "inf"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "Optimal"


def test_missing_subcommand_exits_parse():
    assert console_main([]) == 4
    assert console_main(["frobnicate"]) == 4


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_json_output(tmp_path, capsys, fig_budget):
    path = _write(tmp_path, fig_budget)
    rc = console_main(["solve", str(path)])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "Optimal"
    assert data["objective"] == pytest.approx(4.0)
    assert len(data["anchored"]) == 4
    assert len(data["start"]) == 7
    assert data["method"] == "dom"
    ld = asd.worst_case_longest_paths(fig_budget.graph, fig_budget.delta)
    assert asd.is_x_anchored(
        fig_budget.graph, ld, data["start"], data["anchored"]
    )


def test_solve_methods_agree(tmp_path, capsys, fig_budget):
    path = _write(tmp_path, fig_budget)
    values = {}
    for method in ("auto", "std", "dom", "lay", "brute"):
        rc = console_main(["solve", str(path), "--method", method])
        assert rc == 0
        values[method] = json.loads(capsys.readouterr().out)["objective"]
    assert all(v == pytest.approx(4.0) for v in values.values()), values


def test_solve_pretty_and_out_file(tmp_path, capsys, fig_box):
    path = _write(tmp_path, fig_box)
    out = tmp_path / "sol.json"
    rc = console_main(["solve", str(path), "--pretty", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "status" in text and "Optimal" in text and "anchored" in text
    saved = json.loads(out.read_text())
    assert saved["objective"] == pytest.approx(4.0)
    assert saved["method"] == "box"


def test_solve_export_lp(tmp_path, capsys, fig_budget):
    path = _write(tmp_path, fig_budget)
    lp = tmp_path / "model.lp"
    rc = console_main(["solve", str(path), "--export-lp", str(lp)])
    assert rc == 0
    capsys.readouterr()
    text = lp.read_text()
    assert "Maximize" in text and "Subject To" in text
    model = asd.parse_lp_file(lp)
    res = asd.solve_mip(model)
    assert res.value == pytest.approx(4.0)


def test_solve_cuts_restriction(tmp_path, capsys, fig_budget):
    # branch and cut is a method of its own; there is no --cuts flag
    path = _write(tmp_path, fig_budget)
    assert console_main(["solve", str(path), "--method", "std", "--cuts"]) == 4
    rc = console_main(["solve", str(path), "--method", "dom_cuts"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["method"] == "dom_cuts" and data["objective"] == pytest.approx(4.0)


def test_solve_exit_codes(tmp_path, capsys, fig_budget, fig_box):
    infeasible = _write(
        tmp_path, dataclasses.replace(fig_budget, deadline=3.5), "tight.json"
    )
    assert console_main(["solve", str(infeasible), "--method", "dom"]) == 2
    capsys.readouterr()
    box = _write(tmp_path, fig_box, "box.json")
    assert console_main(["solve", str(box), "--method", "lay"]) == 3
    broken = tmp_path / "broken.json"
    broken.write_text("{oops")
    assert console_main(["solve", str(broken)]) == 4
    assert console_main(["solve", str(tmp_path / "absent.json")]) == 4


def test_solve_rejects_non_finite_data(tmp_path, capsys, fig_budget):
    # json writes and reads NaN; the instance must not solve to a number
    data = asd.instance_to_dict(dataclasses.replace(fig_budget, meta=VALID_META))
    for field, value in (("deadline", math.nan), ("p", [math.nan] * fig_budget.n)):
        path = tmp_path / f"{field}.json"
        path.write_text(json.dumps(dict(data, **{field: value})))
        assert console_main(["solve", str(path)]) == 4
        assert "finite" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


@pytest.fixture()
def bench_dir(tmp_path):
    d = tmp_path / "bench"
    rc = console_main(
        ["generate", "--label", "SP_pQCri_dUnif_G1", "--n", "8",
         "--seed", "0", "--count", "2", "--out", str(d)]
    )
    assert rc == 0
    return d


def test_bench_csv_output(bench_dir, capsys):
    rc = console_main(["bench", str(bench_dir), "--methods", "dom,brute"])
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert {r["method"] for r in rows} == {"dom", "brute"}
    for row in rows:
        assert row["label"] == "SP_pQCri_dUnif_G1"
        assert row["solved_count"] == "2"
        assert float(row["mean_time_solved_s"]) >= 0.0
    by_method = {r["method"]: r for r in rows}
    assert float(by_method["dom"]["mean_opt"]) == pytest.approx(
        float(by_method["brute"]["mean_opt"])
    )
    # deadline preprocessing makes the relaxation exact on this class
    assert float(by_method["dom"]["mean_lpgap"]) == pytest.approx(0.0, abs=1e-9)
    assert by_method["brute"]["mean_lpgap"] == ""  # no relaxation for brute


def test_bench_out_file_and_table(bench_dir, tmp_path, capsys):
    out = tmp_path / "bench.csv"
    rc = console_main(
        ["bench", str(bench_dir), "--methods", "dom", "--out", str(out)]
    )
    assert rc == 0
    capsys.readouterr()
    header = out.read_text().splitlines()[0]
    assert header == (
        "label,method,solved_count,mean_time_solved_s,"
        "mean_final_gap_unsolved,mean_lpgap,mean_opt"
    )
    rc = console_main(["bench", str(bench_dir), "--methods", "dom", "--pretty"])
    assert rc == 0
    table = capsys.readouterr().out
    assert "mean_lpgap" in table and "SP_pQCri_dUnif_G1" in table


def test_bench_parallel_matches_serial(bench_dir, capsys):
    rc = console_main(["bench", str(bench_dir), "--methods", "dom,lay"])
    assert rc == 0
    serial = capsys.readouterr().out
    rc = console_main(["bench", str(bench_dir), "--methods", "dom,lay", "--jobs", "2"])
    assert rc == 0
    parallel = capsys.readouterr().out

    def _strip_times(text):
        rows = list(csv.reader(io.StringIO(text)))
        return [
            [c for i, c in enumerate(r) if i != 3]  # drop mean_time_solved_s
            for r in rows
        ]

    assert _strip_times(serial) == _strip_times(parallel)


def test_bench_rejects_bad_flags(bench_dir, tmp_path):
    assert console_main(["bench", str(bench_dir), "--methods", "dom,magic"]) == 4
    assert console_main(["bench", str(bench_dir), "--methods", "std", "--cuts"]) == 4
    assert console_main(["bench", str(bench_dir), "--methods", "dom", "--cuts"]) == 4
    empty = tmp_path / "empty"
    empty.mkdir()
    assert console_main(["bench", str(empty), "--methods", "dom"]) == 4


def test_bench_counts_unsupported_as_unsolved(tmp_path, capsys, fig_box):
    d = tmp_path / "mixed"
    d.mkdir()
    _write(d, fig_box, "box.json")
    rc = console_main(["bench", str(d), "--methods", "lay"])
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert rows[0]["solved_count"] == "0"


def test_numerical_failure_is_a_status_and_an_exit_code(
    tmp_path, capsys, monkeypatch, fig_budget
):
    # a node LP that exhausts its pivot budget, without the long stall
    def stall(*args, **kwargs):
        raise asd.NumericalFailure("pivot limit 200000 hit in phase 1")

    monkeypatch.setattr(cli, "solve_method", stall)
    d = tmp_path / "stall"
    d.mkdir()
    path = _write(d, fig_budget)
    rec = cli.bench_task(str(path), "dom", 10.0)
    assert rec.status == "NumericalFailure" and not rec.solved
    assert console_main(["bench", str(d), "--methods", "dom,auto"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [r["solved_count"] for r in rows] == ["0", "0"]
    for method in ("dom", "auto"):
        assert console_main(["solve", str(path), "--method", method]) == 5
        assert "pivot limit" in capsys.readouterr().err


def test_bench_lp_value_is_the_root_lp(tmp_path):
    # read off the branch-and-bound root, equal to a separate relaxation solve;
    # chain cuts describe the projection of the dom relaxation, so the root of
    # the dom_cuts master has its value too, under either spelling
    for label, seed in (("ER_pRand_dRand_G2", 0), ("SP_pQCri_dUnif_G1", 1),
                        ("ER_pQCri_dRand_G3", 2)):
        inst = asd.make_instance(label, 8, seed)
        path = tmp_path / f"{label}.json"
        asd.write_instance(inst, path)
        for method in ("std", "dom", "lay"):
            rec = cli.bench_task(str(path), method, 30.0)
            assert rec.solved, (label, method)
            want = asd.lp_bound(asd.preprocess_deadline(inst), method)
            assert rec.lp_value == want, (label, method)
        want = asd.lp_bound(asd.preprocess_deadline(inst), "dom")
        for rec in (cli.bench_task(str(path), "dom", 30.0, cuts=True),
                    cli.bench_task(str(path), "dom_cuts", 30.0)):
            assert rec.solved, label
            assert rec.lp_value == pytest.approx(want, abs=1e-9), label


def test_bench_lp_value_follows_the_route_auto_takes(tmp_path):
    # auto routes this instance to the dom MIP, so its row carries the dom
    # root value; an exact route has no root LP
    inst = asd.make_instance("ER_pRand_dRand_G2", 12, 0)
    path = tmp_path / "routed.json"
    asd.write_instance(inst, path)
    auto = cli.bench_task(str(path), "auto", 30.0)
    dom = cli.bench_task(str(path), "dom", 30.0)
    assert asd.solve_auto(inst).method == "dom"
    assert auto.solved and auto.lp_value == dom.lp_value
    assert auto.lp_value == asd.lp_bound(asd.preprocess_deadline(inst), "dom")
    box = dataclasses.replace(inst, delta=asd.Box(inst.delta.dhat))
    asd.write_instance(box, path)
    rec = cli.bench_task(str(path), "auto", 30.0)
    assert rec.solved and math.isnan(rec.lp_value)


def test_bench_task_cuts_is_dom_cuts(tmp_path, fig_budget):
    # the benchmark harness names the branch and cut as dom with cuts=True
    inst = asd.make_instance("ER_pRand_dRand_G2", 10, 3)
    for k, case in enumerate((fig_budget, inst)):
        path = _write(tmp_path, case, f"case{k}.json")
        spelled = cli.bench_task(str(path), "dom", 30.0, cuts=True)
        named = cli.bench_task(str(path), "dom_cuts", 30.0)
        assert spelled.solved and spelled.method == "dom_cuts"
        assert dataclasses.replace(spelled, runtime=0.0) == (
            dataclasses.replace(named, runtime=0.0)
        )
        with pytest.raises(asd.ParseError):
            cli.bench_task(str(path), "std", 30.0, cuts=True)


def test_mip_runtime_counts_setup(monkeypatch, fig_budget):
    # LD, deadline preprocessing and the build count toward a MIP route's time
    real = formulations.worst_case_longest_paths

    def slow(*args):
        time.sleep(0.05)
        return real(*args)

    monkeypatch.setattr(formulations, "worst_case_longest_paths", slow)
    params = asd.SolveParams(time_limit=30.0)
    reports = [asd.solve_auto(fig_budget, params)]
    for method in ("auto", "std", "dom", "dom_cuts", "lay"):
        reports.append(asd.solve_method(fig_budget, method, params))
    assert [r.method for r in reports] == [
        "dom", "dom", "std", "dom", "dom_cuts", "lay"
    ]
    for rep in reports:
        assert rep.solved and rep.runtime >= 0.05, rep.method


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _solution_file(tmp_path, start, anchored, name="sol.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"start": start, "anchored": anchored}))
    return path


WORKED_START = [0.0, 0.0, 0.0, 1.5, 3.0, 2.5, 4.5]


def test_verify_accepts_anchored_baseline(tmp_path, capsys, fig_box):
    inst = _write(tmp_path, fig_box)
    sol = _solution_file(tmp_path, WORKED_START, [1, 2, 4])
    rc = console_main(["verify", str(inst), str(sol)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[verify] schedule: PASS" in out
    assert "[verify] deadline: PASS" in out
    assert "[verify] anchored: PASS" in out
    assert "[verify] OK" in out


def test_verify_rejects_overreaching_set(tmp_path, capsys, fig_box):
    inst = _write(tmp_path, fig_box)
    sol = _solution_file(tmp_path, WORKED_START, [1, 2, 4, 5])
    rc = console_main(["verify", str(inst), str(sol)])
    out = capsys.readouterr().out
    assert rc == 2
    assert "[verify] anchored: FAIL" in out


def test_verify_empty_set_passes(tmp_path, capsys, fig_box):
    inst = _write(tmp_path, fig_box)
    sol = _solution_file(tmp_path, WORKED_START, [])
    assert console_main(["verify", str(inst), str(sol)]) == 0
    assert "[verify] OK" in capsys.readouterr().out


def test_verify_flags_deadline_and_schedule_breaks(tmp_path, capsys, fig_box):
    inst = _write(tmp_path, fig_box)
    broken = list(WORKED_START)
    broken[3] = 0.0  # job 3 now starts before its predecessor finishes
    sol = _solution_file(tmp_path, broken, [])
    rc = console_main(["verify", str(inst), str(sol)])
    out = capsys.readouterr().out
    assert rc == 2 and "[verify] schedule: FAIL" in out
    slow = [1.5 * v for v in WORKED_START]  # valid schedule, misses deadline
    sol = _solution_file(tmp_path, slow, [], "slow.json")
    rc = console_main(["verify", str(inst), str(sol)])
    out = capsys.readouterr().out
    assert rc == 2 and "[verify] deadline: FAIL" in out


def test_verify_parse_errors(tmp_path, capsys, fig_box):
    inst = _write(tmp_path, fig_box)
    short = _solution_file(tmp_path, [0.0, 1.0], [], "short.json")
    assert console_main(["verify", str(inst), str(short)]) == 4
    out_of_range = _solution_file(tmp_path, WORKED_START, [9], "bad.json")
    assert console_main(["verify", str(inst), str(out_of_range)]) == 4
    garbage = tmp_path / "garbage.json"
    garbage.write_text("[1, 2]")
    assert console_main(["verify", str(inst), str(garbage)]) == 4
