"""Tests of the benchmark's own machinery: tail rule, watchdog, spans.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import time

import pytest

from harness import (
    CallResult,
    Record,
    Tracer,
    Worker,
    harrell_davis,
    latency_summary,
    tail_percentile,
)


def sleepy(seconds):
    time.sleep(seconds)
    return "slept"


def boom():
    raise ZeroDivisionError("fake solve failure")


def echo(value):
    return value


@pytest.mark.parametrize(
    "n, p",
    [(1, 50.0), (19, 50.0), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
     (100, 90.0), (199, 90.0), (200, 95.0), (1000, 99.0), (10_000, 99.9)],
)
def test_tail_percentile_leaves_ten_samples_beyond(n, p):
    assert tail_percentile(n) == p
    beyond = n - (p * n / 100.0).__ceil__()
    assert beyond >= 10 or p == 50.0


def test_latency_summary_estimates_the_chosen_percentiles():
    vals = [float(v) for v in range(1, 101)]
    s = latency_summary(reversed(vals))
    assert (s["n"], s["tail_p"]) == (100, 90.0)
    assert s["p50"] == pytest.approx(50.5, abs=0.05)
    assert s["tail"] == pytest.approx(90.5, abs=0.01)
    assert harrell_davis([3.0], 99.9) == pytest.approx(3.0)


def test_harrell_davis_weighs_symmetric_neighbours_equally():
    assert harrell_davis([1.0, 3.0], 50.0) == pytest.approx(2.0)


def test_watchdog_kills_an_overrunning_call_and_recovers():
    w = Worker()
    try:
        t0 = time.perf_counter()
        res = w.call("test_perfbench:sleepy", 0.5, seconds=30)
        assert res.status == "Watchdog" and not res.ok
        assert time.perf_counter() - t0 < 10
        assert w.kills == 1
        again = w.call("test_perfbench:echo", 30, value=7)
        assert again.ok and again.value == 7
        assert w.starts == 2
    finally:
        w.stop()


def test_watchdog_records_a_raising_call_and_keeps_the_worker():
    w = Worker()
    try:
        res = w.call("test_perfbench:boom", 30)
        assert res.status == "ZeroDivisionError"
        assert "fake solve failure" in res.detail
        assert w.call("test_perfbench:echo", 30, value="ok").value == "ok"
        assert (w.starts, w.kills) == (1, 0)
    finally:
        w.stop()


def test_latency_is_best_of_two_passes_and_failures_count_at_the_cap():
    from run import summarize

    class Item:
        key = "fake item"
        cap = 5.0

    def attempt(status, seconds, solved):
        rec = Record(Item(), CallResult(status, {}, 0.0, seconds))
        rec.solved = solved
        if status != "ok":
            rec.fail(status, [], wrong=False)
        return rec

    attempts = [
        [attempt("ok", 0.4, True), attempt("ok", 0.2, True), attempt("ok", 0.1, True)],
        [attempt("Watchdog", 5.0, False)],
        [attempt("ok", 1.0, True), attempt("ok", 3.0, False)],
    ]
    s = summarize(attempts, wall=3.0)
    assert (s["n"], s["attempted"], s["failed"]) == (3, 6, 1)
    assert s["throughput_per_s"] == pytest.approx(2.0)
    assert s["solved_frac"] == pytest.approx(1 / 3)
    assert s["fail_frac"] == pytest.approx(1 / 3)
    # latencies 0.2 (best of the first two passes), 5.0 and 5.0 (at the cap)
    assert s["latency_p50_s"] == pytest.approx(harrell_davis([0.2, 5.0, 5.0], 50.0))


def test_a_wrong_answer_is_listed():
    class Item:
        key = "fake item"
        cap = 5.0

    problems = []
    rec = Record(Item(), CallResult("ok", {}, 0.0, 0.25))
    rec.fail("wrong objective", problems)
    assert rec.failed and problems == ["fake item: wrong objective"]


def test_self_time_subtracts_covered_child_intervals():
    t = Tracer()
    root = t.add("item", 1, 0.0, 10.0)
    t.add("a", 1, 1.0, 4.0, parent=root)
    t.add("b", 1, 3.0, 5.0, parent=root)  # overlaps a by one second
    late = t.add("probe", 1, 12.0, 13.0, parent=root)  # outside the parent
    self_time = t.self_times()
    assert self_time[root] == pytest.approx(6.0)
    assert self_time[late] == pytest.approx(1.0)
