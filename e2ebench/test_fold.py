"""Tests of the benchmark's fold code on synthetic spans and events.

Run with ``python3 -m pytest e2ebench``.
"""

import multiprocessing

import pytest

import fold
import tracer


def span(pid, sid, parent, name, start, end, **attrs):
    return {"pid": pid, "id": sid, "parent": parent, "name": name,
            "start": start, "end": end, "attrs": attrs}


def test_self_time_subtracts_nested_children():
    spans = [
        span(1, 0, None, "workload", 0.0, 10.0),
        span(1, 1, 0, "core.fit.SVM", 1.0, 4.0),
        span(1, 2, 1, "core.predict", 2.0, 3.0),
        span(1, 3, 0, "data.load_region", 5.0, 6.0),
    ]
    times = fold.self_times(spans, root_pid=1)
    assert times == pytest.approx(
        {"workload": 6.0, "core.fit.SVM": 2.0, "core.predict": 1.0, "data.load_region": 1.0}
    )
    assert sum(times.values()) == pytest.approx(10.0)


def test_same_name_nested_spans_add_up():
    spans = [
        span(1, 0, None, "workload", 0.0, 4.0),
        span(1, 1, 0, "core.fit.DPMHBP", 0.0, 4.0),
        span(1, 2, 1, "core.fit.DPMHBP", 1.0, 3.0),
    ]
    assert fold.self_times(spans, 1)["core.fit.DPMHBP"] == pytest.approx(4.0)


def worker_spans():
    """A 2-job map over 4 cells: worker 2 runs two cells, worker 3 one long one."""
    return [
        span(1, 0, None, "workload", 0.0, 10.0),
        span(1, 1, 0, "parallel.map", 1.0, 9.0, jobs=2, items=4),
        span(2, 0, None, "runs.cell", 1.0, 5.0),
        span(2, 1, 0, "data.load_region", 2.0, 3.0),
        span(2, 2, None, "runs.cell", 5.0, 8.0),
        span(3, 0, None, "runs.cell", 1.0, 7.0),
    ]


def test_worker_time_counts_one_over_jobs_and_map_keeps_the_rest():
    times = fold.self_times(worker_spans(), root_pid=1)
    # worker spans weigh 1/2: cells (4 - 1 + 3 + 6) / 2, the load 1 / 2
    assert times["runs.cell"] == pytest.approx(6.0)
    assert times["data.load_region"] == pytest.approx(0.5)
    # map: 8 s of wall minus half of the 13 worker-seconds it enclosed
    assert times["parallel.map"] == pytest.approx(1.5)
    assert times["workload"] == pytest.approx(2.0)
    assert sum(times.values()) == pytest.approx(10.0)


def test_other_s_is_the_root_self_time():
    assert fold.metric_name("workload") == "other_s"
    assert fold.metric_name("core.fit.AUC-Rank") == "core.fit_s.AUC-Rank"
    assert fold.metric_name("runs.checkpoint") == "runs.checkpoint_s"
    spans = [span(1, 0, None, "workload", 0.0, 3.0), span(1, 1, 0, "eval.metrics", 0.5, 1.0)]
    assert fold.self_times(spans, 1)["workload"] == pytest.approx(2.5)


def test_serial_map_does_not_adopt_worker_spans():
    spans = [
        span(1, 0, None, "workload", 0.0, 10.0),
        span(1, 1, 0, "parallel.map", 1.0, 9.0, jobs=1, items=4),
        span(2, 0, None, "runs.cell", 2.0, 3.0),  # no fan-out encloses it: dropped
        span(1, 2, None, "core.predict", 11.0, 12.0),  # outside the root: ignored
    ]
    times = fold.self_times(spans, 1)
    assert "runs.cell" not in times and "core.predict" not in times
    assert sum(times.values()) == pytest.approx(10.0)


def test_fanout_busy_from_spans():
    busy, windows = fold.fanout_busy(worker_spans(), root_pid=1)
    assert busy == pytest.approx(13.0)
    assert windows == [(pytest.approx(8.0), 2)]
    frac, idle = fold.busy_stats(busy, windows)
    assert frac == pytest.approx(13.0 / 16.0)
    assert idle == pytest.approx(3.0)


def test_busy_frac_and_idle_from_cell_completed_events():
    events = [
        {"t": 100.0, "event": "run_started"},
        {"t": 100.5, "event": "cell_started"},
        {"t": 103.0, "event": "cell_completed", "duration_s": 3.0},
        {"t": 106.0, "event": "cell_completed", "duration_s": 5.0},
        {"t": 107.0, "event": "run_completed"},
        {"t": 200.0, "event": "run_started"},  # the resume pass
        {"t": 201.0, "event": "run_completed"},
    ]
    busy, wall = fold.grid_busy(events)
    assert (busy, wall) == (pytest.approx(8.0), pytest.approx(7.0))
    frac, idle = fold.busy_stats(busy, [(wall, 2)])
    assert frac == pytest.approx(8.0 / 14.0)
    assert idle == pytest.approx(6.0)


def test_busy_stats_without_fanout_is_zero():
    assert fold.busy_stats(0.0, []) == (0.0, 0.0)


def test_tracer_round_trip(tmp_path):
    rec = tracer.Tracer(tmp_path)
    with rec.span("workload"):
        with rec.span("core.fit.Cox") as attrs:
            attrs["rows"] = 3
    with rec.span("workload"):  # a second flush keeps ids unique
        pass
    spans = tracer.read_spans(tmp_path)
    assert [s["name"] for s in spans] == ["workload", "core.fit.Cox", "workload"]
    assert len({s["id"] for s in spans}) == 3
    assert spans[1]["parent"] == spans[0]["id"] and spans[1]["attrs"] == {"rows": 3}
    assert fold.span_sum(spans, "core.fit.Cox", "rows") == 3


def _child_span(rec):
    with rec.span("runs.cell"):
        pass


def test_forked_worker_drops_inherited_state(tmp_path):
    rec = tracer.Tracer(tmp_path)
    with rec.span("workload"):
        child = multiprocessing.get_context("fork").Process(target=_child_span, args=(rec,))
        child.start()
        child.join(timeout=30)
        assert not child.is_alive() and child.exitcode == 0
    spans = tracer.read_spans(tmp_path)
    worker = [s for s in spans if s["pid"] == child.pid]
    assert [(s["name"], s["parent"]) for s in worker] == [("runs.cell", None)]
