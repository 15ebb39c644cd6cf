"""Fold recorded spans and journal events into per-layer numbers.

Pure functions over plain dicts, so they can be tested on synthetic
input without importing ``repro``.

A span is a dict ``{"pid", "id", "parent", "name", "start", "end",
"attrs"}``; ``parent`` is the ``id`` of the enclosing span in the same
process, or ``None``. Spans are folded into *wall-equivalent self time*:

* a span's self time is its duration minus the part its children cover;
* a worker process's top-level span belongs to the ``parallel.map`` span
  (in another process) whose interval encloses it; a map of width ``J``
  (``min(jobs, items)``) keeps ``J`` workers busy, so every worker span
  under it counts ``1/J`` of its time, and the map's own self time is its
  duration minus ``1/J`` of the worker time it enclosed (the workers'
  idle time plus dispatch).

With that weighting the self times of every span add up exactly to the
duration of the root span, so the named layers plus ``other_s`` (the
root's self time) account for the traced wall time.
"""

from __future__ import annotations

from collections import defaultdict

ROOT = "workload"
FANOUT = "parallel.map"
FIT_PREFIX = "core.fit."


def metric_name(span_name: str) -> str:
    """Per-layer metric for a span name: ``core.fit.SVM`` -> ``core.fit_s.SVM``."""
    if span_name == ROOT:
        return "other_s"
    if span_name.startswith(FIT_PREFIX):
        return "core.fit_s." + span_name[len(FIT_PREFIX):]
    return span_name + "_s"


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def fan_width(span: dict) -> int:
    """How many workers a ``parallel.map`` span keeps busy at once."""
    attrs = span.get("attrs") or {}
    return max(1, min(int(attrs.get("jobs", 1)), int(attrs.get("items", 1))))


def _key(span: dict) -> tuple[int, int]:
    return span["pid"], span["id"]


def _enclosing_map(span: dict, maps: list[dict]) -> dict | None:
    """The innermost fan-out map of another process whose interval holds ``span``."""
    best = None
    for m in maps:
        if (
            m["pid"] != span["pid"]
            and m["start"] <= span["start"]
            and span["end"] <= m["end"]
            and (best is None or m["start"] > best["start"])
        ):
            best = m
    return best


def attach_workers(spans: list[dict], root_pid: int) -> tuple[list[dict], dict]:
    """The ``workload`` root spans of ``root_pid`` and a ``key -> [(child, share)]`` tree.

    Worker top-level spans become children of their enclosing fan-out map
    with share ``1/J``; top-level spans no map encloses are dropped (they
    cannot be placed on the workload process's timeline).
    """
    maps = [s for s in spans if s["name"] == FANOUT and fan_width(s) > 1]
    children: dict[tuple[int, int], list[tuple[dict, float]]] = defaultdict(list)
    roots = []
    for span in spans:
        if span["parent"] is not None:
            children[(span["pid"], span["parent"])].append((span, 1.0))
        elif span["pid"] == root_pid:
            if span["name"] == ROOT:
                roots.append(span)
        else:
            owner = _enclosing_map(span, maps)
            if owner is not None:
                children[_key(owner)].append((span, 1.0 / fan_width(owner)))
    return roots, children


def self_times(spans: list[dict], root_pid: int) -> dict[str, float]:
    """Wall-equivalent self seconds per span name (see the module docstring)."""
    roots, children = attach_workers(spans, root_pid)
    totals: dict[str, float] = defaultdict(float)
    stack = [(root, 1.0) for root in roots]
    while stack:
        span, weight = stack.pop()
        own = weight * duration(span)
        for child, share in children.get(_key(span), ()):
            child_weight = weight * share
            own -= child_weight * duration(child)
            stack.append((child, child_weight))
        totals[span["name"]] += own
    return dict(totals)


def span_sum(spans: list[dict], name: str, attr: str) -> float:
    """Sum of one attribute over every span called ``name``, in any process."""
    return sum((s.get("attrs") or {}).get(attr, 0) for s in spans if s["name"] == name)


def busy_stats(busy_s: float, windows: list[tuple[float, int]]) -> tuple[float, float]:
    """``(busy_frac, idle_s)`` of workers over fan-out windows ``(wall_s, jobs)``.

    ``busy_frac`` is busy worker-seconds over offered worker-seconds
    (Σ jobs × wall); ``idle_s`` is the offered worker-seconds left unused.
    Both are 0 when nothing fanned out.
    """
    offered = sum(wall * jobs for wall, jobs in windows)
    if offered <= 0:
        return 0.0, 0.0
    return busy_s / offered, offered - busy_s


def grid_busy(events: list[dict]) -> tuple[float, float]:
    """``(Σ cell duration_s, grid wall)`` of the first grid pass in an event log.

    The grid wall runs from the first ``run_started`` to the first
    ``run_completed`` event; busy time is the ``duration_s`` of every
    ``cell_completed`` event between them.
    """
    start = next(e["t"] for e in events if e["event"] == "run_started")
    end = next(e["t"] for e in events if e["event"] == "run_completed" and e["t"] >= start)
    busy = sum(
        e["duration_s"]
        for e in events
        if e["event"] == "cell_completed" and start <= e["t"] <= end
    )
    return busy, end - start


def fanout_busy(spans: list[dict], root_pid: int) -> tuple[float, list[tuple[float, int]]]:
    """Worker busy seconds and ``(wall, jobs)`` windows of every fan-out map."""
    _, children = attach_workers(spans, root_pid)
    busy = 0.0
    windows = []
    for span in spans:
        if span["name"] != FANOUT or fan_width(span) == 1:
            continue
        workers = [c for c, share in children.get(_key(span), ()) if share < 1.0]
        if workers:
            busy += sum(duration(c) for c in workers)
            windows.append((duration(span), fan_width(span)))
    return busy, windows
