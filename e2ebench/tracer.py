"""Spans recorded from outside ``repro``: wrappers around each layer's calls.

:func:`install` replaces the public functions and model methods at each
layer boundary with wrappers that record a span around the call. The
workload process installs them before any worker pool exists, so forked
pool workers inherit the wrappers. Every process keeps its spans in
memory and appends them to ``<out_dir>/spans-<pid>.jsonl`` whenever its
outermost span closes: once per grid cell or chain in a worker, once at
the end in the workload process.
"""

from __future__ import annotations

import functools
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable


class Tracer:
    """In-memory span recorder for one process and, after a fork, its child."""

    def __init__(self, out_dir: str | Path):
        self.out_dir = Path(out_dir)
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.records: list[dict] = []
        self.stack: list[int] = []
        self.next_id = 0  # ids stay unique across flushes

    @contextmanager
    def span(self, name: str, **attrs):
        if os.getpid() != self.pid:  # a forked worker: drop the parent's state
            self._reset()
        record = {
            "pid": self.pid,
            "id": self.next_id,
            "parent": self.stack[-1] if self.stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.next_id += 1
        self.records.append(record)
        self.stack.append(record["id"])
        try:
            yield record["attrs"]
        finally:
            record["end"] = time.perf_counter()
            self.stack.pop()
            if not self.stack:
                self.flush()

    def flush(self) -> None:
        lines = "".join(json.dumps(r) + "\n" for r in self.records)
        with open(self.out_dir / f"spans-{self.pid}.jsonl", "a", encoding="utf-8") as fh:
            fh.write(lines)
        self.records = []


def read_spans(out_dir: str | Path) -> list[dict]:
    """Every span every process of one traced workload wrote."""
    spans = []
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        spans.extend(json.loads(line) for line in path.read_text().splitlines())
    return spans


def _wrap(tracer: Tracer, fn: Callable, name: str, attrs: Callable | None = None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as span_attrs:
            out = fn(*args, **kwargs)
            if attrs is not None:
                span_attrs.update(attrs(args, out))
        return out

    return wrapper


def _fanout_attrs(args, out) -> dict:
    _, items, config = args[:3]
    jobs = 1 if config is None or config.is_serial else config.jobs
    return {"jobs": jobs, "items": len(items)}


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on (process-wide)."""
    from repro.core import dpmhbp
    from repro.core.hbp import HBPBestModel
    from repro.core.ranking.model import AUCRankingModel, SVMRankingModel
    from repro.core.survival_models import CoxPHModel, WeibullModel
    from repro.eval import experiment
    from repro.parallel import cache
    from repro.runs import engine
    from repro.runs.journal import RunJournal

    def patch(owner, attr: str, name: str, attrs: Callable | None = None) -> None:
        setattr(owner, attr, _wrap(tracer, getattr(owner, attr), name, attrs))

    # data (network, gis) and features, under the region cache
    patch(cache, "load_region", "data.load_region")
    patch(cache, "build_model_data", "features.build", lambda a, out: {"segments": out.n_segments})
    # parallel: the region cache and both fan-outs (grid cells, DPMHBP chains)
    patch(experiment, "cached_model_data", "parallel.cache")
    patch(experiment, "safe_parallel_map", "parallel.map", _fanout_attrs)
    patch(dpmhbp, "parallel_map", "parallel.map", _fanout_attrs)
    # core: every model of the default line-up, plus the DPMHBP chain sampler
    for model in (dpmhbp.DPMHBPModel, HBPBestModel, CoxPHModel, SVMRankingModel,
                  WeibullModel, AUCRankingModel):
        patch(model, "fit", f"core.fit.{model.name}")
        patch(model, "predict_pipe_risk", "core.predict")
    patch(dpmhbp.DPMHBP, "fit", "core.fit.DPMHBP",
          lambda a, out: {"visits": a[1].shape[0] * a[0].n_sweeps})
    # eval: the experiment functions and the metrics they call
    for attr in ("run_comparison", "prepare_region_data", "evaluate_models"):
        patch(experiment, attr, "eval.experiment")
    for attr in ("empirical_auc", "auc_at_budget", "permyriad"):
        patch(experiment, attr, "eval.metrics")
    # runs: the cell engine and the journal. execute_cell is pickled by
    # reference into pool workers, so the engine module must hold the very
    # object the experiment module ships.
    patch(engine, "execute_cell", "runs.cell")
    experiment.execute_cell = engine.execute_cell
    patch(RunJournal, "save_cell", "runs.checkpoint")
    patch(RunJournal, "load_completed", "runs.resume")
    for attr in ("create", "open"):  # classmethods: wrap the bound method
        wrapped = _wrap(tracer, getattr(RunJournal, attr), "runs.journal")
        setattr(RunJournal, attr, staticmethod(wrapped))
    for attr in ("check_config", "log_event", "record_failure"):
        patch(RunJournal, attr, "runs.journal")
