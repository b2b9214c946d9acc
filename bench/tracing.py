"""Spans and counts around the program's public calls, for the traced run.

``install`` rebinds the public functions that ``tuning`` calls (the
optimizers, ``evaluate_triple``, ``make_fitness``, ``train_svr`` and
``predict_batch``) to wrappers that record a span: name, start, end,
parent and process. Fitness calls go through ``TracedObjective``. Forked
pool workers inherit the wrappers, keep their own spans in memory and
write them to ``worker-<pid>.jsonl`` when they exit; ``collect`` merges
them. Times are ``time.monotonic_ns``, which all processes share.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from contextlib import contextmanager, nullcontext
from multiprocessing import util
from pathlib import Path

TRACER: "Tracer | None" = None


class NullTracer:
    """The untraced run: spans cost one call and record nothing."""

    def span(self, name, **attrs):
        return nullcontext()


class Tracer:
    def __init__(self, out_dir: Path) -> None:
        self.out_dir = out_dir
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self._stack: list[str] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self.pickles = 0
        self.objectives: list[dict] = []

    def _claim(self) -> None:
        pid = os.getpid()
        if pid != self.pid:  # first span in a forked pool worker
            self.pid = pid
            self.spans = []
            self._stack = []
            util.Finalize(None, self._flush_worker, exitpriority=100)

    def _flush_worker(self) -> None:
        path = self.out_dir / f"worker-{self.pid}.jsonl"
        path.write_text("".join(json.dumps(s) + "\n" for s in self.spans), encoding="utf-8")

    @contextmanager
    def span(self, name: str, **attrs):
        self._claim()
        sid = f"{self.pid}:{next(self._ids)}"
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.monotonic_ns()
        try:
            yield
        finally:
            end = time.monotonic_ns()
            self._stack.pop()
            self.spans.append({"name": name, "id": sid, "parent": parent, "pid": self.pid,
                               "start": start, "end": end, **attrs})

    def count_pickle(self) -> None:
        with self._lock:
            self.pickles += 1

    def collect(self) -> list[dict]:
        """Parent spans plus every worker file, sorted by start."""
        spans = list(self.spans)
        for path in sorted(self.out_dir.glob("worker-*.jsonl")):
            spans.extend(json.loads(line) for line in path.read_text().splitlines())
            path.unlink()
        return sorted(spans, key=lambda s: s["start"])


class TracedObjective:
    """A fitness objective that records one span per call.

    Pickling it counts one shipment of the objective to a pool worker.
    """

    def __init__(self, inner) -> None:
        self.inner = inner

    def __call__(self, x):
        with TRACER.span("tuning.fitness", x=[float(v) for v in x]):
            return self.inner(x)

    def __getstate__(self):
        TRACER.count_pickle()
        return self.__dict__


def install(tracer: Tracer, tuning) -> callable:
    """Trace the public calls made from ``tuning``; returns the undo."""
    global TRACER
    TRACER = tracer
    saved = []

    def wrap(attr, name, attrs=None):
        orig = getattr(tuning, attr)

        def traced(*args, **kwargs):
            with tracer.span(name, **(attrs(*args) if attrs else {})):
                return orig(*args, **kwargs)

        saved.append((attr, orig))
        setattr(tuning, attr, traced)

    wrap("de_optimize", "optim.de_optimize", lambda obj, space, config, *a: {"pop": config.pop_size})
    wrap("pso_optimize", "optim.pso_optimize", lambda obj, space, config, *a: {"pop": config.swarm})
    wrap("evaluate_triple", "tuning.evaluate_triple")
    wrap("train_svr", "svr.train_svr", lambda x, y, *a: {"rows": len(y)})
    wrap("predict_batch", "svr.predict_batch", lambda model, x: {"rows": len(x)})

    make_fitness = tuning.make_fitness

    def traced_make_fitness(*args, **kwargs):
        with tracer.span("tuning.make_fitness"):
            inner = make_fitness(*args, **kwargs)
        tracer.objectives.append(inner)
        return TracedObjective(inner)

    saved.append(("make_fitness", make_fitness))
    tuning.make_fitness = traced_make_fitness

    def undo() -> None:
        global TRACER
        for attr, orig in saved:
            setattr(tuning, attr, orig)
        TRACER = None

    return undo
