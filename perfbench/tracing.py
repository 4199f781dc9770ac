"""In-memory span recorder and the layer wrappers of the traced run.

One :class:`Tracer` serves both kinds of run.  The untraced run opens only
the benchmark's own phase spans (a handful per run), which is what the
end-to-end metrics are read from.  The traced run additionally calls
:meth:`Tracer.install_layers`, which wraps the public entry points of each
``repro`` layer, from this file, without touching ``src/``.  Wrappers are
removed again by :meth:`Tracer.uninstall`.

A span is ``(name, track, start_ns, end_ns, parent)``.  Spans nest strictly
(the simulator runs workers round-robin in one thread), so a stack gives
each span's self time: its duration minus the time its child spans cover.
Spans stay in memory and are written once, as a Chrome trace, at the end.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    track: str
    start_ns: int
    end_ns: int = 0
    parent: int = -1
    child_ns: int = 0

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def self_ns(self) -> int:
        return self.duration_ns - self.child_ns


class Tracer:
    """Records spans and counts; optionally wraps the ``repro`` layers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._track = "main"
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------- recording

    @contextmanager
    def span(self, name: str, track: str | None = None):
        previous_track = self._track
        if track is not None:
            self._track = track
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = Span(name, self._track, time.perf_counter_ns(), parent=parent)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end_ns = time.perf_counter_ns()
            self._stack.pop()
            if parent >= 0:
                self.spans[parent].child_ns += record.duration_ns
            self._track = previous_track

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    # ------------------------------------------------------------- summaries

    def total_s(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s.duration_ns for s in self.spans if s.name == name) / 1e9

    def self_s(self, name: str) -> float:
        """Summed self time of every span called ``name``."""
        return sum(s.self_ns for s in self.spans if s.name == name) / 1e9

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def durations_ms(self, name: str) -> list[float]:
        return [s.duration_ns / 1e6 for s in self.spans if s.name == name]

    def write_chrome_trace(self, path) -> None:
        """Write the spans as a Chrome trace (opens in Perfetto).

        Each track (``main`` plus one per worker) becomes one thread row;
        times are wall seconds from the first span.
        """
        from repro.obs.export import write_chrome_trace
        from repro.obs.sinks import InMemorySink, SpanRecord

        origin = self.spans[0].start_ns if self.spans else 0
        sink = InMemorySink()
        for span in self.spans:
            sink.emit_span(
                SpanRecord(
                    name=span.name,
                    track=span.track,
                    start=(span.start_ns - origin) / 1e9,
                    end=(span.end_ns - origin) / 1e9,
                    category=span.name.split(".")[0],
                )
            )
        write_chrome_trace(sink, str(path))

    # -------------------------------------------------------------- wrapping

    def wrap(self, owner, attr: str, name=None, track=None, after=None) -> None:
        """Replace ``owner.attr`` by a version that records span ``name``.

        ``name=None`` records no span; ``track(args)`` names the track the
        call runs on (default: the caller's); ``after(args, result)``
        records counts from the call.
        """
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if name is None:
                result = original(*args, **kwargs)
            else:
                with tracer.span(name, track(args) if track else None):
                    result = original(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def install_layers(self) -> None:
        """Wrap the public calls of every layer the benchmark reports on."""
        import repro.core.worker as worker_module
        from repro.cache.strategies import ConstantPartialStale, DynamicPartialStale
        from repro.cache.sync import HotEmbeddingCache
        from repro.core.evaluation import FilterIndex
        from repro.core.worker import Worker
        from repro.kg.graph import KnowledgeGraph
        from repro.optim.adagrad import SparseAdagrad
        from repro.optim.sgd import SparseSGD
        from repro.partition.metis import MetisPartitioner
        from repro.ps.kvstore import ShardedKVStore
        from repro.ps.server import ParameterServer
        from repro.sampling.cache import CachedNegativeSampler
        from repro.sampling.minibatch import EpochSampler
        from repro.stream.drift import AdaptiveStale, DriftDetector
        from repro.stream.ingest import OnlineTrainer

        def worker_track(args):
            return f"worker{args[0].machine}"

        def count_compute(args, grads):
            self.count("compute.scores", grads.num_scores)
            self.count("compute.positives", args[2].size)

        def count_drawn(args, batch):
            self.count("sampling.neg_drawn", batch.size * batch.num_negatives)

        self.wrap(KnowledgeGraph, "mutated", "kg.mutate")
        self.wrap(MetisPartitioner, "partition", "partition")
        self.wrap(EpochSampler, "next_batch", "sampling.batch")
        self.wrap(CachedNegativeSampler, "corrupt", after=count_drawn)
        self.wrap(CachedNegativeSampler, "plan_refresh", "sampling.neg_plan")
        self.wrap(CachedNegativeSampler, "complete_refresh", "sampling.neg_complete")
        self.wrap(CachedNegativeSampler, "invalidate_ids", "sampling.neg_invalidate")
        self.wrap(CachedNegativeSampler, "resize", "sampling.neg_resize")
        for strategy in (ConstantPartialStale, DynamicPartialStale, AdaptiveStale):
            self.wrap(strategy, "next_batch", "cache.select")
        self.wrap(HotEmbeddingCache, "fetch", "cache.fetch")
        self.wrap(HotEmbeddingCache, "apply_local_gradients", "cache.apply")
        self.wrap(HotEmbeddingCache, "install", "cache.install")
        self.wrap(HotEmbeddingCache, "force_sync", "cache.sync")
        self.wrap(HotEmbeddingCache, "invalidate_ids", "cache.invalidate")
        self.wrap(ParameterServer, "pull", "ps.pull")
        self.wrap(ParameterServer, "push", "ps.push")
        self.wrap(ShardedKVStore, "grow", "ps.grow")
        self.wrap(SparseAdagrad, "update", "optim.update")
        self.wrap(SparseSGD, "update", "optim.update")
        self.wrap(
            worker_module,
            "compute_batch_gradients",
            "compute",
            after=count_compute,
        )
        self.wrap(FilterIndex, "__init__", "eval.filter_index")
        self.wrap(Worker, "step", "worker.step", track=worker_track)
        self.wrap(Worker, "start", "worker.start", track=worker_track)
        self.wrap(DriftDetector, "observe", "stream.observe")
        # OnlineTrainer applies an update through one private method; its
        # span is the parent that ingest-time mutation and invalidation
        # self times are measured against.
        self.wrap(OnlineTrainer, "_apply_update", "stream.ingest")
