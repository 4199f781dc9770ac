"""Per-run accounting: the one rule that turns a run into its numbers.

Worker clocks, network totals and sampler counters are monotone over a
trainer's lifetime.  ``RunTally.take`` snapshots them, ``since(base)`` is
what one ``train()`` call did, and ``result_fields()`` yields the fields
``TrainResult`` and ``OnlineTrainResult`` share: the slowest machine's
time and its Fig. 7 split, the bytes moved, and the sampler counters.
Tallies are picklable, so mp worker processes send theirs to the parent,
which ``merge``s them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.ps.network import CommRecord, NetworkModel
from repro.utils.simclock import SimClock


@dataclass
class WorkerTally:
    """One worker's counters.  ``cache_keys`` and ``cache_hit_ratio`` are
    levels, reported as they stand; everything else is monotone and diffed.
    ``neg_cache`` is the hard-negative cache's ``counters()`` (``None``
    when the cache is off)."""

    machine: int
    clock: SimClock
    scored_candidates: int = 0
    false_negative_leaks: int = 0
    neg_cache: dict[str, int] | None = None
    neg_cache_comm: CommRecord = field(default_factory=CommRecord)
    cache_keys: int = 0
    cache_hit_ratio: float = 0.0

    @classmethod
    def of(cls, worker) -> "WorkerTally":
        neg = worker.neg_cache
        return cls(
            machine=worker.machine,
            clock=worker.clock.copy(),
            scored_candidates=worker.scored_candidates,
            false_negative_leaks=worker.sampler.negative_sampler.false_negative_leaks,
            neg_cache=neg.counters() if neg is not None else None,
            neg_cache_comm=worker.neg_cache_comm.copy(),
            cache_keys=neg.num_keys if neg is not None else 0,
            cache_hit_ratio=worker.cache_hit_ratio(),
        )

    def since(self, base: "WorkerTally") -> "WorkerTally":
        clock = SimClock(
            self.clock.elapsed - base.clock.elapsed,
            {k: v - base.clock.category(k) for k, v in self.clock.by_category.items()},
        )
        neg = self.neg_cache
        if neg is not None:
            neg = {k: v - (base.neg_cache or {}).get(k, 0) for k, v in neg.items()}
        return replace(
            self,
            clock=clock,
            scored_candidates=self.scored_candidates - base.scored_candidates,
            false_negative_leaks=self.false_negative_leaks - base.false_negative_leaks,
            neg_cache=neg,
            neg_cache_comm=self.neg_cache_comm.difference(base.neg_cache_comm),
        )


@dataclass
class RunTally:
    """Every worker's tally plus the traffic its network metered.

    ``comm`` is taken once per network, never per worker: simulated
    workers share one network, while each mp process meters its own.
    ``tier_elapsed`` is the tiered store's clock (0.0 when resident).
    """

    workers: list[WorkerTally]
    comm: CommRecord
    tier_elapsed: float = 0.0

    @classmethod
    def take(
        cls, workers, network: NetworkModel, tier_clock: SimClock | None = None
    ) -> "RunTally":
        return cls(
            [WorkerTally.of(w) for w in workers],
            network.totals.copy(),
            tier_clock.elapsed if tier_clock is not None else 0.0,
        )

    def since(self, base: "RunTally") -> "RunTally":
        return RunTally(
            [w.since(b) for w, b in zip(self.workers, base.workers)],
            self.comm.difference(base.comm),
            self.tier_elapsed - base.tier_elapsed,
        )

    @staticmethod
    def merge(tallies: list["RunTally"]) -> "RunTally":
        """Join per-process tallies, in rank order, into one run."""
        comm = CommRecord()
        for tally in tallies:
            comm.merge(tally.comm)
        return RunTally(
            [w for tally in tallies for w in tally.workers],
            comm,
            sum(tally.tier_elapsed for tally in tallies),
        )

    @property
    def slowest(self) -> WorkerTally:
        """The worker whose clock ran longest (the first one on ties)."""
        return max(self.workers, key=lambda w: w.clock.elapsed)

    def category_sum(self, name: str) -> float:
        return sum(w.clock.category(name) for w in self.workers)

    def neg_cache_stats(self) -> dict:
        """Hard-negative cache counters and refresh traffic summed over
        workers, plus the slowest machine's ``neg_cache`` seconds."""
        cached = [w for w in self.workers if w.neg_cache is not None]
        if not cached:
            return {}
        counters: dict[str, int] = {}
        refresh = CommRecord()
        for w in cached:
            for name, value in w.neg_cache.items():
                counters[name] = counters.get(name, 0) + value
            refresh.merge(w.neg_cache_comm)
        return {
            **counters,
            "cache_keys": sum(w.cache_keys for w in cached),
            "refresh_bytes": refresh.total_bytes,
            "refresh_remote_bytes": refresh.remote_bytes,
            "refresh_messages": refresh.total_messages,
            "neg_cache_time": self.slowest.clock.category("neg_cache"),
        }

    def result_fields(self) -> dict:
        """The fields ``TrainResult`` and ``OnlineTrainResult`` share."""
        slowest = self.slowest
        hit_ratios = [w.cache_hit_ratio for w in self.workers]
        return {
            "sim_time": slowest.clock.elapsed,
            "compute_time": slowest.clock.category("compute"),
            "communication_time": slowest.clock.category("communication"),
            "comm_totals": self.comm,
            "cache_hit_ratio": float(np.mean(hit_ratios)) if hit_ratios else 0.0,
            "false_negative_leaks": sum(w.false_negative_leaks for w in self.workers),
            "scored_candidates": sum(w.scored_candidates for w in self.workers),
            "neg_cache_stats": self.neg_cache_stats(),
        }

    def counters(self) -> dict[str, int]:
        """The named counters ``Telemetry.record_counters`` takes."""
        stats = self.neg_cache_stats()
        return {
            "false_negative_leaks": sum(w.false_negative_leaks for w in self.workers),
            "neg_cache_refreshes": stats.get("refreshes", 0),
            "neg_cache_candidates_scored": stats.get("candidates_scored", 0),
        }
