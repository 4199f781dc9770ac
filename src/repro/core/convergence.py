"""Training histories: loss/metrics against epochs and simulated time.

Feeds the paper's convergence figures (Fig. 5, Fig. 9): each epoch appends
one :class:`HistoryPoint`, and curves are read off as (time, MRR) or
(epoch, MRR) series.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def epoch_metrics(
    trainer, epoch, eval_graph, eval_every, filter_set, max_queries, num_candidates
) -> dict[str, float]:
    """The link-prediction metrics due after ``epoch`` (``{}`` if none):
    every ``eval_every`` epochs and after the last, given an ``eval_graph``."""
    due = eval_every is not None and epoch % eval_every == 0
    if eval_graph is None or not (due or epoch == trainer.config.epochs):
        return {}
    result = trainer.evaluate(
        eval_graph,
        filter_set=filter_set,
        max_queries=max_queries,
        num_candidates=num_candidates,
    )
    return {
        "mrr": result.mrr,
        "mr": result.mr,
        **{f"hits@{k}": v for k, v in result.hits.items()},
    }


@dataclass
class HistoryPoint:
    """State at the end of one epoch."""

    epoch: int
    sim_time: float  # cumulative simulated seconds (slowest machine)
    loss: float  # mean batch loss over the epoch
    metrics: dict[str, float] = field(default_factory=dict)  # e.g. {"mrr": ...}


@dataclass
class TrainingHistory:
    """Ordered sequence of epoch snapshots."""

    points: list[HistoryPoint] = field(default_factory=list)

    def append(self, point: HistoryPoint) -> None:
        if self.points and point.epoch <= self.points[-1].epoch:
            raise ValueError(
                f"epochs must increase: got {point.epoch} after "
                f"{self.points[-1].epoch}"
            )
        self.points.append(point)

    def __len__(self) -> int:
        return len(self.points)

    def series(self, metric: str) -> tuple[list[float], list[float]]:
        """(sim_times, metric values) for the epochs that recorded it."""
        times, values = [], []
        for p in self.points:
            if metric in p.metrics:
                times.append(p.sim_time)
                values.append(p.metrics[metric])
        return times, values

    def epoch_series(self, metric: str) -> tuple[list[int], list[float]]:
        """(epochs, metric values) for the epochs that recorded it."""
        epochs, values = [], []
        for p in self.points:
            if metric in p.metrics:
                epochs.append(p.epoch)
                values.append(p.metrics[metric])
        return epochs, values

    def losses(self) -> list[float]:
        return [p.loss for p in self.points]

    def final_metric(self, metric: str, default: float = 0.0) -> float:
        """Last recorded value of ``metric``."""
        for p in reversed(self.points):
            if metric in p.metrics:
                return p.metrics[metric]
        return default

    def time_to_reach(self, metric: str, target: float) -> float | None:
        """Simulated time of the first epoch where ``metric >= target``
        (None if never reached) — the paper's time-to-accuracy readout."""
        for p in self.points:
            if p.metrics.get(metric, float("-inf")) >= target:
                return p.sim_time
        return None
