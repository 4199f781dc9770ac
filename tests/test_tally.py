"""Unit tests for the per-run accounting type (repro.core.tally)."""

from __future__ import annotations

import pickle

import pytest

from repro.core.config import TrainingConfig
from repro.core.tally import RunTally, WorkerTally
from repro.core.trainer import HETKGTrainer
from repro.ps.network import CommRecord
from repro.utils.simclock import SimClock


def config(**overrides) -> TrainingConfig:
    defaults = dict(
        model="transe", dim=8, epochs=1, batch_size=16, num_negatives=4,
        num_machines=2, cache_strategy="dps", cache_capacity=64,
        dps_window=4, sync_period=4, seed=1, neg_cache="nscaching",
        neg_cache_refresh=2,
    )
    defaults.update(overrides)
    return TrainingConfig(**defaults)


@pytest.fixture(scope="module")
def trained(small_split):
    trainer = HETKGTrainer(config())
    result = trainer.train(small_split.train)
    return trainer, result


def test_untouched_run_is_all_zero(trained):
    trainer, _ = trained
    base = trainer.tally()
    run = trainer.tally().since(base)
    assert run.comm.total_bytes == run.comm.total_messages == 0
    assert run.comm.retransmit_bytes == 0
    assert run.tier_elapsed == 0.0
    for w in run.workers:
        assert w.clock.elapsed == 0.0
        assert all(v == 0.0 for v in w.clock.by_category.values())
        assert w.scored_candidates == w.false_negative_leaks == 0
        assert all(v == 0 for v in w.neg_cache.values())
        assert w.neg_cache_comm.total_bytes == 0
    fields = run.result_fields()
    assert fields["sim_time"] == 0.0
    assert fields["scored_candidates"] == 0
    assert all(v == 0 for v in run.counters().values())


def test_levels_are_not_diffed(trained):
    trainer, result = trained
    base = trainer.tally()
    run = trainer.tally().since(base)
    assert [w.cache_keys for w in run.workers] == [
        w.neg_cache.num_keys for w in trainer.workers
    ]
    assert [w.cache_hit_ratio for w in run.workers] == [
        w.cache_hit_ratio() for w in trainer.workers
    ]
    assert run.neg_cache_stats()["cache_keys"] > 0
    assert run.result_fields()["cache_hit_ratio"] == result.cache_hit_ratio > 0


def test_merge_of_per_worker_tallies_equals_one_tally(trained):
    trainer, _ = trained
    whole = trainer.tally()
    # Per-process shape: each rank meters its own network.  Splitting the
    # shared totals across ranks and merging must give the whole back.
    parts = [
        RunTally(workers=[w], comm=whole.comm if i == 0 else CommRecord())
        for i, w in enumerate(whole.workers)
    ]
    merged = RunTally.merge(parts)
    assert merged == whole
    assert merged.result_fields() == whole.result_fields()
    assert merged.counters() == whole.counters()


def test_merge_sums_comm_once_per_network():
    a = RunTally(
        [WorkerTally(0, SimClock(1.0, {"compute": 1.0}))], CommRecord(10, 20, 1, 2)
    )
    b = RunTally(
        [WorkerTally(1, SimClock(2.0, {"compute": 2.0}))], CommRecord(1, 2, 3, 4)
    )
    merged = RunTally.merge([a, b])
    assert [w.machine for w in merged.workers] == [0, 1]
    assert merged.comm == CommRecord(11, 22, 4, 6)
    assert merged.slowest.machine == 1
    assert merged.category_sum("compute") == 3.0


def test_result_fields_match_train_result(trained, small_split):
    trainer, _ = trained
    base = trainer.tally()
    result = trainer.train(small_split.train)
    fields = trainer.tally().since(base).result_fields()
    for name, value in fields.items():
        assert getattr(result, name) == value, name


def test_tally_pickles(trained):
    trainer, _ = trained
    tally = trainer.tally()
    assert pickle.loads(pickle.dumps(tally)) == tally
