"""The benchmark's workloads and the end-to-end pipeline that runs one.

Every workload is a batch training job driven by one caller (a closed
loop with one client): generate a synthetic dataset, split it, build the
filter set, set the simulated cluster up, run the step loop and finish
with a filtered link-prediction pass.  ``run_workload`` times those phases
with the benchmark's own spans and checks the run from outside the
program.  Why each workload exists is documented in ``README.md``.
"""

from __future__ import annotations

import math
import os
import shutil
from dataclasses import asdict, dataclass, replace

import numpy as np

# Every repro module a workload reaches is imported here, before any span
# opens, so that ``e2e_s`` and ``setup_s`` time the work and not the loading
# of modules that ``repro`` would otherwise import on first use.
import repro.cache.filtering  # noqa: F401
import repro.core.baselines  # noqa: F401
import repro.ps.network  # noqa: F401
import repro.tier.runtime  # noqa: F401
from repro.core.config import TrainingConfig
from repro.core.trainer import make_trainer
from repro.kg.datasets import generate_dataset
from repro.kg.splits import split_triples
from repro.partition.quality import balance, cut_fraction
from repro.stream import OnlineTrainer, make_stream

#: Embedding dimension of every workload (TransE: one row width for both tables).
DIM = 16
#: Salts that derive the per-purpose seeds from the one workload seed.
DATA_SALT, SPLIT_SALT, CONFIG_SALT, STREAM_SALT = 11, 23, 37, 53


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    scale: float
    system: str
    epochs: int
    eval_queries: int
    backing: str = "resident"
    #: Tiered budget as a share of the logical embedding-table bytes.
    budget_fraction: float | None = None
    neg_cache: str = "off"
    stream_profile: str | None = None

    def smoke(self) -> "Workload":
        """A seconds-long version with every code path still exercised."""
        return replace(
            self,
            scale=min(self.scale, 0.01),
            epochs=min(self.epochs, 2),
            eval_queries=min(self.eval_queries, 20),
        )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fb15k-dps",
            dataset="fb15k",
            scale=0.1,
            system="hetkg-d",
            epochs=6,
            eval_queries=2000,
        ),
        Workload(
            name="fb15k-dglke-tiered",
            dataset="fb15k",
            scale=0.1,
            system="dglke",
            epochs=6,
            eval_queries=2000,
            backing="tiered",
            budget_fraction=0.5,
        ),
        Workload(
            name="fb15k-stream-negcache",
            dataset="fb15k",
            scale=0.05,
            system="hetkg-a",
            epochs=4,
            eval_queries=1500,
            neg_cache="nscaching",
            stream_profile="rotation",
        ),
    )
}


def derive_seed(seed: int, salt: int) -> int:
    return (seed * 1_000_003 + salt) % (2**31 - 1)


def _setup(w: Workload, seed: int, tracer, scratch_dir: str):
    """Generate, split and filter the data; build and start the cluster."""
    online = None
    with tracer.span("setup"):
        with tracer.span("kg.generate"):
            graph = generate_dataset(
                w.dataset, scale=w.scale, seed=derive_seed(seed, DATA_SALT)
            )
        with tracer.span("kg.split"):
            split = split_triples(graph, seed=derive_seed(seed, SPLIT_SALT))
        with tracer.span("kg.filter_set"):
            filter_set = graph.triple_set()
        config = TrainingConfig(
            model="transe",
            dim=DIM,
            # lr 0.5 (not the paper's 0.1) lets MRR settle within a few
            # epochs, which keeps it steady from seed to seed.
            lr=0.5,
            epochs=w.epochs,
            num_machines=4,
            batch_size=128,
            num_negatives=16,
            cache_capacity=1024,
            dps_window=16,
            neg_cache=w.neg_cache,
            backing=w.backing,
            memory_budget=_budget(w, graph),
            tier_dir=scratch_dir if w.backing == "tiered" else None,
            seed=derive_seed(seed, CONFIG_SALT),
        )
        trainer = make_trainer(w.system, config)
        with tracer.span("trainer.setup"):
            trainer.setup(split.train)
        if w.stream_profile is not None:
            iterations = max(x.sampler.batches_per_epoch for x in trainer.workers)
            stream = make_stream(
                w.stream_profile,
                split.train,
                steps=w.epochs * iterations,
                seed=derive_seed(seed, STREAM_SALT),
            )
            online = OnlineTrainer(trainer, stream)
        with tracer.span("workers.start"):
            for worker in trainer.workers:
                worker.start()
    return graph, split, filter_set, config, trainer, online


def run_workload(w: Workload, seed: int, tracer, scratch_dir: str) -> dict:
    """Run ``w`` end to end once; return metrics, fingerprint and checks.

    One set-up, step loop and eval pass, timed by the ``e2e`` span.
    ``tracer`` receives the phase spans (and, in a traced run, the layer
    spans its wrappers record).  ``scratch_dir`` holds the tiered store's
    backing files and is removed before returning.
    """
    try:
        return _run(w, seed, tracer, scratch_dir)
    finally:
        shutil.rmtree(scratch_dir, ignore_errors=True)


def _run(w: Workload, seed: int, tracer, scratch_dir: str) -> dict:
    with tracer.span("e2e"):
        graph, split, filter_set, config, trainer, online = _setup(
            w, seed, tracer, scratch_dir
        )
        with tracer.span("train"):
            if online is not None:
                result = online.train(split.train)
                final_loss = result.mean_loss
            else:
                result = trainer.train(split.train)
                final_loss = result.history.points[-1].loss
        with tracer.span("eval"):
            evaluation = trainer.evaluate(
                split.test,
                filter_set=filter_set,
                max_queries=w.eval_queries,
                num_candidates=None,
            )

    workers = trainer.workers
    slowest = max(workers, key=lambda x: x.clock.elapsed)
    network = trainer.network.totals
    training_scores = sum(
        x.scored_candidates
        - (x.neg_cache.candidates_scored if x.neg_cache is not None else 0)
        for x in workers
    )
    positives = training_scores // (1 + config.num_negatives)
    memory = trainer.server.store.memory_report()
    steps = sum(x.iterations for x in workers)

    checks = {
        "mrr_in_unit_interval": bool(
            math.isfinite(evaluation.mrr) and 0.0 <= evaluation.mrr <= 1.0
        ),
        "clock_categories_sum_to_elapsed": all(
            math.isclose(
                sum(x.clock.by_category.values()),
                x.clock.elapsed,
                rel_tol=1e-9,
                abs_tol=1e-12,
            )
            for x in workers
        ),
        "cache_rows_within_capacity": all(
            len(x.cache.cached_ids("entity")) + len(x.cache.cached_ids("relation"))
            <= config.cache_capacity
            for x in workers
            if x.cache is not None
        ),
        "tier_resident_within_budget": memory["budget_bytes"] is None
        or memory["resident_bytes"] <= memory["budget_bytes"],
    }
    e2e_s = tracer.total_s("e2e")
    train_s = tracer.total_s("train")
    out = {
        "metrics": {
            "e2e_s": e2e_s,
            "setup_s": tracer.total_s("setup"),
            "train_triples_per_s": positives / train_s,
            "eval_s": tracer.total_s("eval"),
            "mrr": evaluation.mrr,
            "sim_s": slowest.clock.elapsed,
            "remote_mb": network.remote_bytes / 1e6,
        },
        "fingerprint": {
            "final_loss": float(final_loss).hex(),
            "mrr": float(evaluation.mrr).hex(),
            "remote_mb": float(network.remote_bytes / 1e6).hex(),
            "sim_s": float(slowest.clock.elapsed).hex(),
        },
        "checks": checks,
        "config": {
            "workload": asdict(w),
            "training_config": {
                k: v for k, v in asdict(config).items() if k != "tier_dir"
            },
            "graph": {
                "entities": graph.num_entities,
                "relations": graph.num_relations,
                "triples": graph.num_triples,
            },
        },
        "counts": {
            "positives": positives,
            "steps": steps,
        },
    }
    out["layers"] = {
        "partition.cut_fraction": cut_fraction(split.train, trainer.partition),
        "partition.balance": balance(trainer.partition),
        "cache.hit_ratio": float(
            np.mean([x.cache_hit_ratio() for x in workers])
            if any(x.cache is not None for x in workers)
            else 0.0
        ),
        "ps.remote_bytes_per_step": network.remote_bytes / steps,
        "ps.messages_per_step": network.total_messages / steps,
        "eval.queries": evaluation.num_queries // 2,
        "sim.compute_s": slowest.clock.category("compute"),
        "sim.comm_s": slowest.clock.category("communication"),
        "sim.neg_cache_s": slowest.clock.category("neg_cache"),
        "sim.ingest_s": slowest.clock.category("ingest"),
        **_neg_cache_layers(workers),
        **_tier_layers(memory),
        **_stream_layers(online, result),
    }
    trainer.server.store.close()
    return out


def _budget(w: Workload, graph) -> int | None:
    if w.budget_fraction is None:
        return None
    logical = (graph.num_entities + graph.num_relations) * DIM * 8
    return int(logical * w.budget_fraction)


def _neg_cache_layers(workers) -> dict:
    caches = [x.neg_cache for x in workers if x.neg_cache is not None]
    return {
        "sampling.neg_refreshes": sum(c.refreshes for c in caches),
        "sampling.neg_candidates_scored": sum(c.candidates_scored for c in caches),
        "sampling.hard_negatives_served": sum(c.hard_negatives_served for c in caches),
    }


def _tier_layers(memory: dict) -> dict:
    tables = memory["tables"].values()
    if memory["backing"] != "tiered":
        return {
            "tier.hot_hit_ratio": 0.0,
            "tier.promoted_blocks": 0,
            "tier.evicted_blocks": 0,
            "tier.resident_mb": 0.0,
        }
    hot = sum(t["hot_rows"] for t in tables)
    accesses = sum(t["accesses"] for t in tables)
    return {
        "tier.hot_hit_ratio": hot / accesses if accesses else 0.0,
        "tier.promoted_blocks": sum(t["promoted_blocks"] for t in tables),
        "tier.evicted_blocks": sum(t["evicted_blocks"] for t in tables),
        "tier.resident_mb": memory["resident_bytes"] / 1e6,
    }


def _stream_layers(online, result) -> dict:
    if online is None:
        return {
            "stream.updates": 0,
            "stream.adaptive_rebuilds": 0,
            "stream.preq_mrr": 0.0,
        }
    return {
        "stream.updates": result.updates_applied,
        "stream.adaptive_rebuilds": result.adaptive_rebuilds,
        "stream.preq_mrr": result.prequential.final_mrr,
    }


def scratch_dir_for(out_dir: str) -> str:
    path = os.path.join(out_dir, f"tier-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path
