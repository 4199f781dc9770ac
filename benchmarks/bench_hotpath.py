"""Hot-path kernel microbenchmarks + perf-regression gate.

Measures the vectorized kernels against *reference implementations* that
replicate the pre-vectorization code (dict slot maps, Python sort loops,
``np.add.at`` scatters, O(capacity) LFU eviction scans).  Because the
reference and the kernel run back-to-back in the same process, the
**speedup ratio is machine-independent** — which is what the CI gate
checks, rather than absolute nanoseconds that vary across runners.

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpath.py            # bench + write BENCH_core.json
    PYTHONPATH=src python benchmarks/bench_hotpath.py --check    # CI gate vs committed BENCH_core.json
    PYTHONPATH=src python benchmarks/bench_hotpath.py --quick    # fewer reps, skip end-to-end

The gate fails when any kernel's measured speedup drops below the
committed speedup divided by ``REGRESSION_FACTOR`` (1.5x), i.e. a >1.5x
relative regression of the kernel against its own reference.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.cache.filtering import filter_hot_ids  # noqa: E402
from repro.cache.policies import EvictionPolicy, LFUCache  # noqa: E402
from repro.cache.prefetch import _fold_counts  # noqa: E402
from repro.cache.table import CacheTable  # noqa: E402
from repro.core.evaluation import (  # noqa: E402
    FilterIndex,
    _full_ranks_reference,
    _ranks_batched,
)
from repro.models import get_model  # noqa: E402
from repro.utils.kernels import scatter_add_rows  # noqa: E402

BENCH_PATH = pathlib.Path(__file__).resolve().parents[1] / "BENCH_core.json"

#: CI fails when a kernel's speedup falls below committed / this factor.
REGRESSION_FACTOR = 1.5

#: Pre-vectorization end-to-end wall-clock (measured on the commit before
#: this pass, same workloads as ``_end_to_end`` below).  Informational:
#: absolute seconds are machine-dependent, so the CI gate uses the
#: in-process kernel speedups instead.
END_TO_END_BASELINE = {"table6_seconds": 1.550, "train_seconds": 2.787}


# ----------------------------------------------------------------- timing


def best_ns(fn, reps: int, repeats: int = 5) -> float:
    """Best-of-``repeats`` mean ns/op over ``reps`` calls of ``fn``."""
    fn()  # warm-up (allocations, caches, lazy imports)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        for _ in range(reps):
            fn()
        best = min(best, (time.perf_counter_ns() - t0) / reps)
    return best


# ------------------------------------------- reference (pre-change) kernels


class RefCacheTable:
    """The former dict-slot-map cache table (per-id Python loops)."""

    def __init__(self, capacity: int, width: int) -> None:
        self.capacity = capacity
        self.width = width
        self._slot_of: dict[int, int] = {}
        self._rows = np.zeros((capacity, width))

    def install(self, ids: np.ndarray, rows: np.ndarray) -> None:
        self._slot_of = {int(e): i for i, e in enumerate(ids)}
        self._rows[: len(ids)] = rows

    def partition_hits(self, ids: np.ndarray):
        mask = np.fromiter(
            (int(e) in self._slot_of for e in ids), dtype=bool, count=len(ids)
        )
        return mask, ids[mask], ids[~mask]

    def get(self, ids: np.ndarray) -> np.ndarray:
        slots = np.fromiter(
            (self._slot_of[int(e)] for e in ids), dtype=np.int64, count=len(ids)
        )
        return self._rows[slots]


def ref_top_ids(counts: dict[int, int], k: int) -> np.ndarray:
    """The former Python-sorted frequency top-k."""
    if k <= 0 or not counts:
        return np.empty(0, dtype=np.int64)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return np.asarray([key for key, _ in ranked[:k]], dtype=np.int64)


def ref_fold_counts(chunks: list[np.ndarray]) -> dict[int, int]:
    """The former per-chunk dict-merge access counter."""
    out: dict[int, int] = {}
    for chunk in chunks:
        ids, counts = np.unique(chunk, return_counts=True)
        for e, c in zip(ids.tolist(), counts.tolist()):
            out[e] = out.get(e, 0) + c
    return out


def ref_scatter_add(indices: np.ndarray, rows: np.ndarray, n_out: int):
    """The former ``np.add.at`` gradient scatter."""
    out = np.zeros((n_out, rows.shape[1]))
    np.add.at(out, indices, rows)
    return out


class RefLFUCache(EvictionPolicy):
    """The former LFU with an O(capacity) ``min`` scan per eviction."""

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        from collections import Counter, OrderedDict

        self._counts: "dict[int, int]" = Counter()
        self._members: "OrderedDict[int, None]" = OrderedDict()

    def _access(self, key: int) -> bool:
        self._counts[key] += 1
        if key in self._members:
            self._members.move_to_end(key)
            return True
        if len(self._members) >= self.capacity:
            victim = min(self._members, key=lambda k: (self._counts[k], 0))
            del self._members[victim]
        self._members[key] = None
        return False

    def __len__(self) -> int:
        return len(self._members)


# ----------------------------------------------------------- micro benches


def bench_micro(quick: bool) -> dict[str, dict[str, float]]:
    rng = np.random.default_rng(0)
    reps = 20 if quick else 100
    ops: dict[str, dict[str, float]] = {}

    def record(name, vec_fn, ref_fn, vec_reps=reps, ref_reps=None):
        vec_ns = best_ns(vec_fn, vec_reps)
        ref_ns = best_ns(ref_fn, ref_reps or max(3, vec_reps // 10))
        ops[name] = {
            "ns_per_op": round(vec_ns, 1),
            "ref_ns_per_op": round(ref_ns, 1),
            "speedup_vs_ref": round(ref_ns / vec_ns, 2),
        }

    # cache fetch: membership + gather for a mixed hit/miss batch.
    capacity, width, batch = 1024, 32, 512
    cached_ids = rng.choice(100_000, size=capacity, replace=False).astype(np.int64)
    rows = rng.standard_normal((capacity, width))
    query = np.concatenate(
        [rng.choice(cached_ids, size=batch // 2), rng.integers(100_000, 200_000, size=batch // 2)]
    ).astype(np.int64)
    vec_table = CacheTable(capacity, width)
    vec_table.install(cached_ids, rows)
    ref_table = RefCacheTable(capacity, width)
    ref_table.install(cached_ids, rows)

    def vec_fetch():
        mask, hit_ids, _ = vec_table.partition_hits(query)
        vec_table.get(hit_ids)

    def ref_fetch():
        mask, hit_ids, _ = ref_table.partition_hits(query)
        ref_table.get(hit_ids)

    record("cache_fetch", vec_fetch, ref_fetch)

    # cache install: rebuild the table membership from scratch.
    record(
        "cache_install",
        lambda: CacheTable(capacity, width).install(cached_ids, rows),
        lambda: RefCacheTable(capacity, width).install(cached_ids, rows),
    )

    # hot-id filtering: frequency top-k with the heterogeneity split.
    n_ids = 20_000
    ent_counts = dict(
        zip(range(n_ids), rng.zipf(1.3, size=n_ids).astype(int).tolist())
    )
    rel_counts = dict(
        zip(range(400), rng.zipf(1.2, size=400).astype(int).tolist())
    )

    def ref_filter():
        k = 1024
        e_slots = int(round(k * 0.25))
        ref_top_ids(ent_counts, e_slots)
        ref_top_ids(rel_counts, k - e_slots)

    record(
        "topk_filter",
        lambda: filter_hot_ids(ent_counts, rel_counts, 1024, 0.25),
        ref_filter,
    )

    # prefetch access counting over a window of batch id chunks.
    chunks = [rng.integers(0, 5_000, size=640).astype(np.int64) for _ in range(50)]
    record(
        "prefetch_count",
        lambda: _fold_counts(chunks),
        lambda: ref_fold_counts(chunks),
    )

    # gradient scatter-add (the backward pass + optimizer coalesce core).
    n_rows, dim, n_contrib = 600, 16, 4_000
    idx = rng.integers(0, n_rows, size=n_contrib)
    grads = rng.standard_normal((n_contrib, dim))
    vec = scatter_add_rows(idx, grads, n_rows)
    ref = ref_scatter_add(idx, grads, n_rows)
    assert np.array_equal(vec, ref), "scatter_add_rows diverged from np.add.at"
    record(
        "scatter_add",
        lambda: scatter_add_rows(idx, grads, n_rows),
        lambda: ref_scatter_add(idx, grads, n_rows),
    )

    # LFU policy replay (Table VI trace simulation).
    trace = (rng.zipf(1.2, size=4_000 if quick else 20_000) % 3_000).tolist()

    def replay(policy_cls):
        policy = policy_cls(256)
        for key in trace:
            policy.access(key)
        return policy.hit_ratio

    hr_vec, hr_ref = replay(LFUCache), replay(RefLFUCache)
    assert hr_vec == hr_ref, "LFUCache diverged from min-scan reference"
    record(
        "lfu_replay",
        lambda: replay(LFUCache),
        lambda: replay(RefLFUCache),
        vec_reps=3,
        ref_reps=2,
    )

    # Filtered full ranking: cache-sized gather-free blocks and the CSR
    # filter against the per-query reference loop (the equivalence oracle).
    n_ent, n_rel, dim = 1_000, 50, 16
    model = get_model("transe", dim=dim)
    ent_table = rng.standard_normal((n_ent, dim))
    rel_table = rng.standard_normal((n_rel, dim))
    known = np.column_stack(
        [
            rng.integers(0, n_ent, 20_000),
            rng.integers(0, n_rel, 20_000),
            rng.integers(0, n_ent, 20_000),
        ]
    )
    filter_index = FilterIndex({tuple(x) for x in known.tolist()})
    queries = known[:200]
    ranks = _ranks_batched(model, ent_table, rel_table, queries, False, filter_index)
    assert ranks == _full_ranks_reference(
        model, ent_table, rel_table, queries, False, filter_index
    ), "_ranks_batched diverged from the per-query reference"
    record(
        "eval_rank",
        lambda: _ranks_batched(
            model, ent_table, rel_table, queries, False, filter_index
        ),
        lambda: _full_ranks_reference(
            model, ent_table, rel_table, queries, False, filter_index
        ),
        vec_reps=5,
        ref_reps=3,
    )
    return ops


# ------------------------------------------------------------- end to end


def bench_end_to_end() -> dict[str, float]:
    """Wall-clock of two representative workloads (absolute seconds —
    informational, machine-dependent; compare on one machine only)."""
    from repro.core.config import TrainingConfig
    from repro.core.trainer import make_trainer
    from repro.experiments.cache_study import run_table6
    from repro.kg.datasets import generate_dataset
    from repro.kg.splits import split_triples

    # Single run: run_table6 memoises its dataset bundle per process, so a
    # best-of-N here would unfairly exclude dataset generation from every
    # rep after the first (the committed baseline timed a cold run).
    t0 = time.perf_counter()
    run_table6(scale=0.03)
    table6_s = time.perf_counter() - t0

    graph = generate_dataset("fb15k", scale=0.05, seed=11)
    split = split_triples(graph, seed=11)
    config = TrainingConfig(
        model="transe", dim=16, epochs=3, batch_size=64, num_negatives=8,
        num_machines=4, cache_capacity=256, sync_period=4, dps_window=16,
        seed=0,
    )
    train_s = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        trainer = make_trainer("hetkg-d", config)
        trainer.train(
            split.train,
            eval_graph=split.test,
            filter_set=graph.triple_set(),
            eval_max_queries=200,
            eval_candidates=100,
        )
        train_s = min(train_s, time.perf_counter() - t0)
    return {
        "table6_seconds": round(table6_s, 3),
        "table6_baseline_seconds": END_TO_END_BASELINE["table6_seconds"],
        "table6_speedup": round(END_TO_END_BASELINE["table6_seconds"] / table6_s, 2),
        "train_seconds": round(train_s, 3),
        "train_baseline_seconds": END_TO_END_BASELINE["train_seconds"],
        "train_speedup": round(END_TO_END_BASELINE["train_seconds"] / train_s, 2),
    }


# ------------------------------------------------------------------- main


def render(report: dict) -> str:
    lines = [f"{'op':16s} {'ns/op':>12s} {'ref ns/op':>12s} {'speedup':>8s}"]
    for name, entry in report["ops"].items():
        lines.append(
            f"{name:16s} {entry['ns_per_op']:>12,.0f} "
            f"{entry['ref_ns_per_op']:>12,.0f} {entry['speedup_vs_ref']:>7.2f}x"
        )
    e2e = report.get("end_to_end")
    if e2e:
        lines.append(
            f"{'table6 e2e':16s} {e2e['table6_seconds']:.2f}s vs "
            f"{e2e['table6_baseline_seconds']:.2f}s baseline "
            f"({e2e['table6_speedup']:.2f}x)"
        )
        lines.append(
            f"{'train e2e':16s} {e2e['train_seconds']:.2f}s vs "
            f"{e2e['train_baseline_seconds']:.2f}s baseline "
            f"({e2e['train_speedup']:.2f}x)"
        )
    return "\n".join(lines)


def check(report: dict) -> int:
    """Gate the measured kernel speedups against the committed baseline."""
    if not BENCH_PATH.exists():
        print(f"no committed baseline at {BENCH_PATH}; run without --check first")
        return 2
    committed = json.loads(BENCH_PATH.read_text())
    failures = []
    for name, entry in committed["ops"].items():
        measured = report["ops"].get(name)
        if measured is None:
            failures.append(f"{name}: missing from this run")
            continue
        floor = entry["speedup_vs_ref"] / REGRESSION_FACTOR
        if measured["speedup_vs_ref"] < floor:
            failures.append(
                f"{name}: speedup {measured['speedup_vs_ref']:.2f}x "
                f"< floor {floor:.2f}x "
                f"(committed {entry['speedup_vs_ref']:.2f}x / {REGRESSION_FACTOR})"
            )
    if failures:
        print("PERF REGRESSION:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"perf check OK: all {len(committed['ops'])} kernels within "
          f"{REGRESSION_FACTOR}x of committed speedups")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against committed BENCH_core.json instead of rewriting it",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="fewer repetitions and no end-to-end timing (CI mode)",
    )
    args = parser.parse_args(argv)

    report: dict = {"schema": 1, "ops": bench_micro(quick=args.quick)}
    if not args.quick:
        report["end_to_end"] = bench_end_to_end()
    print(render(report))

    if args.check:
        return check(report)
    BENCH_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {BENCH_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
