"""One repetition of one workload, in a process of its own.

``run.py`` starts this script once per repetition, so every repetition
pays the same cold start and ``peak_rss_mb`` is the peak of the process
that ran the workload.  It prints one JSON object as its last line.

    python3 perfbench/rep.py --workload fb15k-dps --seed 1 --trace 0
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"


def _import_repro():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        raise SystemExit(f"repro imported from {repro.__file__}, not {src}")


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


def layer_metrics(tracer, out: dict) -> dict:
    """Per-layer metrics of a traced repetition (self times unless noted)."""
    t = tracer
    layers = dict(out["layers"])
    served = layers.pop("sampling.hard_negatives_served")
    drawn = t.counts["sampling.neg_drawn"]
    steps_ms = t.durations_ms("worker.step")
    layers.update(
        {
            "kg.generate_s": t.total_s("kg.generate"),
            "kg.split_s": t.total_s("kg.split"),
            "kg.filter_set_s": t.total_s("kg.filter_set"),
            "kg.mutate_s": t.self_s("kg.mutate"),
            "kg.mutations": t.calls("kg.mutate"),
            "partition.s": t.self_s("partition"),
            "sampling.batch_s": t.self_s("sampling.batch"),
            "sampling.batches": t.calls("sampling.batch"),
            "sampling.neg_plan_s": t.self_s("sampling.neg_plan"),
            "sampling.neg_complete_s": t.self_s("sampling.neg_complete"),
            "sampling.neg_invalidate_s": t.self_s("sampling.neg_invalidate"),
            "sampling.neg_resize_s": t.self_s("sampling.neg_resize"),
            "sampling.hard_neg_share": served / drawn if drawn else 0.0,
            "cache.select_s": t.self_s("cache.select"),
            "cache.fetch_s": t.self_s("cache.fetch"),
            "cache.apply_s": t.self_s("cache.apply"),
            "cache.install_s": t.self_s("cache.install"),
            "cache.installs": t.calls("cache.install"),
            "cache.sync_s": t.self_s("cache.sync"),
            "cache.syncs": t.calls("cache.sync"),
            "cache.invalidate_s": t.self_s("cache.invalidate"),
            "ps.pull_s": t.self_s("ps.pull"),
            "ps.pull_calls": t.calls("ps.pull"),
            "ps.push_s": t.self_s("ps.push"),
            "ps.push_calls": t.calls("ps.push"),
            "ps.grow_s": t.self_s("ps.grow"),
            "optim.update_s": t.self_s("optim.update"),
            "compute.s": t.self_s("compute"),
            "compute.scores": int(t.counts["compute.scores"]),
            "eval.filter_index_s": t.self_s("eval.filter_index"),
            "eval.rank_s": t.self_s("eval"),
            "worker.step_ms.p50": statistics.median(steps_ms) if steps_ms else 0.0,
            "worker.step_ms.p99": _percentile(steps_ms, 0.99),
            "worker.step_samples": len(steps_ms),
            "worker.steps": out["counts"]["steps"],
            "worker.self_s": t.self_s("worker.step"),
            "stream.observe_s": t.self_s("stream.observe"),
            "stream.ingest_s": t.self_s("stream.ingest"),
        }
    )
    return layers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    _import_repro()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracing import Tracer
    from workloads import WORKLOADS, run_workload, scratch_dir_for

    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = workload.smoke()
    OUT_DIR.mkdir(exist_ok=True)
    tracer = Tracer()
    if args.trace:
        tracer.install_layers()
    try:
        out = run_workload(workload, args.seed, tracer, scratch_dir_for(str(OUT_DIR)))
    finally:
        tracer.uninstall()
    out["metrics"]["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )
    if args.trace:
        out["layers"] = layer_metrics(tracer, out)
        out["checks"]["traced_positives_match"] = (
            int(tracer.counts["compute.positives"]) == out["counts"]["positives"]
        )
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write_chrome_trace(trace_path)
        out["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        del out["layers"]
    out["pid"] = os.getpid()
    out["numpy"] = sys.modules["numpy"].__version__
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
