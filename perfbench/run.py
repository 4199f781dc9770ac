"""End-to-end training benchmark of this repository.

    python3 perfbench/run.py --workload fb15k-dps --seed 1 --seconds 40 --trace 0

Runs repetitions of one workload (``workloads.py``), each in a fresh
process (``rep.py``), until ``--seconds`` are used up, and prints one JSON
object as the last line of standard output:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the ``end_to_end`` metrics of ``BENCHMARK.json``, each the
median over the repetitions; with ``--trace 1`` it runs one untraced and
one traced repetition and reports the ``per_layer`` metrics of the traced
one.

Every repetition is checked: its fingerprint (final loss, MRR, remote MB,
simulated seconds) must equal that of the other repetitions of the same
seed, and the conservation checks ``workloads.py`` makes must hold.  A
repetition that fails counts in ``failed``; none is dropped.  A record of
the run (seed, config, versions, thread caps, every repetition) is written
to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
MIN_REPS = 3
#: Every run must end within 180 s; leave room for the last repetition.
DEADLINE_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def thread_caps() -> dict[str, str]:
    """Cap BLAS/OpenMP pools at the CPUs this process may use."""
    n = str(len(os.sched_getaffinity(0)))
    return {var: n for var in THREAD_VARS}


def run_rep(workload: str, seed: int, trace: int, smoke: bool, timeout: float) -> dict:
    """One repetition in a child process; ``{"error": ...}`` if it failed."""
    cmd = [
        sys.executable,
        str(HERE / "rep.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--trace",
        str(trace),
    ]
    if smoke:
        cmd.append("--smoke")
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env={**os.environ, **thread_caps()},
            capture_output=True,
            text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f}s", "wall_s": timeout}
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-5:]
        return {"error": f"exit {proc.returncode}: " + " | ".join(tail), "wall_s": wall}
    try:
        rep = json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"error": "no JSON result line", "wall_s": wall}
    rep["wall_s"] = wall
    return rep


def _fingerprint_key(rep: dict) -> str:
    return json.dumps(rep["fingerprint"], sort_keys=True)


def judge(reps: list[dict]) -> list[str]:
    """Why each repetition failed (``""`` for one that passed).

    A repetition fails when its process failed, when one of its checks is
    false, or when its fingerprint differs from the one most repetitions
    of this seed produced.
    """
    done = [r for r in reps if "error" not in r]
    common = Counter(_fingerprint_key(r) for r in done).most_common(1)
    reference = common[0][0] if common else None
    verdicts = []
    for rep in reps:
        if "error" in rep:
            verdicts.append(rep["error"])
            continue
        failed = [name for name, ok in rep["checks"].items() if not ok]
        if _fingerprint_key(rep) != reference:
            failed.append("fingerprint differs from the other repetitions")
        verdicts.append(", ".join(failed))
    return verdicts


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return proc.stdout.strip() or None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny inputs (the self-test)"
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    start = time.perf_counter()

    def rep(trace: int) -> dict:
        remaining = DEADLINE_S - (time.perf_counter() - start)
        return run_rep(args.workload, args.seed, trace, args.smoke, remaining)

    reps: list[dict] = []
    if args.trace:
        reps = [rep(0), rep(1)]
    else:
        while True:
            reps.append(rep(0))
            elapsed = time.perf_counter() - start
            last = reps[-1]["wall_s"]
            if "error" in reps[-1] and "timed out" in reps[-1]["error"]:
                break
            if len(reps) >= MIN_REPS and elapsed + last > args.seconds:
                break
            if elapsed + last > DEADLINE_S:
                break

    verdicts = judge(reps)
    done = [r for r in reps if "error" not in r]
    metrics = {}
    if args.trace:
        untraced, traced = reps
        if "error" not in untraced and "error" not in traced:
            values = dict(traced["layers"])
            values["trace.overhead_frac"] = (
                traced["metrics"]["e2e_s"] / untraced["metrics"]["e2e_s"] - 1.0
            )
            for m in spec["per_layer"]:
                metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    elif done:
        for m in spec["end_to_end"]:
            value = statistics.median(r["metrics"][m["name"]] for r in done)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    failed = sum(1 for v in verdicts if v)
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(reps),
        "failed": failed,
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "seconds": args.seconds,
        "config": done[0]["config"] if done else None,
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": done[0]["numpy"] if done else None,
        "thread_caps": thread_caps(),
        "repetitions": [
            {**{k: v for k, v in r.items() if k != "config"}, "failure": verdict}
            for r, verdict in zip(reps, verdicts)
        ],
        "result": result,
    }
    record_path = OUT_DIR / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1))
    for r, verdict in zip(reps, verdicts):
        if verdict:
            print(f"failed repetition: {verdict}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
