"""The repository benchmark: end-to-end ``repro run`` / ``sweep`` / ``serve``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload robc-urban-960 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

One invocation runs one workload in this interpreter and prints, as the last
line of standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.  The
line before it carries the host facts, sample counts and fingerprints.
``--workload all`` runs every workload in a fresh interpreter of its own.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def declared_metrics(trace: bool) -> dict:
    """{name: unit} of the metrics ``BENCHMARK.json`` declares for a mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"]
            for metric in spec["per_layer" if trace else "end_to_end"]}


def host_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def run_one(args: argparse.Namespace) -> int:
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"perfbench: no program sources under {src}", file=sys.stderr)
        return 2
    names = declared_metrics(args.trace)
    # The workloads name their engine, workers and backend themselves.
    for knob in ("REPRO_ENGINE", "REPRO_SWEEP_WORKERS", "REPRO_SWEEP_BACKEND"):
        os.environ.pop(knob, None)
    sys.path[:0] = [str(src), str(ROOT)]
    from perfbench.workloads import Context, run

    ctx = Context(
        workload=args.workload,
        seed=args.seed,
        seconds=float(args.seconds),
        trace=bool(args.trace),
        smoke=args.smoke,
        root=ROOT,
    )
    result = run(ctx)
    metrics = {
        name: {"value": float(result.metrics[name]), "unit": unit}
        for name, unit in names.items()
    }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": host_facts(),
        "failed_share": result.failed / max(result.attempted, 1),
        **result.notes,
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": result.correct,
        "attempted": max(result.attempted, 1),
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own interpreter; one table of metrics."""
    status = 0
    for workload in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", repr(args.seconds),
                   "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        completed = subprocess.run(command, capture_output=True, text=True, check=False)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            print(f"{workload}: failed\n{completed.stderr}", file=sys.stderr)
            status = 1
            continue
        info = json.loads(lines[-2])["info"]
        result = json.loads(lines[-1])
        print(f"{workload}  correct={result['correct']}  attempted={result['attempted']}  "
              f"failed={result['failed']}  fingerprint={info.get('fingerprint')}")
        for name, metric in result["metrics"].items():
            print(f"  {name:32s} {metric['value']:>16.6g} {metric['unit']}")
        if not result["correct"]:
            status = 1
    print(json.dumps({"host": host_facts()}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOAD_NAMES:
        parser.error(f"unknown workload {args.workload!r}; one of {WORKLOAD_NAMES} or all")
    return run_one(args)


WORKLOAD_NAMES = ("robc-urban-960", "megacity-quarter", "sweep-campaign", "service-mixed")

if __name__ == "__main__":
    sys.exit(main())
