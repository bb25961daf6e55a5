"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload serve-small --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the last line carries the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it carries the per-layer ones.
See ``perfbench/README.md`` for what each workload and metric means.

This process builds the seeded fixture and then starts fresh measured
processes (``child.py``), so the fixture's time, memory and imports stay
out of every measurement:

* untraced: ``SETUP_PROBES`` processes that only set up, then one that
  sets up and runs the timed phase; ``setup_s`` is the median of all
  their set-up times, the other metrics come from the last one;
* traced: an untraced, a traced and another untraced measuring process
  on the same seed.  The traced one must reproduce both untraced runs'
  answers, crafting trial counts and final shard bytes; its overhead is
  reported against the mean untraced ``items_per_s``, which cancels a
  steady drift of the host's speed across the three.
"""

from __future__ import annotations

import argparse
import json
import pickle
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Set-up-only processes per untraced run (plus the measuring one).
SETUP_PROBES = 4
#: Ceiling on one measured process, far above a healthy run.
CHILD_TIMEOUT_S = 150
#: Where a traced run writes its spans.
SPANS_DIR = ROOT / ".perfbench-out"


class ChildFailed(RuntimeError):
    """A measured process exited abnormally or printed no result."""


def _child(fixture: bytes, args, mode: str, trace: int = 0, spans: Path | None = None) -> dict:
    command = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
        "--trace", str(trace),
    ]
    if spans is not None:
        command += ["--spans", str(spans)]
    try:
        done = subprocess.run(
            command, input=fixture, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} process timed out after {CHILD_TIMEOUT_S}s") from exc
    lines = done.stdout.decode().strip().splitlines()
    if done.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} process exited with code {done.returncode}")
    return json.loads(lines[-1])


def _report(metrics: dict, names: list[dict]) -> dict:
    """``metrics`` restricted to, and ordered by, the declared ``names``."""
    return {
        spec["name"]: {"value": metrics[spec["name"]], "unit": spec["unit"]}
        for spec in names
    }


def _untraced(fixture: bytes, args, declared: dict) -> dict:
    setups = [_child(fixture, args, "setup")["setup_s"] for _ in range(SETUP_PROBES)]
    result = _child(fixture, args, "measure")
    setups.append(result["setup_s"])
    values = {
        "setup_s": statistics.median(setups),
        "items_per_s": result["items_per_s"],
        "p50_ms": result["p50_ms"],
        "p99_ms": result["p99_ms"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    print(
        f"{args.workload} seed {args.seed}: {result['items']} items in "
        f"{result['wall_s']:.3f}s, {result['samples']} latency samples, "
        f"set-up samples {', '.join(f'{s:.3f}' for s in setups)} s"
    )
    for error in result["errors"]:
        print(f"  failure: {error}", file=sys.stderr)
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": _report(values, declared["end_to_end"]),
    }


def _traced(fixture: bytes, args, declared: dict) -> dict:
    before = _child(fixture, args, "measure")
    SPANS_DIR.mkdir(exist_ok=True)
    spans = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.csv"
    traced = _child(fixture, args, "measure", trace=1, spans=spans)
    after = _child(fixture, args, "measure")
    runs = (before, traced, after)
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    for run in runs:
        for error in run["errors"]:
            print(f"  failure: {error}", file=sys.stderr)
    for plain in (before, after):
        for key in ("answers_digest", "trials", "bytes_digest"):
            attempted += 1
            if plain[key] != traced[key]:
                failed += 1
                print(f"  failure: traced run changed {key}", file=sys.stderr)
    untraced = (before["items_per_s"] + after["items_per_s"]) / 2
    values = dict(traced["layers"])
    values["trace.overhead_pct"] = 100.0 * (untraced / traced["items_per_s"] - 1.0)
    print(
        f"{args.workload} seed {args.seed}: traced {traced['items_per_s']:.1f} "
        f"vs untraced {before['items_per_s']:.1f} before and "
        f"{after['items_per_s']:.1f} after, items/s; spans in {spans}"
    )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": _report(values, declared["per_layer"]),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "service" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r} "
            f"(have {', '.join(sorted(workloads.WORKLOADS))})",
            file=sys.stderr,
        )
        return 2
    fixture = pickle.dumps(workloads.build_fixture(args.workload, args.seed))
    try:
        if args.trace:
            result = _traced(fixture, args, declared)
        else:
            result = _untraced(fixture, args, declared)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
