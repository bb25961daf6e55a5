"""One measured process of the benchmark (started by ``run.py``).

The clock starts on this file's first line, before the program is
imported, so ``setup_s`` covers imports (numpy's lazy one included),
building the gateway, the warm restart, the server and the warm-up.
The fixture arrives pickled on stdin from the orchestrator; one JSON
object goes to stdout.

    python3 perfbench/child.py --workload serve-small --seed 1 \\
        --seconds 10 --mode measure --trace 0 < fixture.pickle
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402 - the clock must start first
import asyncio  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="CSV file for the kept spans")
    args = parser.parse_args()
    # Our own orchestrator pickled this fixture a moment ago.
    fixture = pickle.loads(sys.stdin.buffer.read())
    result = asyncio.run(
        workloads.run_process(
            args.workload,
            fixture,
            seed=args.seed,
            seconds=args.seconds,
            t0=T0,
            measure_phase=args.mode == "measure",
            trace=bool(args.trace),
            spans_path=args.spans,
        )
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
