"""Performance benchmarks and the one harness behind their bench files.

Three grids record the repository's speed claims in committed files:

* :mod:`repro.perf.bench_hotpath` -- batch insert/query throughput of
  the filter core, pure-Python vs numpy kernels (``BENCH_hotpath.json``);
* :mod:`repro.perf.bench_serving` -- end-to-end requests/sec through the
  serving stack, coalescing off vs on (``BENCH_serving.json``);
* :mod:`repro.perf.bench_crafting` -- brute-force crafting trials/sec,
  pure vs batched (``BENCH_crafting.json``).

:mod:`repro.perf.harness` writes every grid's document, derives its
speedup cells, validates any bench file (``check_bench_file``, the CI
gate) and is the CLI: ``python -m repro.perf <grid> [--smoke]`` runs a
grid, ``python -m repro.perf --check PATH`` validates a file.
:mod:`repro.perf.timers` holds :class:`StageTimer`, a nestable
wall-clock accumulator for attributing a run to pipeline stages.
"""

from repro.perf.harness import check_bench_file, main
from repro.perf.timers import StageTimer

__all__ = ["StageTimer", "check_bench_file", "main"]
