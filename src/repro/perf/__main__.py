"""``python -m repro.perf``: see :func:`repro.perf.harness.main`."""

from repro.perf.harness import main

raise SystemExit(main())
