"""The bench harness: one document writer, one ``--check`` gate, one CLI.

Each benchmark grid is a plain module ``repro.perf.bench_<grid>`` that
owns its cells and claims and provides:

* ``SCHEMA`` -- the schema tag written into (and demanded of) its files;
* ``ROW_KEYS`` -- the keys every result row must carry;
* ``RATIO`` -- ``(key fields, axis, base value, fast value, metric)``,
  the grid's speedup definition (see :func:`speedups`);
* ``run_bench(..., repeats, smoke)`` -- runs the grid (``smoke=True``
  selects its CI smoke grid) and returns a :func:`document`;
* ``headline_error(doc)`` -- why a full run misses the grid's headline
  claim, or ``None``;
* ``cell_label(cell)`` -- one speedup cell, as the CLI prints it.

Grid modules are imported by name when first needed, so they can import
this module in turn.

Run a grid with ``python -m repro.perf <grid> [--smoke] [--repeats N]
[--out PATH]``; validate any bench file with ``python -m repro.perf
--check PATH``, which takes the grid from the file's schema tag.
"""

from __future__ import annotations

import argparse
import importlib
import json
import platform

from repro import accel

__all__ = ["GRIDS", "load_grid", "speedups", "document", "check_bench_file", "main"]

GRIDS = ("hotpath", "serving", "crafting")


def load_grid(name: str):
    """The grid module ``repro.perf.bench_<name>``."""
    return importlib.import_module(f"repro.perf.bench_{name}")


def speedups(results: list[dict], ratio: tuple) -> list[dict]:
    """The speedup cells ``results`` imply under a grid's ``RATIO``.

    One cell per distinct key, in the order rows first show it:
    ``round(fast metric / base metric, 2)``.  A key missing either row
    (a pure-only run without numpy) gets no cell.
    """
    keys, axis, base, fast, metric = ratio
    by_key: dict[tuple, dict] = {}
    for row in results:
        by_key.setdefault(tuple(row[f] for f in keys), {})[row[axis]] = row[metric]
    return [
        {**dict(zip(keys, key)), "speedup": round(cell[fast] / cell[base], 2)}
        for key, cell in by_key.items()
        if base in cell and fast in cell
    ]


def document(
    name: str, *, smoke: bool, config: dict, results: list[dict], **extra
) -> dict:
    """Grid ``name``'s bench document: schema-tagged, stamped with the
    interpreter and numpy versions, speedup cells derived from ``results``."""
    grid = load_grid(name)
    return {
        "schema": grid.SCHEMA,
        "generated_by": f"python -m repro.perf {name}",
        "smoke": smoke,
        "config": {
            **config,
            "python": platform.python_version(),
            "numpy": getattr(accel.numpy_or_none(), "__version__", None),
        },
        "results": results,
        "speedups": speedups(results, grid.RATIO),
        **extra,
    }


def check_bench_file(path: str) -> dict:
    """Validate a bench file of any grid; returns the parsed document.

    Raises ``ValueError`` if the file is missing, unparsable, not an
    object, carries an unknown schema tag, has no results or incomplete rows, if its
    speedup cells differ from what its rows imply -- or, for a full
    (non-smoke) run, if it misses its grid's headline claim.
    """
    try:
        with open(path, "rb") as handle:
            doc = json.load(handle)
    except FileNotFoundError:
        raise ValueError(f"bench file {path} is missing") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"bench file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"bench file {path} is not a JSON object")
    grids = {grid.SCHEMA: grid for grid in map(load_grid, GRIDS)}
    grid = grids.get(doc.get("schema"))
    if grid is None:
        raise ValueError(
            f"bench file {path} has schema {doc.get('schema')!r}, known are "
            f"{', '.join(grids)} -- regenerate with python -m repro.perf <grid>"
        )
    results = doc.get("results")
    if not isinstance(results, list) or not results:
        raise ValueError(f"bench file {path} carries no results")
    for row in results:
        missing = grid.ROW_KEYS - set(row)
        if missing:
            raise ValueError(
                f"bench file {path} result row missing keys {sorted(missing)}"
            )
    if doc.get("speedups") != speedups(results, grid.RATIO):
        raise ValueError(
            f"bench file {path} speedup cells do not match its result rows "
            "-- regenerate, never edit the numbers by hand"
        )
    if not doc.get("smoke"):
        error = grid.headline_error(doc)
        if error:
            raise ValueError(f"bench file {path} {error}")
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="Run a benchmark grid, or validate a bench file.",
    )
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("grid", nargs="?", choices=GRIDS, help="grid to run")
    action.add_argument(
        "--check",
        metavar="PATH",
        help="validate a bench file (its schema tag names the grid)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny grid (CI: proves the harness runs, not the numbers)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        help="best-of-N timing per cell (default 3, or 1 with --smoke)",
    )
    parser.add_argument(
        "--out", default=None, help="write the bench document to this path"
    )
    args = parser.parse_args(argv)
    if args.check:
        doc = check_bench_file(args.check)
        print(
            f"{args.check}: schema {doc['schema']}, "
            f"{len(doc['results'])} results, "
            f"{len(doc['speedups'])} speedup cells"
        )
        return 0
    grid = load_grid(args.grid)
    doc = grid.run_bench(
        repeats=args.repeats or (1 if args.smoke else 3), smoke=args.smoke
    )
    text = json.dumps(doc, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    for cell in doc["speedups"]:
        print(f"  {grid.cell_label(cell)} -> x{cell['speedup']}")
    return 0
