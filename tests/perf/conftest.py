"""Shared fixtures for the bench harness tests."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.perf import main


@pytest.fixture(scope="session")
def smoke_doc(tmp_path_factory):
    """Each grid's ``python -m repro.perf <grid> --smoke`` document, run
    once per grid per session; returns ``(path, fresh parsed copy)``."""
    paths: dict[str, pathlib.Path] = {}

    def run(grid: str) -> tuple[pathlib.Path, dict]:
        if grid not in paths:
            out = tmp_path_factory.mktemp(grid) / "smoke.json"
            assert main([grid, "--smoke", "--out", str(out)]) == 0
            paths[grid] = out
        return paths[grid], json.loads(paths[grid].read_text())

    return run


@pytest.fixture
def write_bench(tmp_path):
    """Write a bench document (or raw text) to a temp file; returns its path."""

    def write(doc, name: str = "bench.json") -> str:
        path = tmp_path / name
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        return str(path)

    return write
