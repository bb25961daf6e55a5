"""The serving grid through the shared bench harness.

A smoke run produces a schema-tagged, internally consistent document;
:func:`check_bench_file` rejects every way the committed file can rot
-- including a full run whose rows no longer show the headline
single-item coalescing win -- and the repository's
``BENCH_serving.json`` itself must validate.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.perf import check_bench_file, main
from repro.perf.bench_serving import (
    RATIO,
    ROW_KEYS,
    SCHEMA,
    SMOKE_TRANSPORTS,
    run_bench,
)
from repro.perf.harness import document, speedups

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def full_doc(size: int, off: float, on: float) -> dict:
    """A full run of one inproc cell pair; its speedup cell follows from
    the rows, as the gate demands."""
    rows = [
        {"transport": "inproc", "coalesce": coalesce, "request_size": size,
         "clients": 8, "requests_per_sec": rate, "seconds": 1.0}
        for coalesce, rate in ((False, off), (True, on))
    ]
    return document("serving", smoke=False, config={}, results=rows)


def test_smoke_run_document_shape(smoke_doc):
    # The smoke grid drives the tcp client too, not just the gateway.
    assert SMOKE_TRANSPORTS == ("inproc", "tcp-local")
    _, doc = smoke_doc("serving")
    assert doc["schema"] == SCHEMA
    assert doc["smoke"] is True
    cells = {
        (r["transport"], r["coalesce"], r["request_size"]) for r in doc["results"]
    }
    assert cells == {
        (transport, coalesce, 1)
        for transport in SMOKE_TRANSPORTS
        for coalesce in (False, True)
    }
    for row in doc["results"]:
        assert ROW_KEYS <= set(row)
        assert row["seconds"] > 0
        assert row["requests_per_sec"] == pytest.approx(
            row["clients"] * row["rounds"] / row["seconds"], rel=0.01
        )
    assert [(c["transport"], c["request_size"]) for c in doc["speedups"]] == [
        (transport, 1) for transport in SMOKE_TRANSPORTS
    ]
    assert all(c["speedup"] > 0 for c in doc["speedups"])
    # Off cells never coalesce; the inproc "on" cell actually did.
    assert all(r["coalesce_ratio"] == 0.0 for r in doc["results"] if not r["coalesce"])
    on = next(
        r for r in doc["results"] if r["coalesce"] and r["transport"] == "inproc"
    )
    assert on["coalesce_ratio"] > 1.0


def test_check_accepts_smoke_document(write_bench):
    doc = run_bench(repeats=1, smoke=True)
    assert doc["smoke"] is True
    assert check_bench_file(write_bench(doc))["schema"] == SCHEMA


def test_check_rejects_missing_file(tmp_path):
    """The CI gate fails loudly when the committed file is gone."""
    with pytest.raises(ValueError, match="missing"):
        main(["--check", str(tmp_path / "BENCH_serving.json")])


def test_check_rejects_invalid_json(write_bench):
    """... or half-written, as an interrupted ``--out`` write leaves it."""
    text = (REPO_ROOT / "BENCH_serving.json").read_text()
    path = write_bench(text[: len(text) // 2], "BENCH_serving.json")
    with pytest.raises(ValueError, match="not valid JSON"):
        main(["--check", path])


def test_check_rejects_stale_schema(write_bench):
    path = write_bench({"schema": "repro.bench_serving/0", "results": [{}]})
    with pytest.raises(ValueError, match="regenerate"):
        check_bench_file(path)


def test_check_rejects_empty_results(write_bench):
    with pytest.raises(ValueError, match="no results"):
        check_bench_file(write_bench({"schema": SCHEMA, "results": []}))


def test_check_rejects_missing_row_keys(smoke_doc, write_bench):
    _, doc = smoke_doc("serving")
    del doc["results"][0]["requests_per_sec"]
    with pytest.raises(ValueError, match=r"missing keys \['requests_per_sec'\]"):
        check_bench_file(write_bench(doc))


def test_check_rejects_speedups_the_rows_do_not_show(write_bench):
    """Slow the committed inproc-procpool "on" rows to 5,000 req/s: the
    rows then show at most x1.23 single-item, the cells still x3.16."""
    doc = json.loads((REPO_ROOT / "BENCH_serving.json").read_text())
    for row in doc["results"]:
        if row["transport"] == "inproc-procpool" and row["coalesce"]:
            row["requests_per_sec"] = 5000.0
    with pytest.raises(ValueError, match="do not match its result rows"):
        check_bench_file(write_bench(doc))


def test_check_rejects_full_run_below_headline_speedup(write_bench):
    with pytest.raises(ValueError, match="below the claimed x3.0"):
        check_bench_file(write_bench(full_doc(1, 1000.0, 1200.0)))
    assert check_bench_file(write_bench(full_doc(1, 1000.0, 3100.0)))


def test_check_rejects_full_run_without_single_item_cells(write_bench):
    with pytest.raises(ValueError, match="no single-item"):
        check_bench_file(write_bench(full_doc(8, 1000.0, 9000.0)))


def test_committed_bench_file_validates():
    """The gate CI runs: the committed serving numbers must hold up."""
    doc = check_bench_file(str(REPO_ROOT / "BENCH_serving.json"))
    assert doc["smoke"] is False
    assert doc["speedups"] == speedups(doc["results"], RATIO)
    best = max(
        cell["speedup"]
        for cell in doc["speedups"]
        if cell["request_size"] == 1
    )
    assert best >= 3.0


def test_cli_check_mode(capsys):
    """Bare ``--check`` reads the grid from the file's schema tag."""
    assert main(["--check", str(REPO_ROOT / "BENCH_serving.json")]) == 0
    assert "schema repro.bench_serving/1" in capsys.readouterr().out


def test_cli_smoke_and_check(smoke_doc, capsys):
    path, _ = smoke_doc("serving")
    assert main(["--check", str(path)]) == 0
    assert "schema repro.bench_serving/1" in capsys.readouterr().out
