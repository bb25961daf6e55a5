"""The serving bench harness and its CI gate.

Same contract as the hot-path harness tests: a smoke run produces a
schema-tagged, internally consistent document; :func:`check_bench_file`
rejects every way the committed file can rot -- including a full run
that no longer shows the headline single-item coalescing win -- and the
repository's ``BENCH_serving.json`` itself must validate.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.perf.bench_serving import (
    BENCH_SCHEMA,
    SMOKE_REQUEST_SIZES,
    SMOKE_TRANSPORTS,
    check_bench_file,
    main,
    run_bench,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def smoke_doc():
    return run_bench(
        SMOKE_TRANSPORTS, SMOKE_REQUEST_SIZES, repeats=1, clients=4, smoke=True
    )


def test_smoke_run_document_shape():
    # The smoke grid drives the tcp client too, not just the gateway.
    assert SMOKE_TRANSPORTS == ("inproc", "tcp-local")
    doc = smoke_doc()
    assert doc["schema"] == BENCH_SCHEMA
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


def test_check_accepts_smoke_document(tmp_path):
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(smoke_doc()))
    assert check_bench_file(str(path))["schema"] == BENCH_SCHEMA


def test_check_rejects_missing_file(tmp_path):
    with pytest.raises(ValueError, match="missing"):
        check_bench_file(str(tmp_path / "nope.json"))


def test_check_rejects_invalid_json(tmp_path):
    path = tmp_path / "bench.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        check_bench_file(str(path))


def test_check_rejects_stale_schema(tmp_path):
    path = tmp_path / "bench.json"
    path.write_text(json.dumps({"schema": "repro.bench_serving/0", "results": [{}]}))
    with pytest.raises(ValueError, match="regenerate"):
        check_bench_file(str(path))


def test_check_rejects_missing_row_keys(tmp_path):
    path = tmp_path / "bench.json"
    row = {"transport": "inproc", "coalesce": True}
    path.write_text(json.dumps({"schema": BENCH_SCHEMA, "results": [row]}))
    with pytest.raises(ValueError, match="missing keys"):
        check_bench_file(str(path))


def test_check_rejects_full_run_below_headline_speedup(tmp_path):
    doc = smoke_doc()
    doc["smoke"] = False  # full runs must prove the claim
    doc["speedups"] = [
        {"transport": "inproc", "request_size": 1, "speedup": 1.2}
    ]
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="below the claimed x3.0"):
        check_bench_file(str(path))


def test_check_rejects_full_run_without_single_item_cells(tmp_path):
    doc = smoke_doc()
    doc["smoke"] = False
    doc["speedups"] = [
        {"transport": "inproc", "request_size": 8, "speedup": 9.0}
    ]
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="no single-item"):
        check_bench_file(str(path))


def test_committed_bench_file_validates():
    """The gate CI runs: the committed serving numbers must hold up."""
    doc = check_bench_file(str(REPO_ROOT / "BENCH_serving.json"))
    assert doc["smoke"] is False
    best = max(
        cell["speedup"]
        for cell in doc["speedups"]
        if cell["request_size"] == 1
    )
    assert best >= 3.0


def test_cli_smoke_and_check(tmp_path, capsys):
    out = tmp_path / "smoke.json"
    assert main(["--smoke", "--out", str(out)]) == 0
    assert main(["--check", str(out)]) == 0
    assert "schema repro.bench_serving/1" in capsys.readouterr().out
