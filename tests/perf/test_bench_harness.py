"""The shared bench harness, its CI gate and the hot-path grid.

A smoke run -- through the Python API and through the CLI, as CI runs
it -- must produce a schema-tagged document whose rows are internally
consistent and whose speedup cells follow from its rows;
:func:`check_bench_file` must reject every way a bench file can rot or
be forged; and the repository's ``BENCH_hotpath.json`` must validate --
the gate CI runs.  The serving and crafting grids' own cases live in
``test_bench_serving_harness.py`` and ``test_bench_crafting_harness.py``.
"""

from __future__ import annotations

import json
import pathlib
import time

import pytest

from repro import accel
from repro.perf import StageTimer, check_bench_file, main
from repro.perf.bench_hotpath import RATIO, ROW_KEYS, SCHEMA, run_bench
from repro.perf.harness import GRIDS, load_grid, speedups

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def test_smoke_run_document_shape(smoke_doc):
    _, doc = smoke_doc("hotpath")
    assert doc["schema"] == SCHEMA
    assert doc["smoke"] is True
    modes = {"pure", "numpy"} if accel.numpy_or_none() else {"pure"}
    cells = {(r["op"], r["mode"], r["batch_size"], r["shards"]) for r in doc["results"]}
    assert len(cells) == len(doc["results"]), "duplicate grid cells"
    assert {c[1] for c in cells} == modes
    for row in doc["results"]:
        assert ROW_KEYS <= set(row)
        assert row["seconds"] > 0
        assert row["items_per_sec"] == pytest.approx(
            row["batch_size"] / row["seconds"], rel=0.01
        )
    if accel.numpy_or_none():
        assert doc["speedups"], "numpy present but no speedup cells"
        for cell in doc["speedups"]:
            assert cell["speedup"] > 0
    assert set(doc["stage_breakdown"]) == {
        "hashing.flat_batch_indexes",
        "core.set_groups",
        "core.all_set_groups",
        "codec.pack_bools",
    }


def test_check_accepts_fresh_document(write_bench):
    doc = run_bench(repeats=1, smoke=True)
    assert doc["smoke"] is True
    assert check_bench_file(write_bench(doc))["schema"] == SCHEMA


def test_check_rejects_missing_file(tmp_path):
    with pytest.raises(ValueError, match="missing"):
        check_bench_file(str(tmp_path / "nope.json"))


def test_check_rejects_invalid_json(write_bench):
    with pytest.raises(ValueError, match="not valid JSON"):
        check_bench_file(write_bench("{not json"))
    with pytest.raises(ValueError, match="not a JSON object"):
        check_bench_file(write_bench("[]"))


def test_check_rejects_stale_schema(write_bench):
    path = write_bench({"schema": "repro.bench_hotpath/0", "results": [{}]})
    with pytest.raises(ValueError, match="regenerate") as excinfo:
        check_bench_file(path)
    for grid in GRIDS:
        assert load_grid(grid).SCHEMA in str(excinfo.value)


def test_check_rejects_empty_results(write_bench):
    with pytest.raises(ValueError, match="no results"):
        check_bench_file(write_bench({"schema": SCHEMA, "results": []}))


def test_check_rejects_missing_row_keys(smoke_doc, write_bench):
    _, doc = smoke_doc("hotpath")
    del doc["results"][0]["items_per_sec"]
    with pytest.raises(ValueError, match=r"missing keys \['items_per_sec'\]"):
        check_bench_file(write_bench(doc))


@pytest.mark.parametrize("grid", GRIDS)
def test_check_rejects_edited_speedup_cells(grid, smoke_doc, write_bench):
    _, doc = smoke_doc(grid)
    doc["speedups"][0]["speedup"] += 1.0
    with pytest.raises(ValueError, match="do not match its result rows"):
        check_bench_file(write_bench(doc))


def test_committed_bench_file_validates():
    """The gate CI runs: the committed trajectory must stay loadable."""
    doc = check_bench_file(str(REPO_ROOT / "BENCH_hotpath.json"))
    assert doc["config"]["m_per_shard"] > 0
    assert doc["speedups"] == speedups(doc["results"], RATIO)


def test_cli_check_mode(capsys):
    assert main(["--check", str(REPO_ROOT / "BENCH_hotpath.json")]) == 0
    assert "schema repro.bench_hotpath/1" in capsys.readouterr().out


def test_cli_smoke_writes_file(smoke_doc, capsys):
    path, _ = smoke_doc("hotpath")
    assert main(["--check", str(path)]) == 0
    assert "schema repro.bench_hotpath/1" in capsys.readouterr().out


def test_cli_takes_a_grid_or_check_not_both():
    for argv in ([], ["hotpath", "--check", "BENCH_hotpath.json"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2


def test_stage_timer_accumulates_and_reports():
    timer = StageTimer()
    with timer.stage("a"):
        time.sleep(0.01)
    with timer.stage("a"):
        pass
    with timer.stage("b"):
        pass
    report = timer.report()
    assert report["a"]["calls"] == 2
    assert report["b"]["calls"] == 1
    assert timer.seconds("a") >= 0.01
    assert sum(stage["share"] for stage in report.values()) == pytest.approx(1.0, abs=0.01)
    timer.reset()
    assert timer.report() == {}
