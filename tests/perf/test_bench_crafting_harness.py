"""The crafting grid through the shared bench harness.

A smoke run must produce a schema-tagged document whose cells are
internally consistent, :func:`check_bench_file` must reject every way
the committed file can rot (including a headline-claim regression in a
full run), and the repository's ``BENCH_crafting.json`` itself must
validate -- the same gate CI runs.
"""

from __future__ import annotations

import pathlib

import pytest

from repro import accel
from repro.perf import check_bench_file, main
from repro.perf.bench_crafting import (
    CLAIMED_SPEEDUP,
    RATIO,
    ROW_KEYS,
    SCHEMA,
    run_bench,
)
from repro.perf.harness import document, speedups

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def cell_pair(k: int, pure: float, numpy: float) -> list[dict]:
    """The pure and numpy ghost rows of one scale."""
    return [
        {"predicate": "ghost", "mode": mode, "k": k, "m": 1 << (k + 8),
         "items": 6, "trials": 24_000, "seconds": 0.5, "trials_per_sec": rate}
        for mode, rate in (("pure", pure), ("numpy", numpy))
    ]


def full_doc(rows: list[dict]) -> dict:
    """A full run of ``rows``; its speedup cells follow from the rows, as
    the gate demands."""
    return document("crafting", smoke=False, config={}, results=rows)


def test_smoke_run_document_shape(smoke_doc):
    _, doc = smoke_doc("crafting")
    assert doc["schema"] == SCHEMA
    assert doc["smoke"] is True
    modes = {"pure", "numpy"} if accel.numpy_or_none() else {"pure"}
    cells = {(r["predicate"], r["mode"], r["k"]) for r in doc["results"]}
    assert len(cells) == len(doc["results"]), "duplicate grid cells"
    assert {c[1] for c in cells} == modes
    for row in doc["results"]:
        assert ROW_KEYS <= set(row)
        assert row["seconds"] > 0
        assert row["trials"] >= row["items"]
        assert row["trials_per_sec"] == pytest.approx(
            row["trials"] / row["seconds"], rel=0.01
        )
    if accel.numpy_or_none():
        assert doc["speedups"], "numpy present but no speedup cells"
        for cell in doc["speedups"]:
            assert cell["speedup"] > 0


def test_trial_counts_identical_across_modes(smoke_doc):
    """The batched engine's exactness shows up in the bench itself: both
    modes replay the same pool against the same filter state, so every
    cell pair examines identical trial counts."""
    if accel.numpy_or_none() is None:
        pytest.skip("single-mode run has no pairs to compare")
    _, doc = smoke_doc("crafting")
    by_cell = {(r["predicate"], r["mode"], r["k"]): r["trials"] for r in doc["results"]}
    for predicate, mode, k in list(by_cell):
        if mode == "pure":
            assert by_cell[(predicate, "numpy", k)] == by_cell[(predicate, "pure", k)]


def test_check_accepts_fresh_smoke_document(write_bench):
    doc = run_bench(repeats=1, smoke=True)
    assert doc["smoke"] is True
    assert check_bench_file(write_bench(doc))["schema"] == SCHEMA


def test_check_rejects_missing_file(tmp_path):
    """The CI gate fails loudly when the committed file is gone."""
    with pytest.raises(ValueError, match="missing"):
        main(["--check", str(tmp_path / "BENCH_crafting.json")])


def test_check_rejects_invalid_json(write_bench):
    """... or half-written, as an interrupted ``--out`` write leaves it."""
    text = (REPO_ROOT / "BENCH_crafting.json").read_text()
    path = write_bench(text[: len(text) // 2], "BENCH_crafting.json")
    with pytest.raises(ValueError, match="not valid JSON"):
        main(["--check", path])


def test_check_rejects_stale_schema(write_bench):
    path = write_bench({"schema": "repro.bench_crafting/0", "results": [{}]})
    with pytest.raises(ValueError, match="regenerate"):
        check_bench_file(path)


def test_check_rejects_empty_results(write_bench):
    with pytest.raises(ValueError, match="no results"):
        check_bench_file(write_bench({"schema": SCHEMA, "results": []}))


def test_check_rejects_missing_row_keys(smoke_doc, write_bench):
    _, doc = smoke_doc("crafting")
    del doc["results"][0]["trials_per_sec"]
    with pytest.raises(ValueError, match=r"missing keys \['trials_per_sec'\]"):
        check_bench_file(write_bench(doc))


def test_check_enforces_the_claim_on_full_runs(write_bench):
    low = full_doc(cell_pair(12, 1000.0, 1000.0 * (CLAIMED_SPEEDUP - 0.1)))
    with pytest.raises(ValueError, match="below the claimed"):
        check_bench_file(write_bench(low))
    high = full_doc(cell_pair(12, 1000.0, 1000.0 * (CLAIMED_SPEEDUP + 0.1)))
    assert check_bench_file(write_bench(high))


def test_check_demands_largest_scale_speedups_on_full_runs(write_bench):
    # k=12 ran pure only, so its rows imply no speedup cell.
    rows = cell_pair(4, 10_000.0, 90_000.0) + cell_pair(12, 10_000.0, 0.0)[:1]
    with pytest.raises(ValueError, match="largest"):
        check_bench_file(write_bench(full_doc(rows)))


def test_committed_bench_file_validates():
    """The gate CI runs: the committed file must hold the >=5x claim."""
    doc = check_bench_file(str(REPO_ROOT / "BENCH_crafting.json"))
    assert not doc.get("smoke"), "the committed bench must be a full run"
    assert doc["speedups"] == speedups(doc["results"], RATIO)
    largest_k = max(row["k"] for row in doc["results"])
    best = max(c["speedup"] for c in doc["speedups"] if c["k"] == largest_k)
    assert best >= CLAIMED_SPEEDUP


def test_cli_check_mode(capsys):
    assert main(["--check", str(REPO_ROOT / "BENCH_crafting.json")]) == 0
    assert "schema repro.bench_crafting/1" in capsys.readouterr().out
