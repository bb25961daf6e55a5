"""The benchmark's own tests.

    python3 -m pytest perfbench -q

They are not part of the repository's tier-1 suite (``testpaths`` names
``tests`` and ``benchmarks`` only), so they add nothing to its run time.
Every run here is a tiny one: ``--seconds 0.05`` or less of work.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = "0.05"


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def _measure(name: str, seed: int, seconds: float, wrap_gateway=None) -> dict:
    fixture = workloads.build_fixture(name, seed)
    return asyncio.run(
        workloads.run_process(
            name, fixture, seed, seconds, time.perf_counter(), wrap_gateway=wrap_gateway
        )
    )


def test_declared_workloads_are_the_implemented_ones():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_untraced_run_prints_every_end_to_end_metric(name):
    result = _result(_run("--workload", name, "--seed", "5", "--seconds", TINY))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [m["name"] for m in DECLARED["end_to_end"]]
    for spec in DECLARED["end_to_end"]:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert metric["value"] > 0


@pytest.mark.parametrize("name", ["serve-small", "attack-campaign"])
def test_tiny_traced_run_reproduces_the_untraced_run(name):
    result = _result(
        _run("--workload", name, "--seed", "6", "--seconds", TINY, "--trace", "1")
    )
    # The traced process must match the untraced one's answers, crafting
    # trials and final shard bytes, or these count as failures.
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in DECLARED["per_layer"]]
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert values["gateway.requests"] == values["client.requests"] > 0
    assert values["lifecycle.rotations"] == 0
    if name == "serve-small":
        assert values["coalesce.flushes"] > 0
    else:
        assert values["craft.items"] == values["client.requests"]
        assert values["coalesce.flushes"] == 0
        assert 0 < values["urlgen.kept_ratio"] < 1


class _OneItemProxy:
    """Gateway proxy that misbehaves on one item only."""

    def __init__(self, gateway, item: str) -> None:
        self._gateway = gateway
        self._item = item

    def __getattr__(self, name):
        return getattr(self._gateway, name)


class _FlipOneAnswer(_OneItemProxy):
    """Inverts the query answer for the item."""

    async def query_batch(self, items, client="anon"):
        answers = await self._gateway.query_batch(items, client=client)
        return [not a if i == self._item else a for i, a in zip(items, answers)]


class _DropOneInsert(_OneItemProxy):
    """Acknowledges the item's insert without applying it."""

    async def insert_batch(self, items, client="anon"):
        if list(items) == [self._item]:
            return [False]
        return await self._gateway.insert_batch(items, client=client)


def _first_timed(kind: str, seed: int) -> str:
    """The item of serve-small's first timed request of ``kind``."""
    items = workloads.Items(seed, workloads.WORKLOADS["serve-small"].fixture_items)
    index = items.small_pattern.index(kind)
    if kind == "fixture":
        return items.fixture_pick(index)
    return items.inserted(index)


def test_a_flipped_answer_counts_as_a_failure():
    seed = 7
    item = _first_timed("fixture", seed)
    clean = _measure("serve-small", seed, 0.02)
    flipped = _measure(
        "serve-small", seed, 0.02, wrap_gateway=lambda gw: _FlipOneAnswer(gw, item)
    )
    assert clean["failed"] == 0
    assert flipped["failed"] == 1
    assert flipped["attempted"] == clean["attempted"]
    assert item in flipped["errors"][0]


def test_a_lost_insert_fails_the_shard_check():
    seed = 8
    item = _first_timed("insert", seed)
    result = _measure(
        "serve-small", seed, 0.02, wrap_gateway=lambda gw: _DropOneInsert(gw, item)
    )
    assert result["failed"] == 1
    assert "bits differ" in result["errors"][0]


def test_the_same_seed_reproduces_the_attack():
    first = _measure("attack-campaign", 11, 0.05)
    again = _measure("attack-campaign", 11, 0.05)
    other = _measure("attack-campaign", 12, 0.05)
    assert first["failed"] == again["failed"] == 0
    assert first["trials"] == again["trials"]
    assert set(first["trials"]) == {"ghost", "pollution"}
    assert first["answers_digest"] == again["answers_digest"]
    assert first["bytes_digest"] == again["bytes_digest"]
    assert other["answers_digest"] != first["answers_digest"]


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "serve-small", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
