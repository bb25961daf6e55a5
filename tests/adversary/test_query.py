"""Query-only attacks: ghosts, latency queries, decoy trees."""

from __future__ import annotations

import pytest

from repro.adversary.query import (
    DecoyTree,
    GhostForgery,
    LatencyQueryForgery,
    false_positive_success_probability,
)
from repro.core.bloom import BloomFilter
from repro.exceptions import ParameterError
from repro.urlgen.faker import UrlFactory


def half_full_filter() -> BloomFilter:
    bf = BloomFilter(600, 3)
    factory = UrlFactory(seed=77)
    while bf.fill_ratio < 0.5:
        bf.add(factory.url())
    return bf


def test_ghost_is_false_positive():
    bf = half_full_filter()
    inserted_support = bf.support()
    ghost = GhostForgery(bf).craft_one()
    assert ghost.item in bf  # filter says present
    assert set(ghost.indexes) <= inserted_support  # eq. (8)


def test_ghosts_do_not_change_filter_state():
    bf = half_full_filter()
    weight = bf.hamming_weight
    GhostForgery(bf).craft(3)
    assert bf.hamming_weight == weight


def test_ghost_success_probability_property():
    bf = half_full_filter()
    forgery = GhostForgery(bf)
    expected = (bf.hamming_weight / bf.m) ** bf.k
    assert forgery.success_probability() == pytest.approx(expected)


def test_ghost_trials_track_probability():
    bf = half_full_filter()
    forgery = GhostForgery(bf)
    ghosts = forgery.craft(30)
    mean_trials = sum(g.trials for g in ghosts) / len(ghosts)
    expected = 1.0 / forgery.success_probability()
    assert 0.4 * expected <= mean_trials <= 2.5 * expected


def test_fp_probability_bounds_and_validation():
    assert false_positive_success_probability(100, 0, 4) == 0.0
    assert false_positive_success_probability(100, 100, 4) == 1.0
    with pytest.raises(ParameterError):
        false_positive_success_probability(100, 101, 4)
    with pytest.raises(ParameterError):
        false_positive_success_probability(0, 0, 4)


def test_latency_query_shape():
    bf = half_full_filter()
    forgery = LatencyQueryForgery(bf)
    crafted = forgery.craft_one()
    # First k-1 indexes set, last unset: maximal work, then rejection.
    assert all(bf.bits.get(i) for i in crafted.indexes[:-1])
    assert not bf.bits.get(crafted.indexes[-1])
    assert crafted.item not in bf


def test_latency_query_touches_all_positions():
    bf = half_full_filter()
    forgery = LatencyQueryForgery(bf)
    crafted = forgery.craft_one()
    assert forgery.probes_touched(crafted.indexes) == bf.k


def test_probes_touched_short_circuits_on_empty():
    bf = BloomFilter(64, 4)
    forgery = LatencyQueryForgery.__new__(LatencyQueryForgery)
    forgery.target = bf
    # All bits unset: one probe suffices to reject.
    assert forgery.probes_touched((1, 2, 3, 4)) == 1


def test_decoy_tree_structure():
    bf = half_full_filter()
    tree = DecoyTree.build(bf, root="http://evil.example", depth=3)
    assert len(tree.decoys) == 3
    assert tree.pages[0] == "http://evil.example"
    assert tree.pages[-1] == tree.ghost
    assert tree.ghost in bf  # the ghost is a false positive
    # Decoys nest under the root, ghost under the deepest decoy.
    assert tree.decoys[0].startswith("http://evil.example/")
    assert tree.ghost.startswith(tree.decoys[-1])


def test_decoy_tree_depth_validation():
    bf = half_full_filter()
    with pytest.raises(ParameterError):
        DecoyTree.build(bf, depth=0)
