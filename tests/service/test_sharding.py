"""Shard routers: determinism, range, uniformity, and keying."""

from __future__ import annotations

import pytest

from repro.exceptions import ParameterError
from repro.service.cluster.ring import HashShardPicker, KeyedShardPicker
from repro.urlgen.faker import UrlFactory

URLS = UrlFactory(seed=0x5EED).urls(400)


@pytest.mark.parametrize("picker", [HashShardPicker(), KeyedShardPicker(bytes(16))])
def test_pick_is_deterministic_and_in_range(picker):
    for url in URLS[:50]:
        first = picker.pick(url, 8)
        assert 0 <= first < 8
        assert picker.pick(url, 8) == first
        # str and bytes spellings route identically.
        assert picker.pick(url.encode(), 8) == first


@pytest.mark.parametrize("picker", [HashShardPicker(), KeyedShardPicker(bytes(16))])
def test_distribution_is_roughly_uniform(picker):
    shards = 4
    counts = [0] * shards
    for url in URLS:
        counts[picker.pick(url, shards)] += 1
    expected = len(URLS) / shards
    for count in counts:
        assert 0.5 * expected < count < 1.5 * expected


def test_hash_picker_is_public_and_seeded():
    a, b = HashShardPicker(seed=1), HashShardPicker(seed=1)
    other = HashShardPicker(seed=2)
    routes_a = [a.pick(url, 8) for url in URLS[:100]]
    assert routes_a == [b.pick(url, 8) for url in URLS[:100]]
    assert routes_a != [other.pick(url, 8) for url in URLS[:100]]


def test_keyed_picker_depends_on_secret_key():
    a = KeyedShardPicker(bytes(16))
    b = KeyedShardPicker(bytes([1]) * 16)
    routes = [(a.pick(url, 8), b.pick(url, 8)) for url in URLS[:100]]
    assert any(x != y for x, y in routes)
    # Fresh keys are generated (and kept) when none is supplied.
    auto = KeyedShardPicker()
    assert len(auto.key) == 16
    assert KeyedShardPicker(auto.key).pick(URLS[0], 8) == auto.pick(URLS[0], 8)


def test_invalid_parameters():
    with pytest.raises(ParameterError):
        KeyedShardPicker(b"short")
    with pytest.raises(ParameterError):
        HashShardPicker().pick("x", 0)
    with pytest.raises(ParameterError):
        KeyedShardPicker(bytes(16)).pick("x", -1)
