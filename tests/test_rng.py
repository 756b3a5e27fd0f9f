"""Replicate streams: addressing, independence and seed validation."""

import numpy as np
import pytest

from fdchange._rng import replicate_rng, replicate_rngs, resolve_seed
from fdchange.errors import ConfigurationError


def _jumped(seed, index):
    return np.random.Generator(np.random.Philox(seed).jumped(index))


@pytest.mark.parametrize("seed", [0, 17, 2**63 - 1])
@pytest.mark.parametrize("index", [0, 1, 5, 2**40, 2**64 + 3])
def test_stream_equals_jumped_reference(seed, index):
    ours, ref = replicate_rng(seed, index), _jumped(seed, index)
    ours_state = ours.bit_generator.state["state"]
    ref_state = ref.bit_generator.state["state"]
    assert np.array_equal(ours_state["counter"], ref_state["counter"])
    assert np.array_equal(ours_state["key"], ref_state["key"])
    assert np.array_equal(ours.standard_normal(37), ref.standard_normal(37))
    assert np.array_equal(ours.integers(0, 2**32, 11), ref.integers(0, 2**32, 11))


def test_numpy_integer_index_addresses_the_same_stream():
    assert np.array_equal(
        replicate_rng(3, np.int64(7)).standard_normal(5), _jumped(3, 7).standard_normal(5)
    )


def test_live_generators_do_not_share_state():
    # Two streams held at once and drawn in turn give what each gives alone.
    first, second = replicate_rng(9, 0), replicate_rng(9, 1)
    interleaved = [first.standard_normal(3), second.standard_normal(3),
                   first.standard_normal(4), second.standard_normal(4)]
    alone = replicate_rng(9, 0)
    a_draws = [alone.standard_normal(3), alone.standard_normal(4)]
    alone = replicate_rng(9, 1)
    b_draws = [alone.standard_normal(3), alone.standard_normal(4)]
    expected = [a_draws[0], b_draws[0], a_draws[1], b_draws[1]]
    assert all(np.array_equal(x, y) for x, y in zip(interleaved, expected))


def _draws(rng):
    return rng.standard_normal(7).tolist() + rng.integers(0, 2**32, 3).tolist()


@pytest.mark.parametrize(
    "start, stop",
    [(0, 6), (5, 9), (2**64 - 2, 2**64 + 2), (np.int64(3), np.uint32(6))],
    ids=["from-zero", "offset", "across-2**64", "numpy-bounds"],
)
def test_chunk_streams_equal_replicate_and_jumped_streams(start, stop):
    # Each re-pointed generator draws what a fresh one for its index draws,
    # also after the previous replicate left a half-used buffer behind.
    seed = 41
    got = [_draws(rng) for rng in replicate_rngs(seed, start, stop)]
    indices = range(int(start), int(stop))
    assert got == [_draws(replicate_rng(seed, r)) for r in indices]
    assert got == [_draws(_jumped(seed, r)) for r in indices]


def test_chunk_of_no_replicates_is_empty():
    assert list(replicate_rngs(3, 4, 4)) == []
    assert list(replicate_rngs(3, 5, 2)) == []


def test_chunk_builds_one_generator(monkeypatch):
    built = []

    def counting(seed, index):
        built.append(index)
        return replicate_rng(seed, index)

    monkeypatch.setattr("fdchange._rng.replicate_rng", counting)
    generators = {id(rng) for rng in replicate_rngs(0, 10, 20)}
    assert built == [10] and len(generators) == 1


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        replicate_rng(0, -1)


def test_resolve_seed():
    assert resolve_seed(12) == 12
    assert 0 <= resolve_seed(None) < 2**63
    with pytest.raises(ConfigurationError):
        resolve_seed(-1)
