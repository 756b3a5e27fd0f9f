"""Replicate streams: addressing, independence and seed validation."""

import numpy as np
import pytest

from fdchange._rng import replicate_rng, resolve_seed
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


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        replicate_rng(0, -1)


def test_resolve_seed():
    assert resolve_seed(12) == 12
    assert 0 <= resolve_seed(None) < 2**63
    with pytest.raises(ConfigurationError):
        resolve_seed(-1)
