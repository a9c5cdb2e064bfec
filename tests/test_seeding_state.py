"""RNG stream round-trip: a pickled generator continues every draw.

The checkpoint layer pickles each registered stream's generator whole,
mid-run (``pickle.HIGHEST_PROTOCOL``, as ``save_checkpoint`` does);
resume must continue the exact draw sequence with no replays and no
skips.  This property test exercises every label in ``RNG_STREAMS``
across seeds and qualifiers, pickling at staggered points in the
sequence.
"""

import pickle

import numpy as np
import pytest

from repro.core.seeding import RNG_STREAMS, stream_digest, stream_rng


def snapshot(rng):
    """``rng`` pickled as a checkpoint pickles it."""
    return pickle.dumps(rng, protocol=pickle.HIGHEST_PROTOCOL)


@pytest.mark.parametrize("stream", sorted(RNG_STREAMS))
@pytest.mark.parametrize("seed", [0, 7, 12345])
def test_state_roundtrip_reproduces_draws(stream, seed):
    for consumed in (0, 1, 17, 256):
        rng = stream_rng(stream, seed, "host-3")
        rng.random(consumed)
        blob = snapshot(rng)
        expected = rng.random(64)

        restored = pickle.loads(blob)
        np.testing.assert_array_equal(restored.random(64), expected)


@pytest.mark.parametrize("stream", sorted(RNG_STREAMS))
def test_state_survives_pickle(stream):
    rng = stream_rng(stream, 42)
    rng.integers(0, 1000, size=33)
    blob = snapshot(rng)
    expected = rng.integers(0, 1000, size=50)

    restored = pickle.loads(blob)
    np.testing.assert_array_equal(
        restored.integers(0, 1000, size=50), expected
    )


def test_state_roundtrip_mixed_draw_kinds():
    # Draws of different kinds (uniform, normal, integers) advance the
    # bit generator by different amounts; the pickle must capture the
    # bit generator's buffered values too.
    rng = stream_rng("latency", 9, "h1")
    rng.normal(size=7)
    blob = snapshot(rng)
    expected = (rng.normal(size=5), rng.integers(0, 10, size=5), rng.random(5))

    restored = pickle.loads(blob)
    got = (restored.normal(size=5), restored.integers(0, 10, size=5), restored.random(5))
    for want, have in zip(expected, got):
        np.testing.assert_array_equal(have, want)


def test_streams_remain_label_distinct():
    digests = {stream_digest(s, 0) for s in RNG_STREAMS}
    assert len(digests) == len(RNG_STREAMS)
