import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maglorentz import _rng

PARTS = st.lists(st.integers(-(2 ** 70), 2 ** 70), max_size=6)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(parts=PARTS)
def test_philox_key_folds_the_parts_once(parts):
    # the key the two tags give when each folds the parts itself
    want = ((_rng.mix(*parts, _rng._KEY_HI_TAG) << 64)
            | _rng.mix(*parts, _rng._KEY_LO_TAG))
    assert _rng.philox_key(*parts) == want


def plain_state(gen):
    """The Philox state dict of ``gen`` with its arrays as lists."""
    state = gen.bit_generator.state
    return {**state, "buffer": state["buffer"].tolist(),
            "state": {k: v.tolist() for k, v in state["state"].items()}}


@settings(derandomize=True, max_examples=300, deadline=None)
@given(parts=PARTS, old=PARTS, used=st.integers(0, 5), half=st.booleans(),
       lam=st.floats(0.0, 1e4), n=st.integers(0, 40))
def test_rekey_starts_where_a_fresh_generator_does(parts, old, used, half,
                                                   lam, n):
    # a generator of another key, left mid-buffer by 64-bit draws and with
    # a 32-bit half kept by a 32-bit draw
    gen = _rng.generator(*old)
    gen.random(used)
    if half:
        gen.integers(0, 2 ** 32, dtype=np.uint32)
    fresh = _rng.generator(*parts)
    assert _rng.rekey(gen, *parts) is gen
    assert plain_state(gen) == plain_state(fresh)
    assert gen.poisson(lam) == fresh.poisson(lam)
    assert np.array_equal(gen.random((n, 2)), fresh.random((n, 2)))
    assert plain_state(gen) == plain_state(fresh)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(parts=PARTS, lam=st.sampled_from([None, 0.7, 3.0]),
       n=st.integers(1, 7))
def test_cursor_draws_the_stream_k_raw_draws_ahead(parts, lam, n):
    # fresh, or after poisson draws that leave Philox's four-draw buffer
    # partly used: a cursor k raw draws ahead draws the stream from k on,
    # and leaves the generator it was made from where it was
    gen = _rng.generator(*parts)
    if lam is not None:
        gen.poisson(lam, n)
    state = plain_state(gen)
    whole = _rng.cursor(gen, 0).bit_generator.random_raw(10_050)
    assert plain_state(gen) == state
    for k in [*range(10), 9_999]:
        got = _rng.cursor(gen, k).bit_generator.random_raw(10_050 - k)
        assert np.array_equal(got, whole[k:])
    assert np.array_equal(gen.bit_generator.random_raw(10_050), whole)


@pytest.mark.parametrize("p", [0.1, 0.9])
@pytest.mark.parametrize("piece", [1, 7, 1000, 10 ** 6])
def test_geometric_skip_ends_where_one_draw_does(p, piece):
    # p = 0.1 draws by inversion (a ziggurat exponential, one or more raw
    # draws a value), p = 0.9 by search (one uniform a value)
    gen = _rng.generator(5, 7)
    gen.poisson(2.0, 3)
    probe = _rng.cursor(gen, 0)
    _rng.skip_geometric(probe, p, 5_000, piece)
    gen.geometric(p, 5_000)
    assert plain_state(probe) == plain_state(gen)
    assert np.array_equal(probe.random(9), gen.random(9))
