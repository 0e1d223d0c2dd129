import numpy as np
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
