from hypothesis import given, settings
from hypothesis import strategies as st

from maglorentz import _rng


@settings(derandomize=True, max_examples=500, deadline=None)
@given(parts=st.lists(st.integers(-(2 ** 70), 2 ** 70), max_size=6))
def test_philox_key_folds_the_parts_once(parts):
    # the key the two tags give when each folds the parts itself
    want = ((_rng.mix(*parts, _rng._KEY_HI_TAG) << 64)
            | _rng.mix(*parts, _rng._KEY_LO_TAG))
    assert _rng.philox_key(*parts) == want
