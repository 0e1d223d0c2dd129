"""Counter-based random stream derivation.

Every stochastic component of the toolkit draws from a Philox generator
whose 128-bit key is a pure function of (experiment seed, stream tag,
indices).  Results are therefore reproducible bit for bit regardless of
evaluation order or worker count.  A consumer may read one stream out of
order through cursors (``cursor``): copies of its generator set ahead by a
count of raw draws.
"""

from __future__ import annotations

import numpy as np
# numpy imports numpy.random lazily, on first use: import it with the package,
# so forked pool workers inherit it instead of each importing it in their run
import numpy.random  # noqa: F401

_MASK64 = (1 << 64) - 1
_MIX_SEED = 0x243F6A8885A308D3
_KEY_HI_TAG = 0x9E3779B9
_KEY_LO_TAG = 0x85EBCA6B

# distinct stream tags, one per consumer
STREAM_FIELD_CELL = 0x01
STREAM_START = 0x02
STREAM_GB_PATH = 0x03
STREAM_GK_BLOCK = 0x04
STREAM_ANNULUS = 0x05
STREAM_CIRCLING = 0x06


def splitmix64(x: int) -> int:
    """One round of the splitmix64 mixer (public-domain constants)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def mix(*parts: int) -> int:
    """Fold integers (of either sign) into a single 64-bit hash."""
    h = _MIX_SEED
    for p in parts:
        h = splitmix64(h ^ (int(p) & _MASK64))
    return h


def philox_key(*parts: int) -> int:
    """Derive a 128-bit Philox key from the given integers.

    The halves are ``mix(*parts, _KEY_HI_TAG)`` and ``mix(*parts,
    _KEY_LO_TAG)``; their shared prefix ``mix(*parts)`` is folded once.
    """
    h = mix(*parts)
    return (splitmix64(h ^ _KEY_HI_TAG) << 64) | splitmix64(h ^ _KEY_LO_TAG)


def generator(*parts: int) -> np.random.Generator:
    """A fresh Generator keyed by the given integers."""
    return np.random.Generator(np.random.Philox(key=philox_key(*parts)))


_ZEROS4 = (0, 0, 0, 0)


def rekey(gen: np.random.Generator, *parts: int) -> np.random.Generator:
    """``gen``, its Philox set to the state ``generator(*parts)`` starts in.

    The key is set, the counter and buffer zeroed, the buffer marked used
    up and no 32-bit half kept, as Philox sets them when built; so every
    later draw equals that of the fresh generator, at a fraction of the
    cost of building one.
    """
    key = philox_key(*parts)
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS4, "key": (key & _MASK64, key >> 64)},
        "buffer": _ZEROS4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return gen


def cursor(gen: np.random.Generator, k: int) -> np.random.Generator:
    """A generator that draws what ``gen`` draws after its next ``k`` raw
    64-bit draws; ``gen`` is left as it is.

    Philox makes four raw draws per counter step.  The cursor, a Philox
    built from ``gen``'s state, uses up what is left of the buffer, then
    advances the counter by whole steps (which empties the buffer) and
    takes the rest of ``k`` from the next one.  ``random`` and ``uniform``
    take one raw draw per value, so a cursor ``n`` raw draws ahead starts
    where ``n`` of their values end.  Only 64-bit draws are counted: a
    32-bit half that ``gen`` keeps is not carried past a step.
    """
    bits = np.random.Philox(key=0)
    state = gen.bit_generator.state
    bits.state = state
    left = 4 - int(state["buffer_pos"])
    if k <= left:
        bits.random_raw(k)
    else:
        bits.random_raw(left)
        bits.advance((k - left) // 4)
        bits.random_raw((k - left) % 4)
    return np.random.Generator(bits)


def skip_geometric(gen: np.random.Generator, p: float, n: int,
                   piece: int) -> None:
    """Move ``gen`` past the draws of ``gen.geometric(p, n)``, drawing and
    discarding at most ``piece`` values at a time.

    numpy draws a geometric value by a search on one uniform or by
    inverting an exponential, whose ziggurat takes one or more raw draws,
    so how far the values reach is found by drawing them.
    """
    for done in range(0, n, piece):
        gen.geometric(p, min(piece, n - done))
