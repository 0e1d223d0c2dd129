"""Counter-based random stream derivation.

Every stochastic component of the toolkit draws from a Philox generator
whose 128-bit key is a pure function of (experiment seed, stream tag,
indices).  Results are therefore reproducible bit for bit regardless of
evaluation order or worker count.  A consumer whose draws grow with its
input splits them into blocks, one stream each: the Green-Kubo paths come
in blocks sized by their expected jumps
(``boltzmann_process.block_paths``), each drawn whole from
``generator(seed, <route's stream>, block index)``.
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
