"""Counter-based random stream derivation.

Every stochastic component of the toolkit draws from a Philox generator
whose 128-bit key is a pure function of (experiment seed, stream tag,
indices).  Results are therefore reproducible bit for bit regardless of
evaluation order or worker count.

The stream is counter based (Salmon et al., "Parallel random numbers:
as easy as 1, 2, 3", SC'11), so its words can also be computed for many
keys at once: ``philox_key_array`` and ``philox_first_block_array`` are
the uint64-array forms of ``philox_key`` and of the first block of
numpy's Philox4x64-10.  They wrap mod 2**64 on arrays only, never on
numpy scalars, which warn on overflow.
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
    """Derive a 128-bit Philox key from the given integers."""
    hi = mix(*parts, _KEY_HI_TAG)
    lo = mix(*parts, _KEY_LO_TAG)
    return (hi << 64) | lo


def generator(*parts: int) -> np.random.Generator:
    """A fresh Generator keyed by the given integers."""
    return np.random.Generator(np.random.Philox(key=philox_key(*parts)))


def _u64(v):
    """An int (of either sign) as a numpy uint64; arrays pass through."""
    return v if isinstance(v, np.ndarray) else np.uint64(int(v) & _MASK64)


def splitmix64_array(x: np.ndarray) -> np.ndarray:
    """``splitmix64`` of every element of a uint64 array (ndim >= 1)."""
    x = x + np.uint64(0x9E3779B97F4A7C15)
    z = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def philox_key_array(*parts):
    """``philox_key`` elementwise, as its (high, low) uint64 halves.

    The parts are ints and uint64 arrays, broadcast together; at least one
    is an array.  Leading int parts fold as Python ints, the rest as
    arrays.
    """
    h = _MIX_SEED
    for p in parts:
        if isinstance(h, int) and not isinstance(p, np.ndarray):
            h = splitmix64(h ^ (int(p) & _MASK64))
        else:
            h = splitmix64_array(_u64(h) ^ _u64(p))
    return (splitmix64_array(h ^ np.uint64(_KEY_HI_TAG)),
            splitmix64_array(h ^ np.uint64(_KEY_LO_TAG)))


# Philox4x64 multipliers as (m, high 32 bits, low 32 bits), and the Weyl
# key increments (Salmon et al., SC'11)
_SH32 = np.uint64(32)
_LO32 = np.uint64(0xFFFFFFFF)
_PHILOX_M = tuple((np.uint64(m), np.uint64(m >> 32), np.uint64(m & 0xFFFFFFFF))
                  for m in (0xD2E7470EE14C6C93, 0xCA5A826395121157))
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))


def _mulhilo(m, b: np.ndarray):
    """High and low 64-bit words of the 128-bit products m[0] * b.

    Schoolbook multiplication in 32-bit limbs, no partial sum overflowing,
    and in place where it can be: a tile's temporaries are its peak memory.
    """
    m, m_hi, m_lo = m
    hi, u = b >> _SH32, b & _LO32
    t = m_lo * u
    t >>= _SH32
    t += m_lo * hi
    u *= m_hi
    u += t & _LO32
    hi *= m_hi
    hi += t >> _SH32
    hi += u >> _SH32
    return hi, m * b


def philox_first_block_array(key_hi: np.ndarray, key_lo: np.ndarray):
    """The first four words of numpy's ``Philox(key=...)``, elementwise.

    numpy increments the counter before each block, so these are
    Philox4x64-10 of counter (1, 0, 0, 0), whose first round leaves
    (key word 0, 0, key word 1, M0).  Key word 0 is the key's low half.
    """
    k0, k1 = key_lo.copy(), key_hi.copy()
    c0, c1, c2, c3 = key_lo, np.uint64(0), key_hi, _PHILOX_M[0][0]
    for _ in range(9):
        k0 += _PHILOX_W[0]
        k1 += _PHILOX_W[1]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        hi1 ^= c1 ^ k0
        hi0 ^= c3 ^ k1
        c0, c1, c2, c3 = hi1, lo1, hi0, lo0
    return c0, c1, c2, c3
