"""Keyed random streams.

Every stochastic object in this package is drawn from a named stream.  A
stream is identified by a 64-bit key derived from a tuple of parts (the
master seed plus whatever identifies the consumer: a side of the origin, a
site block, an experiment name, a replica block index).  The key seeds a
numpy Generator on the PCG64 engine; its draws are reproducible per key,
whatever the draw method.  No stream is skipped ahead or split: each one
is read from its start by one consumer.  Two consequences we rely on
throughout:

* sampling is reproducible bit-for-bit regardless of how work is split
  across workers, because each unit of work (a replica block, a walk, an
  environment site block) reads its own stream;
* environment windows can be grown lazily: env draws each site block whole
  on the block's own stream, so site i always receives the same omega no
  matter how many times the window around it is re-materialized.

Keys are folded from the parts by the splitmix64 finalizer, in Python ints.

``counter_uniforms`` is the stateless splitmix64 stream, ``mix64(key +
(counter+1) * GOLDEN)``, sliceable by counter.  No sampler of the package
reads it any more; it stays, with ``counter_bits`` and the uint64 ``mix64``,
while benchmarks/spans.py names it as a span target.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB
GOLDEN = np.uint64(_GOLDEN)
MIX_1 = np.uint64(_MIX_1)
MIX_2 = np.uint64(_MIX_2)

_U64_MASK = (1 << 64) - 1


def mix64(x: np.ndarray | int) -> np.ndarray | np.uint64:
    """splitmix64 finalizer; accepts a python int or a uint64 array."""
    z = np.asarray(x, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = (z + GOLDEN).astype(np.uint64)
        z = (z ^ (z >> np.uint64(30))) * MIX_1
        z = (z ^ (z >> np.uint64(27))) * MIX_2
        z = z ^ (z >> np.uint64(31))
    return z if z.shape else np.uint64(z)


def _mix64_int(x: int) -> int:
    """mix64 of one uint64 in Python ints, without numpy's scalar cost."""
    z = (x + _GOLDEN) & _U64_MASK
    z = ((z ^ (z >> 30)) * _MIX_1) & _U64_MASK
    z = ((z ^ (z >> 27)) * _MIX_2) & _U64_MASK
    return z ^ (z >> 31)


def _fold_part(acc: int, part: int | str | bytes) -> int:
    if isinstance(part, str):
        part = part.encode("utf8")
    if isinstance(part, bytes):
        for i in range(0, len(part), 8):
            chunk = int.from_bytes(part[i : i + 8], "little")
            acc = _mix64_int(acc ^ chunk)
        return acc
    return _mix64_int(acc ^ (int(part) & _U64_MASK))


def stream_key(*parts: int | str | bytes) -> int:
    """Derive a 64-bit stream key from a tuple of ints / strings.

    The fold is order-sensitive, so ("env", 0, 1) and ("env", 1, 0) name
    different streams.
    """
    acc = 0x243F6A8885A308D3  # pi, just to not start at zero
    for part in parts:
        acc = _fold_part(acc, part)
    return acc


def counter_bits(key: int, start: int, count: int) -> np.ndarray:
    """uint64 words number start..start+count-1 of the stream ``key``."""
    idx = np.arange(start, start + count, dtype=np.uint64)
    base = np.uint64(key & _U64_MASK)
    with np.errstate(over="ignore"):
        return mix64(base + (idx + np.uint64(1)) * GOLDEN)


def counter_uniforms(key: int, start: int, count: int) -> np.ndarray:
    """Uniforms on (0,1), 53-bit resolution, never exactly 0 or 1."""
    bits = counter_bits(key, start, count)
    return (bits >> np.uint64(11)).astype(np.float64) * 2.0**-53 + 2.0**-54


def generator(key: int) -> np.random.Generator:
    """A numpy Generator on the PCG64 engine, seeded with the 64-bit key.

    PCG64 hashes its seed through numpy's SeedSequence, so keys that differ
    in any one bit start unrelated streams.
    """
    return np.random.Generator(np.random.PCG64(key & _U64_MASK))
