"""Integer-bitmask set utilities.

The offline solvers and several reductions manipulate subsets of a ground set
``{0, ..., n-1}``.  Arbitrary-precision Python integers make an efficient and
allocation-friendly set representation for this: membership is a shift,
union/intersection are single ``|``/``&`` operations, and cardinality is
``int.bit_count()``.

These helpers convert between iterables of indices and masks.  They are pure
functions with no state, and linear in the mask's byte length: the
conversion goes through one ``int.to_bytes``/``int.from_bytes`` and a numpy
bit (un)pack, never a per-bit big-int operation (each of which would copy
the whole mask).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

__all__ = ["mask_of", "bits_of", "iter_bits", "count_bits", "universe_mask"]


def mask_of(indices: Iterable[int]) -> int:
    """Return the bitmask with exactly the given ``indices`` set.

    >>> bin(mask_of([0, 2, 3]))
    '0b1101'
    """
    idx = np.fromiter(indices, dtype=np.int64)
    if not idx.size:
        return 0
    if idx.min() < 0:
        raise ValueError(
            f"bitset indices must be non-negative, got {int(idx[idx < 0][0])}"
        )
    bits = np.zeros(int(idx.max()) + 1, dtype=np.uint8)
    bits[idx] = 1
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def bits_of(mask: int) -> list[int]:
    """Return the sorted list of indices set in ``mask``.

    >>> bits_of(0b1101)
    [0, 2, 3]
    """
    if mask < 0:
        raise ValueError("bitset masks must be non-negative")
    raw = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    return np.flatnonzero(bits).tolist()


def iter_bits(mask: int) -> Iterator[int]:
    """Iterate over the indices set in ``mask`` in increasing order.

    >>> list(iter_bits(0b1010))
    [1, 3]
    """
    return iter(bits_of(mask))


def count_bits(mask: int) -> int:
    """Return the number of set bits (``|mask|`` as a set)."""
    return mask.bit_count()


def universe_mask(n: int) -> int:
    """Return the full universe ``{0, ..., n-1}`` as a mask.

    >>> bin(universe_mask(4))
    '0b1111'
    """
    if n < 0:
        raise ValueError(f"universe size must be non-negative, got {n}")
    return (1 << n) - 1
