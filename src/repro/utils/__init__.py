"""Shared low-level utilities: bitsets, randomness, small math helpers."""

from repro import _lazy_exports

__all__ = _lazy_exports(__name__, {
    ".bitset": ["bits_of", "count_bits", "iter_bits", "mask_of", "universe_mask"],
    ".mathutil": [
        "ceil_div",
        "ceil_inverse",
        "ceil_log2",
        "harmonic",
        "ilog2",
        "powers_of_two_up_to",
    ],
    ".rng": ["as_generator", "spawn_generators"],
})
