"""Instance families that reach every chunk shape under the writer's one rule.

The shard writer picks each row's codec by one rule: dense unless
sparse-varint is strictly cheaper, then run-length if cheaper still
(``repro.setsystem.shards._ChunkCodec``).  A parity suite reaches every
decode and scan path by drawing families whose rows land on each codec:

* ``dense`` — rows of about half the ground set, scattered, over
  ``n >= 64``: every chunk is all dense;
* ``sparse`` — rows of at most three scattered elements;
* ``rle`` — rows of one or two intervals of at least six elements;
* ``auto`` — every row drawn from one of the three, so chunks mix them.

``tests/test_shards.py::test_families_reach_every_chunk_shape`` checks
these shapes on written repositories.
"""

from __future__ import annotations

import numpy as np

from repro.setsystem import SetSystem
from repro.setsystem.deltas import apply_delta
from repro.setsystem.shards import write_shards

__all__ = [
    "FAMILIES",
    "assert_same_payload",
    "family_rows",
    "family_system",
    "write_family_chain",
]

#: Family names; ``auto`` is the mixed family.
FAMILIES = ("auto", "dense", "sparse", "rle")


def _dense_row(rng: np.random.Generator, n: int) -> "list[int]":
    return np.flatnonzero(rng.random(n) < 0.5).tolist()


def _sparse_row(rng: np.random.Generator, n: int) -> "list[int]":
    size = int(rng.integers(0, min(3, n) + 1))
    return sorted(rng.choice(n, size=size, replace=False).tolist())


def _rle_row(rng: np.random.Generator, n: int) -> "list[int]":
    row: "set[int]" = set()
    for _ in range(int(rng.integers(1, 3))):
        length = int(rng.integers(6, max(7, n // 3)))
        start = int(rng.integers(0, max(1, n - length + 1)))
        row.update(range(start, min(n, start + length)))
    return sorted(row)


_ROWS = {"dense": _dense_row, "sparse": _sparse_row, "rle": _rle_row}


def family_rows(family: str, rng: np.random.Generator, n: int, m: int):
    """``m`` rows over ``[0, n)`` of ``family`` (``n >= 64`` for the dense
    and mixed families, ``n >= 6`` for the others)."""
    if family == "auto":
        kinds = rng.choice(sorted(_ROWS), size=m)
        return [_ROWS[kind](rng, n) for kind in kinds]
    return [_ROWS[family](rng, n) for _ in range(m)]


def family_system(
    family: str, rng: np.random.Generator, max_m: int = 30
) -> SetSystem:
    """A random family of 1..``max_m`` rows over a ground set its rows need."""
    low = 64 if family in ("auto", "dense") else 12
    n = int(rng.integers(low, low + 90))
    return SetSystem(n, family_rows(family, rng, n, int(rng.integers(1, max_m + 1))))


def write_family_chain(path, system: SetSystem, chunk_rows: int, split: int):
    """``system`` as a delta chain: its first ``split`` rows plus a dead
    row as the base, then one generation that deletes the dead row and
    inserts the rest.  The merged view's live rows are ``system``'s."""
    sets = [sorted(row) for row in system.sets]
    root = write_shards(path, [*sets[:split], [0] if system.n else []],
                        n=system.n, chunk_rows=chunk_rows)
    apply_delta(root, [{"op": "delete", "id": split}] + [
        {"op": "insert", "elements": row} for row in sets[split:]
    ])
    return root


def assert_same_payload(got, expected, context="") -> None:
    """Two ``decode_chunk`` results hold equal arrays (values and dtypes)
    and report equal resident bytes."""
    (payload, nbytes), (reference, reference_nbytes) = got, expected
    assert nbytes == reference_nbytes, context
    assert payload.keys() == reference.keys(), context
    for key, value in payload.items():
        other = reference[key]
        if value is None or other is None or isinstance(value, int):
            assert value == other, (context, key)
            continue
        assert len(value) == len(other), (context, key)
        for array, other_array in zip(value, other):
            assert array.dtype == other_array.dtype, (context, key)
            assert np.array_equal(array, other_array), (context, key)
