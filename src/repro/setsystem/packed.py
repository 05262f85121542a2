"""Packed bitmaps: the big-int family and the ``uint64`` scan kernels.

Every algorithm in this repository bottoms out in the same three
primitives over a family of subsets of ``{0, ..., n-1}``:

* **coverage union** — ``U_{i in D} r_i`` (``covered_by``, update passes);
* **residual gain** — ``|r_i ∩ residual|`` (greedy, the Size Test);
* **residual projection** — ``r_i ∩ residual`` for every ``i`` (element
  sampling, multi-pass residual re-solves).

Each layer holds its bitmaps in exactly one representation (DESIGN.md
§4.1):

* **Algorithm state and offline solvers** use arbitrary-precision
  integers (:mod:`repro.utils.bitset`): bit ``e`` is element ``e``, and
  union, intersection and popcount are single ``|``/``&``/``bit_count``
  operations.  :class:`PackedFamily` holds a whole family this way.
* **Scan kernels** use ``(rows, words)`` ``numpy.uint64`` blocks:
  :class:`ScanMask`, :func:`chunk_gains`, :func:`membership_hits`,
  :func:`range_gains`, :func:`scan_chunk` and the shard decoders of
  :mod:`repro.setsystem.shards`.  :func:`pack_rows` turns big-int rows
  into such a block.  Captured projections leave the kernels as one
  :class:`Captures` record per chunk — ascending row ids plus the
  intersection block itself — and become big ints only row by row, when
  an algorithm asks for one (:meth:`Captures.row`).
* **Frozensets** survive only in the seed's reference implementations
  that the tests compare against: :func:`non_dominated_reference` here
  and the frozenset greedy heap of :mod:`repro.offline.greedy`.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.utils.bitset import bits_of, mask_of

__all__ = [
    "Captures",
    "PackedFamily",
    "ScanMask",
    "capture_locals",
    "chunk_gains",
    "first_argmax",
    "membership_hits",
    "non_dominated_reference",
    "pack",
    "pack_rows",
    "range_gains",
    "scan_chunk",
]

WORD_BITS = 64

# numpy < 2.0 has no ``bitwise_count``; popcount through an 8-bit table.
_HAVE_BITWISE_COUNT = hasattr(np, "bitwise_count")
if not _HAVE_BITWISE_COUNT:  # pragma: no cover - numpy >= 2.0 in CI
    _POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint64)


def _popcount_rows(matrix: "np.ndarray") -> "np.ndarray":
    """Per-row popcount of a (..., words) uint64 array, as ``int64``."""
    if _HAVE_BITWISE_COUNT:
        # Below 1024 words a row's count fits 16 bits, and the narrow
        # accumulator sums the per-word counts about 30% faster.
        acc = np.uint16 if matrix.shape[-1] < 1024 else np.int64
        counts = np.bitwise_count(matrix).sum(axis=-1, dtype=acc)
        return counts.astype(np.int64, copy=False)
    flat = np.ascontiguousarray(matrix).view(np.uint8)
    return _POPCOUNT8[flat].sum(axis=-1, dtype=np.int64)


def pack_rows(rows: Sequence[int], words: int) -> "np.ndarray":
    """Big-int rows as a read-only ``(len(rows), words)`` ``uint64`` block.

    >>> pack_rows([0b101, 1 << 64], words=2).tolist()
    [[5, 0], [0, 1]]
    """
    data = b"".join(row.to_bytes(words * 8, "little") for row in rows)
    return np.frombuffer(data, dtype="<u8").reshape(len(rows), words)


class Captures:
    """One chunk's captured projections: ascending row ids plus one block.

    ``block[j]`` is the projection ``row ∩ mask`` of row ``ids[j]`` as
    ``words`` little-endian ``uint64`` words — the intersection block
    the scan kernel already computed, kept as it is.  Vectorized
    consumers (the Size-Test popcounts, :meth:`words`) read the block;
    int consumers call :meth:`row`, which converts a row once and
    memoizes it, so every guess of a pass shares one int.  Iterating
    yields ``(row_id, projection_int)`` pairs in id order, and a record
    equals another record or pair sequence holding the same pairs.
    Pickling ships the block as raw array bytes.

    >>> captured = Captures([3, 7], pack_rows([0b101, 1 << 64], words=2))
    >>> len(captured), captured.words(), captured.row(1) == 1 << 64
    (2, 5, True)
    >>> captured == [(3, 0b101), (7, 1 << 64)]
    True
    """

    __slots__ = ("ids", "block", "_ints", "_raw")

    def __init__(self, ids: "list[int]", block: "np.ndarray"):
        self.ids = ids
        self.block = block
        self._ints: "list[int | None]" = [None] * len(ids)
        self._raw = None

    @classmethod
    def empty(cls, words: int) -> "Captures":
        """A record holding no rows."""
        return cls([], np.zeros((0, words), dtype="<u8"))

    @classmethod
    def from_pairs(cls, pairs, words: int) -> "Captures":
        """A record from ``(row_id, projection_int)`` pairs (wire decode, tests)."""
        pairs = list(pairs)
        return cls(
            [row_id for row_id, _ in pairs],
            pack_rows([row for _, row in pairs], words),
        )

    @classmethod
    def concat(cls, records: "Sequence[Captures]") -> "Captures":
        """The records' rows in order, as one record (eager scan merges)."""
        full = [record for record in records if len(record)]
        if not full:
            return records[0] if records else cls.empty(0)
        if len(full) == 1:
            return full[0]
        return cls(
            [row_id for record in full for row_id in record.ids],
            np.concatenate([record.block for record in full]),
        )

    def __len__(self) -> int:
        return len(self.ids)

    def row(self, j: int) -> int:
        """The ``j``-th projection as a big int (converted once)."""
        value = self._ints[j]
        if value is None:
            value = self._convert(j)
        return value

    def rows(self, index: "Sequence[int]") -> "list[int]":
        """The projections at ``index`` as big ints (each converted once)."""
        ints = self._ints
        values = [ints[j] for j in index]
        if None in values:
            values = [
                self._convert(j) if value is None else value
                for j, value in zip(index, values)
            ]
        return values

    def _convert(self, j: int) -> int:
        if self._raw is None:
            self._raw = memoryview(np.ascontiguousarray(self.block)).cast("B")
        width = self.block.shape[1] * 8
        value = int.from_bytes(self._raw[j * width : (j + 1) * width], "little")
        self._ints[j] = value
        return value

    def __iter__(self):
        return zip(self.ids, self.rows(range(len(self.ids))))

    def words(self) -> int:
        """Projection elements plus one id per row (capture accounting)."""
        return int(_popcount_rows(self.block).sum()) + len(self.ids)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Captures, list, tuple)):
            return NotImplemented
        return list(self) == list(other)

    __hash__ = None

    def __repr__(self) -> str:
        return f"Captures({list(self)!r})"

    def __reduce__(self):
        return Captures, (self.ids, np.ascontiguousarray(self.block))


# ----------------------------------------------------------------------
# The big-int family (offline solvers, preprocessing)
# ----------------------------------------------------------------------
class PackedFamily:
    """A whole family as one arbitrary-precision bitmap per row.

    Rows are indexed ``0..m-1`` in repository order; ``rows[i]`` has bit
    ``e`` set exactly when element ``e`` is in the ``i``-th set.

    >>> family = pack([[0, 1], [2]], n=3)
    >>> family.sizes()
    [2, 1]
    >>> bits_of(family.union([0, 1]))
    [0, 1, 2]
    """

    def __init__(self, n: int, rows: Sequence[int]):
        self.n = n
        self.rows = tuple(rows)
        self.m = len(self.rows)
        self._sizes: "list[int] | None" = None

    def sizes(self) -> list[int]:
        """Per-row cardinalities (memoized)."""
        if self._sizes is None:
            self._sizes = [row.bit_count() for row in self.rows]
        return self._sizes

    # -- coverage union ------------------------------------------------
    def union(self, ids: Iterable[int]) -> int:
        """Coverage union ``U_{i in ids} r_i``."""
        rows = self.rows
        covered = 0
        for i in ids:
            covered |= rows[i]
        return covered

    def covers(self, ids: Iterable[int]) -> bool:
        """Does the union of the rows equal the ground set? (short-circuits)"""
        rows, full = self.rows, (1 << self.n) - 1
        covered = 0
        for i in ids:
            covered |= rows[i]
            if covered == full:
                return True
        return covered == full

    # -- residual gains ------------------------------------------------
    def gains(self, residual: int) -> list[int]:
        """``|r_i ∩ residual|`` for every row."""
        return [(row & residual).bit_count() for row in self.rows]

    def best_gain(self, residual: int) -> tuple[int, int]:
        """``(max gain, argmax row)``; ties break to the lowest row index.

        Returns ``(0, -1)`` for an empty family or an all-zero gain vector.
        """
        best_gain, best_id = 0, -1
        for i, row in enumerate(self.rows):
            gain = (row & residual).bit_count()
            if gain > best_gain:
                best_gain, best_id = gain, i
        return best_gain, best_id

    # -- residual projection -------------------------------------------
    def project(self, residual: int) -> "PackedFamily":
        """The family with every row intersected with ``residual``.

        Elements are *not* renumbered — this is the raw projection kernel;
        renumbering (when needed) happens at the ``SetSystem`` layer.
        """
        return PackedFamily(self.n, [row & residual for row in self.rows])

    def to_frozensets(self) -> list[frozenset[int]]:
        """Unpack every row back to a frozenset of element ids."""
        return [frozenset(bits_of(row)) for row in self.rows]

    # -- domination ----------------------------------------------------
    def non_dominated(self) -> list[int]:
        """Indices of the sets not strictly contained in another set.

        Matches :func:`non_dominated_reference` (the seed's semantics)
        exactly: a row is dropped when it is a strict subset of any other
        row, or equal to a row with a smaller index (first duplicate
        survives).

        Instead of the seed's O(m^2) pairwise scan, each row is tested
        only against the rows sharing its *least frequent* element (no
        other row can contain it).  A row ``j`` dominates row ``i``
        exactly when ``r_i ⊆ r_j`` and (``|r_j| > |r_i|`` — a strict
        superset — or ``j < i`` — an earlier duplicate; submask plus equal
        size implies equal content).
        """
        rows, m = self.rows, self.m
        if m == 0:
            return []
        sizes = self.sizes()
        row_elems = [bits_of(row) for row in rows]
        freq = [0] * self.n
        element_rows: list[list[int]] = [[] for _ in range(self.n)]
        for i, elems in enumerate(row_elems):
            for e in elems:
                freq[e] += 1
                element_rows[e].append(i)  # ascending row index
        nonempty_exists = any(sizes)
        first_empty = next((i for i, s in enumerate(sizes) if s == 0), m)
        keep: list[int] = []
        for i, row in enumerate(rows):
            size = sizes[i]
            if size == 0:
                # An empty set is a strict subset of any non-empty set and
                # is otherwise dominated by an earlier empty duplicate.
                if not nonempty_exists and first_empty == i:
                    keep.append(i)
                continue
            rarest = min(row_elems[i], key=freq.__getitem__)
            for j in element_rows[rarest]:
                if j != i and row & rows[j] == row and (sizes[j] > size or j < i):
                    break
            else:
                keep.append(i)
        return keep


def pack(sets: Iterable[Iterable[int]], n: int) -> PackedFamily:
    """Pack a family of element-id iterables into a :class:`PackedFamily`."""
    return PackedFamily(n, [mask_of(s) for s in sets])


def non_dominated_reference(sets: Sequence[frozenset[int]]) -> list[int]:
    """The seed's O(m^2) pairwise domination loop, over frozensets.

    Kept verbatim as the executable reference that
    :meth:`PackedFamily.non_dominated` is tested against.
    """
    keep: list[int] = []
    for i, r in enumerate(sets):
        dominated = False
        for j, other in enumerate(sets):
            if i == j:
                continue
            if r < other or (r == other and j < i):
                dominated = True
                break
        if not dominated:
            keep.append(i)
    return keep


# ----------------------------------------------------------------------
# Chunk-scan kernels (the parallel executor's compute core, DESIGN.md §6)
# ----------------------------------------------------------------------
class ScanMask:
    """One residual mask with every derived view a chunk scan needs.

    A gains scan touches the same mask in three shapes — arbitrary
    precision integer (the wire format), packed ``uint64``
    words (dense-chunk kernels) and exclusive prefix popcount (the fused
    run-length kernel).  ``ScanMask`` computes each lazily and caches it,
    so per-shard scan calls — serial or in worker processes — never
    re-derive them.

    Examples
    --------
    >>> mask = ScanMask(70, (1 << 65) | 0b1011)
    >>> mask.words, mask.is_empty
    (2, False)
    >>> int(mask.prefix[66]) - int(mask.prefix[64])  # bits in [64, 66)
    1
    """

    def __init__(self, n: int, mask_int: int):
        if mask_int < 0:
            raise ValueError(f"mask must be a non-negative integer, got {mask_int}")
        self.n = n
        self.words = (n + WORD_BITS - 1) // WORD_BITS
        self.mask_int = mask_int
        self._arr = None
        self._prefix = None

    @property
    def is_empty(self) -> bool:
        return self.mask_int == 0

    def to_bytes(self) -> bytes:
        """The mask as ``words`` little-endian ``uint64`` words."""
        return self.mask_int.to_bytes(self.words * 8, "little")

    @property
    def arr(self) -> "np.ndarray":
        """Packed ``uint64`` view."""
        if self._arr is None:
            self._arr = np.frombuffer(self.to_bytes(), dtype="<u8")
        return self._arr

    @property
    def prefix(self) -> "np.ndarray":
        """Exclusive prefix popcount: ``prefix[i] = |mask ∩ [0, i)|``."""
        if self._prefix is None:
            if self.words:
                bits = np.unpackbits(
                    self.arr.view(np.uint8), bitorder="little"
                )[: self.n]
            else:
                bits = np.zeros(0, dtype=np.uint8)
            prefix = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(bits, dtype=np.int64, out=prefix[1:])
            self._prefix = prefix
        return self._prefix


def first_argmax(gains) -> int:
    """Index of the first maximum of a gains vector, ``-1`` if all-zero.

    The lowest-index tie-break every greedy variant in this repository
    uses (DESIGN.md §4).

    >>> first_argmax([0, 3, 1, 3])
    1
    >>> first_argmax([0, 0])
    -1
    """
    if len(gains) == 0:
        return -1
    best = int(np.argmax(gains))  # first max == lowest row index
    return best if gains[best] > 0 else -1


def chunk_gains(matrix: "np.ndarray", mask_arr: "np.ndarray") -> "np.ndarray":
    """Per-row ``|row ∩ mask|`` over a ``(rows, words)`` ``uint64`` chunk."""
    if matrix.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    if matrix.shape[1] == 0:
        return np.zeros(matrix.shape[0], dtype=np.int64)
    return _popcount_rows(np.bitwise_and(matrix, mask_arr[None, :]))


def membership_hits(flat_idx: "np.ndarray", mask_arr: "np.ndarray") -> "np.ndarray":
    """Which element indices have their mask bit set (fused sparse gain).

    ``flat_idx`` is an ``int64`` array of element ids (possibly spanning
    many rows); the result is a boolean array of the same shape.  This is
    the kernel that lets sparse-encoded shard rows compute gains without
    ever materializing ``ceil(n/64)`` dense words.
    """
    if flat_idx.size == 0:
        return np.zeros(0, dtype=bool)
    words = mask_arr[flat_idx >> 6]
    shifts = (flat_idx & 63).astype(np.uint64)
    return ((words >> shifts) & np.uint64(1)).astype(bool)


def range_gains(
    starts: "np.ndarray",
    ends: "np.ndarray",
    row_ids: "np.ndarray",
    rows: int,
    prefix: "np.ndarray",
) -> "np.ndarray":
    """Per-row ``|mask ∩ U [start, end)|`` via the prefix popcount.

    The fused run-length gain kernel: each run ``[start, end)`` of a
    run-length-encoded row contributes ``prefix[end] - prefix[start]``
    mask bits, summed per row — no dense words, no index expansion.
    """
    out = np.zeros(rows, dtype=np.int64)
    if starts.size:
        np.add.at(out, row_ids, prefix[ends] - prefix[starts])
    return out


def capture_locals(
    start: int,
    gains: "np.ndarray",
    min_capture_gain: "int | None" = None,
    capture_ids=None,
    best_only: bool = False,
) -> list[int]:
    """Chunk-local ids of the rows a scan captures, ascending.

    The capture rule shared by every chunk kernel (see
    :func:`scan_chunk` for the parameters): the first-max positive-gain
    row under ``best_only``, else every row whose gain reaches
    ``min_capture_gain`` and whose global id is in ``capture_ids``.

    >>> capture_locals(10, np.array([0, 3, 1, 3]), min_capture_gain=1,
    ...                capture_ids={11, 12})
    [1, 2]
    >>> capture_locals(10, np.array([0, 3, 1, 3]), best_only=True)
    [1]
    """
    if best_only:
        best = first_argmax(gains)
        return [best] if best >= 0 else []
    if min_capture_gain is None:
        return []
    locals_ = np.flatnonzero(gains >= min_capture_gain).tolist()
    if capture_ids is not None:
        locals_ = [i for i in locals_ if start + i in capture_ids]
    return locals_


def scan_chunk(
    start: int,
    chunk: "np.ndarray",
    mask: ScanMask,
    min_capture_gain: "int | None" = None,
    capture_ids=None,
    best_only: bool = False,
):
    """Gains + captured projections for one chunk of packed rows.

    The single compute kernel behind every executor backend: serial
    scans, worker processes and in-memory chunk splits all call it per
    chunk, and results merge deterministically because each chunk is
    keyed by its ``start`` row id.

    Parameters
    ----------
    start:
        Global row id of the chunk's first row.
    chunk:
        A ``(rows, words)`` ``uint64`` block (see :func:`pack_rows`).
    mask:
        The residual :class:`ScanMask` to intersect against.
    min_capture_gain:
        When given, capture the projection ``row ∩ mask`` of every row
        whose gain reaches it.
    capture_ids:
        Optional set of row ids further restricting captures.
    best_only:
        Capture only the chunk's first-max positive-gain row.

    Returns
    -------
    (gains, captured):
        ``gains`` — per-row ``|row ∩ mask|`` as an ``int64`` array;
        ``captured`` — the captured rows' :class:`Captures` record,
        ascending ids, sliced from the same intersection block.
    """
    inter = np.bitwise_and(chunk, mask.arr[None, :]) if chunk.size else chunk
    gains = (
        _popcount_rows(inter)
        if chunk.size
        else np.zeros(chunk.shape[0], dtype=np.int64)
    )
    locals_ = capture_locals(start, gains, min_capture_gain, capture_ids, best_only)
    if not locals_:
        return gains, Captures.empty(mask.words)
    return gains, Captures([start + local for local in locals_], inter[locals_])
