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
  :func:`range_gains`, :func:`scan_chunk`, :func:`accept_rows` and the
  shard decoders of :mod:`repro.setsystem.shards`.  :func:`pack_rows`
  turns big-int rows into such a block.  Captured projections leave the
  kernels as one :class:`Captures` record per chunk — ascending row ids
  plus each row's ``uint64`` words, word-sparse (only the nonzero words)
  or full width, whichever the byte rule finds smaller — and become big
  ints only row by row, when an algorithm asks for one
  (:meth:`Captures.row`).
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
    "accept_rows",
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


def _popcount_words(words: "np.ndarray") -> "np.ndarray":
    """Per-word popcount of a 1-D ``uint64`` array."""
    if _HAVE_BITWISE_COUNT:
        return np.bitwise_count(words)
    return _POPCOUNT8[words.view(np.uint8)].reshape(-1, 8).sum(axis=1)


def pack_rows(rows: Sequence[int], words: int) -> "np.ndarray":
    """Big-int rows as a read-only ``(len(rows), words)`` ``uint64`` block.

    >>> pack_rows([0b101, 1 << 64], words=2).tolist()
    [[5, 0], [0, 1]]
    """
    data = b"".join(row.to_bytes(words * 8, "little") for row in rows)
    return np.frombuffer(data, dtype="<u8").reshape(len(rows), words)


def _sparse_pays(bits: int, rows: int, width: int) -> bool:
    """The capture byte rule: store word-sparse when it is the smaller layout.

    A row's nonzero words number at most its set bits, and a word-sparse
    word costs two stored words (its index and its bits), so ``2 · bits``
    bounds the word-sparse size against the full width's ``rows · width``.
    """
    return 2 * bits < rows * width


def _segment_sums(values: "np.ndarray", starts, ends) -> "np.ndarray":
    """``values[starts[i]:ends[i]].sum()`` for every segment, as ``int64``."""
    total = np.zeros(values.size + 1, dtype=np.int64)
    np.cumsum(values, dtype=np.int64, out=total[1:])
    return total[ends] - total[starts]


def _ragged_positions(first: "np.ndarray", counts: "np.ndarray") -> "np.ndarray":
    """``first[i], ..., first[i] + counts[i] - 1`` for every ``i``, concatenated."""
    before = np.cumsum(counts) - counts
    return np.repeat(first - before, counts) + np.arange(int(counts.sum()))


def _nonzero_words(block: "np.ndarray") -> "tuple[np.ndarray, np.ndarray]":
    """``(flat, bits)`` of a ``(rows, width)`` block's nonzero words, ascending."""
    flat_block = block.reshape(-1)
    flat = np.flatnonzero(flat_block)
    return flat, flat_block[flat]


def _csr(flat: "np.ndarray", rows: int, width: int):
    """``(indptr, index)`` of ascending ``flat = row · width + word`` entries."""
    slots = flat // width
    return np.searchsorted(slots, np.arange(rows + 1)), flat - slots * width


class Captures:
    """One chunk's captured projections: ascending row ids plus their words.

    Row ``j`` is the projection ``row ∩ mask`` of row ``ids[j]`` over
    ``width`` little-endian ``uint64`` words.  A record stores its rows
    in one of two layouts, picked by the byte rule alone
    (:func:`_sparse_pays`, DESIGN.md §4.1): **word-sparse** — CSR over
    words: ``indptr``, the nonzero words' ``index`` and their ``bits`` —
    when ``2 · Σ|row ∩ mask| < rows · width``, and otherwise one
    **full-width** ``(rows, width)`` block.  The methods are the only way
    in, and read either layout: :meth:`gains` and :meth:`gains_at`
    popcount the rows against a word mask (the Size-Test), :meth:`row_words`
    hands one row's words to the threshold accept, :meth:`words` is the
    capture accounting, and :meth:`row`/:meth:`rows` convert a row to a
    big int once and memoize it, so every guess of a pass shares one int.
    Iterating yields ``(row_id, projection_int)`` pairs in id order, and
    a record equals another record or pair sequence holding the same
    pairs.  Pickling ships the layout's arrays as they are.

    >>> captured = Captures([3, 7], pack_rows([0b101, 1 << 64], words=4))
    >>> len(captured), captured.sparse, captured.words(), captured.row(1) == 1 << 64
    (2, True, 5, True)
    >>> captured.gains(np.array([0b100, 1, 0, 0], dtype=np.uint64)).tolist()
    [1, 1]
    >>> captured == [(3, 0b101), (7, 1 << 64)]
    True
    """

    __slots__ = ("ids", "width", "_block", "_indptr", "_index", "_bits", "_ints")

    def __init__(self, ids: "list[int]", block: "np.ndarray", gains=None):
        """Rows given full width, as ``block``; ``gains`` are their popcounts."""
        rows, width = block.shape
        if gains is None:
            gains = _popcount_rows(block)
        if _sparse_pays(int(gains.sum()), rows, width):
            flat, bits = _nonzero_words(block)
            self._init(ids, width, None, *_csr(flat, rows, width), bits)
        else:
            self._init(ids, width, block)

    def _init(self, ids, width, block, indptr=None, index=None, bits=None) -> None:
        self.ids = ids
        self.width = width
        self._block = block
        self._indptr, self._index, self._bits = indptr, index, bits
        self._ints: "list[int | None]" = [None] * len(ids)

    @classmethod
    def from_words(
        cls, ids: "list[int]", width: int, parts: "Sequence[tuple]"
    ) -> "Captures":
        """A record from its rows' words, laid out by the byte rule.

        ``parts`` are ``(flat, bits)`` array pairs: ``bits[i]`` is word
        ``flat[i] % width`` of row ``flat[i] // width``.  Each part's
        ``flat`` is strictly ascending, parts hold disjoint rows, and
        zero words may appear (they are not stored word-sparse).
        """
        record = cls.__new__(cls)
        total = sum(int(_popcount_words(bits).sum()) for _, bits in parts)
        if _sparse_pays(total, len(ids), width):
            flat = np.concatenate([flat for flat, _ in parts] or [np.zeros(0, np.int64)])
            bits = np.concatenate([bits for _, bits in parts] or [np.zeros(0, "<u8")])
            keep = np.flatnonzero(bits)
            if len(parts) > 1:
                keep = keep[np.argsort(flat[keep], kind="stable")]
            flat, bits = flat[keep], bits[keep]
            record._init(ids, width, None, *_csr(flat, len(ids), width), bits)
        else:
            block = np.zeros((len(ids), width), dtype="<u8")
            for flat, bits in parts:
                block.reshape(-1)[flat] = bits
            record._init(ids, width, block)
        return record

    @classmethod
    def empty(cls, words: int) -> "Captures":
        """A record holding no rows."""
        return cls([], np.zeros((0, words), dtype="<u8"))

    @classmethod
    def concat(cls, records: "Sequence[Captures]") -> "Captures":
        """The records' rows in order, as one record (eager scan merges)."""
        full = [record for record in records if len(record)]
        if not full:
            return records[0] if records else cls.empty(0)
        if len(full) == 1:
            return full[0]
        width, offset, parts = full[0].width, 0, []
        for record in full:
            flat, bits = record.entries()
            parts.append((flat + offset * width, bits))
            offset += len(record)
        return cls.from_words(
            [row_id for record in full for row_id in record.ids], width, parts
        )

    @property
    def sparse(self) -> bool:
        """Is the record stored word-sparse (else full width)?"""
        return self._block is None

    def __len__(self) -> int:
        return len(self.ids)

    def entries(self) -> "tuple[np.ndarray, np.ndarray]":
        """``(flat, bits)``: every nonzero word, one :meth:`from_words` part.

        ``flat`` is ``row · width + word``, strictly ascending.  This is
        the record's one serialized form: scan merges and the remote wire
        rebuild records from it with :meth:`from_words`.
        """
        if self._block is not None:
            return _nonzero_words(self._block)
        slots = np.repeat(np.arange(len(self.ids)), np.diff(self._indptr))
        return slots * self.width + self._index, self._bits

    def gains(self, mask: "np.ndarray") -> "np.ndarray":
        """``|row ∩ mask|`` for every row; ``mask`` is ``width`` ``uint64`` words."""
        if self._block is not None:
            return chunk_gains(self._block, mask)
        counts = _popcount_words(self._bits & mask[self._index])
        return _segment_sums(counts, self._indptr[:-1], self._indptr[1:])

    def gains_at(self, index: "np.ndarray", mask: "np.ndarray") -> "np.ndarray":
        """``|row ∩ mask|`` for the rows at ``index`` only (a segmented popcount)."""
        if self._block is not None:
            return chunk_gains(self._block[index], mask)
        counts, at = self._stored_at(index)
        hits = _popcount_words(self._bits[at] & mask[self._index[at]])
        ends = np.cumsum(counts)
        return _segment_sums(hits, ends - counts, ends)

    def _stored_at(self, index) -> "tuple[np.ndarray, np.ndarray]":
        """``(counts, at)``: stored words per row at ``index``, and their positions."""
        index = np.asarray(index, dtype=np.int64)
        first = self._indptr[index]
        counts = self._indptr[index + 1] - first
        return counts, _ragged_positions(first, counts)

    def union(self) -> int:
        """Every row ORed together, as a big int."""
        words = np.zeros(self.width, dtype="<u8")
        if self._block is not None:
            np.bitwise_or.reduce(self._block, axis=0, out=words)
        else:
            np.bitwise_or.at(words, self._index, self._bits)
        return int.from_bytes(words.tobytes(), "little")

    def row_words(self, j: int) -> "tuple[object, np.ndarray]":
        """``(where, bits)``: row ``j``'s stored words and where they sit.

        ``where`` indexes a ``width``-word array — the row's nonzero word
        positions when word-sparse, every word otherwise.
        """
        if self._block is not None:
            return slice(None), self._block[j]
        lo, hi = self._indptr[j], self._indptr[j + 1]
        return self._index[lo:hi], self._bits[lo:hi]

    def row(self, j: int) -> int:
        """The ``j``-th projection as a big int (converted once)."""
        value = self._ints[j]
        if value is None:
            where, bits = self.row_words(j)
            if self._block is None:
                words = np.zeros(self.width, dtype="<u8")
                words[where] = bits
                bits = words
            value = self._ints[j] = int.from_bytes(bits.tobytes(), "little")
        return value

    def rows(self, index: "Sequence[int]") -> "list[int]":
        """The projections at ``index`` as big ints (each converted once)."""
        ints = self._ints
        values = [ints[j] for j in index]
        if None in values:
            missing = [j for j, value in zip(index, values) if value is None]
            for j, value in zip(missing, self._to_ints(missing)):
                ints[j] = value
            values = [ints[j] for j in index]
        return values

    def _to_ints(self, index: "list[int]") -> "list[int]":
        """The rows at ``index`` as fresh big ints, through one full-width block."""
        if self._block is not None:
            block = self._block[index]
        else:
            counts, at = self._stored_at(index)
            block = np.zeros((len(index), self.width), dtype="<u8")
            slots = np.repeat(np.arange(len(index)) * self.width, counts)
            block.reshape(-1)[slots + self._index[at]] = self._bits[at]
        raw = memoryview(np.ascontiguousarray(block)).cast("B")
        size = self.width * 8
        return [
            int.from_bytes(raw[p : p + size], "little")
            for p in range(0, len(index) * size, size)
        ]

    def __iter__(self):
        return zip(self.ids, self.rows(range(len(self.ids))))

    def words(self) -> int:
        """Projection elements plus one id per row (capture accounting)."""
        stored = self._bits if self._block is None else self._block.reshape(-1)
        return int(_popcount_words(stored).sum()) + len(self.ids)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Captures, list, tuple)):
            return NotImplemented
        return list(self) == list(other)

    __hash__ = None

    def __repr__(self) -> str:
        return f"Captures({list(self)!r})"



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
    so per-shard scan calls — serial or in remote workers — never
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


def accept_rows(
    captures: Captures, residual: "np.ndarray", threshold: int
) -> "list[int]":
    """Threshold-accept a chunk's captures against the live residual.

    Walks ``captures`` in row order and accepts every row whose live hit
    ``row ∩ residual`` still has at least ``threshold`` elements,
    removing each accepted hit from ``residual`` — a writable ``uint64``
    word array, shrunk in place.  Returns the accepted row ids.

    One :meth:`Captures.gains` popcount against the chunk-start residual
    keeps only the rows that reach ``threshold``: the residual only
    shrinks, so a row it drops can never be accepted later in the
    chunk.  The first survivor is accepted outright; after that, each
    survivor is re-tested on its own words (:meth:`Captures.row_words`),
    and its hit leaves the residual word by word.  No row becomes a big
    int.

    >>> residual = np.array([0b1111], dtype=np.uint64)
    >>> captured = Captures([3, 5, 9], pack_rows([0b0011, 0b0110, 0b1100], 1))
    >>> accept_rows(captured, residual, 2), int(residual[0])
    ([3, 9], 0)
    """
    if not len(captures):
        return []
    candidates = np.flatnonzero(captures.gains(residual) >= threshold)
    picked: "list[int]" = []
    for j in candidates.tolist():
        where, bits = captures.row_words(j)
        live = residual[where]
        hit = bits & live
        if picked and _popcount_words(hit).sum() < threshold:
            continue
        picked.append(captures.ids[j])
        residual[where] = live ^ hit
    return picked


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
    scans, remote workers and in-memory streams all call it per chunk,
    and results merge deterministically because each chunk is keyed by
    its ``start`` row id.

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
        ascending ids, taken from the same intersection block and
        compacted to its nonzero words when the byte rule says so.
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
    return gains, Captures(
        [start + local for local in locals_], inter[locals_], gains[locals_]
    )
