"""The central :class:`SetSystem` data structure.

A set system ``(U, F)`` is a ground set ``U = {0, ..., n-1}`` together with a
family ``F = (r_0, ..., r_{m-1})`` of subsets of ``U``.  The family is an
ordered sequence (not a set of sets) because the streaming model of the paper
delivers the sets in repository order, and because instances may legitimately
contain duplicate sets.

The class is immutable: all transformation helpers return new instances.
Immutability also makes the derived views (the universe, the integer
bitmasks, the packed family of :mod:`repro.setsystem.packed`) safe
to memoize — they are built on first access and reused by every query.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain
from operator import index

import numpy as np

from repro.setsystem.packed import PackedFamily
from repro.utils.bitset import iter_bits, mask_of, universe_mask

__all__ = [
    "SetSystem", "dual_lower_bound", "element_widest", "frozen_row",
    "lower_bound_floor",
]


def lower_bound_floor(n: int, widest: int) -> int:
    """``⌈n/Δ⌉`` for the largest set ``Δ = widest`` (``n`` when ``Δ = 0``):
    no cover is smaller, and no certified lower bound is."""
    return -(-n // max(widest, 1))


def element_widest(n: int, flat, sizes, widest=None) -> "np.ndarray":
    """``widest[e]``: the size of the largest set holding ``e`` (0 if none).

    The family is given as CSR: ``flat`` holds every set's elements,
    ``sizes`` the set sizes.  Returns a ``uint32`` vector of length ``n``;
    passing ``widest`` folds the sets into that vector in place.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    if widest is None:
        widest = np.zeros(n, dtype=np.uint32)
    np.maximum.at(
        widest, np.asarray(flat, dtype=np.int64),
        np.repeat(sizes, sizes).astype(np.uint32),
    )
    return widest


def dual_lower_bound(n: int, widest) -> int:
    """The certified lower bound ``max(⌈n/Δ⌉, ⌈Σ_e 1/widest[e]⌉)`` on OPT.

    ``widest[e]`` is the size of the largest set holding element ``e``
    (0 when none does, and then ``e`` adds nothing), and ``Δ`` is its
    maximum.  ``y_e = 1/widest[e]`` is dual-feasible: a set ``S`` sums
    ``Σ_{e∈S} y_e <= |S|/|S| = 1``, so every cover has at least
    ``Σ_e y_e`` sets (Emek–Rosén's one-pass charging).  ``⌈n/Δ⌉`` (``n``
    when ``Δ = 0``) exceeds the sum only when some element is in no set.

    The sum is exact without a common denominator: the maxima are
    histogrammed, each size ``s`` held by ``c_s`` elements adds
    ``c_s // s`` whole sets, and only the ceiling of the remainders
    ``Σ (c_s mod s)/s`` is taken in floating point, with a margin above
    its rounding error; when an integer lies within that margin the
    remainders are summed as :class:`~fractions.Fraction` instead.

    >>> dual_lower_bound(6, [4, 4, 4, 4, 1, 1])  # {0,1,2,3}, {4}, {5}
    3
    >>> dual_lower_bound(6, [4, 4, 4, 4, 0, 0])  # {0,1,2,3}: ⌈6/4⌉
    2
    >>> dual_lower_bound(3, [2, 4, 4])  # 1/2 + 2/4 is exactly 1
    1
    """
    if n == 0:
        return 0
    counts = np.bincount(np.asarray(widest, dtype=np.int64), minlength=1)
    sizes = np.flatnonzero(counts[1:]) + 1
    whole, rest = np.divmod(counts[sizes], sizes)
    sizes, rest = sizes[rest > 0], rest[rest > 0]
    # Each quotient is correctly rounded and below 1, and fsum rounds once:
    # the float is within 2 * len * 2^-53 of the exact remainder sum.
    approx = math.fsum((rest / sizes).tolist())
    margin = len(sizes) * 2.0**-50
    remainder = math.ceil(approx - margin)
    if remainder != math.ceil(approx + margin):
        from fractions import Fraction  # rare: the sum is near an integer

        remainder = math.ceil(
            sum(Fraction(r, s) for r, s in zip(rest.tolist(), sizes.tolist()))
        )
    return max(lower_bound_floor(n, len(counts) - 1), int(whole.sum()) + remainder)


def frozen_row(i: int, raw: Iterable[int], n: int) -> frozenset[int]:
    """Set ``i`` of a family over ``[0, n)``, validated, as a frozenset.

    The one place the family's validation messages are written:
    :class:`SetSystem` builds every set with it, and
    :class:`~repro.setsystem.shards.ShardWriter` calls it to name the
    first bad set of a chunk its numpy check rejected, so both refuse a
    malformed family with the same ``ValueError``.

    Examples
    --------
    >>> sorted(frozen_row(0, [2, True, 2], 3))
    [1, 2]
    >>> frozen_row(4, [0, 3], 3)
    Traceback (most recent call last):
        ...
    ValueError: set 4 contains element 3 outside the ground set [0, 3)
    """
    try:
        elements = map(index, raw)
    except TypeError as exc:
        raise ValueError(f"set {i} is not a collection of elements: {exc}") from exc
    try:
        # operator.index rejects floats and strings, so masks() can
        # never truncate 1.5 into a member of element 1.
        frozen = frozenset(elements)
    except TypeError as exc:
        raise ValueError(f"set {i} contains a non-integer element: {exc}") from exc
    for element in frozen:
        if not 0 <= element < n:
            raise ValueError(
                f"set {i} contains element {element} outside the ground set [0, {n})"
            )
    return frozen


class SetSystem:
    """An immutable set-cover instance ``(U, F)``.

    Parameters
    ----------
    n:
        Size of the ground set; elements are the integers ``0..n-1``.
    sets:
        The family ``F`` as an iterable of iterables of element ids.

    Examples
    --------
    >>> inst = SetSystem(4, [[0, 1], [2], [2, 3], [0, 1, 2, 3]])
    >>> inst.n, inst.m
    (4, 4)
    >>> inst.is_cover([3])
    True
    >>> inst.is_cover([0, 1])
    False
    """

    __slots__ = (
        "_n", "_sets", "_universe", "_masks", "_packed", "_max_set_size",
        "_lower_bound",
    )

    def __init__(self, n: int, sets: Iterable[Iterable[int]]):
        if n < 0:
            raise ValueError(f"ground set size must be non-negative, got {n}")
        frozen = [frozen_row(i, raw, n) for i, raw in enumerate(sets)]
        self._n = n
        self._sets = tuple(frozen)
        # Lazily built, memoized views (safe: the instance is immutable).
        self._universe: "frozenset[int] | None" = None
        self._masks: "tuple[int, ...] | None" = None
        self._packed: "PackedFamily | None" = None
        self._max_set_size: "int | None" = None
        self._lower_bound: "int | None" = None

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of elements in the ground set."""
        return self._n

    @property
    def m(self) -> int:
        """Number of sets in the family."""
        return len(self._sets)

    @property
    def sets(self) -> tuple[frozenset[int], ...]:
        """The family ``F`` in repository order."""
        return self._sets

    @property
    def universe(self) -> frozenset[int]:
        """The ground set ``U`` as a frozenset (built once, then cached)."""
        if self._universe is None:
            self._universe = frozenset(range(self._n))
        return self._universe

    def __len__(self) -> int:
        return len(self._sets)

    def __getitem__(self, index: int) -> frozenset[int]:
        return self._sets[index]

    def __iter__(self) -> Iterator[frozenset[int]]:
        return iter(self._sets)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SetSystem):
            return NotImplemented
        return self._n == other._n and self._sets == other._sets

    def __hash__(self) -> int:
        return hash((self._n, self._sets))

    def __repr__(self) -> str:
        return f"SetSystem(n={self._n}, m={self.m})"

    # ------------------------------------------------------------------
    # Packed views
    # ------------------------------------------------------------------
    def _mask_tuple(self) -> tuple[int, ...]:
        if self._masks is None:
            self._masks = tuple(mask_of(r) for r in self._sets)
        return self._masks

    def packed(self) -> PackedFamily:
        """The family as a memoized :class:`~repro.setsystem.packed.PackedFamily`.

        Built once over the memoized integer masks and reused by every
        caller.
        """
        if self._packed is None:
            self._packed = PackedFamily(self._n, self._mask_tuple())
        return self._packed

    def masks(self) -> list[int]:
        """The family as integer bitmasks (element ``e`` -> bit ``e``)."""
        return list(self._mask_tuple())

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _covered_mask(self, selection: Iterable[int]) -> int:
        masks = self._mask_tuple()
        covered = 0
        for set_id in selection:
            covered |= masks[set_id]
        return covered

    def covered_by(self, selection: Iterable[int]) -> frozenset[int]:
        """Union of the sets whose indices are in ``selection``."""
        return frozenset(iter_bits(self._covered_mask(selection)))

    def uncovered_by(self, selection: Iterable[int]) -> frozenset[int]:
        """Elements of ``U`` missed by ``selection``."""
        missing = universe_mask(self._n) & ~self._covered_mask(selection)
        return frozenset(iter_bits(missing))

    def is_cover(self, selection: Iterable[int]) -> bool:
        """Does ``selection`` (by set index) cover the whole ground set?

        Short-circuits as soon as the running union reaches ``U`` instead
        of materializing the full covered set.
        """
        full = universe_mask(self._n)
        masks = self._mask_tuple()
        covered = 0
        for set_id in selection:
            covered |= masks[set_id]
            if covered == full:
                return True
        return covered == full

    def is_feasible(self) -> bool:
        """Does the family cover the ground set at all?"""
        return self.is_cover(range(self.m))

    def element_frequency(self, element: int) -> int:
        """Number of sets containing ``element``."""
        if not 0 <= element < self._n:
            raise ValueError(f"element {element} outside ground set [0, {self._n})")
        bit = 1 << element
        return sum(1 for mask in self._mask_tuple() if mask & bit)

    def max_set_size(self) -> int:
        """Cardinality of the largest set (0 for an empty family; cached)."""
        if self._max_set_size is None:
            self._max_set_size = max((len(r) for r in self._sets), default=0)
        return self._max_set_size

    def lower_bound(self) -> int:
        """The dual bound :func:`dual_lower_bound` on OPT (cached).

        The same integer ``repro shard create`` records in the manifest.
        """
        if self._lower_bound is None:
            sizes = [len(r) for r in self._sets]
            flat = np.fromiter(chain.from_iterable(self._sets), np.int64, sum(sizes))
            self._lower_bound = dual_lower_bound(
                self._n, element_widest(self._n, flat, sizes)
            )
        return self._lower_bound

    def sparsity(self) -> int:
        """Alias of :meth:`max_set_size`; the ``s`` of s-Sparse Set Cover."""
        return self.max_set_size()

    def total_size(self) -> int:
        """Sum of set cardinalities — the input size ``|F|`` in words."""
        return sum(len(r) for r in self._sets)

    # ------------------------------------------------------------------
    # Conversions and transformations
    # ------------------------------------------------------------------
    def restrict_elements(self, keep: Iterable[int]) -> "SetSystem":
        """Project the instance onto a subset of elements.

        Elements in ``keep`` are renumbered ``0..len(keep)-1`` in increasing
        order of their original id.  Sets are projected; empty projections
        are *kept* (so set indices remain aligned with the original family).
        """
        ordered = sorted(set(keep))
        for element in ordered:
            if not 0 <= element < self._n:
                raise ValueError(f"element {element} outside ground set [0, {self._n})")
        renumber = {old: new for new, old in enumerate(ordered)}
        keep_mask = mask_of(ordered)
        projected = [
            [renumber[e] for e in iter_bits(mask & keep_mask)]
            for mask in self._mask_tuple()
        ]
        return SetSystem(len(ordered), projected)

    def subfamily(self, set_ids: Sequence[int]) -> "SetSystem":
        """Keep only the sets whose indices appear in ``set_ids`` (in order)."""
        return SetSystem(self._n, [self._sets[i] for i in set_ids])

    def residual(self, selection: Iterable[int]) -> "SetSystem":
        """The instance induced on the elements not covered by ``selection``.

        Used by multi-pass algorithms that repeatedly re-solve on the
        yet-uncovered part of the ground set.
        """
        return self.restrict_elements(self.uncovered_by(selection))

    def without_dominated_sets(self) -> tuple["SetSystem", list[int]]:
        """Drop sets contained in another set.

        Returns the pruned system together with the original indices of the
        surviving sets.  Classic preprocessing for exact solvers: a dominated
        set can always be replaced by its dominator in an optimal cover.

        Runs the big-int pruning kernel
        (:meth:`~repro.setsystem.packed.PackedFamily.non_dominated`), which
        reproduces the seed's O(m^2) pairwise loop
        (:func:`~repro.setsystem.packed.non_dominated_reference`) exactly,
        including the duplicate tie-break (first occurrence survives).
        """
        keep = self.packed().non_dominated()
        return self.subfamily(keep), keep
