"""``DynamicCover``: density-level incremental set-cover maintenance.

Structure (after SNIPPETS.md Snippet 3, ``dynamic-rms/SetCover.java``):
every chosen set ``S`` owns the elements it covered when it was picked
(``own(S)``, a partition of the universe) and sits on a **density
level** ``level(S) = floor(log2 |own(S) at placement|)``.  The
maintained invariant is

    **Invariant A**:  ``|own(S)| >= 2^(level(S) - 1)`` for every chosen
    set with ``level(S) >= 1`` — a set may lose up to half the coverage
    density it was picked at, but no more, before it is released and
    its orphans re-covered.

Updates touch only affected levels:

* **insert** — the new set joins the candidate pool; if it could grab at
  least ``2^j`` elements currently owned at levels *below* ``j`` (the
  Snippet-3 steal rule, scanned from the highest level down), it enters
  the cover at level ``j``, steals exactly those elements, and any
  donor that drops below Invariant A is released (its surviving orphans
  re-covered by a residual greedy over the live pool).  Otherwise the
  insert is O(1): no level is affected.
* **delete** of an unchosen set is O(1).  Deleting a chosen set orphans
  ``own(S)``; a residual greedy over the live pool re-covers exactly
  those orphans — sets already in the cover absorb orphans without a
  new pick (their level, a *placement* density, only gains coverage).

Every repair pick and release consumes a **degradation budget** of
``ceil(theta * |cover at last full solve|)`` (default ``theta = 0.5``);
exhausting it triggers one full greedy re-solve and resets the budget.
Amortized, a full solve therefore happens at most once per
``Theta(|C|)`` structural repairs — the churn suites assert >= 90% of
updates complete without one.

Approximation factor (the documented bound of DESIGN.md §11.4): at all
times ``|C| <= 4 * (floor(log2 n) + 2) * OPT``.  Sketch: partition the
cover by level.  A set at level ``j`` owns >= ``2^(j-1)`` elements
(Invariant A), and when it was *picked* (by full greedy, a repair
greedy, or the steal rule) it covered >= ``2^j`` then-uncovered
elements no available set could beat by a factor 2 at that density
scale, so any fixed optimum cover ``O`` must pay at least
``|own level-j sets| * 2^(j-1) / max_S |S ∩ (level-j ownership)|``
picks against it; summing the at most ``floor(log2 n) + 1`` non-empty
levels (plus level 0, whose sets own singletons charged directly to
OPT) gives the stated bound with the steal/release slack folded into
the factor 4.  ``tests/test_dynamic.py`` checks the bound at every step
of randomized churn against a from-scratch greedy (``OPT <= |greedy|``).
"""

from __future__ import annotations

import json
import zlib
from operator import index
from pathlib import Path

from repro.offline.greedy import InfeasibleInstanceError
from repro.utils.bitset import bits_of, mask_of

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CheckpointError",
    "DynamicCover",
    "StaleCheckpointError",
    "dynamic_approx_factor",
]

#: Schema tag stamped into every checkpoint file.
CHECKPOINT_SCHEMA = "repro.dynamic-checkpoint/v1"


class CheckpointError(ValueError):
    """A checkpoint file is missing, unreadable, corrupt, or mis-schemaed."""


class StaleCheckpointError(CheckpointError):
    """The checkpoint's chain token no longer matches the repository.

    The delta chain moved underneath the checkpoint (a generation was
    appended, compacted, or rewritten after it was taken), so the
    recorded ownership no longer describes the on-disk family.
    Restoring it would silently maintain a cover over the *wrong*
    rows — rebuild from the repository instead
    (``DynamicCover(n, rows)``) or restore from a fresher checkpoint.
    """


def dynamic_approx_factor(n: int) -> int:
    """The documented churn-time approximation factor for ground size ``n``.

    ``4 * (floor(log2 n) + 2)`` — see the module docstring and
    DESIGN.md §11.4.  Monotone in ``n`` and >= 8, so the trivial cases
    (``n <= 1``) are covered too.
    """
    return 4 * (max(n, 1).bit_length() + 1)


class DynamicCover:
    """Maintain an approximate set cover under set insertions/deletions.

    The family lives in memory as integer bitmasks keyed by **stable
    ids** — the same ids :class:`~repro.setsystem.deltas.DeltaShardWriter`
    assigns, so one churn script drives the maintainer and the delta
    chain in lockstep.

    Parameters
    ----------
    n:
        Ground-set size.  Every maintained cover covers ``{0..n-1}``
        exactly; an update that makes the universe uncoverable raises
        :class:`~repro.offline.greedy.InfeasibleInstanceError` (and the
        maintainer refuses the mutation, leaving its state unchanged).
    sets:
        Optional initial family: an iterable of ``(set_id, elements)``
        pairs (or a mapping ``id -> elements``).  Solved once by the
        full greedy on construction.
    theta:
        Degradation threshold: structural repairs (releases + repair
        picks) may consume ``ceil(theta * |cover|)`` budget since the
        last full solve before the next update triggers one.
    steal:
        Enable the Snippet-3 insert steal rule.  Disabling it keeps
        inserts O(1) but converges to the fallback solver more often;
        the default is on.

    Examples
    --------
    >>> cover = DynamicCover(4, [(0, [0, 1]), (1, [2, 3]), (2, [0, 1, 2, 3])])
    >>> sorted(cover.cover)
    [2]
    >>> cover.delete(2)
    >>> sorted(cover.cover)
    [0, 1]
    >>> cover.insert(7, [1, 2, 3])
    >>> cover.is_valid_cover()
    True
    """

    def __init__(self, n, sets=None, theta: float = 0.5, steal: bool = True):
        n = index(n)
        if n < 0:
            raise ValueError(f"ground set size must be non-negative, got {n}")
        if not 0 < theta <= 4:
            raise ValueError(f"theta must be in (0, 4], got {theta}")
        self.n = n
        self.theta = float(theta)
        self.steal_enabled = bool(steal)
        self._full = (1 << n) - 1
        self._rows: "dict[int, int]" = {}
        self._own: "dict[int, int]" = {}
        self._level: "dict[int, int]" = {}
        self._assign: "dict[int, int]" = {}
        # churn accounting
        self.updates = 0
        self.full_solves = 0
        self.repair_picks = 0
        self.releases = 0
        self.steals = 0
        self._budget_used = 0
        self._budget_limit = 0
        # Monotonic id high-water mark: auto-assigned insert ids must
        # never be reused after a delete, or the maintainer's ids drift
        # from the delta chain's stable-id sequence.
        self._top = 0
        if sets is not None:
            items = sets.items() if hasattr(sets, "items") else sets
            for set_id, elements in items:
                self._rows[self._check_id(set_id, new=True)] = self._mask(
                    elements
                )
        self._full_solve()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def m(self) -> int:
        """Number of live sets."""
        return len(self._rows)

    @property
    def cover(self) -> "list[int]":
        """Chosen stable ids, sorted."""
        return sorted(self._own)

    @property
    def cover_size(self) -> int:
        return len(self._own)

    @property
    def approx_factor(self) -> int:
        """The documented bound: ``|cover| <= approx_factor * OPT``."""
        return dynamic_approx_factor(self.n)

    def levels(self) -> "dict[int, list[int]]":
        """Density level -> chosen ids (diagnostics and tests)."""
        out: "dict[int, list[int]]" = {}
        for set_id, level in self._level.items():
            out.setdefault(level, []).append(set_id)
        return {level: sorted(ids) for level, ids in sorted(out.items())}

    def stats(self) -> dict:
        """Churn counters, including the incremental-update fraction."""
        incremental = self.updates and 1.0 - (self.full_solves / self.updates)
        return {
            "updates": self.updates,
            "full_solves": self.full_solves,
            "repair_picks": self.repair_picks,
            "releases": self.releases,
            "steals": self.steals,
            "cover_size": self.cover_size,
            "live_sets": self.m,
            "incremental_fraction": float(incremental),
        }

    def rows(self) -> "dict[int, int]":
        """Live family as ``id -> bitmask`` (a copy; referee access)."""
        return dict(self._rows)

    def is_valid_cover(self) -> bool:
        """Does the chosen family cover the universe right now?"""
        covered = 0
        for set_id in self._own:
            covered |= self._rows[set_id]
        return covered == self._full

    def verify(self) -> None:
        """Check every structural invariant; raises ``AssertionError``.

        Validity (ownership partitions the universe, owners are chosen,
        owned elements lie in their owner's set) and Invariant A.  The
        churn-parity suite calls this after every update.
        """
        seen = 0
        for set_id, own in self._own.items():
            assert own, f"chosen set {set_id} owns nothing"
            assert set_id in self._rows, f"chosen set {set_id} is not live"
            assert own & self._rows[set_id] == own, (
                f"set {set_id} owns elements outside itself"
            )
            assert seen & own == 0, "ownership overlaps"
            seen |= own
            level = self._level[set_id]
            # |own| >= 2^(level - 1), without building 2^(level - 1).
            assert _popcount(own).bit_length() >= level, (
                f"Invariant A violated: set {set_id} at level {level} "
                f"owns {_popcount(own)} < 2^{level - 1}"
            )
        assert seen == self._full, "ownership does not partition the universe"
        for element, owner in self._assign.items():
            assert self._own.get(owner, 0) >> element & 1, (
                f"assignment of element {element} disagrees with ownership"
            )

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def insert(self, set_id: int, elements) -> None:
        """Insert a new set under a fresh stable id."""
        set_id = self._check_id(set_id, new=True)
        mask = self._mask(elements)
        self._rows[set_id] = mask
        self.updates += 1
        if self.steal_enabled and mask:
            self._try_steal(set_id, mask)
        self._maybe_full_solve()

    def delete(self, set_id: int) -> None:
        """Delete a live set; re-covers its owned elements if chosen.

        If removing the set makes the universe uncoverable the mutation
        is refused (state unchanged) and
        :class:`~repro.offline.greedy.InfeasibleInstanceError` is raised.
        """
        set_id = self._check_id(set_id, new=False)
        orphans = self._own.get(set_id, 0)
        row = self._rows.pop(set_id)
        if orphans:
            remaining = 0
            for other in self._rows.values():
                remaining |= other
                if remaining & orphans == orphans:
                    break
            if remaining & orphans != orphans:
                self._rows[set_id] = row  # refuse: keep a valid state
                raise InfeasibleInstanceError(
                    f"deleting set {set_id} leaves elements "
                    f"{bits_of(orphans & ~remaining)} uncoverable"
                )
            del self._own[set_id]
            del self._level[set_id]
            for element in bits_of(orphans):
                del self._assign[element]
            self.updates += 1
            self._repair(orphans)
        else:
            self.updates += 1
        self._maybe_full_solve()

    def apply(self, ops) -> None:
        """Apply a churn-script batch (the ``apply_delta`` op format)."""
        for op in ops:
            kind = op.get("op")
            if kind == "insert":
                self.insert(op["id"] if "id" in op else self._next_id(),
                            op["elements"])
            elif kind == "delete":
                self.delete(op["id"])
            else:
                raise ValueError(
                    f"unknown churn op {kind!r}; expected 'insert' or 'delete'"
                )

    # ------------------------------------------------------------------
    # durable checkpoints (DESIGN.md §12.5)
    # ------------------------------------------------------------------
    def checkpoint(
        self, path: "str | Path", root: "str | Path | None" = None
    ) -> Path:
        """Durably persist the maintainer's full state to ``path``.

        The checkpoint records everything :meth:`restore` needs to
        resume maintenance *without a full re-solve*: the live rows,
        the ownership partition, each chosen set's density level, the
        id high-water mark, and the churn counters (including the spent
        degradation budget, so a restore cannot launder budget).  With
        ``root`` it is additionally stamped with the repository chain's
        content token (:func:`repro.setsystem.deltas.chain_token`);
        restoring against a chain that has since moved then refuses
        (:class:`StaleCheckpointError`) instead of maintaining a cover
        over rows that no longer exist.

        The write uses the storage layer's fsync discipline
        (stage + fsync + ``os.replace``), so a crash mid-checkpoint
        leaves the previous checkpoint intact, never a torn file.
        """
        from repro.setsystem.durability import crashpoint, durable_write_text

        record = {
            "schema": CHECKPOINT_SCHEMA,
            "n": self.n,
            "theta": self.theta,
            "steal": self.steal_enabled,
            "top": self._top,
            "rows": {str(k): format(v, "x") for k, v in self._rows.items()},
            "own": {str(k): format(v, "x") for k, v in self._own.items()},
            "level": {str(k): v for k, v in self._level.items()},
            "counters": {key: getattr(self, attr) for key, attr in _COUNTERS.items()},
        }
        if root is not None:
            from repro.setsystem.deltas import chain_token

            record["chain_token"] = chain_token(root)
        record["crc32"] = _checkpoint_checksum(record)
        path = Path(path)
        crashpoint("checkpoint.staged")
        durable_write_text(path, json.dumps(record, indent=2) + "\n")
        return path

    @classmethod
    def restore(
        cls,
        path: "str | Path",
        root: "str | Path | None" = None,
        allow_remap: bool = False,
    ) -> "DynamicCover":
        """Resume maintenance from a checkpoint written by :meth:`checkpoint`.

        Rebuilds the maintainer exactly as checkpointed — ownership,
        levels, assignment, counters, budget — with **no** full solve,
        so a restart costs O(state) instead of a budget-blowing greedy.
        With ``root`` the checkpoint's chain token is verified against
        the repository first; a moved chain raises
        :class:`StaleCheckpointError`.

        ``allow_remap=True`` relaxes exactly one kind of move: a
        **compaction**.  Folding the chain preserves the live rows and
        their view order while renumbering stable ids densely, so the
        checkpoint's rows are remapped by rank (old id ``k`` becomes the
        repository's id at ``k``'s rank among the checkpoint's live
        ids) and the remapped masks are verified row-for-row against
        the repository before the cover is accepted — a chain that
        moved by *mutation* (rows added or removed) still raises
        :class:`StaleCheckpointError` rather than silently covering the
        wrong family.

        A corrupt, truncated, or mis-schemaed file raises
        :class:`CheckpointError`; the restored state is also
        structurally verified (:meth:`verify`) before it is returned,
        so a hand-edited checkpoint that passes its CRC still cannot
        smuggle in an invalid cover.
        """
        path = Path(path)
        try:
            record = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(
                f"unreadable checkpoint {path}: {exc}"
            ) from exc
        if not isinstance(record, dict) or record.get("schema") != CHECKPOINT_SCHEMA:
            raise CheckpointError(
                f"{path} is not a {CHECKPOINT_SCHEMA} checkpoint"
            )
        if record.get("crc32") != _checkpoint_checksum(record):
            raise CheckpointError(
                f"checkpoint checksum mismatch in {path}: the file was "
                "edited or corrupted after write"
            )
        needs_remap = False
        if root is not None:
            from repro.setsystem.deltas import chain_token

            recorded = record.get("chain_token")
            current = chain_token(root)
            if recorded is None:
                raise StaleCheckpointError(
                    f"checkpoint {path} carries no chain token; it cannot "
                    f"be verified against {root} — re-checkpoint with "
                    "root= to stamp one"
                )
            if recorded != current:
                if not allow_remap:
                    raise StaleCheckpointError(
                        f"checkpoint {path} was taken against a different "
                        f"chain state of {root} (token {recorded} != current "
                        f"{current}); the family moved underneath it — "
                        "rebuild from the repository instead"
                    )
                needs_remap = True
        # Every field must read back exactly as :meth:`checkpoint` wrote
        # it: nothing is coerced.
        try:
            cover = cls.__new__(cls)
            cover.n, cover._top = _count(record["n"]), _count(record["top"])
            cover.theta, cover.steal_enabled = record["theta"], record["steal"]
            if type(cover.theta) is not float or not 0 < cover.theta <= 4:
                raise ValueError(f"theta {cover.theta!r} is not a float in (0, 4]")
            if type(cover.steal_enabled) is not bool:
                raise ValueError(f"steal {cover.steal_enabled!r} is not a bool")
            cover._rows, cover._own, cover._level = (
                {_canonical(k, 10): parse(v) for k, v in record[key].items()}
                for key, parse in (
                    ("rows", _canonical), ("own", _canonical), ("level", _count)
                )
            )
            for key, attr in _COUNTERS.items():
                setattr(cover, attr, _count(record["counters"][key]))
            # Rows span exactly 0..n-1 (checked before the n-bit mask is
            # built), every chosen set has a level, and ids stay below top.
            widest = max((r.bit_length() for r in cover._rows.values()), default=0)
            if widest != cover.n:
                raise ValueError("the rows do not span the ground set")
            if cover._level.keys() != cover._own.keys():
                raise ValueError("the levels are not the chosen sets'")
            if max(cover._rows, default=-1) >= cover._top:
                raise ValueError("a live id is at or above the high-water mark")
            cover._full = (1 << cover.n) - 1
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"malformed checkpoint {path}: {exc}"
            ) from exc
        cover._assign = {
            element: owner
            for owner, own in cover._own.items()
            for element in bits_of(own)
        }
        if needs_remap:
            cover._remap_onto(path, root)
        try:
            cover.verify()
        except AssertionError as exc:
            raise CheckpointError(
                f"checkpoint {path} describes an invalid cover state: {exc}"
            ) from exc
        return cover

    def _remap_onto(self, path: Path, root: "str | Path") -> None:
        """Renumber this cover's ids onto a compacted ``root`` — verified.

        A compaction keeps live rows in view order (stable ids ascend in
        view order), so the repository's ``k``-th row must carry exactly
        the mask of the checkpoint's ``k``-th live id.  Every row is
        compared before any id moves; any difference means the chain
        moved by mutation, not (only) compaction, and the remap refuses.
        """
        from repro.setsystem.deltas import open_repository

        old_ids = sorted(self._rows)
        with open_repository(root) as repo:
            new_ids = list(getattr(repo, "stable_ids", None) or range(repo.m))
            masks = list(repo.iter_row_masks())
        if len(new_ids) != len(old_ids) or any(
            self._rows[old] != mask for old, mask in zip(old_ids, masks)
        ):
            raise StaleCheckpointError(
                f"checkpoint {path} cannot be remapped onto {root}: the "
                f"repository's {len(new_ids)} row(s) do not match the "
                f"checkpoint's {len(old_ids)} live row(s) — the chain "
                "moved by mutation, not just compaction; rebuild from "
                "the repository instead"
            )
        mapping = dict(zip(old_ids, new_ids))
        self._rows = {mapping[k]: v for k, v in self._rows.items()}
        self._own = {mapping[k]: v for k, v in self._own.items()}
        self._level = {mapping[k]: v for k, v in self._level.items()}
        self._assign = {
            element: mapping[owner]
            for element, owner in self._assign.items()
        }
        self._top = (max(new_ids) + 1) if new_ids else 0

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _next_id(self) -> int:
        return self._top

    def _check_id(self, set_id, new: bool) -> int:
        set_id = index(set_id)
        if set_id < 0:
            raise ValueError(f"stable ids are non-negative, got {set_id}")
        if new and set_id in self._rows:
            raise ValueError(f"set {set_id} is already live")
        if not new and set_id not in self._rows:
            raise KeyError(f"set {set_id} is not live")
        if new:
            self._top = max(self._top, set_id + 1)
        return set_id

    def _mask(self, elements) -> int:
        mask = mask_of(elements)
        if mask >> self.n:
            raise ValueError(
                f"elements outside the ground set [0, {self.n})"
            )
        return mask

    def _place(self, set_id: int, gained: int) -> None:
        """Record a pick that covered ``gained`` (>= 1 bit) elements."""
        self._own[set_id] = self._own.get(set_id, 0) | gained
        if set_id not in self._level:
            self._level[set_id] = _popcount(gained).bit_length() - 1
        for element in bits_of(gained):
            self._assign[element] = set_id

    def _full_solve(self) -> None:
        """Greedy from scratch over the live family; resets the budget."""
        uncovered = self._full
        self._own = {}
        self._level = {}
        self._assign = {}
        while uncovered:
            best_id, best_gain, best_take = -1, 0, 0
            for set_id, row in self._rows.items():
                take = row & uncovered
                if not take:
                    continue
                gain = _popcount(take)
                if gain > best_gain or (gain == best_gain and set_id < best_id):
                    best_id, best_gain, best_take = set_id, gain, take
            if best_id < 0:
                raise InfeasibleInstanceError(
                    f"elements {bits_of(uncovered)} appear in no live set"
                )
            self._place(best_id, best_take)
            uncovered &= ~best_take
        self.full_solves += 1 if self.updates else 0
        self._budget_used = 0
        self._budget_limit = max(
            8, int(self.theta * max(1, len(self._own))) + 1
        )

    def _maybe_full_solve(self) -> None:
        if self._budget_used > self._budget_limit:
            self._full_solve()

    def _repair(self, orphan_mask: int) -> None:
        """Residual greedy restricted to orphaned elements."""
        uncovered = orphan_mask
        while uncovered:
            best_id, best_gain, best_take = -1, 0, 0
            for set_id, row in self._rows.items():
                take = row & uncovered
                if not take:
                    continue
                gain = _popcount(take)
                if gain > best_gain or (gain == best_gain and set_id < best_id):
                    best_id, best_gain, best_take = set_id, gain, take
            if best_id < 0:  # pragma: no cover - guarded by delete()
                raise InfeasibleInstanceError(
                    f"elements {bits_of(uncovered)} appear in no live set"
                )
            self._place(best_id, best_take)
            uncovered &= ~best_take
            self.repair_picks += 1
            self._budget_used += 1

    def _try_steal(self, set_id: int, mask: int) -> None:
        """Snippet-3 insert rule: adopt at the highest profitable level.

        Scans candidate levels from the top: entering at level ``j``
        requires grabbing >= ``2^j`` elements currently owned at levels
        strictly below ``j``.  One pass accumulates ownership level by
        level, so the scan costs one mask-AND per occupied level.
        """
        if not self._level:
            return
        by_level: "dict[int, int]" = {}
        for owner, level in self._level.items():
            by_level[level] = by_level.get(level, 0) | self._own[owner]
        top = max(by_level) + 1
        below = 0
        takes: "dict[int, int]" = {}
        for level in range(top + 1):
            takes[level] = mask & below  # owned strictly below `level`
            below |= by_level.get(level, 0)
        for level in range(top, 0, -1):
            take = takes[level]
            if _popcount(take) >= 1 << level:
                self._adopt(set_id, level, take)
                return

    def _adopt(self, set_id: int, level: int, take: int) -> None:
        donors: "set[int]" = set()
        for element in bits_of(take):
            donor = self._assign[element]
            self._own[donor] &= ~(1 << element)
            donors.add(donor)
        self._own[set_id] = take
        self._level[set_id] = level
        for element in bits_of(take):
            self._assign[element] = set_id
        self.steals += 1
        orphans = 0
        for donor in sorted(donors):
            own = self._own[donor]
            donor_level = self._level[donor]
            if own and (
                donor_level < 1 or _popcount(own) >= 1 << (donor_level - 1)
            ):
                continue  # Invariant A still holds
            # Release: the donor lost too much density; its survivors
            # re-cover through the residual greedy (possibly re-picking
            # the donor itself at a truthful, lower level).
            del self._own[donor]
            del self._level[donor]
            for element in bits_of(own):
                del self._assign[element]
            orphans |= own
            self.releases += 1
            self._budget_used += 1
        if orphans:
            self._repair(orphans)


def _popcount(mask: int) -> int:
    return mask.bit_count()


#: A checkpoint's counters, by the attribute each restores.
_COUNTERS = {
    "updates": "updates", "full_solves": "full_solves",
    "repair_picks": "repair_picks", "releases": "releases",
    "steals": "steals", "budget_used": "_budget_used",
    "budget_limit": "_budget_limit",
}


def _count(value) -> int:
    """``value`` if it is a JSON integer >= 0 (no bool, float or string)."""
    if type(value) is not int or value < 0:
        raise ValueError(f"{value!r} is not a non-negative JSON integer")
    return value


def _canonical(text: str, base: int = 16) -> int:
    """``text`` as a count >= 0, if it is that count's own spelling in
    ``base`` 10 or 16 (no sign, padding, case or separator variant)."""
    value = int(text, base)
    if value < 0 or text != format(value, "x" if base == 16 else "d"):
        raise ValueError(f"{text!r} is not a canonical base-{base} count")
    return value


def _checkpoint_checksum(record: dict) -> int:
    """Canonical-JSON CRC-32 of a checkpoint (minus its own crc)."""
    body = {key: value for key, value in record.items() if key != "crc32"}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(blob.encode("ascii"))
