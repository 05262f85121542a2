"""Observation 5.9, executable: streaming algorithms as multiparty protocols.

"Any streaming algorithm for SetCover that in l passes solves the problem
optimally ... solves the corresponding communication SetCover problem in l
rounds using O(s l^2) bits": each player holds a slice of the family; the
players run the streaming algorithm over the concatenated stream, handing
the working memory to the next player at slice boundaries.

:class:`ProtocolSimulation` performs exactly that handoff accounting around
a real streaming run: a :class:`HandoffStream` wraps the instance, detects
slice boundaries during each pass, and records one message of
``current-memory * WORD_BITS`` bits per handoff.  The memory at each
boundary is read from the algorithm's meter(s) through a probe callback, so
any of the library's streaming algorithms can be measured without change.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass

from repro.communication.protocol import WORD_BITS, Message, Transcript
from repro.setsystem.set_system import SetSystem
from repro.streaming.stream import SetStream

__all__ = ["HandoffStream", "ProtocolSimulation", "simulate_players"]


class HandoffStream(SetStream):
    """A :class:`SetStream` that fires a callback at player boundaries.

    The hook wraps the base pass machinery (``_scan``), so both row-wise
    pass flavours — frozenset rows and packed rows — trigger the handoff
    accounting; algorithms keep choosing their wire format freely.
    Executor-driven gains scans (``scan_gains``) are sequential passes
    over the whole family too, so they fire one handoff per boundary as
    well.
    """

    def __init__(
        self,
        system: SetSystem,
        boundaries: Sequence[int],
        on_handoff: Callable[[int, int], None],
    ):
        super().__init__(system)
        self._boundaries = sorted(set(boundaries))
        for b in self._boundaries:
            if not 0 < b < system.m:
                raise ValueError(
                    f"boundary {b} outside the family range (0, {system.m})"
                )
        self._on_handoff = on_handoff

    def _scan(self, make_rows) -> Iterator[tuple[int, object]]:
        boundaries = set(self._boundaries)
        pass_index = self.passes  # incremented by super() when opened
        for item in super()._scan(make_rows):
            # Row passes yield (set_id, row); chunked gains scans yield
            # (start, gains, captured) and account their boundaries below.
            if len(item) == 2 and item[0] in boundaries:
                self._on_handoff(pass_index, item[0])
            yield item

    def _scan_gains_chunked(
        self, mask_int, min_capture_gain, capture_ids, best_only, include_gains
    ):
        inner = super()._scan_gains_chunked(
            mask_int, min_capture_gain, capture_ids, best_only, include_gains
        )

        def with_handoffs():
            yield from inner
            # A gains scan (the accept pass runs one too) is one full
            # sequential pass: one handoff per player boundary, same
            # accounting as a row pass.
            pass_index = self.passes - 1
            for boundary in self._boundaries:
                self._on_handoff(pass_index, boundary)

        return with_handoffs()


@dataclass
class ProtocolSimulation:
    """Run a streaming algorithm as a players-round protocol.

    Parameters
    ----------
    system:
        The instance; the family is cut into ``players`` contiguous slices.
    players:
        Number of players (for the Section 5 instances, 2p).
    memory_probe:
        Callback returning the algorithm's *current* memory in words; for
        the library's algorithms this is the sum of their meters' currents.
        When ``None``, the peak reported by the result is used for every
        handoff (an upper bound).
    """

    system: SetSystem
    players: int
    memory_probe: "Callable[[], int] | None" = None

    def run(self, algorithm) -> dict:
        if self.players < 2:
            raise ValueError(f"need at least two players, got {self.players}")
        m = self.system.m
        if m < self.players:
            raise ValueError(
                f"family of {m} sets cannot be split among {self.players} players"
            )
        slice_size = m / self.players
        boundaries = [round(slice_size * i) for i in range(1, self.players)]
        boundaries = [b for b in boundaries if 0 < b < m]

        transcript = Transcript()
        handoffs: list[tuple[int, int]] = []

        def on_handoff(pass_index: int, set_id: int) -> None:
            handoffs.append((pass_index, set_id))

        stream = HandoffStream(self.system, boundaries, on_handoff)
        result = algorithm.solve(stream)

        words_per_handoff = (
            self.memory_probe() if self.memory_probe is not None else None
        )
        for _pass_index, _set_id in handoffs:
            words = (
                words_per_handoff
                if words_per_handoff is not None
                else result.peak_memory_words
            )
            transcript.send(
                Message(payload=None, bits=words * WORD_BITS, sender="handoff")
            )

        return {
            "result": result,
            "transcript": transcript,
            "rounds": result.passes,
            "handoffs": len(handoffs),
            "total_bits": transcript.total_bits,
        }


def simulate_players(system: SetSystem, players: int, algorithm) -> dict:
    """One-shot helper around :class:`ProtocolSimulation`."""
    return ProtocolSimulation(system, players).run(algorithm)
