"""The retry/timeout knob bundle for fault-tolerant remote scans.

One frozen dataclass carries every failure-handling knob so the whole
bundle travels as a single value through
:func:`repro.engine.transport.executor_for`, the stream constructors and
the ``repro solve --retry-*`` CLI flags.  Validation lives here — in the
library, not argparse — so invalid values raise a ``ValueError`` naming
the CLI flag that usually feeds the knob, exactly like
:func:`repro.engine.plan.resolve_workers`.

The **default policy is fail-loud**: ``attempts=1`` reproduces PR 5's
contract verbatim (the first worker fault aborts the scan with a
``RuntimeError`` naming the worker).  What the default changes is the
one genuine bug in that contract: post-handshake socket reads used to be
timeout-free (``sock.settimeout(None)``), so a wedged peer could hang a
scan forever; :attr:`RetryPolicy.idle_timeout` is finite by default and
turns that hang into a loud error whether or not retries are enabled.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, fields

__all__ = ["RetryPolicy"]

#: CLI flag each knob surfaces as — used in validation messages so an
#: invalid value names the flag that usually feeds it.
_KNOB_FLAGS = {
    "attempts": "--retry-attempts",
    "backoff": "--retry-backoff",
    "backoff_max": "--retry-backoff-max",
    "jitter": "--retry-jitter",
    "connect_timeout": "--connect-timeout",
    "idle_timeout": "--idle-timeout",
    "deadline": "--deadline",
    "eject_after": "--retry-eject-after",
    "rejoin_backoff": "--retry-rejoin-backoff",
    "ping_interval": "--ping-interval",
    "local_fallback": "--no-local-fallback",
    "seed": "--seed",
}


def _knob_error(knob: str, detail: str) -> ValueError:
    flag = _KNOB_FLAGS.get(knob, f"--{knob.replace('_', '-')}")
    return ValueError(
        f"retry policy {knob} {detail} (the {flag} flag takes the same values)"
    )


@dataclass(frozen=True)
class RetryPolicy:
    """Failure-handling knobs for one :class:`RemoteScanExecutor`.

    Parameters
    ----------
    attempts:
        Scan-attempt budget **per batch** (>= 1).  ``1`` is fail-loud:
        the first fault on a batch aborts the scan, exactly PR 5's
        contract.  ``k > 1`` allows a failed batch to be re-dispatched
        to a surviving worker up to ``k - 1`` more times.
    backoff / backoff_max / jitter:
        Exponential backoff between a lane's consecutive attempts:
        attempt ``a`` sleeps ``min(backoff * 2**(a-1), backoff_max)``
        seconds, the last ``jitter`` fraction of which is randomized
        (seeded by :attr:`seed`, so tests are deterministic).
    connect_timeout:
        Socket timeout for connect + hello handshake (PR 5 hardcoded
        30s; now a knob).
    idle_timeout:
        Post-handshake socket read timeout.  Replaces the old
        ``settimeout(None)``: a wedged peer errors instead of hanging.
        ``None`` restores the infinite read (not recommended).
    deadline:
        Wall-clock cap in seconds for one dispatched batch (request sent
        → ``done`` received).  ``None`` = no deadline; the idle timeout
        still bounds every individual read.
    eject_after:
        Consecutive faults after which a worker is ejected from the
        scan (its lane exits; its batches re-dispatch to survivors).
    rejoin_backoff:
        Seconds an ejected worker sits out before a later scan on the
        same executor tries it again (rejoin-on-backoff).
    ping_interval:
        Idle-connection health pings: a lane with an open connection
        and no work pings its worker every ``ping_interval`` seconds so
        a silently-dead peer is noticed before it is handed a batch.
    local_fallback:
        Under quorum loss (every worker ejected or failed with work
        remaining), degrade to a local serial scan of the undelivered
        shards — with a warning and a fault-log entry — instead of
        aborting.  Results stay bit-identical either way.
    seed:
        Seed for the jitter RNG (``None`` = nondeterministic jitter;
        results never depend on it, only sleep lengths).

    Examples
    --------
    >>> RetryPolicy().enabled
    False
    >>> RetryPolicy(attempts=3).enabled
    True
    >>> RetryPolicy(attempts=0)
    Traceback (most recent call last):
        ...
    ValueError: retry policy attempts must be an integer >= 1, got 0 (the --retry-attempts flag takes the same values)
    """

    attempts: int = 1
    backoff: float = 0.1
    backoff_max: float = 5.0
    jitter: float = 0.5
    connect_timeout: float = 30.0
    idle_timeout: "float | None" = 120.0
    deadline: "float | None" = None
    eject_after: int = 3
    rejoin_backoff: float = 5.0
    ping_interval: float = 30.0
    local_fallback: bool = True
    seed: "int | None" = None

    def __post_init__(self):
        for knob in ("attempts", "eject_after"):
            value = getattr(self, knob)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise _knob_error(knob, f"must be an integer >= 1, got {value!r}")
        for knob in ("backoff", "backoff_max", "rejoin_backoff"):
            value = getattr(self, knob)
            if not _is_finite_number(value) or value < 0:
                raise _knob_error(knob, f"must be a number >= 0, got {value!r}")
        for knob in ("connect_timeout", "ping_interval"):
            value = getattr(self, knob)
            if not _is_finite_number(value) or value <= 0:
                raise _knob_error(knob, f"must be a number > 0, got {value!r}")
        for knob in ("idle_timeout", "deadline"):
            value = getattr(self, knob)
            if value is not None and (not _is_finite_number(value) or value <= 0):
                raise _knob_error(
                    knob, f"must be a number > 0 (or None), got {value!r}"
                )
        if not _is_finite_number(self.jitter) or not 0 <= self.jitter <= 1:
            raise _knob_error("jitter", f"must be in [0, 1], got {self.jitter!r}")

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """Whether faults are recoverable (``attempts > 1``)."""
        return self.attempts > 1

    def backoff_seconds(self, attempt: int, rng: "random.Random | None" = None) -> float:
        """Sleep before retry number ``attempt`` (1-based), with jitter.

        >>> policy = RetryPolicy(attempts=4, backoff=0.1, jitter=0.0)
        >>> [policy.backoff_seconds(a) for a in (1, 2, 3)]
        [0.1, 0.2, 0.4]
        """
        base = min(self.backoff * (2 ** (attempt - 1)), self.backoff_max)
        if self.jitter == 0 or base == 0:
            return base
        rng = rng if rng is not None else random
        return base * (1 - self.jitter) + base * self.jitter * rng.random()

    def jitter_rng(self) -> random.Random:
        """A jitter RNG honouring :attr:`seed` (fresh per executor)."""
        return random.Random(self.seed)

    # ------------------------------------------------------------------
    @classmethod
    def resolve(cls, value) -> "RetryPolicy":
        """Coerce a knob value into a policy.

        Accepts ``None`` (the fail-loud default), an existing policy
        (passed through) or a dict of constructor kwargs (the CLI's
        flag bundle).  Unknown keys raise a ``ValueError`` naming the
        ``--retry-*`` flag family, matching the other knob resolvers.

        >>> RetryPolicy.resolve(None).attempts
        1
        >>> RetryPolicy.resolve({"attempts": 3}).attempts
        3
        >>> RetryPolicy.resolve({"bogus": 1})
        Traceback (most recent call last):
            ...
        ValueError: unknown retry policy knob 'bogus' (the --retry-* flags take the same keys)
        """
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, dict):
            known = {f.name for f in fields(cls)}
            for key in value:
                if key not in known:
                    raise ValueError(
                        f"unknown retry policy knob {key!r} "
                        "(the --retry-* flags take the same keys)"
                    )
            return cls(**value)
        raise ValueError(
            f"retry must be None, a RetryPolicy or a dict of knobs, "
            f"got {value!r} (the --retry-* flags take the same values)"
        )


def _is_finite_number(value) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )
