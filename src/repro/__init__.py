"""repro — reproduction of *Towards Tight Bounds for the Streaming Set
Cover Problem* (Har-Peled, Indyk, Mahabadi, Vakilian; PODS 2016).

Public API highlights
---------------------
* :class:`repro.SetSystem` / :class:`repro.SetStream` — instances and the
  pass-counted streaming access model.
* :class:`repro.ShardedSetStream` / :func:`repro.write_shards` — the
  out-of-core twin: a chunked on-disk repository scanned with the same
  protocol, so algorithms run unchanged on instances that never fit in
  RAM (DESIGN.md §5).
* :class:`repro.IterSetCover` — the paper's O(1/delta)-pass,
  O~(m n^delta)-space algorithm (Figure 1.3, Theorem 2.8).
* :mod:`repro.geometry` — the geometric variant ``algGeomSC``
  (Figure 4.1, Theorem 4.6) with canonical representations.
* :mod:`repro.baselines` — every algorithm row of Figure 1.1.
* :mod:`repro.communication` / :mod:`repro.lowerbounds` — the
  communication-complexity constructions behind Theorems 3.8, 5.4 and 6.6.
* :mod:`repro.experiments` — the scenario-suite orchestrator behind
  ``python -m repro experiments``.
"""

from repro.core import (
    IterSetCover,
    IterSetCoverConfig,
    StreamingCoverResult,
    iter_set_cover,
)
from repro.offline import ExactSolver, GreedySolver, LPRoundingSolver, OfflineSolver
from repro.setsystem import SetSystem, ShardedRepository, write_shards
from repro.streaming import MemoryMeter, ResourceReport, SetStream, ShardedSetStream

__version__ = "1.2.0"

__all__ = [
    "ExactSolver",
    "GreedySolver",
    "IterSetCover",
    "IterSetCoverConfig",
    "LPRoundingSolver",
    "MemoryMeter",
    "OfflineSolver",
    "ResourceReport",
    "SetStream",
    "SetSystem",
    "ShardedRepository",
    "ShardedSetStream",
    "StreamingCoverResult",
    "iter_set_cover",
    "write_shards",
    "__version__",
]
