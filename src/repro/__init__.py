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

Each package re-exports its public names from one table
(:func:`_lazy_exports`) and imports a name's module only when the name
is first used, so a command loads only what it runs (DESIGN.md §15).
"""

import importlib
import sys
from types import ModuleType

__version__ = "1.2.0"


class _LazyPackage(ModuleType):
    """A package whose public names import their module on first use.

    ``_exports`` maps each public name to the (relative) module that
    defines it: a lookup the package has not bound yet imports that
    module (PEP 562's ``__getattr__``), so an import costs only what its
    caller touches.
    """

    def __getattr__(self, name):
        source = self._exports.get(name)
        if source is None:
            raise AttributeError(
                f"module {self.__name__!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(source, self.__name__), name)
        ModuleType.__setattr__(self, name, value)
        return value

    def __setattr__(self, name, value):
        # Importing submodule ``pkg.name`` binds the module as ``pkg.name``.
        # Where the package exports an object of that name (the function
        # ``repro.sampling.vc_dimension``), the export keeps the name.
        source = self._exports.get(name)
        if source is not None and isinstance(value, ModuleType):
            value = getattr(importlib.import_module(source, self.__name__), name)
        ModuleType.__setattr__(self, name, value)

    def __dir__(self):
        return sorted({*self.__dict__, *self._exports})


def _lazy_exports(package: str, exports: "dict[str, list[str]]") -> "list[str]":
    """Make ``package`` resolve ``exports`` (module → names) on first use.

    Returns the exported names, sorted, for the package's ``__all__``.
    """
    module = sys.modules[package]
    module._exports = {
        name: source for source, names in exports.items() for name in names
    }
    module.__class__ = _LazyPackage
    return sorted(module._exports)


__all__ = [
    *_lazy_exports(__name__, {
        ".core.config": ["IterSetCoverConfig"],
        ".core.iter_set_cover": ["IterSetCover", "iter_set_cover"],
        ".core.result": ["StreamingCoverResult"],
        ".offline.base": ["OfflineSolver"],
        ".offline.exact": ["ExactSolver"],
        ".offline.greedy": ["GreedySolver"],
        ".offline.lp": ["LPRoundingSolver"],
        ".setsystem.set_system": ["SetSystem"],
        ".setsystem.shards": ["ShardedRepository", "write_shards"],
        ".streaming.memory": ["MemoryMeter"],
        ".streaming.sharded": ["ShardedSetStream"],
        ".streaming.stream": ["ResourceReport", "SetStream"],
    }),
    "__version__",
]
