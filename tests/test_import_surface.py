"""The import surface: each command loads only the modules it runs, and
every package's public names still resolve to the documented objects."""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

from repro.setsystem import SetSystem, save, write_shards

_SRC = Path(__file__).parent.parent / "src"

#: Every package whose ``__init__`` re-exports names.
PACKAGES = [
    "repro",
    "repro.baselines",
    "repro.core",
    "repro.engine",
    "repro.engine.fault",
    "repro.engine.transport",
    "repro.offline",
    "repro.sampling",
    "repro.setsystem",
    "repro.streaming",
    "repro.utils",
    "repro.workloads",
]

_RUN_CLI = """
import contextlib, io, json, sys

import repro.cli

imported = sorted(m for m in sys.modules if m.startswith("repro"))
with contextlib.redirect_stdout(io.StringIO()):
    code = repro.cli.main(json.loads(sys.argv[1]))
loaded = sorted(m for m in sys.modules if m.startswith("repro"))
print(json.dumps({"code": code, "imported": imported, "loaded": loaded}))
"""

#: What no serial solve may load, whatever algorithm it runs.
_NOT_IN_A_SERIAL_SOLVE = [
    "repro.engine.transport.remote",
    "repro.engine.fault",
    "repro.workloads",
    "repro.offline.lp",
    "repro.offline.exact",
    "repro.sampling.vc_dimension",
    "repro.sampling.epsilon_net",
    "repro.sampling.element_sampling",
]

_BASELINES = [
    "repro.baselines.chakrabarti_wirth",
    "repro.baselines.demaine_et_al",
    "repro.baselines.emek_rosen",
    "repro.baselines.greedy_stream",
    "repro.baselines.saha_getoor",
]


def _run_cli(argv: "list[str]") -> dict:
    """Run ``repro.cli.main(argv)`` in a fresh interpreter; report its
    exit code and the ``repro`` modules loaded before and after."""
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    result = subprocess.run(
        [sys.executable, "-c", _RUN_CLI, json.dumps(argv)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def _under(modules: "list[str]", prefixes: "list[str]") -> "list[str]":
    """The modules that are, or lie inside, one of ``prefixes``."""
    return [
        m for m in modules
        if any(m == p or m.startswith(p + ".") for p in prefixes)
    ]


@pytest.fixture(scope="module")
def instance(tmp_path_factory):
    """A tiny instance file and its flat shard repository."""
    tmp = tmp_path_factory.mktemp("surface")
    system = SetSystem(12, [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11],
                            [0, 4, 8], [1, 5, 9, 2]])
    save(system, tmp / "instance.json")
    return tmp / "instance.json", write_shards(tmp / "repo", system, chunk_rows=2)


@pytest.mark.parametrize("algorithm, runs", [
    ("iter", []),
    ("threshold", ["repro.baselines.greedy_stream"]),
])
def test_serial_solve_loads_only_what_runs(instance, algorithm, runs):
    report = _run_cli(["solve", str(instance[1]), "--algorithm", algorithm])
    assert report["code"] == 0
    assert report["imported"] == ["repro", "repro.cli"]
    loaded = report["loaded"]
    unused = [b for b in _BASELINES if b not in runs]
    assert _under(loaded, _NOT_IN_A_SERIAL_SOLVE + unused) == []
    assert _under(loaded, runs) == runs
    assert "repro.engine.transport.serial" in loaded


def test_shard_create_loads_no_solver(instance, tmp_path):
    report = _run_cli(["shard", "create", str(instance[0]), str(tmp_path / "out")])
    assert report["code"] == 0
    assert _under(report["loaded"], [
        "repro.core", "repro.offline", "repro.streaming", "repro.engine",
    ]) == []


@pytest.mark.parametrize("package", PACKAGES)
def test_public_names_resolve(package):
    """Every name in ``__all__`` resolves to an object (never to a
    submodule, even once every submodule is imported), ``import *``
    binds them all, and ``dir`` lists them."""
    module = importlib.import_module(package)
    for info in pkgutil.iter_modules(module.__path__):
        importlib.import_module(f"{package}.{info.name}")
    for name in module.__all__:
        value = getattr(module, name)
        assert not isinstance(value, ModuleType), f"{package}.{name}"
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    assert set(module.__all__) <= set(namespace)
    assert set(module.__all__) <= set(dir(module))
    with pytest.raises(AttributeError):
        getattr(module, "no_such_name")


_SHADOWED = """
import sys

import repro.sampling
import repro.sampling.epsilon_net
assert "repro.sampling.vc_dimension" not in sys.modules
import repro.sampling.vc_dimension
from repro.sampling.vc_dimension import vc_dimension

assert repro.sampling.vc_dimension is vc_dimension
import repro.core.iter_set_cover
from repro.core.iter_set_cover import iter_set_cover

assert repro.core.iter_set_cover is iter_set_cover
print("shadowed names OK")
"""


def test_export_named_like_its_submodule_keeps_the_name():
    """``repro.sampling.vc_dimension`` and ``repro.core.iter_set_cover``
    are functions, also after their submodules are first imported."""
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    result = subprocess.run(
        [sys.executable, "-c", _SHADOWED],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "shadowed names OK"
