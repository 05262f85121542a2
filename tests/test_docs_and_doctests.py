"""Executable-documentation checks: doctests, markdown code blocks, links."""

from __future__ import annotations

import ast
import doctest
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

_REPO_ROOT = Path(__file__).parent.parent

#: Markdown documents whose fenced ```python blocks must execute and whose
#: relative links must resolve.
DOC_FILES = [
    "README.md",
    "docs/ARCHITECTURE.md",
    "docs/REPRODUCING.md",
    "docs/DISTRIBUTED.md",
]

# Fetched via importlib: the package __init__ re-exports a *function* named
# iter_set_cover, which shadows the module attribute of the same name.
DOCTEST_MODULES = [
    "repro.utils.bitset",
    "repro.utils.mathutil",
    "repro.engine",
    "repro.engine.plan",
    "repro.engine.merge",
    "repro.engine.transport",
    "repro.setsystem.set_system",
    "repro.setsystem.io",
    "repro.setsystem.packed",
    "repro.setsystem.shards",
    "repro.streaming.stream",
    "repro.streaming.sharded",
    "repro.core.iter_set_cover",
    "repro.partial.streaming",
    "repro.workloads.coverage",
    "repro.workloads.random_instances",
    "repro.workloads.roster",
    "repro.workloads.skewed",
]


@pytest.mark.parametrize("module_name", DOCTEST_MODULES)
def test_doctests_pass(module_name):
    module = importlib.import_module(module_name)
    results = doctest.testmod(module)
    assert results.failed == 0, f"{module.__name__}: {results.failed} doctest failures"
    assert results.attempted > 0, f"{module.__name__} has no doctests to run"


def test_readme_quickstart_snippet():
    """The README's quickstart block, executed verbatim in spirit."""
    from repro import IterSetCover, IterSetCoverConfig, SetStream
    from repro.workloads import planted_instance

    planted = planted_instance(n=400, m=300, opt=6, seed=2024)
    stream = SetStream(planted.system)
    result = IterSetCover(
        config=IterSetCoverConfig(delta=0.5),
        seed=7,
    ).solve(stream)

    assert stream.verify_solution(result.selection)
    assert result.passes >= 1
    assert result.peak_memory_words > 0


def test_public_api_surface():
    """Everything advertised in ``repro.__all__`` resolves."""
    import repro

    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


def test_version_matches_setup_py():
    """``repro.__version__`` is the version ``setup.py`` packages."""
    import repro

    tree = ast.parse((_REPO_ROOT / "setup.py").read_text(encoding="utf-8"))
    versions = [
        keyword.value.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        for keyword in node.keywords
        if keyword.arg == "version"
    ]
    assert versions == [repro.__version__]


_IMPORT_SURFACE = """
import sys

import repro.cli
assert "scipy" not in sys.modules, "import repro.cli loaded scipy"
del sys.modules["repro"]
for name in [m for m in sys.modules if m.startswith("repro.")]:
    del sys.modules[name]
import repro
assert "scipy" not in sys.modules, "import repro loaded scipy"

from repro.offline import fractional_optimum
from repro.setsystem import SetSystem

assert repro.IterSetCover.__name__ == "IterSetCover"
assert repro.LPRoundingSolver.__name__ == "LPRoundingSolver"
assert repro.offline.fractional_optimum is fractional_optimum
value, x = fractional_optimum(SetSystem(4, [[0, 1], [2, 3], [0, 2], [1, 3]]))
assert abs(value - 2.0) < 1e-9 and len(x) == 4, (value, x)
print("import surface OK")
"""


def test_import_surface_loads_no_scipy():
    """``solve`` never calls the LP, so importing the CLI or the package
    loads no scipy; the LP names still resolve and still solve."""
    env = dict(os.environ, PYTHONPATH=str(_REPO_ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", _IMPORT_SURFACE],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "import surface OK"


def test_design_doc_experiment_index_matches_bench_files():
    """Every bench target named in DESIGN.md exists on disk."""
    import re
    from pathlib import Path

    design = Path(__file__).parent.parent / "DESIGN.md"
    text = design.read_text()
    targets = set(re.findall(r"`benchmarks/(bench_\w+\.py)`", text))
    assert targets, "DESIGN.md lists no bench targets?"
    bench_dir = Path(__file__).parent.parent / "benchmarks"
    for target in targets:
        assert (bench_dir / target).exists(), f"missing bench file {target}"


def test_experiments_doc_report_files_exist_after_bench_run():
    """EXPERIMENTS.md references bench files that actually exist."""
    experiments = _REPO_ROOT / "EXPERIMENTS.md"
    text = experiments.read_text()
    named = set(re.findall(r"`(bench_\w+\.py)`", text))
    bench_dir = _REPO_ROOT / "benchmarks"
    for target in named:
        assert (bench_dir / target).exists(), f"missing bench file {target}"


# ----------------------------------------------------------------------
# Markdown guides: executable code blocks + link integrity (the CI docs job)
# ----------------------------------------------------------------------
def _python_blocks(path: Path) -> list[tuple[int, str]]:
    """(line, source) for every fenced ```python block in a markdown file."""
    text = path.read_text()
    blocks = []
    for match in re.finditer(r"```python\n(.*?)```", text, flags=re.DOTALL):
        line = text[: match.start()].count("\n") + 2
        blocks.append((line, match.group(1)))
    return blocks


@pytest.mark.parametrize("doc", DOC_FILES)
def test_markdown_python_blocks_execute(doc):
    """Every ```python block in the guides runs clean, top to bottom."""
    path = _REPO_ROOT / doc
    blocks = _python_blocks(path)
    for line, source in blocks:
        namespace: dict = {"__name__": f"docblock:{doc}:{line}"}
        try:
            exec(compile(source, f"{doc}:{line}", "exec"), namespace)
        except Exception as exc:  # pragma: no cover - failure reporting
            pytest.fail(f"{doc} code block at line {line} failed: {exc!r}")


@pytest.mark.parametrize("doc", DOC_FILES + ["EXPERIMENTS.md", "DESIGN.md", "ROADMAP.md"])
def test_markdown_relative_links_resolve(doc):
    """No dead relative links in the documentation set."""
    path = _REPO_ROOT / doc
    text = path.read_text()
    # Strip fenced code (mermaid arrows etc. are not links).
    text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
    for target in re.findall(r"\[[^\]]*\]\(([^)\s]+)\)", text):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        relative = (path.parent / target.split("#", 1)[0]).resolve()
        assert relative.exists(), f"{doc}: dead link to {target}"


def test_readme_links_the_guides():
    """The docs/ guide set is reachable from the README."""
    readme = (_REPO_ROOT / "README.md").read_text()
    assert "docs/ARCHITECTURE.md" in readme
    assert "docs/REPRODUCING.md" in readme
