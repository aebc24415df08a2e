"""Documentation guards: the shipped docs stay truthful."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _python_blocks(markdown: str):
    return re.findall(r"```python\n(.*?)```", markdown, re.DOTALL)


def _check_figure_references(name: str):
    """Every ``FIGURES["key"]`` the document names exists, and no script
    of the retired ``bench_*.py`` system is still referenced."""
    from repro.experiments import FIGURES

    text = (ROOT / name).read_text()
    assert not re.findall(r"bench_\w+\.py", text)
    named = set(re.findall(r'FIGURES\["(\w+)"\]', text))
    assert named, f"{name} names no figure key"
    assert named <= set(FIGURES), named - set(FIGURES)


class TestReadme:
    def test_quickstart_snippet_runs(self, capsys):
        readme = (ROOT / "README.md").read_text()
        blocks = _python_blocks(readme)
        assert blocks, "README lost its quickstart snippet"
        exec(compile(blocks[0], "README.md", "exec"), {})
        out = capsys.readouterr().out
        assert "bytes moved inside the memory node" in out

    def test_bench_table_lists_real_files(self):
        _check_figure_references("README.md")

    def test_example_table_lists_real_files(self):
        readme = (ROOT / "README.md").read_text()
        for name in re.findall(r"`(\w+\.py)`", readme):
            candidates = [
                ROOT / "examples" / name,
                ROOT / "src" / "repro" / name,
            ]
            assert any(p.exists() for p in candidates), name


class TestDesignDoc:
    def test_every_inventory_module_exists(self):
        design = (ROOT / "DESIGN.md").read_text()
        for dotted in set(re.findall(r"`repro\.([\w.]+)`", design)):
            parts = dotted.split(".")
            base = ROOT / "src" / "repro"
            as_module = base.joinpath(*parts).with_suffix(".py")
            as_package = base.joinpath(*parts) / "__init__.py"
            assert as_module.exists() or as_package.exists(), dotted

    def test_every_bench_target_exists(self):
        _check_figure_references("DESIGN.md")


class TestExperimentsDoc:
    def test_references_current_bench_files(self):
        _check_figure_references("EXPERIMENTS.md")


class TestDocsDirectory:
    @pytest.mark.parametrize("name", [
        "architecture.md", "performance-model.md",
        "decompressor-programs.md", "observability.md",
        "robustness.md", "serving.md", "live_index.md",
    ])
    def test_docs_exist_and_nonempty(self, name):
        path = ROOT / "docs" / name
        assert path.exists()
        assert len(path.read_text()) > 1000

    def test_architecture_mentions_every_core_module(self):
        text = (ROOT / "docs" / "architecture.md").read_text()
        for module in ("cursor", "union", "intersection", "topk",
                       "scheduler", "mai"):
            assert module in text, module


#: A backticked module constant (``FIGURES``), private name
#: (``_charge_metadata``) or class name of two or more CamelCase humps
#: (``HybridSearch``, ``LRUBlockCache``), bare or after a dotted prefix
#: (``tier.HOT_FRACTION``, ``BossAccelerator._cursor``,
#: ``cache.LRUBlockCache``; the last component is checked): the
#: citations a rename or deletion in the code silently strands.
_CITED_NAME = re.compile(
    r"`(?:[A-Za-z_][A-Za-z0-9_]*\.)*"
    r"(_?[A-Z][A-Z0-9_]{3,}|_[a-z][a-z0-9_]{3,}|(?:[A-Z]+[a-z0-9]+){2,})`")


def test_cited_code_names_exist():
    """Every constant, private name or class name the prose docs cite
    in backticks still occurs in the code: ``src/``, the harness or the
    tests."""
    docs = sorted((ROOT / "docs").glob("*.md")) + [
        ROOT / name for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")]
    cited = {}
    for doc in docs:
        for name in _CITED_NAME.findall(doc.read_text()):
            cited.setdefault(name, doc.name)
    code = "\n".join(
        path.read_text()
        for base in ("src", "benchmarks/harness", "tests")
        for path in sorted((ROOT / base).rglob("*.py")))
    missing = {name: doc for name, doc in cited.items()
               if not re.search(rf"\b{re.escape(name)}\b", code)}
    assert len(cited) >= 10
    assert not missing, missing
