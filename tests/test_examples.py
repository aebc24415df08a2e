"""Smoke tests: every shipped example runs end to end.

Examples are part of the public deliverable; these tests execute each
one in-process and assert on its key printed claims, so a library
change that breaks an example breaks the suite.
"""

import runpy
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def _run(name, capsys):
    runpy.run_path(str(EXAMPLES_DIR / name), run_name="__main__")
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = _run("quickstart.py", capsys)
        assert "indexed 8 documents" in out
        assert "top-k only crosses the link" in out
        assert '"memory"' in out

    def test_custom_decompressor(self, capsys):
        out = _run("custom_decompressor.py", capsys)
        assert "custom Nibble program" in out
        assert out.count("round-trips through the programmable module") == 5

    def test_serving_comparison(self, capsys):
        out = _run("serving_comparison.py", capsys)
        assert "functional check: 0 mismatching queries" in out
        assert "energy savings BOSS vs Lucene" in out
        # BOSS line shows a speedup over Lucene.
        boss_line = next(l for l in out.splitlines()
                         if l.startswith("BOSS"))
        assert "x" in boss_line

    def test_pool_scaling(self, capsys):
        out = _run("pool_scaling.py", capsys)
        assert "host engine flatlines" in out
        rows = [l for l in out.splitlines() if l.strip().startswith(
            ("1 ", "32 "))]
        assert rows  # the sweep printed

    def test_extensions_tour(self, capsys):
        out = _run("extensions_tour.py", capsys)
        assert "phrase 'storage class memory': docs [1, 2]" in out
        assert "reranked top-3" in out
        assert "compact_all() -> one segment with 6 docs" in out

    def test_distributed_search(self, capsys):
        out = _run("distributed_search.py", capsys)
        assert out.count("cluster == monolithic ranking: True") == 4
        assert "20-term union via host split" in out


def test_every_example_has_a_smoke_test():
    """New examples must come with a smoke test."""
    covered = {
        "quickstart.py", "custom_decompressor.py",
        "serving_comparison.py", "pool_scaling.py",
        "distributed_search.py", "extensions_tour.py",
    }
    shipped = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    assert shipped == covered, shipped ^ covered
