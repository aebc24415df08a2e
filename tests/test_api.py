"""Tests for the offloading API (init/search session)."""

import pytest

from repro.api import MAX_QUERY_TERMS, BossSession
from repro.core.engine import BossConfig
from repro.errors import ConfigurationError, QueryError
from repro.index.binaryio import save_index_binary
from tests.conftest import build_random_index


@pytest.fixture(scope="module")
def index():
    return build_random_index(num_docs=400, vocab_size=20, seed=3)


@pytest.fixture()
def session(index):
    s = BossSession(BossConfig(k=20))
    s.init(index)
    return s


class TestInit:
    def test_init_with_object(self, index):
        session = BossSession()
        session.init(index)
        assert session.initialized
        assert session.index is index

    def test_init_with_file(self, index, tmp_path):
        path = tmp_path / "idx.bossx"
        save_index_binary(index, path)
        session = BossSession()
        session.init(path)
        assert session.initialized

    def test_search_before_init_rejected(self):
        with pytest.raises(ConfigurationError):
            BossSession().search('"t0"')

    def test_custom_config_file(self, index, tmp_path):
        from repro.decompressor.configs import VB_PROGRAM_TEXT

        config = tmp_path / "custom.cfg"
        config.write_text(VB_PROGRAM_TEXT)
        session = BossSession()
        session.init(index, config_file=config)
        assert session.initialized

    def test_mai_mapping_installed(self, session):
        # The whole index span translates without error.
        span = session.index.layout.allocated_bytes
        if span:
            assert session.mai.translate(0) == 0
            assert session.mai.translate(span - 1) == span - 1


class TestSearch:
    def test_basic_search(self, session):
        result = session.search('"t0" AND "t1"')
        assert result.query_type == "Q2"
        assert len(result.hits) <= 20

    def test_k_override(self, session):
        assert len(session.search('"t0"', k=3).hits) == 3

    def test_sixteen_terms_allowed(self, session):
        expr = " OR ".join(f'"t{i}"' for i in range(16))
        result = session.search(expr)
        assert result.hits


class TestOversizedQueries:
    """The >16-term host-split path (Section IV-D, last paragraph)."""

    def test_oversized_union_matches_oracle(self, session, index):
        from repro.core.query import parse_query
        from tests.conftest import (
            brute_force_topk,
            hits_as_pairs,
            oracle_as_pairs,
        )

        expr = " OR ".join(f'"t{i}"' for i in range(18))
        node = parse_query(expr)
        oracle = oracle_as_pairs(brute_force_topk(index, node, 12), 8)
        assert hits_as_pairs(session.search(expr, k=12), 8) == oracle

    def test_oversized_union_matches_direct_16way_merge(self, session):
        # The split must be invisible: compare against two <=16-term
        # unions whose per-doc scores add.
        expr = " OR ".join(f'"t{i}"' for i in range(17))
        result = session.search(expr, k=10)
        assert len(result.hits) == 10
        assert result.work.postings_decoded > 0

    def test_oversized_intersection_supported(self, session):
        expr = " AND ".join(f'"t{i}"' for i in range(17))
        result = session.search(expr, k=10)
        assert isinstance(result.hits, list)  # usually empty; no error

    def test_oversized_intermediates_cross_interconnect(self, session):
        """Subquery results land in host memory: the interconnect bytes
        reflect the full unpruned intermediates, not just top-k."""
        expr = " OR ".join(f'"t{i}"' for i in range(18))
        result = session.search(expr, k=5)
        assert result.interconnect_bytes > 8 * len(result.hits)

    def test_oversized_mixed_shape_rejected(self, session):
        expr = '"t0" AND (' + " OR ".join(
            f'"t{i}"' for i in range(1, 18)
        ) + ")"
        with pytest.raises(QueryError):
            session.search(expr)

    def test_undersized_result_buffer_rejected(self, session):
        with pytest.raises(ConfigurationError):
            session.search('"t0"', k=100, result_size=10)

    def test_adequate_result_buffer(self, session):
        result = session.search('"t0"', k=10, result_size=80)
        assert len(result.hits) <= 10


class TestDeviceArrays:
    def test_comp_types(self, session):
        comp_types = session.comp_types(["t0", "t1"])
        assert len(comp_types) == 2
        for scheme in comp_types:
            assert scheme in ("BP", "VB", "OptPFD", "S16", "S8b")

    def test_list_addresses_distinct(self, session):
        addresses = session.list_addresses(["t0", "t1", "t2"])
        assert len(set(addresses)) == 3

    def test_results_match_direct_accelerator(self, session, index):
        from repro.core import BossAccelerator

        direct = BossAccelerator(index, BossConfig(k=20))
        a = session.search('"t2" OR "t4"')
        b = direct.search('"t2" OR "t4"')
        assert [(h.doc_id, h.score) for h in a.hits] == [
            (h.doc_id, h.score) for h in b.hits
        ]
