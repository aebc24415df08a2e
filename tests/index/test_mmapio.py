"""Mmap storage: zero-copy serving, loader dispatch, and lifetime.

The central guarantee under test: an index opened through
:class:`MmapIndexStorage` serves every compressed block payload as a
``memoryview`` slice of the one read-only mapping — loading copies no
payload — and queries over it give the same modeled output as over the
in-memory index (a payload is copied when its block is decoded).
"""

import mmap

import pytest

from repro.core import BossAccelerator, BossConfig
from repro.errors import InvertedIndexError
from repro.index import (
    MmapIndexStorage,
    STORAGE_MODES,
    load_index_mmap,
    open_index,
)
from repro.index.binaryio import load_index_binary, save_index_binary
from tests.conftest import _assert_results_identical, build_random_index
from tests.test_differential import _random_queries


@pytest.fixture(scope="module")
def corpus_index():
    return build_random_index(num_docs=500, vocab_size=24, seed=33)


@pytest.fixture(scope="module")
def bossx_path(corpus_index, tmp_path_factory):
    path = tmp_path_factory.mktemp("mmapio") / "corpus.bossx"
    save_index_binary(corpus_index, path)
    return path


@pytest.fixture(scope="module")
def foreign_path(tmp_path_factory):
    """A file that is not a ``.bossx`` index (a pickle, as it happens)."""
    path = tmp_path_factory.mktemp("mmapio") / "corpus.pkl"
    path.write_bytes(b"\x80\x05\x95" + b"\x00" * 64)
    return path


class TestZeroCopy:
    def test_every_payload_is_a_memoryview(self, bossx_path):
        index = load_index_mmap(bossx_path)
        blocks = 0
        for term in index:
            for block in index.posting_list(term).blocks:
                assert isinstance(block.doc_payload, memoryview)
                assert isinstance(block.tf_payload, memoryview)
                blocks += 1
        assert blocks > 0

    def test_open_index_copies_no_payload_at_load(self, bossx_path):
        """Every payload aliases the one read-only mapping of the file:
        loading copied none of them (a copy happens when a block is
        decoded, not before)."""
        index = open_index(bossx_path)
        mappings = set()
        payload_bytes = 0
        for term in index:
            for block in index.posting_list(term).blocks:
                for payload in (block.doc_payload, block.tf_payload):
                    assert isinstance(payload.obj, mmap.mmap)
                    assert payload.readonly
                    mappings.add(id(payload.obj))
                    payload_bytes += len(payload)
        assert len(mappings) == 1
        assert 0 < payload_bytes < bossx_path.stat().st_size


@pytest.mark.parametrize("executor", ["reference", "fast", "columnar"])
def test_mmap_differential_vs_in_memory(bossx_path, corpus_index,
                                        executor):
    """Identical modeled output regardless of the storage backend."""
    mapped = load_index_mmap(bossx_path)
    mmap_engine = BossAccelerator(mapped, BossConfig(k=10),
                                  executor=executor)
    mem_engine = BossAccelerator(corpus_index, BossConfig(k=10),
                                 executor=executor)
    for expression in _random_queries(sorted(corpus_index), 7, count=15):
        _assert_results_identical(
            mmap_engine.search(expression), mem_engine.search(expression),
            (executor, expression),
        )


class TestLoaderDispatch:
    def test_auto_serves_bossx_via_mmap(self, bossx_path, corpus_index):
        index = open_index(bossx_path)
        assert index.num_terms == corpus_index.num_terms
        block = index.posting_list(next(iter(index))).blocks[0]
        assert isinstance(block.doc_payload, memoryview)

    def test_binary_mode_copies_payloads(self, bossx_path):
        index = open_index(bossx_path, storage="binary")
        block = index.posting_list(next(iter(index))).blocks[0]
        assert isinstance(block.doc_payload, bytes)

    @pytest.mark.parametrize("storage", STORAGE_MODES)
    def test_non_bossx_file_rejected(self, foreign_path, storage):
        with pytest.raises(InvertedIndexError, match="not a BOSSIDX2") \
                as raised:
            open_index(foreign_path, storage=storage)
        assert str(foreign_path) in str(raised.value)

    def test_unknown_storage_rejected(self, bossx_path):
        with pytest.raises(InvertedIndexError, match="unknown storage"):
            open_index(bossx_path, storage="paged")
        with pytest.raises(InvertedIndexError, match="unknown storage"):
            open_index(bossx_path, storage="pickle")


class TestStorageLifetime:
    def test_load_is_cached(self, bossx_path):
        with MmapIndexStorage(bossx_path) as storage:
            assert storage.load() is storage.load()

    def test_load_after_close_raises(self, bossx_path):
        storage = MmapIndexStorage(bossx_path)
        assert not storage.closed
        storage.close()
        assert storage.closed
        with pytest.raises(InvertedIndexError, match="closed"):
            storage.load()

    def test_close_with_live_index_keeps_views_valid(self, bossx_path):
        storage = MmapIndexStorage(bossx_path)
        index = storage.load()
        storage.close()  # mapping pinned by the index's payload views
        engine = BossAccelerator(index, BossConfig(k=5))
        assert engine.search('"t0"').hits

    def test_empty_file_rejected(self, tmp_path):
        empty = tmp_path / "empty.bossx"
        empty.write_bytes(b"")
        with pytest.raises(InvertedIndexError, match="cannot be mapped"):
            MmapIndexStorage(empty)

    def test_non_index_file_rejected(self, tmp_path):
        bogus = tmp_path / "bogus.bossx"
        bogus.write_bytes(b"definitely not an index file")
        with pytest.raises(InvertedIndexError, match="not a BOSSIDX2"):
            MmapIndexStorage(bogus)


def test_open_and_query_build_no_block_objects(bossx_path, corpus_index,
                                               monkeypatch):
    """Opening a file and querying it on every executor reads the list
    columns only: with ``BlockMetadata`` unconstructible, both succeed
    and agree with the in-memory index."""
    from repro.api import BossSession
    from repro.core.engine import EXECUTORS
    from repro.index.blocks import BlockMetadata

    def refuse(self):
        raise AssertionError("a BlockMetadata was built")

    monkeypatch.setattr(BlockMetadata, "__post_init__", refuse)
    for storage in STORAGE_MODES:
        index = open_index(bossx_path, storage=storage)
        for executor in EXECUTORS:
            engine = BossAccelerator(index, BossConfig(k=10),
                                     executor=executor)
            for expression in _random_queries(sorted(corpus_index), 11,
                                              count=12):
                assert engine.search(expression).hits is not None
    session = BossSession()
    session.init(bossx_path)
    assert session.search('"t0" OR "t1"').hits
