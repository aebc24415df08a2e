"""SegmentedIndex: seal, tombstones, fresh/stale views, read API."""

import random

import pytest

from repro.core.query import AndNode, OrNode, TermNode, parse_query
from repro.errors import ConfigurationError, InvertedIndexError, QueryError
from repro.live import SegmentedIndex
from repro.live.segments import prune_query
from tests.test_fastpath_equivalence import _assert_results_identical


def seeded_docs(count, vocab_size=10, seed=3, min_len=3, max_len=12):
    rng = random.Random(seed)
    vocab = [f"t{i}" for i in range(vocab_size)]
    docs = []
    for i in range(count):
        length = rng.randint(min_len, max_len)
        tokens = [vocab[i % vocab_size]]
        tokens += [rng.choice(vocab) for _ in range(length - 1)]
        docs.append(tokens)
    return docs


class TestMutation:
    def test_add_buffers_until_seal(self):
        live = SegmentedIndex(buffer_docs=16)
        for tokens in seeded_docs(5):
            live.add_document(tokens)
        assert live.num_docs == 5
        assert live.num_segments == 0
        assert len(live.memseg) == 5
        segment = live.seal()
        assert segment is not None and segment.tier == 0
        assert live.num_segments == 1
        assert len(live.memseg) == 0
        assert live.num_docs == 5

    def test_seal_empty_buffer_is_noop(self):
        live = SegmentedIndex()
        assert live.seal() is None

    def test_empty_document_rejected(self):
        live = SegmentedIndex()
        with pytest.raises(InvertedIndexError):
            live.add_document([])

    def test_delete_from_buffer_drops_without_tombstone(self):
        live = SegmentedIndex()
        doc = live.add_document(["a", "b"])
        live.delete_document(doc)
        assert live.num_docs == 0
        assert live.seal() is None  # nothing left to seal

    def test_delete_sealed_doc_sets_tombstone(self):
        live = SegmentedIndex()
        doc = live.add_document(["a", "b"])
        live.add_document(["a"])
        segment = live.seal()
        live.delete_document(doc)
        assert doc in segment.tombstones
        assert segment.live_docs == 1
        assert live.num_docs == 1

    def test_double_delete_and_unknown_raise(self):
        live = SegmentedIndex()
        doc = live.add_document(["a"])
        live.add_document(["a"])
        live.seal()
        live.delete_document(doc)
        with pytest.raises(InvertedIndexError):
            live.delete_document(doc)
        with pytest.raises(InvertedIndexError):
            live.delete_document(999)

    def test_oldest_live_doc_skips_dead(self):
        live = SegmentedIndex()
        first = live.add_document(["a"])
        second = live.add_document(["a"])
        live.seal()
        assert live.oldest_live_doc() == first
        live.delete_document(first)
        assert live.oldest_live_doc() == second


class TestReadApi:
    def make_index(self):
        live = SegmentedIndex(buffer_docs=8)
        for tokens in seeded_docs(20):
            live.add_document(tokens)
        return live

    def test_contains_tracks_live_df(self):
        live = SegmentedIndex()
        doc = live.add_document(["rare"])
        assert "rare" in live
        live.delete_document(doc)
        assert "rare" not in live

    def test_posting_list_prefers_newest_segment(self):
        live = SegmentedIndex()
        live.add_document(["a"])
        live.seal()
        live.add_document(["a", "a", "a"])
        live.add_document(["b"])
        live.seal()
        assert live.posting_list("a").document_frequency == 1
        newest = live.segments[-1]
        assert "a" in newest.index
        with pytest.raises(InvertedIndexError):
            live.posting_list("zzz")

    def test_comp_types_skips_buffer_only_terms(self):
        live = SegmentedIndex()
        live.add_document(["sealed"])
        live.seal()
        live.add_document(["buffered"])
        assert len(live.comp_types(["sealed", "buffered"])) == 1

    def test_layout_spans_every_segment(self):
        live = self.make_index()
        live.seal()
        assert live.layout.allocated_bytes == sum(
            segment.index.layout.allocated_bytes
            for segment in live.segments
        )
        # Pool bases tile the span without overlap.
        cursor = 0
        for segment in sorted(live.segments, key=lambda s: s.pool_base):
            assert segment.pool_base == cursor
            cursor += segment.index.layout.allocated_bytes

    def test_query_for_dead_term_raises(self):
        live = SegmentedIndex()
        doc = live.add_document(["gone", "stay"])
        live.add_document(["stay"])
        live.seal()
        live.delete_document(doc)
        with pytest.raises(QueryError):
            live.search('"gone"', k=5)

    def test_zero_k_refused_over_a_sealed_segment(self):
        """The engines' refusal, not an ``IndexError`` from reading the
        k-th hit of an empty list."""
        live = SegmentedIndex()
        live.add_document(["x", "y"])
        live.seal()
        with pytest.raises(ConfigurationError,
                           match="k must be positive, got 0"):
            live.search('"x"', k=0)

    @pytest.mark.parametrize("k", [-1, -3])
    def test_negative_k_refused_on_a_buffer_only_index(self, k):
        """Not a ``[:k]`` slice that drops the last ``|k|`` matches."""
        live = SegmentedIndex(buffer_docs=64)
        for _ in range(10):
            live.add_document(["x"])
        with pytest.raises(ConfigurationError,
                           match=f"k must be positive, got {k}"):
            live.search('"x"', k=k)

    def test_search_covers_buffer_and_segments(self):
        live = SegmentedIndex(buffer_docs=64)
        sealed = live.add_document(["x", "y"])
        live.add_document(["y"])
        live.seal()
        buffered = live.add_document(["x", "x"])
        result = live.search('"x"', k=10)
        assert {hit.doc_id for hit in result.hits} == {sealed, buffered}

    def test_tombstoned_docs_never_surface(self):
        live = self.make_index()
        live.seal()
        target = live.oldest_live_doc()
        before = live.search('"t0"', k=20)
        assert target in {hit.doc_id for hit in before.hits}
        live.delete_document(target)
        after = live.search('"t0"', k=20)
        assert target not in {hit.doc_id for hit in after.hits}

    def test_stale_segment_bounds_stay_conservative(self):
        """After mutations, stale-view block bounds dominate true scores."""
        live = self.make_index()
        live.seal()
        # Go stale: new adds change N, avgdl, and dfs.
        for tokens in seeded_docs(10, seed=9):
            live.add_document(tokens)
        segment = live.segments[0]
        assert segment.stats_version != live.stats.version
        view = live._stale_view(segment)
        scorer = live.stats.scorer()
        for term in view.terms:
            posting_list = view.posting_list(term)
            for block in posting_list.blocks:
                true_max = max(
                    scorer.term_score(posting_list.idf, p.tf, p.doc_id)
                    for p in block.decode(posting_list.codec)
                )
                assert block.metadata.max_term_score >= true_max - 1e-12

    def test_fresh_segment_serves_baked_index(self):
        live = self.make_index()
        live.seal()
        segment = live.segments[-1]
        assert segment.stats_version == live.stats.version
        engine = live._engine_for(segment)
        assert engine.index is segment.index  # no view rebuilt


class TestLazyStaleViews:
    """A statistics version re-dresses scalars, list by list on demand;
    engines and decoded blocks live as long as their segment."""

    QUERIES = ['"t0"', '"t1" OR "t3"', '"t0" AND "t2"',
               '("t0" AND "t1") OR "t4"']

    def make_stale(self, mutate=True):
        live = SegmentedIndex(buffer_docs=8)
        for i, tokens in enumerate(seeded_docs(40)):
            live.add_document(tokens)
            if i % 8 == 7:
                live.seal()
        assert live.num_segments == 5
        if mutate:
            for tokens in seeded_docs(5, seed=9):
                live.add_document(tokens)
            live.delete_document(live.oldest_live_doc())
        return live

    def test_lazy_view_bit_equal_to_eager_dressing(self):
        live = self.make_stale()
        stats = live.stats
        min_norm = stats.min_normalizer()
        k1 = stats.params.k1
        for segment in live.segments:
            assert segment.stats_version != stats.version
            view = live._stale_view(segment)
            assert view.terms == segment.index.terms
            assert view.num_terms == segment.index.num_terms
            assert list(view) == list(segment.index)
            assert view.scorer is stats.scorer()
            assert view.layout is segment.index.layout
            assert not view._dressed
            for term in segment.index.terms:
                assert term in view
                sealed = segment.index.posting_list(term)
                # The eager dressing, written out: live IDF, per-block
                # bound from the recorded max tf against the smallest
                # live normalizer, list max over the blocks.
                idf = stats.idf(term)
                bounds = [
                    idf * (tf_max * (k1 + 1.0)) / (tf_max + min_norm)
                    for tf_max in segment.block_max_tfs[term]
                ]
                dressed = view.posting_list(term)
                assert dressed.idf == idf
                assert [b.metadata.max_term_score
                        for b in dressed.blocks] == bounds
                assert dressed.max_term_score == max([0.0] + bounds)
                assert view.posting_list(term) is dressed  # memoised
                # Everything but the score metadata is the sealed list's.
                assert dressed.scheme == sealed.scheme
                assert dressed.region is sealed.region
                assert dressed.document_frequency == \
                    sealed.document_frequency
                for mine, theirs in zip(dressed.blocks, sealed.blocks):
                    assert mine.doc_payload is theirs.doc_payload
                    assert mine.tf_payload is theirs.tf_payload
            assert len(view._dressed) == segment.index.num_terms
            assert "absent" not in view
            with pytest.raises(InvertedIndexError):
                view.posting_list("absent")

    def test_view_refuses_to_dress_after_its_version(self):
        live = self.make_stale()
        view = live._stale_view(live.segments[0])
        term = live.segments[0].index.terms[0]
        live.add_document(["t0"])
        with pytest.raises(InvertedIndexError):
            view.posting_list(term)

    def test_query_dresses_only_its_terms_and_keeps_decodes(self):
        live = self.make_stale(mutate=False)
        expression = '"t1" OR "t3"'
        live.search(expression, k=10)  # every engine decodes its blocks
        live.add_document(["t9", "t9"])  # one mutation: all stale
        engines = [live._engines[s.segment_id][1] for s in live.segments]
        misses = [engine.decoded_cache.misses for engine in engines]
        first = live.search(expression, k=10)
        holding = sum(
            term in segment.index
            for segment in live.segments for term in ("t1", "t3")
        )
        dressed = sum(
            len(live._engine_for(s).index._dressed) for s in live.segments
        )
        assert 0 < dressed <= holding
        again = live.search(expression, k=10)
        _assert_results_identical(again, first, expression)
        assert sum(
            len(live._engine_for(s).index._dressed) for s in live.segments
        ) == dressed
        # No payload is decoded twice in a segment's life: neither the
        # mutation nor the repeat added a miss.
        assert [engine.decoded_cache.misses
                for engine in engines] == misses
        assert all(engine.decoded_cache.hits for engine in engines)

    def test_engine_is_stable_across_versions(self):
        live = self.make_stale(mutate=False)
        segment = live.segments[-1]  # sealed last: still fresh
        engine = live._engine_for(segment)
        cache = engine.decoded_cache
        assert engine.index is segment.index
        live.add_document(["t0"])
        assert live._engine_for(segment) is engine
        assert engine.decoded_cache is cache
        view = engine.index
        assert view is not segment.index
        assert live._engine_for(segment).index is view  # same version
        live.add_document(["t0"])
        assert live._engine_for(segment) is engine
        assert engine.index is not view  # the memo never crosses versions

    def test_replace_segments_drops_engines_and_caches(self):
        from repro.live.merge import merge_segments

        live = self.make_stale()
        for expression in self.QUERIES:
            live.search(expression, k=10)
        inputs = live.segments[:3]
        gone = [live._engines[s.segment_id][1] for s in inputs]
        merged = merge_segments(live, inputs, output_tier=1)
        live.replace_segments(inputs, merged)
        assert set(live._engines) == {s.segment_id for s in live.segments}
        kept = [engine for _version, engine in live._engines.values()]
        assert not any(engine in gone for engine in kept)
        assert not any(
            engine.decoded_cache is old.decoded_cache
            for engine in kept for old in gone
        )
        assert live._engine_for(merged).index is merged.index

    @pytest.mark.parametrize("workers", [2, 5])
    def test_threads_match_serial_on_a_stale_index(self, workers):
        """Concurrent searches race on the version refresh and on the
        dressed-list memo; every writer stores bit-equal values."""
        import sys

        from repro.batch import run_query_batch

        live = self.make_stale()
        queries = self.QUERIES * 6
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = run_query_batch(live, queries, k=10,
                                       workers=workers)
        finally:
            sys.setswitchinterval(interval)
        serial = self.make_stale()
        for expression, result in zip(queries, threaded.results):
            _assert_results_identical(
                result, serial.search(expression, k=10), expression)
        # One refresh per segment, however many threads asked.
        assert [version for version, _engine in live._engines.values()] \
            == [live.stats.version] * live.num_segments


class TestPruneQuery:
    def test_term_pruned_when_absent(self):
        present = {"a"}.__contains__
        assert prune_query(TermNode("a"), present) == TermNode("a")
        assert prune_query(TermNode("z"), present) is None

    def test_and_annihilates_or_drops(self):
        node = parse_query('"a" AND "z"')
        assert prune_query(node, {"a"}.__contains__) is None
        node = parse_query('"a" OR "z"')
        assert prune_query(node, {"a"}.__contains__) == TermNode("a")

    def test_nested_rewrite(self):
        node = parse_query('("a" AND "b") OR ("z" AND "a")')
        pruned = prune_query(node, {"a", "b"}.__contains__)
        assert pruned == AndNode((TermNode("a"), TermNode("b")))
        kept = prune_query(node, {"a", "b", "z"}.__contains__)
        assert isinstance(kept, OrNode) and len(kept.children) == 2
