"""Tests for the index integrity checker."""

import pytest

from repro.index.validate import validate_index
from tests.conftest import build_random_index, reseat


@pytest.fixture(scope="module")
def index():
    return build_random_index(num_docs=400, vocab_size=20, seed=5)


class TestCleanIndex:
    def test_built_index_validates(self, index):
        report = validate_index(index)
        assert report.ok, report.errors
        assert report.terms_checked == index.num_terms
        assert report.blocks_checked > 0
        assert report.postings_checked == sum(
            index.posting_list(t).document_frequency for t in index.terms
        )

    def test_structural_pass_is_cheaper_but_clean(self, index):
        report = validate_index(index, check_scores=False)
        assert report.ok

    def test_sharded_index_warns_about_global_idf(self):
        """Shard-global IDFs differ from local dfs: a warning, not an
        error (by design — see repro.cluster)."""
        import random

        from repro.cluster import shard_documents

        rng = random.Random(1)
        words = [f"w{i}" for i in range(15)]
        docs = [
            [words[rng.randrange(0, 15)] for _ in range(8)]
            for _ in range(200)
        ]
        sharded = shard_documents(docs, num_shards=2)
        report = validate_index(sharded.indexes[0])
        assert report.ok
        assert any("shard-global" in w for w in report.warnings)


class TestCorruptionDetection:
    def _clone_with_block(self, index, term, block_index, **overrides):
        """Rebuild one block's metadata with targeted corruption."""
        import dataclasses

        posting_list = index.posting_list(term)
        blocks = list(posting_list.blocks)
        block = blocks[block_index]
        meta = dataclasses.replace(block.metadata, **overrides)
        blocks[block_index] = dataclasses.replace(block, metadata=meta)
        reseat(posting_list, blocks)
        return index

    def test_understated_max_score_detected(self, index):
        clone = build_random_index(num_docs=400, vocab_size=20, seed=5)
        term = clone.terms[0]
        self._clone_with_block(clone, term, 0, max_term_score=1e-6)
        report = validate_index(clone)
        assert not report.ok
        assert any("early termination" in e for e in report.errors)

    def test_wrong_first_doc_id_detected(self):
        clone = build_random_index(num_docs=400, vocab_size=20, seed=5)
        term = clone.terms[1]
        first = clone.posting_list(term).blocks[0].metadata.first_doc_id
        self._clone_with_block(clone, term, 0, first_doc_id=first + 0,
                               last_doc_id=10**6)
        report = validate_index(clone, check_scores=False)
        assert not report.ok

    def test_corrupt_payload_detected(self):
        import dataclasses

        clone = build_random_index(num_docs=400, vocab_size=20, seed=5)
        term = clone.terms[2]
        posting_list = clone.posting_list(term)
        blocks = list(posting_list.blocks)
        blocks[0] = dataclasses.replace(
            blocks[0], doc_payload=blocks[0].doc_payload[:1]
        )
        reseat(posting_list, blocks)
        report = validate_index(clone, check_scores=False)
        assert not report.ok
        assert any("decode" in e for e in report.errors)


class TestDurableStateValidation:
    """validate_segmented's manifest/segment-file agreement checks —
    both directions: committed-but-absent and present-but-uncommitted."""

    @pytest.fixture()
    def durable(self, tmp_path):
        import random

        from repro.live import (
            DurableLiveIndexWriter,
            MergePolicy,
            load_manifest,
        )

        rng = random.Random("validate")
        writer = DurableLiveIndexWriter(tmp_path / "wal", buffer_docs=8,
                                        policy=MergePolicy(fanout=3))
        vocab = [f"t{i}" for i in range(10)]
        for _ in range(40):
            writer.add_document(
                [rng.choice(vocab) for _ in range(rng.randint(3, 10))]
            )
        writer.flush()
        assert writer.index.num_segments >= 1
        manifest = load_manifest(writer.manifest_path)
        return writer, manifest

    def test_agreeing_state_validates(self, durable):
        from repro.index.validate import validate_segmented

        writer, manifest = durable
        report = validate_segmented(writer.index, check_scores=False,
                                    manifest=manifest,
                                    segment_dir=writer.wal_dir)
        assert report.ok, report.errors

    def test_orphan_segment_file_detected(self, durable):
        from repro.index.validate import validate_segmented
        from repro.live.segfile import segment_file_name

        writer, manifest = durable
        stray = writer.wal_dir / segment_file_name(4_999)
        stray.write_bytes(b"leftover")
        report = validate_segmented(writer.index, check_scores=False,
                                    manifest=manifest,
                                    segment_dir=writer.wal_dir)
        assert not report.ok
        assert any("orphan" in e for e in report.errors)

    def test_missing_segment_file_detected(self, durable):
        from repro.index.validate import validate_segmented
        from repro.live.segfile import segment_file_name

        writer, manifest = durable
        victim = writer.index.segments[0].segment_id
        (writer.wal_dir / segment_file_name(victim)).unlink()
        report = validate_segmented(writer.index, check_scores=False,
                                    manifest=manifest,
                                    segment_dir=writer.wal_dir)
        assert not report.ok
        assert any("missing on disk" in e for e in report.errors)

    def test_committed_but_not_installed_detected(self, durable):
        from repro.index.validate import validate_segmented

        writer, manifest = durable
        manifest["segments"].append(
            {"id": 4_999, "tier": 0, "nbytes": 1,
             "num_docs": 1, "stats_version": 0}
        )
        report = validate_segmented(writer.index, check_scores=False,
                                    manifest=manifest)
        assert not report.ok
        assert any("committed but not installed" in e
                   for e in report.errors)

    def test_installed_but_not_committed_detected(self, durable):
        from repro.index.validate import validate_segmented

        writer, manifest = durable
        dropped = manifest["segments"][0]["id"]
        manifest["segments"] = manifest["segments"][1:]
        report = validate_segmented(writer.index, check_scores=False,
                                    manifest=manifest)
        assert not report.ok
        assert any(f"segment {dropped} installed but not committed" in e
                   for e in report.errors)

    def test_metadata_mismatches_detected(self, durable):
        from repro.index.validate import validate_segmented

        writer, manifest = durable
        manifest["segments"][0]["tier"] += 1
        manifest["segments"][0]["nbytes"] += 7
        report = validate_segmented(writer.index, check_scores=False,
                                    manifest=manifest)
        assert not report.ok
        assert any("tier" in e for e in report.errors)
        assert any("nbytes" in e for e in report.errors)
