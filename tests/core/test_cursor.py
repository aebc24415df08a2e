"""Unit tests for the accounting posting-list cursor."""

import pytest

from repro.core.cursor import SKIP_ET, SKIP_OVERLAP, ListCursor
from repro.errors import SimulationError
from repro.index import IndexBuilder
from repro.index.blocks import BLOCK_METADATA_BYTES, BLOCK_SIZE
from repro.scm.traffic import AccessClass, AccessPattern, TrafficCounter
from repro.sim.metrics import WorkCounters


def _index_with_list(doc_ids, tfs=None):
    """One-term index with fully controlled docIDs."""
    builder = IndexBuilder(schemes=["BP"])
    builder.declare_documents([20] * (doc_ids[-1] + 1))
    tfs = tfs or [1] * len(doc_ids)
    builder.add_postings("w", list(zip(doc_ids, tfs)))
    return builder.build()


def _cursor(index, skip_class=SKIP_ET):
    work = WorkCounters()
    traffic = TrafficCounter()
    cursor = ListCursor(index.posting_list("w"), work, traffic,
                        skip_class=skip_class)
    return cursor, work, traffic


class TestBasics:
    def test_walks_all_postings(self):
        doc_ids = list(range(0, 600, 2))
        index = _index_with_list(doc_ids)
        cursor, work, _ = _cursor(index)
        seen = []
        while not cursor.exhausted:
            seen.append(cursor.current_doc())
            cursor.step()
        assert seen == doc_ids
        assert work.postings_decoded == len(doc_ids)

    def test_current_doc_at_block_start_needs_no_fetch(self):
        index = _index_with_list(list(range(300)))
        cursor, work, _ = _cursor(index)
        assert cursor.current_doc() == 0
        assert work.blocks_fetched == 0  # metadata carries the first docID

    def test_current_tf_forces_fetch(self):
        index = _index_with_list(list(range(300)), [3] * 300)
        cursor, work, _ = _cursor(index)
        assert cursor.current_tf() == 3
        assert work.blocks_fetched == 1

    def test_step_past_end_raises(self):
        index = _index_with_list([1, 2])
        cursor, _, _ = _cursor(index)
        cursor.step()
        cursor.step()
        assert cursor.exhausted
        with pytest.raises(SimulationError):
            cursor.step()

    def test_list_max_score_matches_index(self):
        index = _index_with_list(list(range(100)))
        cursor, _, _ = _cursor(index)
        assert cursor.list_max_score == index.posting_list("w").max_term_score


class TestAdvance:
    def test_advance_within_block(self):
        index = _index_with_list(list(range(0, 100, 5)))
        cursor, work, _ = _cursor(index)
        assert cursor.advance_to(31) == 35
        assert cursor.current_doc() == 35

    def test_advance_skips_whole_blocks(self):
        # 5 blocks of dense docIDs; jump to the last block.
        doc_ids = list(range(5 * BLOCK_SIZE))
        index = _index_with_list(doc_ids)
        cursor, work, _ = _cursor(index)
        target = 4 * BLOCK_SIZE  # first docID of block 4
        assert cursor.advance_to(target) == target
        assert work.blocks_skipped_et == 4
        # Landing exactly on a block boundary defers the payload fetch.
        assert work.blocks_fetched == 0

    def test_advance_mid_block_fetches_landing_block(self):
        doc_ids = list(range(5 * BLOCK_SIZE))
        index = _index_with_list(doc_ids)
        cursor, work, _ = _cursor(index)
        cursor.advance_to(4 * BLOCK_SIZE + 7)
        assert work.blocks_fetched == 1
        assert work.blocks_skipped_et == 4

    def test_advance_past_end_returns_none(self):
        index = _index_with_list([1, 5, 9])
        cursor, _, _ = _cursor(index)
        assert cursor.advance_to(100) is None
        assert cursor.exhausted

    def test_advance_is_monotone_noop_backwards(self):
        index = _index_with_list([10, 20, 30])
        cursor, _, _ = _cursor(index)
        cursor.advance_to(30)
        assert cursor.advance_to(5) == 30  # never moves backwards

    def test_skip_attribution_overlap(self):
        doc_ids = list(range(3 * BLOCK_SIZE))
        index = _index_with_list(doc_ids)
        cursor, work, _ = _cursor(index, skip_class=SKIP_OVERLAP)
        cursor.advance_to(2 * BLOCK_SIZE)
        assert work.blocks_skipped_overlap == 2
        assert work.blocks_skipped_et == 0


class TestShallowAdvance:
    def test_shallow_never_fetches(self):
        doc_ids = list(range(4 * BLOCK_SIZE))
        index = _index_with_list(doc_ids)
        cursor, work, _ = _cursor(index)
        cursor.shallow_advance_to(3 * BLOCK_SIZE + 50)
        assert work.blocks_fetched == 0
        assert work.blocks_skipped_et == 3

    def test_shallow_then_deep(self):
        doc_ids = list(range(4 * BLOCK_SIZE))
        index = _index_with_list(doc_ids)
        cursor, work, _ = _cursor(index)
        cursor.shallow_advance_to(2 * BLOCK_SIZE)
        assert cursor.advance_to(2 * BLOCK_SIZE + 3) == 2 * BLOCK_SIZE + 3


class TestPeek:
    def test_peek_returns_block_bound(self):
        doc_ids = list(range(2 * BLOCK_SIZE))
        tfs = [1] * BLOCK_SIZE + [30] * BLOCK_SIZE  # hot second block
        index = _index_with_list(doc_ids, tfs)
        cursor, _, _ = _cursor(index)
        first = cursor.peek_block_at(0)
        second = cursor.peek_block_at(BLOCK_SIZE)
        assert first is not None and second is not None
        assert second[0] > first[0]  # hot block has the higher bound
        assert first[1] == BLOCK_SIZE - 1

    def test_peek_does_not_move_cursor(self):
        index = _index_with_list(list(range(300)))
        cursor, _, _ = _cursor(index)
        cursor.peek_block_at(250)
        assert cursor.current_doc() == 0

    def test_peek_past_end_returns_none(self):
        index = _index_with_list([1, 2, 3])
        cursor, _, _ = _cursor(index)
        assert cursor.peek_block_at(10) is None

    def test_peek_window_widens_interval(self):
        doc_ids = list(range(4 * BLOCK_SIZE))
        index = _index_with_list(doc_ids)
        cursor, _, _ = _cursor(index)
        narrow = cursor.peek_block_at(0, window=1)
        wide = cursor.peek_block_at(0, window=3)
        assert wide[1] > narrow[1]
        assert wide[0] >= narrow[0]


class TestAccounting:
    def test_metadata_charged_once_per_block(self):
        doc_ids = list(range(3 * BLOCK_SIZE))
        index = _index_with_list(doc_ids)
        cursor, work, traffic = _cursor(index)
        cursor.advance_to(2 * BLOCK_SIZE)
        cursor.advance_to(2 * BLOCK_SIZE)  # repeat: no extra charge
        assert work.metadata_inspected == 3
        metadata_bytes = traffic.bytes_for(AccessClass.LD_LIST,
                                           AccessPattern.SEQUENTIAL)
        assert metadata_bytes == 3 * BLOCK_METADATA_BYTES

    def test_payload_traffic_matches_block_size(self):
        index = _index_with_list(list(range(100)))
        cursor, _, traffic = _cursor(index)
        cursor.current_tf()  # force one block fetch
        payload = index.posting_list("w").blocks[0].compressed_bytes
        total = traffic.bytes_for(AccessClass.LD_LIST)
        assert total == payload + BLOCK_METADATA_BYTES

    def test_unknown_skip_class_rejected(self):
        index = _index_with_list([1])
        with pytest.raises(SimulationError):
            ListCursor(index.posting_list("w"), WorkCounters(),
                       TrafficCounter(), skip_class="bogus")


class TestAdvanceToEveryPair:
    """``advance_to`` against a linear-scan model, for every (start
    position, target) pair of a multi-block list.

    The start is reached two ways — by stepping (the block under the
    cursor is decoded) and by one ``advance_to`` from a fresh cursor
    (a landing on a block's first docID leaves its payload unfetched) —
    so both entry states of the in-block seek and of the block-skip
    loop are covered.
    """

    NUM_POSTINGS = 2 * BLOCK_SIZE + 5
    DOC_IDS = [2 * i + (i % 2) for i in range(NUM_POSTINGS)]

    BLOCKS = [range(0, BLOCK_SIZE), range(BLOCK_SIZE, 2 * BLOCK_SIZE),
              range(2 * BLOCK_SIZE, NUM_POSTINGS)]

    def _model(self, start, decoded, metadata_upto, target):
        """Linear scan: (landing index or None, blocks fetched, blocks
        skipped, new metadata high-water)."""
        doc_ids, blocks = self.DOC_IDS, self.BLOCKS
        block = start // BLOCK_SIZE
        fetched = skipped = 0
        if decoded:
            for index in range(start, blocks[block][-1] + 1):
                if doc_ids[index] >= target:
                    return index, 0, 0, metadata_upto
            block += 1  # left behind, already paid for: not a skip
        while block < len(blocks):
            metadata_upto = max(metadata_upto, block)
            if doc_ids[blocks[block][-1]] >= target:
                break
            skipped += 1
            block += 1
        else:
            return None, fetched, skipped, metadata_upto
        first = blocks[block][0]
        if doc_ids[first] >= target:
            return first, fetched, skipped, metadata_upto
        for index in blocks[block]:
            if doc_ids[index] >= target:
                return index, 1, skipped, metadata_upto
        raise AssertionError("unreachable: the block's last >= target")

    def _starts(self, index):
        """Every start position, reached by stepping and by seeking."""
        stepped, work, _ = _cursor(index, SKIP_OVERLAP)
        for start in range(len(self.DOC_IDS)):
            assert stepped.current_doc() == self.DOC_IDS[start]
            stepped.current_tf()  # stepping decodes the block
            yield start, stepped, work
            sought, sought_work, _ = _cursor(index, SKIP_OVERLAP)
            assert sought.advance_to(self.DOC_IDS[start]) == \
                self.DOC_IDS[start]
            yield start, sought, sought_work
            stepped.step()

    def test_every_start_and_target(self):
        import copy

        doc_ids = self.DOC_IDS
        index = _index_with_list(doc_ids)
        assert index.posting_list("w").num_blocks == 3
        checked = 0
        for start, origin, work in self._starts(index):
            decoded = origin._decoded_doc_ids is not None
            upto = origin._metadata_read_upto
            # Backward targets all behave alike: 0 and the two docIDs
            # before the start stand for them.
            targets = sorted({0, *range(max(0, doc_ids[start] - 2),
                                        doc_ids[-1] + 3)})
            for target in targets:
                cursor = copy.copy(origin)  # shares ``work``: use deltas
                before = (work.blocks_fetched, work.blocks_skipped_overlap,
                          work.metadata_inspected)
                landed = cursor.advance_to(target)
                landing, fetched, skipped, new_upto = self._model(
                    start, decoded, upto, target)
                context = (start, decoded, target)
                if landing is None:
                    assert landed is None and cursor.exhausted, context
                else:
                    # First posting >= target, never backwards.
                    assert landed == doc_ids[landing], context
                    assert cursor.current_doc() == landed, context
                    assert landing >= start, context
                    if target <= doc_ids[start]:
                        assert landing == start, context
                    else:
                        assert doc_ids[landing - 1] < target, context
                assert (work.blocks_fetched - before[0],
                        work.blocks_skipped_overlap - before[1],
                        work.metadata_inspected - before[2]) == \
                    (fetched, skipped, new_upto - upto), context
                assert work.blocks_skipped_et == 0
                checked += 1
        assert checked > len(doc_ids) ** 2

    def test_target_equal_to_current_doc_moves_nothing(self):
        index = _index_with_list(self.DOC_IDS)
        for _start, cursor, work in self._starts(index):
            state = (cursor._block_index, cursor._position,
                     cursor._decoded_doc_ids is not None,
                     work.blocks_fetched, work.metadata_inspected)
            assert cursor.advance_to(cursor.current_doc()) == \
                cursor.current_doc()
            assert state == (cursor._block_index, cursor._position,
                             cursor._decoded_doc_ids is not None,
                             work.blocks_fetched, work.metadata_inspected)
