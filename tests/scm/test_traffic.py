"""Unit tests for the traffic counter."""

import pytest

from repro.scm.traffic import AccessClass, AccessPattern, TrafficCounter

SEQ = AccessPattern.SEQUENTIAL
RND = AccessPattern.RANDOM


class TestRecording:
    def test_bytes_by_class_and_pattern(self):
        counter = TrafficCounter()
        counter.record(AccessClass.LD_LIST, SEQ, 100)
        counter.record(AccessClass.LD_LIST, RND, 50)
        counter.record(AccessClass.LD_SCORE, RND, 8)
        assert counter.bytes_for(AccessClass.LD_LIST) == 150
        assert counter.bytes_for(AccessClass.LD_LIST, SEQ) == 100
        assert counter.bytes_for(pattern=RND) == 58
        assert counter.total_bytes == 158

    def test_read_write_split(self):
        counter = TrafficCounter()
        counter.record(AccessClass.LD_LIST, SEQ, 100)
        counter.record(AccessClass.ST_INTER, SEQ, 30)
        counter.record(AccessClass.ST_RESULT, SEQ, 20)
        counter.record(AccessClass.LD_INTER, SEQ, 10)
        assert counter.read_bytes == 110
        assert counter.write_bytes == 50

    def test_read_bytes_by_pattern_excludes_writes(self):
        counter = TrafficCounter()
        counter.record(AccessClass.LD_LIST, RND, 64)
        counter.record(AccessClass.ST_RESULT, SEQ, 64)
        assert counter.read_bytes_by_pattern(RND) == 64
        assert counter.read_bytes_by_pattern(SEQ) == 0

    def test_access_counts(self):
        counter = TrafficCounter()
        counter.record(AccessClass.LD_LIST, SEQ, 100, accesses=4)
        counter.record(AccessClass.LD_LIST, RND, 100)
        assert counter.accesses_for(AccessClass.LD_LIST) == 5
        
    def test_negative_rejected(self):
        counter = TrafficCounter()
        with pytest.raises(ValueError):
            counter.record(AccessClass.LD_LIST, SEQ, -1)

    def test_by_class(self):
        counter = TrafficCounter()
        counter.record(AccessClass.LD_LIST, SEQ, 10)
        counter.record(AccessClass.LD_LIST, RND, 5)
        assert counter.by_class() == {AccessClass.LD_LIST: 15}

    def test_is_write_flags(self):
        assert AccessClass.ST_INTER.is_write
        assert AccessClass.ST_RESULT.is_write
        assert not AccessClass.LD_LIST.is_write
        assert not AccessClass.LD_SCORE.is_write
        assert not AccessClass.LD_INTER.is_write


class TestMerge:
    def test_merge_accumulates(self):
        a, b = TrafficCounter(), TrafficCounter()
        a.record(AccessClass.LD_LIST, SEQ, 10)
        b.record(AccessClass.LD_LIST, SEQ, 20)
        b.record(AccessClass.ST_RESULT, SEQ, 5)
        a.merge(b)
        assert a.bytes_for(AccessClass.LD_LIST) == 30
        assert a.write_bytes == 5

    def test_copy_is_independent(self):
        a = TrafficCounter()
        a.record(AccessClass.LD_LIST, SEQ, 10)
        b = a.copy()
        b.record(AccessClass.LD_LIST, SEQ, 10)
        assert a.total_bytes == 10
        assert b.total_bytes == 20

    def test_empty_counter(self):
        counter = TrafficCounter()
        assert counter.total_bytes == 0
        assert counter.by_class() == {}


class TestIdentityHash:
    """Members hash by identity (C speed); they are singletons, so
    nothing observable changes."""

    def test_hash_is_the_object_hash(self):
        for member in list(AccessClass) + list(AccessPattern):
            assert hash(member) == object.__hash__(member)

    def test_value_lookup_returns_the_singleton(self):
        assert AccessClass("LD List") is AccessClass.LD_LIST
        assert AccessPattern("random") is AccessPattern.RANDOM

    def test_pickle_round_trips_to_the_same_object(self):
        import pickle

        for member in list(AccessClass) + list(AccessPattern):
            assert pickle.loads(pickle.dumps(member)) is member
        counter = TrafficCounter()
        counter.record(AccessClass.LD_LIST, SEQ, 10)
        clone = pickle.loads(pickle.dumps(counter))
        assert clone.bytes_for(AccessClass.LD_LIST, SEQ) == 10

    def test_totals_do_not_depend_on_record_order(self):
        records = [
            (AccessClass.LD_LIST, SEQ, 19, 1),
            (AccessClass.LD_LIST, RND, 64, 1),
            (AccessClass.LD_SCORE, RND, 8, 3),
            (AccessClass.ST_RESULT, SEQ, 80, 1),
            (AccessClass.ST_INDEX, SEQ, 4096, 2),
            (AccessClass.LD_LIST, SEQ, 38, 2),
        ]
        forward, backward = TrafficCounter(), TrafficCounter()
        for cls, pattern, size, accesses in records:
            forward.record(cls, pattern, size, accesses=accesses)
        for cls, pattern, size, accesses in reversed(records):
            backward.record(cls, pattern, size, accesses=accesses)
        assert forward.total_bytes == backward.total_bytes
        assert forward.read_bytes == backward.read_bytes
        assert forward.write_bytes == backward.write_bytes
        assert forward.by_class() == backward.by_class()
        assert ([forward.accesses_for(cls) for cls in AccessClass]
                == [backward.accesses_for(cls) for cls in AccessClass])
        for cls in AccessClass:
            for pattern in AccessPattern:
                assert forward.bytes_for(cls, pattern) == \
                    backward.bytes_for(cls, pattern)
                assert forward.accesses_for(cls, pattern) == \
                    backward.accesses_for(cls, pattern)
