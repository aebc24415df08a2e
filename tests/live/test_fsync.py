"""``fsync=True`` is the power-loss flush: every WAL flush reaches the
disk, from the log's creation on and again after a recovery."""

import os

import pytest

from repro.live import DurableLiveIndexWriter, recover


@pytest.fixture()
def fsyncs(monkeypatch):
    """The file descriptors ``os.fsync`` was called on, in order."""
    calls = []
    real = os.fsync

    def counting(fd):
        calls.append(fd)
        real(fd)

    monkeypatch.setattr(os, "fsync", counting)
    return calls


def _log_three(writer):
    writer.add_document(["storage", "class", "memory"])
    writer.add_document(["memory", "bandwidth"])
    writer.delete_document(0)


def test_a_durable_writer_fsyncs_at_creation_and_on_every_append(
        tmp_path, fsyncs):
    writer = DurableLiveIndexWriter(tmp_path / "wal", buffer_docs=64,
                                    fsync=True)
    assert len(fsyncs) == 1  # the WAL header
    _log_three(writer)
    assert writer.wal.records_logged == 3
    assert len(fsyncs) == 4
    writer.close()


def test_without_fsync_nothing_is_fsynced(tmp_path, fsyncs):
    writer = DurableLiveIndexWriter(tmp_path / "wal", buffer_docs=64)
    _log_three(writer)
    writer.close()
    assert fsyncs == []


@pytest.mark.parametrize("fsync", [True, False])
def test_recover_hands_fsync_to_the_recovered_log(tmp_path, fsyncs, fsync):
    wal_dir = tmp_path / "wal"
    writer = DurableLiveIndexWriter(wal_dir, buffer_docs=64)
    _log_three(writer)
    writer.close()
    recovered, _ = recover(wal_dir, fsync=fsync)
    before = len(fsyncs)
    recovered.add_document(["near", "data", "processing"])
    assert len(fsyncs) - before == (1 if fsync else 0)
    recovered.close()
