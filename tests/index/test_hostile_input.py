"""Hostile ``.bossx`` inputs: a table of damaged version-2 images.

Every case must raise :class:`InvertedIndexError` naming the file,
from both storage back ends — never an ``IndexError``, ``ValueError``
or ``struct.error`` from inside the reader, and never later, from a
query over a list the reader let through.
"""

from itertools import accumulate

import numpy as np
import pytest

from repro.errors import InvertedIndexError
from repro.index import STORAGE_MODES, open_index
from repro.index.binaryio import _DIRECTORY, _HEADER, RECORD, save_index_binary
from tests.conftest import build_random_index

SECTIONS = ("header", "document table", "term directory", "term names",
            "block records", "doc/tf splits", "payloads")


@pytest.fixture(scope="module")
def image(tmp_path_factory):
    path = tmp_path_factory.mktemp("hostile") / "clean.bossx"
    save_index_binary(build_random_index(num_docs=300, vocab_size=12,
                                         seed=4), path)
    return path.read_bytes()


def _ends(data: bytes):
    """Offset just past each of :data:`SECTIONS`."""
    (_magic, docs, terms, blocks, names, payload,
     *_rest) = _HEADER.unpack_from(data)
    return list(accumulate((_HEADER.size, 4 * docs,
                            _DIRECTORY.itemsize * terms, names,
                            RECORD.itemsize * blocks, 2 * blocks, payload)))


def _column(data: bytearray, section: str, dtype, name=None):
    """A writable view of one section of ``data``."""
    (_magic, docs, terms, blocks, *_rest) = _HEADER.unpack_from(data)
    at = ([0] + _ends(data))[SECTIONS.index(section)]
    count = {"document table": docs, "term directory": terms,
             "block records": blocks, "doc/tf splits": blocks}[section]
    view = np.frombuffer(data, dtype, count, at)
    return view if name is None else view[name]


def _first_greater_than_last(data):
    records = _column(data, "block records", RECORD)
    records["first"][1] = records["last"][1] + 1


def _record_offset_past_eof(data):
    _column(data, "block records", RECORD, "offset")[-1] = len(data)


def _directory_size_past_eof(data):
    _column(data, "term directory", _DIRECTORY, "size")[-1] += len(data)


def _directory_names_past_eof(data):
    _column(data, "term directory", _DIRECTORY, "name_end")[-1] += 1000


def _header_payload_past_eof(data):
    fields = list(_HEADER.unpack_from(data))
    fields[5] += 4096
    _HEADER.pack_into(data, 0, *fields)


def _split_longer_than_block(data):
    _column(data, "doc/tf splits", "<u2")[0] = 0xFFFF


def _zero_document_length(data):
    _column(data, "document table", "<u4")[7] = 0


def _version_1_magic(data):
    data[:8] = b"BOSSIDX1"


DAMAGE = {
    "first > last": _first_greater_than_last,
    "record offset past EOF": _record_offset_past_eof,
    "directory size past EOF": _directory_size_past_eof,
    "directory name offset past EOF": _directory_names_past_eof,
    "header payload count past EOF": _header_payload_past_eof,
    "doc/tf split longer than its block": _split_longer_than_block,
    "zero document length": _zero_document_length,
    "version 1 magic": _version_1_magic,
}


def _assert_refused(path, storage):
    with pytest.raises(InvertedIndexError) as raised:
        open_index(path, storage=storage)
    assert str(path) in str(raised.value)
    return str(raised.value)


@pytest.mark.parametrize("storage", STORAGE_MODES)
@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_damaged_image_is_refused(image, tmp_path, damage, storage):
    data = bytearray(image)
    DAMAGE[damage](data)
    path = tmp_path / "damaged.bossx"
    path.write_bytes(bytes(data))
    message = _assert_refused(path, storage)
    if damage == "version 1 magic":
        assert "version 1" in message


@pytest.mark.parametrize("storage", STORAGE_MODES)
@pytest.mark.parametrize("section", SECTIONS)
def test_truncation_at_every_section_boundary(image, tmp_path, section,
                                              storage):
    """Cut just before ``section`` ends: at its start (the previous
    section's end) and one byte short of its end."""
    ends = _ends(image)
    assert ends[-1] == len(image)
    end = ends[SECTIONS.index(section)]
    start = ([0] + ends)[SECTIONS.index(section)]
    for cut in sorted({start, end - 1}):
        path = tmp_path / f"cut{cut}.bossx"
        path.write_bytes(image[:cut])
        _assert_refused(path, storage)


def test_clean_image_sections_cover_the_file(image, tmp_path):
    """The table's damage lands where the section map says it does."""
    path = tmp_path / "clean.bossx"
    path.write_bytes(image)
    assert open_index(path).num_terms == 12
    assert _ends(image)[-1] == len(image)
