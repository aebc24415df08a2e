"""Inverted index substrate.

Implements the paper's index organization (Section IV-A):

* posting lists of ``(docID, term frequency)`` tuples, sorted by docID;
* 128-value *blocks* with d-gap + hybrid compression per list;
* 19-byte per-block metadata: first/last uncompressed docID, maximum
  term-score in the block, compressed-block address offset, element
  count, encoded bit width, and first-exception offset;
* per-document BM25 pre-computation (4 bytes per document) so the scoring
  hardware needs only a division, a multiplication, and an addition at
  query time (Section IV-C, Scoring Module);
* a flat address-space layout that places every compressed list at a
  stable address inside the (simulated) SCM memory pool.
"""

from repro.index.bm25 import BM25Parameters, BM25Scorer
from repro.index.blocks import BLOCK_SIZE, BLOCK_METADATA_BYTES, Block, BlockMetadata
from repro.index.builder import IndexBuilder
from repro.index.index import CompressedPostingList, DocumentStats, InvertedIndex
from repro.index.mmapio import (
    STORAGE_MODES,
    MmapIndexStorage,
    load_index_mmap,
    open_index,
)
from repro.index.postings import Posting, PostingList
from repro.index.storage import AddressSpaceLayout, Region

__all__ = [
    "BM25Parameters",
    "BM25Scorer",
    "BLOCK_SIZE",
    "BLOCK_METADATA_BYTES",
    "Block",
    "BlockMetadata",
    "IndexBuilder",
    "CompressedPostingList",
    "DocumentStats",
    "InvertedIndex",
    "MmapIndexStorage",
    "STORAGE_MODES",
    "load_index_mmap",
    "open_index",
    "Posting",
    "PostingList",
    "AddressSpaceLayout",
    "Region",
]
