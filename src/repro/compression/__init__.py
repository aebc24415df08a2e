"""Integer compression codecs for inverted-index posting lists.

The paper (Section II-B, Section VI) evaluates five block-oriented integer
compression schemes over docID deltas (d-gaps):

* Bit-Packing (``BP``) — fixed per-block bit width
* VariableByte (``VB``) — 7-bit payload groups with a continuation flag
* PForDelta (``PFD``) — patched frame-of-reference, 90% coverage rule
* OptPForDelta (``OptPFD``) — PFD with a size-optimal bit width per block
* Simple16 (``S16``) — 28-bit payloads with a 4-bit mode selector
* Simple8b (``S8b``) — 60-bit payloads with a 4-bit mode selector

plus a *hybrid* strategy that picks the best scheme per posting list
(Figure 3). All codecs share the :class:`~repro.compression.base.Codec`
interface: they encode a sequence of non-negative integers into ``bytes``
and decode them back exactly.

Delta (d-gap) transformation is a separate, orthogonal concern handled by
:mod:`repro.compression.delta` so that codecs stay pure integer-sequence
coders, mirroring the paper's stage-4 "delta" step of the decompression
module.
"""

from repro.compression.base import Codec, CodecRegistry, get_codec, list_codecs
from repro.compression.bitpacking import BitPackingCodec
from repro.compression.delta import (
    deltas_from_doc_ids,
    doc_ids_from_deltas,
)
from repro.compression.groupvarint import GroupVarintCodec
from repro.compression.hybrid import HybridSelector
from repro.compression.pfordelta import OptPFDCodec, PFDCodec
from repro.compression.simple8b import Simple8bCodec
from repro.compression.simple16 import Simple16Codec
from repro.compression.varbyte import VarByteCodec

__all__ = [
    "Codec",
    "CodecRegistry",
    "get_codec",
    "list_codecs",
    "BitPackingCodec",
    "VarByteCodec",
    "PFDCodec",
    "OptPFDCodec",
    "Simple16Codec",
    "Simple8bCodec",
    "GroupVarintCodec",
    "HybridSelector",
    "deltas_from_doc_ids",
    "doc_ids_from_deltas",
]
